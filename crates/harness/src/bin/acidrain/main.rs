//! `acidrain` — the reproduction's one command-line tool. Every paper
//! table and figure, the standalone 2AD analysis, the three analysis
//! sweeps (static audit, witness replay, repair adviser) and the wire
//! server are subcommands of this binary; `acidrain --help` lists each
//! with its flags.
//!
//! Exit status: 0 ok, 1 failure (unreadable input, recording error, bind
//! error), 2 usage error, 3 gate tripped (`twoad`: findings; `replay`: a
//! level-based anomaly confirmed at SERIALIZABLE; `advise`: a finding
//! without a closing fix, or a recommended fix that still confirms).

use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

use acidrain_apps::endpoints::{all_surfaces, AppSurface};
use acidrain_db::IsolationLevel;

mod analysis;
mod experiments;
mod twoad;
mod wire;

/// Whether a flag carries a value and how often it may appear.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Present or absent, no value.
    Switch,
    /// At most one value matters (the last occurrence wins).
    Value,
    /// Every occurrence's value is kept.
    Repeated,
    /// Exactly like [`Kind::Value`], but its absence is a usage error.
    Required,
}

/// One flag of one subcommand: the walker's table and the help text.
struct Flag {
    name: &'static str,
    /// Placeholder for the value in usage lines; empty for a switch.
    metavar: &'static str,
    kind: Kind,
    help: &'static str,
}

/// One subcommand.
struct Command {
    name: &'static str,
    about: &'static str,
    /// Positional arguments, as they render in the usage line.
    positionals: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args),
}

const APP: Flag = Flag {
    name: "--app",
    metavar: "NAME",
    kind: Kind::Repeated,
    help: "only the named surface (repeatable; default every surface)",
};
const LEVEL: Flag = Flag {
    name: "--level",
    metavar: "LEVEL",
    kind: Kind::Repeated,
    help: "only at LEVEL (repeatable; default all six)",
};
const JSON: Flag = Flag {
    name: "--json",
    metavar: "FILE",
    kind: Kind::Value,
    help: "also write the report as JSON to FILE (\"-\" = stdout, instead of the text report)",
};
const QUIET: Flag = Flag {
    name: "--quiet",
    metavar: "",
    kind: Kind::Switch,
    help: "suppress the text report (use with --json)",
};

const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        about: "Table 1: the application corpus, with measured trace sizes",
        positionals: &[],
        flags: &[],
        run: experiments::table1,
    },
    Command {
        name: "table2",
        about: "Table 2: anomalies observable per engine isolation level",
        positionals: &[],
        flags: &[],
        run: experiments::table2,
    },
    Command {
        name: "table4",
        about: "Table 4: abstract-history sizes, 2AD runtimes, §4.2.3 targeting",
        positionals: &[],
        flags: &[],
        run: experiments::table4,
    },
    Command {
        name: "table5",
        about: "Table 5: the 22-vulnerability matrix, checked against the paper",
        positionals: &[],
        flags: &[Flag {
            name: "--isolation",
            metavar: "LEVEL",
            kind: Kind::Value,
            help: "attack at LEVEL (default mysql-rr, the paper's deployment)",
        }],
        run: experiments::table5,
    },
    Command {
        name: "figures",
        about: "Figures 1, 3, 4, 5 and 9: the paper's worked examples",
        positionals: &[],
        flags: &[],
        run: experiments::figures,
    },
    Command {
        name: "repairs",
        about: "§4.2.7: apply the paper's fixes and re-run the attacks",
        positionals: &[],
        flags: &[],
        run: experiments::repairs,
    },
    Command {
        name: "twoad",
        about: "standalone 2AD over a schema file and a SQL log (§4.2.3)",
        positionals: &[],
        flags: twoad::FLAGS,
        run: twoad::run,
    },
    Command {
        name: "audit",
        about: "execution-free static 2AD audit of every surface at all six levels",
        positionals: &[],
        flags: &[APP, JSON, QUIET],
        run: analysis::audit,
    },
    Command {
        name: "replay",
        about: "execute every static finding: confirmed / blocked / inconclusive",
        positionals: &[],
        flags: &[APP, LEVEL, JSON, QUIET],
        run: analysis::replay,
    },
    Command {
        name: "advise",
        about: "minimal lock/isolation fix per finding, closed on re-audit and replay",
        positionals: &[],
        flags: &[APP, LEVEL, JSON, QUIET],
        run: analysis::advise,
    },
    Command {
        name: "serve",
        about: "line-protocol server over a seeded store, until killed",
        positionals: &["[ADDR]", "[LEVEL]"],
        flags: wire::SERVE_FLAGS,
        run: wire::serve,
    },
    Command {
        name: "attack",
        about: "the flexcoin over-withdrawal, raced over real sockets",
        positionals: &["flexcoin"],
        flags: &[],
        run: wire::attack,
    },
];

impl Command {
    /// `acidrain NAME` followed by every positional and flag.
    fn usage(&self) -> String {
        let mut out = format!("acidrain {}", self.name);
        for p in self.positionals {
            out.push_str(&format!(" {p}"));
        }
        for f in self.flags {
            let body = if f.kind == Kind::Switch {
                f.name.to_string()
            } else {
                format!("{} {}", f.name, f.metavar)
            };
            out.push_str(&match f.kind {
                Kind::Required => format!(" {body}"),
                Kind::Repeated => format!(" [{body}]..."),
                Kind::Switch | Kind::Value => format!(" [{body}]"),
            });
        }
        out
    }
}

fn help() -> String {
    let mut out = String::from(
        "acidrain: ACIDRain / 2AD reproduction (Warszawski & Bailis, SIGMOD 2017)\n\n\
         usage: acidrain <subcommand> [options]\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("\n{}\n    {}\n", c.usage(), c.about));
        for f in c.flags {
            let left = format!("{} {}", f.name, f.metavar);
            out.push_str(&format!("      {left:<25} {}\n", f.help));
        }
    }
    out.push_str(
        "\nLEVEL is case-insensitive: RU, RC, MRR | MYSQL-RR | default, RR, SI | snapshot,\n\
         S | SER | serializable, or a long form (read-committed, \"READ COMMITTED\").\n\
         exit status: 0 ok, 1 failure, 2 usage error, 3 gate tripped (twoad, replay, advise)\n",
    );
    out
}

/// One subcommand's parsed command line.
struct Args {
    command: &'static Command,
    flags: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// The single argument walker: every token is a flag from the
    /// command's table (followed by its value unless a switch) or, while
    /// the command still has positional slots, a positional.
    fn parse(command: &'static Command, argv: &[String]) -> Args {
        let mut args = Args {
            command,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            if let Some(flag) = command.flags.iter().find(|f| f.name == token) {
                let value = match flag.kind {
                    Kind::Switch => String::new(),
                    _ => match it.next() {
                        Some(v) => v.clone(),
                        None => {
                            args.usage_error(format!("{token} requires {}", flag.metavar));
                        }
                    },
                };
                args.flags.push((flag.name, value));
            } else if !token.starts_with("--") && args.positionals.len() < command.positionals.len()
            {
                args.positionals.push(token.clone());
            } else {
                args.usage_error(format!("unexpected argument {token:?}"));
            }
        }
        for flag in command.flags.iter().filter(|f| f.kind == Kind::Required) {
            if args.value(flag.name).is_none() {
                args.usage_error(format!("{} {} is required", flag.name, flag.metavar));
            }
        }
        args
    }

    /// Report a malformed command line: message, usage line, exit 2.
    fn usage_error(&self, message: impl Display) -> ! {
        eprintln!("acidrain {}: {message}", self.command.name);
        eprintln!("usage: {}", self.command.usage());
        exit(2);
    }

    /// Report a run-time failure and exit 1.
    fn fail(&self, message: impl Display) -> ! {
        eprintln!("acidrain {}: {message}", self.command.name);
        exit(1);
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn values(&self, name: &'static str) -> impl Iterator<Item = &str> {
        self.flags
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn value(&self, name: &'static str) -> Option<&str> {
        self.values(name).last()
    }

    /// The flag's value parsed as a number; malformed is a usage error.
    fn number<T: FromStr>(&self, name: &'static str) -> Option<T> {
        self.value(name).map(|text| {
            text.parse()
                .unwrap_or_else(|_| self.usage_error(format!("{name}: {text:?} is not a number")))
        })
    }

    /// An isolation level in any spelling `IsolationLevel::parse` accepts.
    fn level(&self, text: &str) -> IsolationLevel {
        IsolationLevel::parse(text)
            .unwrap_or_else(|| self.usage_error(format!("unknown isolation level {text:?}")))
    }

    /// Every distinct `--level` given, in first-given order, or all six.
    fn levels(&self) -> Vec<IsolationLevel> {
        let mut levels: Vec<IsolationLevel> = Vec::new();
        for level in self.values("--level").map(|l| self.level(l)) {
            if !levels.contains(&level) {
                levels.push(level);
            }
        }
        if levels.is_empty() {
            IsolationLevel::ALL.to_vec()
        } else {
            levels
        }
    }

    /// The registry's surfaces, narrowed to the `--app` names if any; an
    /// `--app` that names no surface is a usage error.
    fn surfaces(&self) -> Vec<AppSurface> {
        let apps: Vec<&str> = self.values("--app").collect();
        let mut surfaces = all_surfaces();
        let unknown: Vec<&str> = apps
            .iter()
            .copied()
            .filter(|app| !surfaces.iter().any(|s| s.app == *app))
            .collect();
        if !unknown.is_empty() {
            self.usage_error(format!("no surface matches {unknown:?}"));
        }
        if !apps.is_empty() {
            surfaces.retain(|s| apps.contains(&s.app.as_str()));
        }
        surfaces
    }

    /// Whether the text report goes to stdout: not under `--quiet`, and
    /// not when `--json -` has stdout for the JSON document alone.
    fn text_report(&self) -> bool {
        !self.has("--quiet") && self.value("--json") != Some("-")
    }

    /// Honour `--json FILE|-`; the report is only rendered when asked for.
    fn write_json(&self, render: impl FnOnce() -> String) {
        match self.value("--json") {
            None => {}
            Some("-") => print!("{}", render()),
            Some(path) => {
                if let Err(e) = std::fs::write(path, render()) {
                    self.fail(format!("writing {path}: {e}"));
                }
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => print!("{}", help()),
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => (command.run)(&Args::parse(command, &argv[1..])),
            None => {
                eprintln!("acidrain: unknown subcommand {name:?}; see acidrain --help");
                exit(2);
            }
        },
        None => {
            eprint!("{}", help());
            exit(2);
        }
    }
}
