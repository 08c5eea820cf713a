//! End-to-end tests of the `acidrain` command-line tool: the standalone
//! `twoad` analysis (schema file + log file in, findings and witness
//! schedules out), and the argument handling every subcommand shares.

use std::io::Write;
use std::process::Command;

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twoad-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const SCHEMA: &str = "
CREATE TABLE vouchers (
  id INT PRIMARY KEY AUTO_INCREMENT,
  usage_limit INT,
  used INT DEFAULT 0
);
CREATE TABLE voucher_applications (
  id INT PRIMARY KEY AUTO_INCREMENT,
  voucher_id INT,
  order_id INT
);
";

const LOG: &str = "
# an Oscar-style voucher redemption inside one transaction
[s1 checkout#0] SET autocommit=0
[s1 checkout#0] SELECT (1) AS a FROM voucher_applications WHERE voucher_applications.voucher_id = 6 LIMIT 1
[s1 checkout#0] INSERT INTO voucher_applications (voucher_id, order_id) VALUES (6, 23)
[s1 checkout#0] COMMIT
";

fn run_acidrain(args: &[&str]) -> (String, String, i32) {
    let output = Command::new(env!("CARGO_BIN_EXE_acidrain"))
        .args(args)
        .output()
        .expect("acidrain runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().unwrap_or(-1),
    )
}

fn run_twoad(args: &[&str]) -> (String, String, i32) {
    run_acidrain(&[&["twoad"], args].concat())
}

#[test]
fn finds_the_figure6_phantom_from_files() {
    let schema = write_temp("voucher.sql", SCHEMA);
    let log = write_temp("voucher.log", LOG);
    let (stdout, stderr, code) = run_twoad(&[
        "--schema",
        schema.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
        "--isolation",
        "si",
        "--witnesses",
        "1",
    ]);
    assert_eq!(code, 3, "findings exit code; stderr: {stderr}");
    assert!(stdout.contains("potential anomalies"), "{stdout}");
    assert!(stdout.contains("[level phantom]"), "{stdout}");
    assert!(stdout.contains("a1*"), "witness schedule printed: {stdout}");
    assert!(stdout.contains("a2"), "{stdout}");
}

#[test]
fn serializable_refinement_clears_it() {
    let schema = write_temp("voucher2.sql", SCHEMA);
    let log = write_temp("voucher2.log", LOG);
    let (stdout, _, code) = run_twoad(&[
        "--schema",
        schema.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
        "--isolation",
        "s",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("no potential anomalies"), "{stdout}");
}

#[test]
fn targeting_restricts_output() {
    let schema = write_temp("voucher3.sql", SCHEMA);
    let log = write_temp("voucher3.log", LOG);
    let (stdout, _, code) = run_twoad(&[
        "--schema",
        schema.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
        "--target",
        "vouchers.used",
    ]);
    // Nothing in the trace touches vouchers.used.
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn bad_input_errors_cleanly() {
    let schema = write_temp("bad.sql", "SELECT 1");
    let log = write_temp("ok.log", LOG);
    let (_, stderr, code) = run_twoad(&[
        "--schema",
        schema.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("schema error"), "{stderr}");
}

#[test]
fn usage_errors_exit_2_with_a_usage_line() {
    for args in [
        &["nonesuch"][..],
        &["audit", "--app", "nonesuch"],
        // `audit` always covers all six levels; it has no --level.
        &["audit", "--level", "RC"],
        &["replay", "--level", "bogus"],
        &["twoad", "--schema", "only.sql"],
        &["serve", "127.0.0.1:0", "NOPE"],
        &["serve", "--max-sessions", "many"],
        &["attack"],
    ] {
        let (stdout, stderr, code) = run_acidrain(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains("acidrain"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_lists_every_subcommand() {
    let (stdout, _, code) = run_acidrain(&["--help"]);
    assert_eq!(code, 0);
    for name in [
        "table1", "table2", "table4", "table5", "figures", "repairs", "twoad", "audit", "replay",
        "advise", "serve", "attack",
    ] {
        assert!(stdout.contains(&format!("\nacidrain {name}")), "{name}");
    }
}

#[test]
fn every_spelling_of_a_level_gives_the_same_bytes() {
    let replay = |level: &str| {
        let (stdout, stderr, code) = run_acidrain(&[
            "replay",
            "--app",
            "bank-figure1a",
            "--level",
            level,
            "--json",
            "-",
            "--quiet",
        ]);
        assert_eq!(code, 0, "{level}: {stderr}");
        stdout
    };
    let reference = replay("SER");
    assert!(reference.contains("\"kind\": \"witness_replay\""));
    assert!(reference.contains("\"level\": \"SERIALIZABLE\""));
    for level in ["s", "serializable"] {
        assert_eq!(replay(level), reference, "{level}");
    }
}

#[test]
fn a_repeated_level_runs_once() {
    let replay = |levels: &[&str]| {
        let mut args = vec!["replay", "--app", "bank-figure1a"];
        for level in levels {
            args.extend(["--level", level]);
        }
        args.extend(["--json", "-", "--quiet"]);
        let (stdout, stderr, code) = run_acidrain(&args);
        assert_eq!(code, 0, "{levels:?}: {stderr}");
        stdout
    };
    let once = replay(&["RC"]);
    assert_eq!(once.matches("\"level\": \"READ COMMITTED\"").count(), 1);
    assert_eq!(replay(&["RC", "rc"]), once);
    assert_eq!(
        replay(&["RC", "SER", "read-committed"]),
        replay(&["RC", "SER"])
    );
}

#[test]
fn every_unknown_app_is_a_usage_error() {
    let (stdout, stderr, code) = run_acidrain(&[
        "replay",
        "--app",
        "bank-figure1a",
        "--app",
        "bank-figure1aa",
        "--level",
        "RC",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("no surface matches [\"bank-figure1aa\"]"),
        "{stderr}"
    );
}

#[test]
fn json_to_stdout_is_the_json_document_alone() {
    // `--json -` without `--quiet`: stdout carries exactly the bytes
    // `--json FILE` writes, with no text report or timing footer after it.
    let dir = std::env::temp_dir().join(format!("acidrain-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for command in ["audit", "replay", "advise"] {
        let file = dir.join(format!("{command}.json"));
        let (_, stderr, code) = run_acidrain(&[
            command,
            "--app",
            "bank-figure1a",
            "--json",
            file.to_str().unwrap(),
            "--quiet",
        ]);
        assert_eq!(code, 0, "{command}: {stderr}");
        let (stdout, stderr, code) =
            run_acidrain(&[command, "--app", "bank-figure1a", "--json", "-"]);
        assert_eq!(code, 0, "{command}: {stderr}");
        assert_eq!(stdout, std::fs::read_to_string(&file).unwrap(), "{command}");
    }
}

/// `serve`'s admission flags reach the server: with one session slot and
/// no queue, the first socket is greeted and the second refused.
#[test]
fn serve_flags_set_the_admission_ceiling() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::process::{Child, Stdio};

    /// Kills the server however the test ends.
    struct Killed(Child);
    impl Drop for Killed {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut server = Killed(
        Command::new(env!("CARGO_BIN_EXE_acidrain"))
            .args("serve 127.0.0.1:0 --max-sessions 1 --queue 0".split(' '))
            .stdout(Stdio::piped())
            .spawn()
            .expect("acidrain serve starts"),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .nth(4)
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let first_line = |stream: &TcpStream| {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line
    };
    let first = TcpStream::connect(addr).unwrap();
    let greeting = first_line(&first);
    assert!(greeting.starts_with("OK acidrain "), "{greeting:?}");
    let second = TcpStream::connect(addr).unwrap();
    let refusal = first_line(&second);
    assert!(refusal.starts_with("ERR SERVER_BUSY "), "{refusal:?}");
    drop((first, second, server));
}
