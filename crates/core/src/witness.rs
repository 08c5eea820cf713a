//! Concrete witness trace generation (paper Lemma 4 and Figure 5).
//!
//! Given a non-trivial abstract cycle, materialise a concrete interleaved
//! schedule demonstrating the anomaly: execute the seed API instance up to
//! and including o₁, then every intermediate instance in cycle order in
//! full, then the remainder of the seed instance. The seed pair is marked
//! with asterisks, as in Figure 5.

use std::fmt;

pub use acidrain_sql::statement_fingerprint;

use crate::detect::CycleWitness;
use crate::history::AbstractHistory;

/// One line of a witness schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Instance label (`a1` is the seed instance, `a2`… the intermediates).
    pub instance: String,
    /// API endpoint the instance invokes.
    pub api: String,
    /// Whether this line is one of the seed pair operations.
    pub seed_marker: bool,
    /// Rendered statement (or transaction boundary).
    pub sql: String,
}

/// A concrete non-serializable schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WitnessTrace {
    pub steps: Vec<WitnessStep>,
}

impl WitnessTrace {
    /// Build the Lemma-4 schedule for `witness` over `history`.
    pub fn build(history: &AbstractHistory, witness: &CycleWitness) -> WitnessTrace {
        let seed_api = history.locs[witness.o1].api;
        let seed_name = &history.trace.api_calls[seed_api].name;
        let mut steps = Vec::new();

        // Seed prefix: ops up to and including o1 (with txn boundaries).
        let o1_pos = history.locs[witness.o1].position;
        let o2_pos = history.locs[witness.o2].position;
        emit_instance(
            history,
            seed_api,
            "a1",
            seed_name,
            Some((0, o1_pos)),
            &[o1_pos, o2_pos],
            &mut steps,
        );

        // Intermediate instances, in cycle order, in full.
        for (i, hop) in witness.hops.iter().enumerate() {
            let api = history.locs[hop.entered_at].api;
            let name = &history.trace.api_calls[api].name;
            let label = format!("a{}", i + 2);
            emit_instance(history, api, &label, name, None, &[], &mut steps);
        }

        // Seed remainder: everything after o1.
        let last = history.trace.api_calls[seed_api]
            .op_count()
            .saturating_sub(1);
        emit_instance(
            history,
            seed_api,
            "a1",
            seed_name,
            Some((o1_pos + 1, last)),
            &[o1_pos, o2_pos],
            &mut steps,
        );

        WitnessTrace { steps }
    }
}

/// Emit the statements of one API instance. `range` restricts to positions
/// `lo..=hi` (None = all); transaction boundaries are rendered for explicit
/// transactions whose operations intersect the range.
fn emit_instance(
    history: &AbstractHistory,
    api: usize,
    label: &str,
    name: &str,
    range: Option<(usize, usize)>,
    seed_positions: &[usize],
    steps: &mut Vec<WitnessStep>,
) {
    let call = &history.trace.api_calls[api];
    let (lo, hi) = range.unwrap_or((0, call.op_count().saturating_sub(1)));
    if lo > hi {
        return;
    }
    let mut position = 0usize;
    for txn in &call.txns {
        let first = position;
        let last = position + txn.ops.len() - 1;
        let intersects = first <= hi && last >= lo;
        if intersects && txn.explicit && first >= lo {
            steps.push(step(label, name, false, "BEGIN TRANSACTION"));
        }
        for (i, op) in txn.ops.iter().enumerate() {
            let pos = first + i;
            if pos >= lo && pos <= hi {
                let marker = seed_positions.contains(&pos) && range.is_some();
                steps.push(step(label, name, marker, &op.sql));
            }
        }
        if intersects && txn.explicit && last <= hi {
            steps.push(step(label, name, false, "COMMIT"));
        }
        position += txn.ops.len();
    }
}

fn step(label: &str, api: &str, seed_marker: bool, sql: &str) -> WitnessStep {
    WitnessStep {
        instance: label.to_string(),
        api: api.to_string(),
        seed_marker,
        sql: sql.to_string(),
    }
}

impl fmt::Display for WitnessTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "{:>3} {}{}: {}",
                i + 1,
                s.instance,
                if s.seed_marker { "*" } else { " " },
                s.sql
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{Detector, Finding};
    use crate::refine::RefinementConfig;
    use crate::trace::ops::*;
    use crate::trace::{Trace, TraceBuilder};

    fn payroll_trace() -> Trace {
        let mut ins = write(
            "employees",
            &["first_name", "last_name", "salary", "::exists"],
        );
        ins.sql = "INSERT INTO employees ...".into();
        TraceBuilder::new()
            .api(
                "add_employee",
                vec![txn(vec![
                    read("employees", &["first_name", "last_name", "::exists"]),
                    ins,
                ])],
            )
            .api(
                "raise_salary",
                vec![
                    auto(update("employees", &["salary"])),
                    txn(vec![
                        read("employees", &["::exists"]),
                        update("salary", &["total"]),
                    ]),
                ],
            )
            .build()
    }

    fn find(trace: Trace, api: &str, o1_sql: &str, o2_sql: &str) -> (AbstractHistory, Finding) {
        let h = AbstractHistory::build(trace);
        let config = RefinementConfig::none();
        let findings = Detector::new(&h, &config).find_all();
        let f = findings
            .into_iter()
            .find(|f| {
                f.api == api && h.op(f.witness.o1).sql == o1_sql && h.op(f.witness.o2).sql == o2_sql
            })
            .expect("expected finding");
        (h, f)
    }

    use crate::history::AbstractHistory;

    /// The Figure-5 witness: seed pair (op5 = raise update, op7 = count)
    /// routing through add_employee.
    #[test]
    fn figure5_shape() {
        let (h, f) = find(
            payroll_trace(),
            "raise_salary",
            "u(employees)",
            "r(employees)",
        );
        let w = WitnessTrace::build(&h, &f.witness);
        let text = w.to_string();
        // Seed instance a1 starts with the bare update...
        assert!(w.steps[0].instance == "a1" && w.steps[0].sql == "u(employees)");
        assert!(w.steps[0].seed_marker);
        // ...then a2 (add_employee) runs in full, transaction-wrapped...
        let a2: Vec<&WitnessStep> = w.steps.iter().filter(|s| s.instance == "a2").collect();
        assert_eq!(a2.first().unwrap().sql, "BEGIN TRANSACTION");
        assert_eq!(a2.last().unwrap().sql, "COMMIT");
        assert!(a2.iter().any(|s| s.sql.contains("INSERT")));
        // ...then a1 resumes with its explicit transaction.
        let tail: Vec<&WitnessStep> = w
            .steps
            .iter()
            .skip_while(|s| s.instance != "a2")
            .skip_while(|s| s.instance == "a2")
            .collect();
        assert!(tail.iter().all(|s| s.instance == "a1"));
        assert_eq!(tail[0].sql, "BEGIN TRANSACTION");
        assert!(tail
            .iter()
            .any(|s| s.seed_marker && s.sql == "r(employees)"));
        // Two seed markers in total (the asterisked pair of Figure 5).
        assert_eq!(
            w.steps.iter().filter(|s| s.seed_marker).count(),
            2,
            "{text}"
        );
    }

    /// A same-node direct conflict renders the second instance in full
    /// between the seed's two halves.
    #[test]
    fn direct_conflict_witness() {
        let (h, f) = find(
            payroll_trace(),
            "add_employee",
            "r(employees)",
            "INSERT INTO employees ...",
        );
        let w = WitnessTrace::build(&h, &f.witness);
        let instances: Vec<&str> = w.steps.iter().map(|s| s.instance.as_str()).collect();
        // a1 prefix, a2 full, a1 suffix.
        assert!(instances.starts_with(&["a1", "a1"])); // BEGIN + read
        assert!(instances.ends_with(&["a1", "a1"])); // insert + COMMIT
        assert!(instances.contains(&"a2"));
        let a2_api: Vec<&str> = w
            .steps
            .iter()
            .filter(|s| s.instance == "a2")
            .map(|s| s.api.as_str())
            .collect();
        assert!(a2_api.iter().all(|a| *a == "add_employee"));
    }

    #[test]
    fn display_numbers_lines_and_marks_seed() {
        let (h, f) = find(
            payroll_trace(),
            "add_employee",
            "r(employees)",
            "INSERT INTO employees ...",
        );
        let text = WitnessTrace::build(&h, &f.witness).to_string();
        assert!(text.contains("a1*: r(employees)"), "{text}");
        assert!(text.lines().next().unwrap().trim_start().starts_with('1'));
    }
}
