//! Lifting SQL logs into traces (paper §3.1.1–§3.1.2).
//!
//! Log entries are grouped by their API-call tag, split into transactions
//! at `BEGIN`/`COMMIT`/autocommit boundaries, and each data statement is
//! reduced to its per-table read/write footprint. API calls with identical
//! access patterns collapse into single API nodes.

use std::sync::Arc;

use acidrain_db::{LogEntry, StmtOutcome};
use acidrain_sql::ast::Statement;
use acidrain_sql::rwset::statement_accesses;
use acidrain_sql::schema::Schema;
use acidrain_sql::{ParseError, ParseMemo};

use crate::trace::{ApiCall, Op, OpKind, Trace, Txn};

/// Parse a textual query-log file into entries.
///
/// Format, one statement per line (`#` comments and blank lines ignored):
///
/// ```text
/// [s1 checkout#0] SELECT used FROM vouchers WHERE id = 1
/// [checkout#0] UPDATE vouchers SET used = 1 WHERE id = 1
/// [s1 checkout#0 !aborted] UPDATE vouchers SET used = 2 WHERE id = 1
/// [s2] COMMIT
/// SELECT 1
/// ```
///
/// The bracket prefix carries the session (`sN`, default 0), the API tag
/// (`name#invocation`), and an optional outcome marker (`!failed` for a
/// statement-level failure, `!aborted` for a statement that rolled its
/// whole transaction back); all are optional.
pub fn parse_log_file(text: &str) -> Vec<LogEntry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (prefix, sql) = match line.strip_prefix('[') {
            Some(rest) => match rest.split_once(']') {
                Some((prefix, sql)) => (Some(prefix.trim()), sql.trim()),
                None => (None, line),
            },
            None => (None, line),
        };
        let mut session = 0u64;
        let mut api = None;
        let mut outcome = StmtOutcome::Ok;
        if let Some(prefix) = prefix {
            for token in prefix.split_whitespace() {
                if let Some(num) = token.strip_prefix('s') {
                    if let Ok(n) = num.parse() {
                        session = n;
                        continue;
                    }
                }
                if let Some(marker) = token.strip_prefix('!') {
                    outcome = match marker {
                        "aborted" => StmtOutcome::Aborted,
                        _ => StmtOutcome::Failed,
                    };
                    continue;
                }
                let (name, invocation) = match token.split_once('#') {
                    Some((name, inv)) => (name, inv.parse().unwrap_or(0)),
                    None => (token, 0),
                };
                api = Some(Arc::new(acidrain_db::ApiTag {
                    name: name.to_string(),
                    invocation,
                }));
            }
        }
        entries.push(LogEntry {
            seq: entries.len() as u64,
            session,
            api,
            sql: sql.into(),
            outcome,
        });
    }
    entries
}

/// An error encountered while lifting a log.
#[derive(Debug, Clone, PartialEq)]
pub enum LiftError {
    /// A log line failed to parse.
    Parse {
        seq: u64,
        sql: String,
        error: ParseError,
    },
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiftError::Parse { seq, sql, error } => {
                write!(f, "log line {seq} ({sql:?}): {error}")
            }
        }
    }
}

impl std::error::Error for LiftError {}

/// Lift a query log into a (collapsed) trace.
///
/// Entries without an API tag are grouped per session under the synthetic
/// endpoint name `session-<id>`, so ad-hoc logs remain analyzable.
pub fn lift_trace(log: &[LogEntry], schema: &Schema) -> Result<Trace, LiftError> {
    lift_trace_with(log, schema, &ParseMemo::new())
}

/// [`lift_trace`], parsing each statement text through `memo`: a text the
/// memo already holds is not parsed again, and a text it does not hold is
/// parsed once and kept for the memo's next reader.
pub fn lift_trace_with(
    log: &[LogEntry],
    schema: &Schema,
    memo: &ParseMemo,
) -> Result<Trace, LiftError> {
    // Group entries by API invocation, preserving first-seen order.
    let mut groups: Vec<(String, Vec<&LogEntry>)> = Vec::new();
    for entry in log {
        let key = match &entry.api {
            Some(tag) => format!("{}#{}", tag.name, tag.invocation),
            None => format!("session-{}#{}", entry.session, entry.session),
        };
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(entry),
            None => groups.push((key, vec![entry])),
        }
    }

    let mut calls = Vec::new();
    for (_, entries) in groups {
        let name = match &entries[0].api {
            Some(tag) => tag.name.clone(),
            None => format!("session-{}", entries[0].session),
        };
        calls.push(lift_invocation(&name, &entries, schema, memo)?);
    }
    Ok(Trace::collapse(calls))
}

/// Lift one API invocation's log lines into an [`ApiCall`].
fn lift_invocation(
    name: &str,
    entries: &[&LogEntry],
    schema: &Schema,
    memo: &ParseMemo,
) -> Result<ApiCall, LiftError> {
    let mut txns: Vec<Txn> = Vec::new();
    // The explicit transaction currently being accumulated, if any.
    let mut open: Option<Txn> = None;
    // Whether the session is in `SET autocommit=0` mode (an abort then
    // implicitly opens a fresh transaction for subsequent statements).
    let mut autocommit_off = false;

    for entry in entries {
        // Failed attempts contribute no operations — their effects never
        // existed. An aborted statement additionally rolled the whole
        // transaction back, so everything accumulated so far in the open
        // transaction is discarded (the ACIDRain log under fault
        // injection records these attempts; counting them as committed
        // would fabricate anomalies that never materialized).
        match entry.outcome {
            StmtOutcome::Aborted => {
                open = autocommit_off.then(|| Txn {
                    explicit: true,
                    ops: Vec::new(),
                });
                continue;
            }
            StmtOutcome::Failed => continue,
            StmtOutcome::Ok => {}
        }
        let stmt = memo.parse(&entry.sql).map_err(|error| LiftError::Parse {
            seq: entry.seq,
            sql: entry.sql.to_string(),
            error,
        })?;
        match &*stmt {
            Statement::Begin => {
                if let Some(t) = open.take() {
                    push_nonempty(&mut txns, t);
                }
                open = Some(Txn {
                    explicit: true,
                    ops: Vec::new(),
                });
            }
            Statement::Commit | Statement::Rollback => {
                if let Some(t) = open.take() {
                    push_nonempty(&mut txns, t);
                }
            }
            Statement::SetAutocommit(false) => {
                autocommit_off = true;
                if open.is_none() {
                    open = Some(Txn {
                        explicit: true,
                        ops: Vec::new(),
                    });
                }
            }
            Statement::SetAutocommit(true) => {
                autocommit_off = false;
                if let Some(t) = open.take() {
                    push_nonempty(&mut txns, t);
                }
            }
            data_stmt => {
                let ops = statement_ops(data_stmt, &entry.sql, entry.seq, schema);
                match &mut open {
                    Some(t) => t.ops.extend(ops),
                    None => {
                        if !ops.is_empty() {
                            txns.push(Txn {
                                explicit: false,
                                ops,
                            });
                        }
                    }
                }
            }
        }
    }
    if let Some(t) = open.take() {
        // Unterminated transaction at end of trace: keep what we saw.
        push_nonempty(&mut txns, t);
    }
    Ok(ApiCall {
        name: name.to_string(),
        invocations: 1,
        txns,
    })
}

fn push_nonempty(txns: &mut Vec<Txn>, t: Txn) {
    if !t.ops.is_empty() {
        txns.push(t);
    }
}

/// Reduce a data statement to its operations (one per table accessed).
fn statement_ops(stmt: &Statement, sql: &str, seq: u64, schema: &Schema) -> Vec<Op> {
    statement_accesses(stmt, schema)
        .into_iter()
        .map(|a| Op {
            kind: if a.is_write() {
                OpKind::Write
            } else {
                OpKind::Read
            },
            table: a.table,
            read_columns: a.read_columns,
            write_columns: a.write_columns,
            access: a.access,
            for_update: a.for_update,
            sql: sql.to_string(),
            log_seq: Some(seq),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::ApiTag;
    use acidrain_sql::schema::{ColumnDef, ColumnType, TableSchema};

    fn entry(seq: u64, session: u64, api: Option<(&str, u64)>, sql: &str) -> LogEntry {
        entry_with(seq, session, api, sql, StmtOutcome::Ok)
    }

    fn entry_with(
        seq: u64,
        session: u64,
        api: Option<(&str, u64)>,
        sql: &str,
        outcome: StmtOutcome,
    ) -> LogEntry {
        LogEntry {
            seq,
            session,
            api: api.map(|(name, invocation)| {
                Arc::new(ApiTag {
                    name: name.into(),
                    invocation,
                })
            }),
            sql: sql.into(),
            outcome,
        }
    }

    fn payroll_schema() -> Schema {
        Schema::new()
            .with_table(TableSchema::new(
                "employees",
                vec![
                    ColumnDef::new("first_name", ColumnType::Str),
                    ColumnDef::new("last_name", ColumnType::Str),
                    ColumnDef::new("salary", ColumnType::Int),
                ],
            ))
            .with_table(TableSchema::new(
                "salary",
                vec![ColumnDef::new("total", ColumnType::Int)],
            ))
    }

    /// The paper's Figure 3b log, tagged per Figure 4's API grouping.
    fn figure3_log() -> Vec<LogEntry> {
        let a = Some(("add_employee", 0));
        let r = Some(("raise_salary", 0));
        vec![
            entry(0, 1, a, "BEGIN TRANSACTION"),
            entry(
                1,
                1,
                a,
                "SELECT COUNT(*) FROM employees WHERE first_name='John' AND last_name='Doe'",
            ),
            entry(
                2,
                1,
                a,
                "INSERT INTO employees (first_name, last_name, salary) VALUES ('John', 'Doe', 50000)",
            ),
            entry(3, 1, a, "COMMIT"),
            entry(4, 1, r, "UPDATE employees SET salary=salary+1000"),
            entry(5, 1, r, "BEGIN TRANSACTION"),
            entry(6, 1, r, "SELECT COUNT(*) FROM employees"),
            entry(7, 1, r, "UPDATE salary SET total=total+3000"),
            entry(8, 1, r, "COMMIT"),
        ]
    }

    #[test]
    fn lifts_figure3_into_two_api_calls() {
        let trace = lift_trace(&figure3_log(), &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls.len(), 2);

        let add = &trace.api_calls[0];
        assert_eq!(add.name, "add_employee");
        assert_eq!(add.txns.len(), 1);
        assert!(add.txns[0].explicit);
        assert_eq!(add.txns[0].ops.len(), 2);
        assert_eq!(add.txns[0].ops[0].kind, OpKind::Read);
        assert_eq!(add.txns[0].ops[1].kind, OpKind::Write);

        let raise = &trace.api_calls[1];
        assert_eq!(raise.name, "raise_salary");
        // The bare UPDATE is its own implicit transaction; the BEGIN/COMMIT
        // pair wraps the remaining two operations (Figure 4's structure).
        assert_eq!(raise.txns.len(), 2);
        assert!(!raise.txns[0].explicit);
        assert_eq!(raise.txns[0].ops.len(), 1);
        assert!(raise.txns[1].explicit);
        assert_eq!(raise.txns[1].ops.len(), 2);
    }

    #[test]
    fn explicit_txn_count_for_figure3() {
        let trace = lift_trace(&figure3_log(), &payroll_schema()).unwrap();
        // add_employee's txn (2 ops) and raise_salary's second txn (2 ops).
        assert_eq!(trace.explicit_txn_count(), 2);
        assert_eq!(trace.op_count(), 5);
    }

    #[test]
    fn set_autocommit_zero_opens_transaction() {
        // The Oscar pattern from Figure 6.
        let o = Some(("checkout", 0));
        let log = vec![
            entry(0, 1, o, "set autocommit=0"),
            entry(
                1,
                1,
                o,
                "SELECT (1) AS a FROM voucher_apps WHERE voucher_id = 6 LIMIT 1",
            ),
            entry(2, 1, o, "INSERT INTO voucher_apps (voucher_id) VALUES (6)"),
            entry(3, 1, o, "commit"),
        ];
        let schema = Schema::new().with_table(TableSchema::new(
            "voucher_apps",
            vec![ColumnDef::new("voucher_id", ColumnType::Int)],
        ));
        let trace = lift_trace(&log, &schema).unwrap();
        assert_eq!(trace.api_calls.len(), 1);
        assert_eq!(trace.api_calls[0].txns.len(), 1);
        assert!(trace.api_calls[0].txns[0].explicit);
        assert_eq!(trace.api_calls[0].txns[0].ops.len(), 2);
    }

    #[test]
    fn repeated_identical_invocations_collapse() {
        let mut log = Vec::new();
        for i in 0..3 {
            log.push(entry(
                i * 2,
                1,
                Some(("view", i)),
                "SELECT COUNT(*) FROM employees",
            ));
        }
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls.len(), 1);
        assert_eq!(trace.api_calls[0].invocations, 3);
    }

    #[test]
    fn different_access_patterns_stay_distinct() {
        let log = vec![
            entry(0, 1, Some(("view", 0)), "SELECT COUNT(*) FROM employees"),
            entry(1, 1, Some(("view", 1)), "SELECT total FROM salary"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls.len(), 2);
    }

    #[test]
    fn untagged_entries_group_by_session() {
        let log = vec![
            entry(0, 7, None, "SELECT COUNT(*) FROM employees"),
            entry(1, 7, None, "UPDATE salary SET total = 0"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls.len(), 1);
        assert_eq!(trace.api_calls[0].name, "session-7");
        assert_eq!(trace.api_calls[0].txns.len(), 2);
    }

    #[test]
    fn join_statement_produces_one_op_per_table() {
        let schema = Schema::new()
            .with_table(TableSchema::new(
                "a",
                vec![
                    ColumnDef::new("id", ColumnType::Int).unique(),
                    ColumnDef::new("x", ColumnType::Int),
                ],
            ))
            .with_table(TableSchema::new(
                "b",
                vec![
                    ColumnDef::new("a_id", ColumnType::Int),
                    ColumnDef::new("y", ColumnType::Int),
                ],
            ));
        let log = vec![entry(
            0,
            1,
            Some(("q", 0)),
            "SELECT a.x, b.y FROM a INNER JOIN b ON b.a_id = a.id",
        )];
        let trace = lift_trace(&log, &schema).unwrap();
        assert_eq!(trace.api_calls[0].txns[0].ops.len(), 2);
    }

    #[test]
    fn malformed_log_line_is_reported() {
        let log = vec![entry(3, 1, Some(("bad", 0)), "SELEKT oops")];
        let err = lift_trace(&log, &payroll_schema()).unwrap_err();
        let LiftError::Parse { seq, .. } = err;
        assert_eq!(seq, 3);
    }

    #[test]
    fn unterminated_transaction_is_kept() {
        let log = vec![
            entry(0, 1, Some(("x", 0)), "BEGIN"),
            entry(1, 1, Some(("x", 0)), "SELECT COUNT(*) FROM employees"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls[0].txns.len(), 1);
    }

    #[test]
    fn parses_log_file_format() {
        let text = "\n# a comment\n[s1 checkout#0] BEGIN\n[s1 checkout#0] SELECT COUNT(*) \
                    FROM employees\n[s1 checkout#0] COMMIT\n[view] SELECT total FROM salary\n\
                    SELECT 1\n";
        let entries = parse_log_file(text);
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].session, 1);
        assert_eq!(entries[0].api.as_ref().unwrap().name, "checkout");
        assert_eq!(entries[3].api.as_ref().unwrap().name, "view");
        assert_eq!(entries[3].session, 0);
        assert!(entries[4].api.is_none());
        assert_eq!(&*entries[4].sql, "SELECT 1");
        // And the parsed log lifts.
        let trace = lift_trace(&entries[..3], &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls.len(), 1);
    }

    #[test]
    fn aborted_attempt_discards_open_transaction() {
        // A deadlock-victim retry sequence: the first attempt's reads and
        // the aborted write must vanish; only the committed retry counts.
        let x = Some(("raise", 0));
        let log = vec![
            entry(0, 1, x, "BEGIN"),
            entry(1, 1, x, "SELECT COUNT(*) FROM employees"),
            entry_with(
                2,
                1,
                x,
                "UPDATE salary SET total=total+1",
                StmtOutcome::Aborted,
            ),
            // Retry after the abort.
            entry(3, 1, x, "BEGIN"),
            entry(4, 1, x, "SELECT COUNT(*) FROM employees"),
            entry(5, 1, x, "UPDATE salary SET total=total+1"),
            entry(6, 1, x, "COMMIT"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls.len(), 1);
        let call = &trace.api_calls[0];
        assert_eq!(call.txns.len(), 1, "aborted attempt must not count");
        assert_eq!(call.txns[0].ops.len(), 2);
    }

    #[test]
    fn failed_statement_is_skipped_but_txn_survives() {
        let x = Some(("adj", 0));
        let log = vec![
            entry(0, 1, x, "BEGIN"),
            entry_with(1, 1, x, "UPDATE salary SET total=1", StmtOutcome::Failed),
            entry(2, 1, x, "UPDATE salary SET total=2"),
            entry(3, 1, x, "COMMIT"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls[0].txns.len(), 1);
        assert_eq!(trace.api_calls[0].txns[0].ops.len(), 1);
    }

    #[test]
    fn aborted_autocommit_statement_contributes_nothing() {
        let log = vec![
            entry_with(
                0,
                1,
                Some(("adj", 0)),
                "UPDATE salary SET total=1",
                StmtOutcome::Aborted,
            ),
            entry(1, 1, Some(("adj", 0)), "UPDATE salary SET total=2"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert_eq!(trace.api_calls[0].txns.len(), 1);
    }

    #[test]
    fn abort_under_autocommit_off_reopens_transaction() {
        // After an abort in `SET autocommit=0` mode the database starts a
        // fresh transaction for subsequent statements.
        let o = Some(("checkout", 0));
        let log = vec![
            entry(0, 1, o, "SET autocommit=0"),
            entry_with(1, 1, o, "UPDATE salary SET total=9", StmtOutcome::Aborted),
            entry(2, 1, o, "SELECT COUNT(*) FROM employees"),
            entry(3, 1, o, "UPDATE salary SET total=1"),
            entry(4, 1, o, "COMMIT"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        let call = &trace.api_calls[0];
        assert_eq!(call.txns.len(), 1);
        assert!(call.txns[0].explicit);
        assert_eq!(call.txns[0].ops.len(), 2);
    }

    #[test]
    fn parses_outcome_markers() {
        let text = "[s1 checkout#0] BEGIN\n\
                    [s1 checkout#0 !aborted] UPDATE salary SET total=1\n\
                    [s1 !failed] UPDATE salary SET total=2\n";
        let entries = parse_log_file(text);
        assert_eq!(entries[0].outcome, StmtOutcome::Ok);
        assert_eq!(entries[1].outcome, StmtOutcome::Aborted);
        assert_eq!(entries[1].api.as_ref().unwrap().name, "checkout");
        assert_eq!(entries[2].outcome, StmtOutcome::Failed);
        assert_eq!(entries[2].session, 1);
        // Display → parse round-trips the marker (strip the seq column).
        let rendered = entries[1].to_string();
        let line = rendered.trim_start().split_once(' ').unwrap().1;
        let reparsed = parse_log_file(line);
        assert_eq!(reparsed[0].outcome, StmtOutcome::Aborted);
        assert_eq!(reparsed[0].session, 1);
    }

    #[test]
    fn for_update_flag_survives_lifting() {
        let log = vec![
            entry(0, 1, Some(("x", 0)), "BEGIN"),
            entry(
                1,
                1,
                Some(("x", 0)),
                "SELECT salary FROM employees WHERE last_name='D' FOR UPDATE",
            ),
            entry(2, 1, Some(("x", 0)), "COMMIT"),
        ];
        let trace = lift_trace(&log, &payroll_schema()).unwrap();
        assert!(trace.api_calls[0].txns[0].ops[0].for_update);
    }
}
