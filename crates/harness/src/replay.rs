//! Executing witness replay plans against the live engine.
//!
//! `acidrain-static::replay` lowers each static finding to a
//! [`ReplayPlan`] — canned per-session scripts plus the Lemma-4 split
//! point. This module steps the scripts in that order on a fresh store,
//! one statement at a time from the calling thread, and classifies the
//! outcome:
//!
//! - **Confirmed** — the interleaving executed and its outcome digest
//!   (per-statement results plus final table contents) differs from
//!   *every* serial execution of the same scripts. Whatever the schedule
//!   produced, no serial order could have; the anomaly is real.
//! - **Blocked** — the engine refused the schedule at this level: a
//!   session's statement hit a lock wait at its scheduled slot, or a
//!   transaction was aborted (deadlock victim, first-committer-wins).
//! - **Inconclusive** — the schedule was not realizable (a witness API or
//!   seed statement missing from the recorded scripts, too many instances
//!   to baseline) or it executed cleanly but produced a
//!   serially-equivalent outcome.
//!
//! Blocked is *not* refuted: the abstract witness quantifies over every
//! expansion of the trace, and the replayer executes exactly one. The
//! digest comparison is the replayer's anomaly oracle — it needs no
//! per-app invariant knowledge, which is what lets it run over the whole
//! corpus uniformly.
//!
//! A plan's sessions are statement lists, not application code, so they
//! need no stack of their own: `ScriptSession` holds a connection and a
//! cursor, and the driver calls [`Connection::try_execute_parsed`] itself.
//! That is the [`crate::sched`] protocol — a lock conflict is
//! [`StepOutcome::Blocked`] with nothing consumed — without the thread per
//! session and the two channel hand-offs per statement that `sched` pays
//! to park application closures mid-call.
//!
//! Every schedule of a scenario runs on a fresh store, but all of them
//! execute the same few dozen statement texts, so statements are parsed
//! through the scenario's [`ParseMemo`] (carried by [`ReplayCaches`]): once
//! per scenario, not once per execution.

use std::collections::HashMap;
use std::sync::Arc;

use acidrain_apps::endpoints::{AppSurface, Scenario};
use acidrain_db::{Connection, Database, DbError, IsolationLevel, ResultSet};
use acidrain_sql::schema::Schema;
use acidrain_sql::ParseMemo;
use acidrain_static::{
    sweep_surface, AppReplay, AuditError, ReplayOutcome, ReplayPlan, ScenarioAnalysis,
    ScenarioReplay, SessionScript, Verdict,
};

use crate::sched::StepOutcome;

/// Largest witness (concurrent instances) the replayer baselines: the
/// serial oracle enumerates every permutation of the sessions, so the
/// count must stay factorial-small. Corpus witnesses use 2–3 instances.
const MAX_SESSIONS: usize = 4;

/// The outcome digest of one execution: what every session's statements
/// returned, plus the final contents of every table. Two executions with
/// equal digests are observably equivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest {
    /// Per-session statement outcomes, indexed by plan session.
    sessions: Vec<Vec<String>>,
    /// Final rows per table, sorted, in schema (name) order.
    tables: Vec<(String, Vec<String>)>,
}

/// One session's script execution: rendered outcomes plus whether the
/// transaction died to an abort-class error.
#[derive(Debug, PartialEq, Eq)]
struct ScriptRun {
    lines: Vec<String>,
    aborted: Option<&'static str>,
}

/// A stable, session-id-free rendering of one statement outcome. Error
/// messages can embed transaction ids, so errors render as their class
/// only — still enough to distinguish "this statement failed here but not
/// serially".
fn render_outcome(result: &Result<ResultSet, DbError>) -> String {
    match result {
        Ok(rs) => format!("ok {:?} {:?}", rs.columns, rs.rows),
        Err(e) => format!("err {}", error_class(e)),
    }
}

fn error_class(e: &DbError) -> &'static str {
    match e {
        DbError::Parse(_) => "parse",
        DbError::UnknownTable(_) => "unknown-table",
        DbError::UnknownColumn(_) => "unknown-column",
        DbError::Type(_) => "type",
        DbError::ConstraintViolation(_) => "constraint-violation",
        DbError::WouldBlock { .. } => "would-block",
        DbError::Deadlock => "deadlock",
        DbError::WriteConflict(_) => "write-conflict",
        DbError::LockTimeout => "lock-timeout",
        DbError::ConnectionDropped => "connection-dropped",
        DbError::Unsupported(_) => "unsupported",
        DbError::Io(_) => "io",
        DbError::WalCorrupt(_) => "wal-corrupt",
        DbError::UnknownSavepoint(_) => "unknown-savepoint",
        DbError::TooManySessions => "too-many-sessions",
        DbError::Internal(_) => "internal",
    }
}

/// One plan session mid-execution: its connection, its canned statements
/// (parsed through `memo`) and how far it got.
struct ScriptSession<'a> {
    conn: Connection,
    statements: &'a [String],
    memo: &'a ParseMemo,
    next: usize,
    run: ScriptRun,
}

impl<'a> ScriptSession<'a> {
    /// Open a session on `db`, at `level` when the plan overrides the
    /// store default for it.
    fn open(
        db: &Arc<Database>,
        level: Option<IsolationLevel>,
        statements: &'a [String],
        memo: &'a ParseMemo,
    ) -> Self {
        let mut conn = db.connect();
        if let Some(level) = level {
            conn.set_isolation(level);
        }
        ScriptSession {
            conn,
            statements,
            memo,
            next: 0,
            run: ScriptRun {
                lines: Vec::with_capacity(statements.len()),
                aborted: None,
            },
        }
    }

    /// Attempt the next statement. A lock conflict consumes nothing: the
    /// same statement is attempted again by the next call. The script is
    /// finished after its last statement, or early once the transaction
    /// is rolled back under it (the remaining statements would only
    /// measure error noise, identically in every execution).
    fn step(&mut self) -> StepOutcome {
        if self.run.aborted.is_some() {
            return StepOutcome::Finished;
        }
        let Some(sql) = self.statements.get(self.next) else {
            return StepOutcome::Finished;
        };
        // An unparsable statement fails as `try_execute` fails it: before
        // the engine sees it, so it logs nothing and draws no fault.
        let result = self
            .memo
            .parse(sql)
            .map_err(DbError::from)
            .and_then(|stmt| self.conn.try_execute_parsed(&stmt, sql));
        if matches!(result, Err(DbError::WouldBlock { .. })) {
            return StepOutcome::Blocked;
        }
        self.run.lines.push(render_outcome(&result));
        self.next += 1;
        if let Err(e) = &result {
            if e.aborts_transaction() {
                self.run.aborted = Some(error_class(e));
            }
        }
        StepOutcome::Executed
    }

    /// Step until the script finishes; `Err` when a statement hits a lock
    /// wait first.
    fn run_to_end(&mut self) -> Result<(), LockWait> {
        loop {
            match self.step() {
                StepOutcome::Executed => {}
                StepOutcome::Finished => return Ok(()),
                StepOutcome::Blocked => return Err(LockWait),
            }
        }
    }

    /// Close the connection (rolling back whatever the script left open)
    /// and hand back what ran.
    fn close(self) -> ScriptRun {
        self.run
    }
}

/// A statement could not take its lock at its scheduled slot.
#[derive(Debug)]
struct LockWait;

/// Replay the setup statements on a plain connection. Recorded failures
/// (statement-level errors the endpoint itself provoked) repeat
/// deterministically, so errors are not distinguished from the recording.
fn run_setup(db: &Arc<Database>, setup: &[String], memo: &ParseMemo) {
    let mut conn = db.connect();
    for sql in setup {
        if let Ok(stmt) = memo.parse(sql) {
            let _ = conn.execute_parsed(&stmt, sql);
        }
    }
}

fn table_digest(db: &Arc<Database>, schema: &Schema) -> Vec<(String, Vec<String>)> {
    schema
        .tables()
        .map(|t| {
            let mut rows: Vec<String> = db
                .table_rows(&t.name)
                .map(|rows| rows.iter().map(|r| format!("{r:?}")).collect())
                .unwrap_or_default();
            rows.sort();
            (t.name.clone(), rows)
        })
        .collect()
}

/// Every permutation of `0..n` (Heap's algorithm, deterministic order).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap(n, &mut items, &mut out);
    out
}

/// The outcome digests of every serial execution of the plan's scripts
/// (one fresh store per permutation), deduplicated. `session_levels`
/// carries per-session isolation overrides (the repair adviser's
/// [`acidrain_static::Fix::Isolation`] fixes); `None` keeps the store
/// default.
fn serial_digests(
    scenario: &Scenario,
    level: IsolationLevel,
    plan: &ReplayPlan,
    schema: &Schema,
    session_levels: &[Option<IsolationLevel>],
    memo: &ParseMemo,
) -> Vec<Digest> {
    let n = plan.sessions.len();
    let mut digests: Vec<Digest> = Vec::new();
    for perm in permutations(n) {
        let db = scenario.make_store(level);
        run_setup(&db, &plan.setup, memo);
        let mut sessions = vec![Vec::new(); n];
        for &i in &perm {
            let mut session = ScriptSession::open(
                &db,
                session_levels.get(i).copied().flatten(),
                &plan.sessions[i].statements,
                memo,
            );
            session
                .run_to_end()
                .expect("a serial run has no other open session to wait on");
            sessions[i] = session.close().lines;
        }
        let digest = Digest {
            sessions,
            tables: table_digest(&db, schema),
        };
        if !digests.contains(&digest) {
            digests.push(digest);
        }
    }
    digests
}

/// Run the Lemma-4 interleaving over open sessions: the seed prefix (up
/// to and including o₁), every hop instance in cycle order in full, the
/// seed remainder. `Err` carries the lock wait that broke the schedule;
/// a broken schedule stops where it broke.
fn interleave(sessions: &mut [ScriptSession], plan: &ReplayPlan) -> Result<(), String> {
    for _ in 0..plan.seed_prefix {
        match sessions[0].step() {
            StepOutcome::Executed => {}
            StepOutcome::Finished => break,
            StepOutcome::Blocked => {
                return Err("lock wait: seed session blocked inside its prefix".to_string())
            }
        }
    }
    for i in (1..sessions.len()).chain([0]) {
        sessions[i].run_to_end().map_err(|LockWait| {
            format!(
                "lock wait: session {i} ({}) blocked mid-schedule",
                plan.sessions[i].api
            )
        })?;
    }
    Ok(())
}

/// Execution caches for repeated plan replays, one per scenario × level
/// (plans from different stores must not share entries). Findings
/// overwhelmingly share plans (same seed split, same hop APIs), and
/// distinct plans share serial baselines, so both layers are keyed by plan
/// content (including any per-session isolation overrides). The scenario's
/// parse memo rides along: every schedule parses through it.
pub struct ReplayCaches<'a> {
    memo: &'a ParseMemo,
    verdicts: HashMap<VerdictKey, Verdict>,
    serial: HashMap<SerialKey, Vec<Digest>>,
}

impl<'a> ReplayCaches<'a> {
    /// Empty caches for one scenario × level, parsing through `memo` (the
    /// scenario's, so the texts its lift parsed are not parsed again).
    pub fn new(memo: &'a ParseMemo) -> Self {
        ReplayCaches {
            memo,
            verdicts: HashMap::new(),
            serial: HashMap::new(),
        }
    }
}

/// What a serial baseline depends on: the per-session isolation
/// overrides, the setup and the session scripts.
type SerialKey = (Vec<Option<IsolationLevel>>, Vec<String>, Vec<SessionScript>);

/// What a verdict depends on: the serial baseline's key plus where the
/// seed session splits.
type VerdictKey = (usize, SerialKey);

fn verdict_key(plan: &ReplayPlan, session_levels: &[Option<IsolationLevel>]) -> VerdictKey {
    (
        plan.seed_prefix,
        (
            session_levels.to_vec(),
            plan.setup.clone(),
            plan.sessions.clone(),
        ),
    )
}

/// Execute one plan against a fresh store — the Lemma-4 interleaving (seed
/// prefix, each hop in full, seed remainder) — and classify its digest
/// against the serial oracle. The witness replayer runs plans as recorded;
/// the repair adviser runs *repaired* plans through the same oracle, with
/// per-session isolation overrides in `session_levels`.
pub fn execute_replay_plan(
    scenario: &Scenario,
    level: IsolationLevel,
    plan: &ReplayPlan,
    schema: &Schema,
    session_levels: &[Option<IsolationLevel>],
    caches: &mut ReplayCaches<'_>,
) -> Verdict {
    let n = plan.sessions.len();
    if n > MAX_SESSIONS {
        return Verdict::Inconclusive(format!(
            "witness needs {n} concurrent instances; serial baseline capped at {MAX_SESSIONS}"
        ));
    }
    let vkey = verdict_key(plan, session_levels);
    if let Some(v) = caches.verdicts.get(&vkey) {
        return v.clone();
    }

    let memo = caches.memo;
    let db = scenario.make_store(level);
    run_setup(&db, &plan.setup, memo);

    let mut sessions: Vec<ScriptSession> = plan
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let level = session_levels.get(i).copied().flatten();
            ScriptSession::open(&db, level, &s.statements, memo)
        })
        .collect();
    let schedule = interleave(&mut sessions, plan);
    // Sessions close before the tables are digested: a transaction a
    // script left open is rolled back, not left pending.
    let runs: Vec<ScriptRun> = sessions.into_iter().map(ScriptSession::close).collect();

    let verdict = if let Err(reason) = schedule {
        Verdict::Blocked(reason)
    } else if let Some((i, class)) = runs
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.aborted.map(|class| (i, class)))
    {
        Verdict::Blocked(format!(
            "abort: session {i} ({}) rolled back ({class})",
            plan.sessions[i].api
        ))
    } else {
        let digest = Digest {
            sessions: runs.into_iter().map(|r| r.lines).collect(),
            tables: table_digest(&db, schema),
        };
        let serial = caches
            .serial
            .entry(vkey.1.clone())
            .or_insert_with(|| serial_digests(scenario, level, plan, schema, session_levels, memo));
        if serial.contains(&digest) {
            Verdict::Inconclusive("executed cleanly; outcome serially equivalent".to_string())
        } else {
            Verdict::Confirmed
        }
    };
    caches.verdicts.insert(vkey, verdict.clone());
    verdict
}

/// Replay every finding of one analysis, in [`ScenarioAnalysis::findings`]
/// order, parsing through the analysis's memo.
pub fn replay_scenario(analysis: &ScenarioAnalysis<'_>) -> ScenarioReplay {
    let plans = analysis.plans();
    let mut caches = ReplayCaches::new(analysis.memo());
    let outcomes = plans
        .plans
        .into_iter()
        .map(|fp| {
            let verdict = match &fp.plan {
                Err(reason) => Verdict::Inconclusive(reason.clone()),
                Ok(plan) => execute_replay_plan(
                    analysis.scenario(),
                    analysis.level(),
                    plan,
                    &analysis.surface().schema,
                    &vec![None; plan.sessions.len()],
                    &mut caches,
                ),
            };
            ReplayOutcome {
                finding: fp.finding,
                verdict,
            }
        })
        .collect();
    ScenarioReplay {
        scenario: plans.scenario,
        outcomes,
    }
}

/// Replay every static finding of `surface` at each of `levels`.
pub fn replay_surface(
    surface: &AppSurface,
    levels: &[IsolationLevel],
) -> Result<AppReplay, AuditError> {
    sweep_surface(surface, levels, |analysis| Ok(replay_scenario(&analysis)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};
    use std::sync::Mutex;

    use acidrain_apps::endpoints::{all_surfaces, flexcoin_surface};
    use acidrain_apps::is_transaction_control_sql;
    use acidrain_apps::SqlConn;
    use acidrain_core::AnomalyScope;
    use acidrain_db::{FaultConfig, Obs, StmtOutcome, Value};
    use acidrain_sql::schema::{ColumnDef, ColumnType, TableSchema};
    use acidrain_sql::{promote_for_update, promote_parsed};
    use acidrain_static::{Fix, ReplayReport};

    use crate::adviser::advise_scenario;
    use crate::sched::{run_deterministic_on, Stepper};

    fn surface_named(name: &str) -> AppSurface {
        all_surfaces().into_iter().find(|s| s.app == name).unwrap()
    }

    /// Two counters at 0.
    fn counters() -> Arc<Database> {
        let schema = Schema::new().with_table(TableSchema::new(
            "counter",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("n", ColumnType::Int),
            ],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        db.seed(
            "counter",
            vec![
                vec![Value::Int(1), Value::Int(0)],
                vec![Value::Int(2), Value::Int(0)],
            ],
        )
        .unwrap();
        db
    }

    fn script(statements: &[&str]) -> Vec<String> {
        statements.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_blocked_statement_is_retried_verbatim_and_not_recorded() {
        let db = counters();
        let bump = script(&[
            "BEGIN",
            "UPDATE counter SET n = n + 10 WHERE id = 1",
            "COMMIT",
        ]);
        let memo = ParseMemo::new();
        let mut a = ScriptSession::open(&db, None, &bump, &memo);
        let mut b = ScriptSession::open(&db, None, &bump, &memo);
        assert_eq!(a.step(), StepOutcome::Executed); // BEGIN
        assert_eq!(a.step(), StepOutcome::Executed); // UPDATE: holds the row lock
        assert_eq!(b.step(), StepOutcome::Executed); // BEGIN
        for _ in 0..3 {
            assert_eq!(b.step(), StepOutcome::Blocked);
            assert_eq!(b.next, 1, "a lock wait consumes nothing");
            assert_eq!(b.run.lines.len(), 1, "a lock wait records nothing");
        }
        assert!(b.run_to_end().is_err());
        a.run_to_end().unwrap();
        // The same UPDATE, attempted a fifth time, now runs — once.
        b.run_to_end().unwrap();
        assert_eq!(b.step(), StepOutcome::Finished);
        let (a, b) = (a.close(), b.close());
        assert_eq!(a, b, "both scripts saw the same three outcomes");
        assert_eq!(b.lines.len(), 3);
        assert!(b.lines.iter().all(|l| l.starts_with("ok ")), "{b:?}");
        assert_eq!(b.aborted, None);
        assert_eq!(db.table_rows("counter").unwrap()[0][1], Value::Int(20));
    }

    #[test]
    fn an_abort_class_error_ends_the_script_with_its_class() {
        // A holds row 1 and waits for row 2; B holds row 2 and asks for
        // row 1: B closes the cycle and is the deadlock victim.
        let db = counters();
        let one_then_two = script(&[
            "BEGIN",
            "UPDATE counter SET n = n + 1 WHERE id = 1",
            "UPDATE counter SET n = n + 1 WHERE id = 2",
            "COMMIT",
        ]);
        let two_then_one = script(&[
            "BEGIN",
            "UPDATE counter SET n = n + 5 WHERE id = 2",
            "UPDATE counter SET n = n + 5 WHERE id = 1",
            "COMMIT",
        ]);
        let memo = ParseMemo::new();
        let mut a = ScriptSession::open(&db, None, &one_then_two, &memo);
        let mut b = ScriptSession::open(&db, None, &two_then_one, &memo);
        assert_eq!(a.step(), StepOutcome::Executed);
        assert_eq!(a.step(), StepOutcome::Executed);
        assert_eq!(b.step(), StepOutcome::Executed);
        assert_eq!(b.step(), StepOutcome::Executed);
        assert_eq!(a.step(), StepOutcome::Blocked);
        assert_eq!(b.step(), StepOutcome::Executed, "the abort is an outcome");
        assert_eq!(b.step(), StepOutcome::Finished, "COMMIT is never sent");
        assert_eq!(b.next, 3);
        a.run_to_end().unwrap();
        let b = b.close();
        assert_eq!(b.aborted, Some("deadlock"));
        assert_eq!(b.lines.len(), 3);
        assert_eq!(b.lines[2], "err deadlock");
        assert_eq!(a.close().aborted, None);
        let rows = db.table_rows("counter").unwrap();
        assert_eq!((&rows[0][1], &rows[1][1]), (&Value::Int(1), &Value::Int(1)));
    }

    #[test]
    fn an_unparsable_statement_fails_before_the_engine_sees_it() {
        // It renders as `err parse`, as `try_execute` would fail it: no
        // query-log line, no fault draw, and the script goes on.
        let db = counters();
        db.enable_faults(FaultConfig::seeded(1).with_deadlock(1e-12));
        let memo = ParseMemo::new();
        let statements = script(&[
            "UPDATE counter SET n = n + 1 WHERE id = 1",
            "UPDAT counter SET n = 7",
            "UPDATE counter SET n = n + 1 WHERE id = 2",
        ]);
        let mut session = ScriptSession::open(&db, None, &statements, &memo);
        session.run_to_end().unwrap();
        let run = session.close();
        assert_eq!(run.lines[1], "err parse");
        assert_eq!(run.lines.len(), 3);
        assert_eq!(run.aborted, None);
        assert_eq!(db.fault_stats().statements_seen, 2);
        let log = db.take_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|e| e.sql.starts_with("UPDATE ")), "{log:?}");
        assert!(memo.parse("UPDAT counter SET n = 7").is_err());
    }

    #[test]
    fn replay_and_advice_parse_only_what_the_lift_never_saw() {
        // The lift fills the memo with every statement the recording
        // executed; replaying and advising the same analysis may add only
        // texts the lift skips (statements that failed or aborted in the
        // recording), promoted `FOR UPDATE` reads and the `BEGIN` /
        // `COMMIT` that re-scoping wraps around an endpoint.
        let mut promoted_seen = 0;
        for surface in all_surfaces() {
            for scenario in &surface.scenarios {
                for level in [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::MySqlRepeatableRead,
                    IsolationLevel::Serializable,
                ] {
                    let at = format!("{}/{} @ {level:?}", surface.app, scenario.name);
                    let analysis = ScenarioAnalysis::new(&surface, scenario, level).unwrap();
                    let log = scenario.record(level).unwrap();
                    let lifted = analysis.memo().texts();
                    let executed: BTreeSet<String> = log
                        .iter()
                        .filter(|e| e.outcome == StmtOutcome::Ok)
                        .map(|e| e.sql.to_string())
                        .collect();
                    assert_eq!(lifted, executed, "{at}");

                    replay_scenario(&analysis);
                    advise_scenario(&analysis, &Obs::new());
                    let skipped: BTreeSet<String> = log
                        .iter()
                        .filter(|e| e.outcome != StmtOutcome::Ok)
                        .map(|e| e.sql.to_string())
                        .collect();
                    let promoted: BTreeSet<String> = log
                        .iter()
                        .filter_map(|e| promote_for_update(&e.sql).ok().flatten())
                        .collect();
                    for text in analysis.memo().texts().difference(&lifted) {
                        promoted_seen += usize::from(promoted.contains(text));
                        assert!(
                            skipped.contains(text)
                                || promoted.contains(text)
                                || text == "BEGIN"
                                || text == "COMMIT",
                            "{at}: {text}"
                        );
                    }
                }
            }
        }
        assert!(promoted_seen > 0, "no promoted statement was replayed");
    }

    /// `run_script` as it was when sessions were scheduler tasks: every
    /// statement through [`SqlConn::exec`], which under the scheduler
    /// parks for a permit and retries through lock waits.
    fn reference_run_script(conn: &mut dyn SqlConn, statements: &[String]) -> ScriptRun {
        let mut lines = Vec::with_capacity(statements.len());
        let mut aborted = None;
        for sql in statements {
            let result = conn.exec(sql);
            lines.push(render_outcome(&result));
            if let Err(e) = &result {
                if e.aborts_transaction() {
                    aborted = Some(error_class(e));
                    break;
                }
            }
        }
        ScriptRun { lines, aborted }
    }

    /// The executor as it was before in-thread stepping — one thread per
    /// session under [`crate::sched`], serial baselines on blocking
    /// connections, no caches, every statement parsed by the engine. The
    /// reference [`execute_replay_plan`] is held to.
    fn reference_execute_plan(
        scenario: &Scenario,
        level: IsolationLevel,
        plan: &ReplayPlan,
        schema: &Schema,
        session_levels: &[Option<IsolationLevel>],
    ) -> Verdict {
        let n = plan.sessions.len();
        let connect = |db: &Arc<Database>, i: usize| {
            let mut conn = db.connect();
            if let Some(l) = session_levels.get(i).copied().flatten() {
                conn.set_isolation(l);
            }
            conn
        };
        let setup = |db: &Arc<Database>| {
            let mut conn = db.connect();
            for sql in &plan.setup {
                let _ = conn.execute(sql);
            }
        };
        let db = scenario.make_store(level);
        setup(&db);

        let runs: Arc<Mutex<Vec<Option<ScriptRun>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let tasks: Vec<_> = plan
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let runs = Arc::clone(&runs);
                let statements = s.statements.clone();
                move |conn: &mut dyn SqlConn| {
                    let run = reference_run_script(conn, &statements);
                    runs.lock().unwrap()[i] = Some(run);
                }
            })
            .collect();
        let conns = (0..n).map(|i| connect(&db, i)).collect();

        fn step_to_completion(stepper: &mut Stepper, i: usize, api: &str) -> Result<(), String> {
            loop {
                match stepper.step(i) {
                    StepOutcome::Executed => {}
                    StepOutcome::Finished => return Ok(()),
                    StepOutcome::Blocked => {
                        return Err(format!(
                            "lock wait: session {i} ({api}) blocked mid-schedule"
                        ))
                    }
                }
            }
        }
        let mut schedule_break: Option<String> = None;
        run_deterministic_on(conns, tasks, |stepper: &mut Stepper| {
            for _ in 0..plan.seed_prefix {
                match stepper.step(0) {
                    StepOutcome::Executed => {}
                    StepOutcome::Finished => break,
                    StepOutcome::Blocked => {
                        schedule_break =
                            Some("lock wait: seed session blocked inside its prefix".to_string());
                        return;
                    }
                }
            }
            for (i, session) in plan.sessions.iter().enumerate().skip(1) {
                if let Err(reason) = step_to_completion(stepper, i, &session.api) {
                    schedule_break = Some(reason);
                    return;
                }
            }
            if let Err(reason) = step_to_completion(stepper, 0, &plan.sessions[0].api) {
                schedule_break = Some(reason);
            }
        });

        let runs = Arc::try_unwrap(runs)
            .expect("session tasks joined")
            .into_inner()
            .unwrap();
        if let Some(reason) = schedule_break {
            return Verdict::Blocked(reason);
        }
        if let Some((i, class)) = runs
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.as_ref().and_then(|r| r.aborted).map(|class| (i, class)))
        {
            return Verdict::Blocked(format!(
                "abort: session {i} ({}) rolled back ({class})",
                plan.sessions[i].api
            ));
        }
        let digest = Digest {
            sessions: runs
                .into_iter()
                .map(|r| r.expect("every session ran").lines)
                .collect(),
            tables: table_digest(&db, schema),
        };
        let serial_equivalent = permutations(n).into_iter().any(|perm| {
            let db = scenario.make_store(level);
            setup(&db);
            let mut sessions = vec![Vec::new(); n];
            for &i in &perm {
                let mut conn = connect(&db, i);
                sessions[i] = reference_run_script(&mut conn, &plan.sessions[i].statements).lines;
            }
            let serial = Digest {
                sessions,
                tables: table_digest(&db, schema),
            };
            serial == digest
        });
        if serial_equivalent {
            Verdict::Inconclusive("executed cleanly; outcome serially equivalent".to_string())
        } else {
            Verdict::Confirmed
        }
    }

    #[test]
    fn in_thread_stepping_equals_the_scheduler() {
        // Every witness plan, and every repaired plan the adviser would
        // replay (isolation overrides included), must get the verdict —
        // label and reason string — that the threaded scheduler gave it.
        let mut labels: HashSet<&'static str> = HashSet::new();
        let mut reasons: HashSet<String> = HashSet::new();
        let mut overridden = 0;
        for app in [
            "bank-figure1b",
            "bank-transfer",
            "ticketing",
            "flexcoin",
            "Oscar",
            "Saleor",
        ] {
            let surface = surface_named(app);
            for scenario in &surface.scenarios {
                for level in [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::MySqlRepeatableRead,
                    IsolationLevel::Serializable,
                ] {
                    let analysis = ScenarioAnalysis::new(&surface, scenario, level).unwrap();
                    let (plans, remedies) = (analysis.plans(), analysis.remedies());
                    assert_eq!(plans.plans.len(), remedies.outcomes.len());
                    let mut caches = ReplayCaches::new(analysis.memo());
                    let mut seen: HashSet<VerdictKey> = HashSet::new();
                    let mut check = |plan: &ReplayPlan, levels: &[Option<IsolationLevel>]| {
                        if !seen.insert(verdict_key(plan, levels)) {
                            return;
                        }
                        let schema = &surface.schema;
                        let stepped =
                            execute_replay_plan(scenario, level, plan, schema, levels, &mut caches);
                        let scheduled =
                            reference_execute_plan(scenario, level, plan, schema, levels);
                        assert_eq!(
                            stepped, scheduled,
                            "{app}/{} @ {level:?}, overrides {levels:?}: {plan:?}",
                            scenario.name
                        );
                        labels.insert(stepped.label());
                        if let Some(detail) = stepped.detail() {
                            // Session index and API vary; the shape does not.
                            reasons.insert(detail.split(" session").next().unwrap().to_string());
                        }
                        overridden += usize::from(levels.iter().any(Option::is_some));
                    };
                    for (i, outcome) in remedies.outcomes.iter().enumerate() {
                        let Ok(plan) = &plans.plans[i].plan else {
                            continue;
                        };
                        check(plan, &vec![None; plan.sessions.len()]);
                        for candidate in &outcome.candidates {
                            if let Ok((repaired, levels)) = analysis.repaired_plan(i, candidate) {
                                check(&repaired, &levels);
                            }
                        }
                    }
                }
            }
        }
        // The comparison saw every kind of ending, not just clean runs.
        for label in ["confirmed", "blocked", "inconclusive"] {
            assert!(labels.contains(label), "{labels:?}");
        }
        for reason in ["lock wait:", "abort:"] {
            assert!(reasons.contains(reason), "{reasons:?}");
        }
        assert!(overridden > 0, "no plan carried an isolation override");
    }

    /// `sql` promoted to `FOR UPDATE`, or why it cannot be.
    fn promote(memo: &ParseMemo, sql: &str) -> Result<String, String> {
        let stmt = memo
            .parse(sql)
            .map_err(|err| format!("rewrite failed: {err}"))?;
        promote_parsed(&stmt).ok_or_else(|| format!("not a promotable SELECT: {sql}"))
    }

    /// The repaired plan as it was built before the adviser lowered the
    /// witness over the repaired log: a second application of each fix,
    /// to the unrepaired plan. The reference [`ScenarioAnalysis::repaired_plan`]
    /// is held to.
    fn rewrite_plan_with(
        plan: &ReplayPlan,
        fixes: &[Fix],
        memo: &ParseMemo,
    ) -> Result<(ReplayPlan, Vec<Option<IsolationLevel>>), String> {
        let mut plan = plan.clone();
        let mut session_levels: Vec<Option<IsolationLevel>> = vec![None; plan.sessions.len()];
        for fix in fixes {
            match fix {
                Fix::ForUpdate {
                    api, fingerprint, ..
                } => {
                    let mut hit = false;
                    for session in &mut plan.sessions {
                        if session.api != *api {
                            continue;
                        }
                        for stmt in &mut session.statements {
                            if memo.fingerprint(stmt) == *fingerprint {
                                *stmt = promote(memo, stmt)?;
                                hit = true;
                            }
                        }
                    }
                    // Setup replays other endpoints' recorded calls on a solo
                    // connection; promoting there too keeps the repaired trace
                    // uniform (a solo FOR UPDATE read is a no-op).
                    for stmt in &mut plan.setup {
                        if memo.fingerprint(stmt) == *fingerprint {
                            if let Ok(sql) = promote(memo, stmt) {
                                *stmt = sql;
                            }
                        }
                    }
                    if !hit {
                        return Err(format!("no session statement of {api} matches the seed"));
                    }
                }
                Fix::Scope { api } => {
                    let mut hit = false;
                    for (i, session) in plan.sessions.iter_mut().enumerate() {
                        if session.api != *api {
                            continue;
                        }
                        if session
                            .statements
                            .iter()
                            .any(|s| is_transaction_control_sql(s))
                        {
                            return Err(format!("API {api} already uses transaction control"));
                        }
                        let mut wrapped = Vec::with_capacity(session.statements.len() + 2);
                        wrapped.push("BEGIN".to_string());
                        wrapped.append(&mut session.statements);
                        wrapped.push("COMMIT".to_string());
                        session.statements = wrapped;
                        if i == 0 {
                            // The seed split counts statements from the script
                            // head; the injected BEGIN sits before o₁.
                            plan.seed_prefix += 1;
                        }
                        hit = true;
                    }
                    if !hit {
                        return Err(format!("no session replays {api}"));
                    }
                }
                Fix::Isolation { api, level } => {
                    let mut hit = false;
                    for (i, session) in plan.sessions.iter().enumerate() {
                        if session.api == *api {
                            session_levels[i] = Some(*level);
                            hit = true;
                        }
                    }
                    if !hit {
                        return Err(format!("no session replays {api}"));
                    }
                }
            }
        }
        Ok((plan, session_levels))
    }

    #[test]
    fn repaired_plans_equal_the_plan_rewrite() {
        // Lowering the witness over the repaired log gives, for every
        // closing candidate of every finding of every scenario at every
        // level, the plan and per-session levels the plan rewrite gave —
        // refusals included — and with no fix, the witness replayer's plan.
        let mut lowered = 0;
        for surface in all_surfaces() {
            for scenario in &surface.scenarios {
                for level in IsolationLevel::ALL {
                    let at = format!("{}/{} @ {level:?}", surface.app, scenario.name);
                    let analysis = ScenarioAnalysis::new(&surface, scenario, level).unwrap();
                    let (plans, remedies) = (analysis.plans(), analysis.remedies());
                    for (i, outcome) in remedies.outcomes.iter().enumerate() {
                        let fp = &plans.plans[i];
                        let unrepaired = fp.plan.clone().map(|p| {
                            let none = vec![None; p.sessions.len()];
                            (p, none)
                        });
                        assert_eq!(analysis.repaired_plan(i, &[]), unrepaired, "{at}: {i}");
                        for candidate in &outcome.candidates {
                            let reference = fp
                                .plan
                                .as_ref()
                                .map_err(Clone::clone)
                                .and_then(|p| rewrite_plan_with(p, candidate, analysis.memo()));
                            let repaired = analysis.repaired_plan(i, candidate);
                            assert_eq!(repaired, reference, "{at}: {i} {candidate:?}");
                            lowered += usize::from(repaired.is_ok());
                        }
                    }
                }
            }
        }
        assert_eq!(lowered, 2869);
    }

    #[test]
    fn figure1a_overdraft_is_confirmed_at_every_level() {
        // The unscoped withdraw has no transaction for any level to
        // protect: the lost-update interleaving must execute and diverge
        // from both serial orders everywhere, Serializable included
        // (scope-based — the paper's central point).
        let surface = surface_named("bank-figure1a");
        let replay = replay_surface(&surface, &IsolationLevel::ALL).unwrap();
        for level in &replay.levels {
            assert!(level.count("confirmed") > 0, "{:?}: {level:?}", level.level);
        }
    }

    #[test]
    fn serializable_confirms_no_level_based_anomaly() {
        for surface in [surface_named("bank-figure1b"), flexcoin_surface()] {
            let replay = replay_surface(&surface, &[IsolationLevel::Serializable]).unwrap();
            let report = ReplayReport { apps: vec![replay] };
            assert!(
                report.serializable_level_based_confirmed().is_empty(),
                "{}: {report:?}",
                surface.app
            );
        }
    }

    #[test]
    fn scoped_bank_is_blocked_or_clean_at_serializable_but_confirmed_at_rc() {
        let surface = surface_named("bank-figure1b");
        let replay = replay_surface(
            &surface,
            &[IsolationLevel::ReadCommitted, IsolationLevel::Serializable],
        )
        .unwrap();
        let rc = replay.level(IsolationLevel::ReadCommitted).unwrap();
        assert!(rc.count("confirmed") > 0, "{rc:?}");
        let ser = replay.level(IsolationLevel::Serializable).unwrap();
        // The static audit already admits nothing level-based at SER, and
        // whatever scope-based findings remain must not confirm as
        // level-based ones; the engine gate is the empty intersection.
        assert_eq!(
            ser.scenarios
                .iter()
                .flat_map(|s| &s.outcomes)
                .filter(|o| o.verdict == Verdict::Confirmed
                    && o.finding.scope == AnomalyScope::LevelBased)
                .count(),
            0,
            "{ser:?}"
        );
    }

    #[test]
    fn every_finding_gets_classified() {
        let surface = surface_named("payroll");
        let replay = replay_surface(&surface, &IsolationLevel::ALL).unwrap();
        let audit = acidrain_static::audit_surface(&surface).unwrap();
        for level in IsolationLevel::ALL {
            let audited = audit.level(level).unwrap().finding_count();
            let replayed: usize = replay
                .level(level)
                .unwrap()
                .scenarios
                .iter()
                .map(|s| s.outcomes.len())
                .sum();
            assert_eq!(audited, replayed, "{level:?}");
        }
    }

    #[test]
    fn permutations_cover_and_dedupe() {
        assert_eq!(permutations(1), vec![vec![0]]);
        let p3 = permutations(3);
        assert_eq!(p3.len(), 6);
        let mut sorted = p3.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }
}
