//! Statement execution against the multi-version storage.
//!
//! Execution is two-phase: identify the versions the statement reads or
//! acts on and acquire every needed lock first (retryable — a lock
//! conflict returns [`DbError::WouldBlock`] with no data effects), then
//! apply mutations atomically. Lock plans depend on the transaction's
//! isolation level; see [`crate::isolation::IsolationLevel`].
//!
//! Each statement pins (read- or write-latches) the tables it touches for
//! its whole duration, acquiring multiple latches in ascending table-index
//! order. All `WouldBlock` exits happen before any mutation, and latch
//! guards drop on every return path — a statement never parks on the lock
//! table while holding a latch.
//!
//! Every read of "the latest committed version, then lock it" — UPDATE and
//! DELETE targets, INSERT's duplicate-key wait, `SELECT ... FOR UPDATE` and
//! the S-locked reads of REPEATABLE READ / SERIALIZABLE — goes through one
//! driver, `current_read`, whose doc comment states the protocol and why it
//! is sound. Snapshot and READ UNCOMMITTED reads take no row locks and
//! never enter it.

use acidrain_sql::ast::{
    Delete, Expr, Insert, Join, OrderByItem, Select, SelectItem, Statement, Update,
};
use acidrain_sql::rwset::{select_access_kind, AccessKind};

use crate::db::Database;
use crate::error::DbError;
use crate::expr::{eval, EvalScope, EvalTable};
use crate::fault::InjectedFault;
use crate::lock::{LockMode, LockOutcome, ResourceId};
use crate::plan::{index_routes, PlanTable};
use crate::result::ResultSet;
use crate::storage::{ReadView, RowVersion, TableData, TableReadGuard, TableWriteGuard};
use crate::txn::{TxnState, UndoRecord};
use crate::value::Value;

/// Execute a data statement within `txn`. Transaction-control statements
/// are handled by [`crate::Connection`], not here — as is the rollback of
/// the transaction when the returned error aborts it (the rollback must
/// run after this statement's latch guards have dropped).
///
/// A predetermined `injected` fault (from the database's
/// [`crate::fault::FaultInjector`]) preempts real execution and takes the
/// same abort path an organic failure would, so injected deadlocks and
/// conflicts roll back — and release locks — exactly like real ones.
pub(crate) fn execute(
    db: &Database,
    txn: &mut TxnState,
    stmt: &Statement,
    injected: Option<InjectedFault>,
) -> Result<ResultSet, DbError> {
    match injected {
        Some(InjectedFault::Deadlock) => Err(DbError::Deadlock),
        Some(InjectedFault::WriteConflict) => {
            Err(DbError::WriteConflict("injected concurrent update".into()))
        }
        Some(InjectedFault::LockTimeout) => Err(DbError::LockTimeout),
        // Connection drops are a session-layer fault; the connection
        // handles them before reaching the executor.
        Some(InjectedFault::ConnectionDrop) => {
            Err(DbError::Internal("connection drop reached executor".into()))
        }
        None => match stmt {
            Statement::Select(s) => exec_select(db, txn, s),
            Statement::Insert(i) => exec_insert(db, txn, i),
            Statement::Update(u) => exec_update(db, txn, u),
            Statement::Delete(d) => exec_delete(db, txn, d),
            _ => Err(DbError::Internal(
                "control statement reached executor".into(),
            )),
        },
    }
}

fn acquire(
    db: &Database,
    txn: &TxnState,
    resource: ResourceId,
    mode: LockMode,
) -> Result<(), DbError> {
    // Flagged before the attempt: even a blocked or deadlocked request may
    // have registered this transaction with the lock manager, so commit and
    // rollback must still run `release_all`. Transactions that never reach
    // this function skip the lock manager's global mutex entirely.
    txn.locks_taken.set(true);
    match db.locks.acquire(txn.id, resource, mode) {
        LockOutcome::Granted => Ok(()),
        LockOutcome::Blocked(holders) => Err(DbError::WouldBlock { holders }),
        LockOutcome::Deadlock => Err(DbError::Deadlock),
    }
}

fn table_index(db: &Database, name: &str) -> Result<usize, DbError> {
    db.storage
        .table_index(name)
        .ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

// ---------------------------------------------------------------------------
// Scans and the current-read protocol

/// One table in a statement's scope, with its lock plan.
struct ScopeTable<'s> {
    effective: &'s str,
    table_idx: usize,
    /// Column names in storage order, borrowed from the database.
    columns: &'s [String],
    /// The table-level lock the statement takes before latching, if any.
    table_lock: Option<LockMode>,
    /// The lock a current read takes on every row it names in this table
    /// (`None`: no row lock, or a coarser lock already covers the rows).
    row_lock: Option<LockMode>,
}

impl<'s> ScopeTable<'s> {
    /// The table `real`, referred to as `effective`, locked by
    /// `(table_lock, row_lock)`.
    fn resolve(
        db: &'s Database,
        effective: &'s str,
        real: &str,
        (table_lock, row_lock): (Option<LockMode>, Option<LockMode>),
    ) -> Result<Self, DbError> {
        let table_idx = table_index(db, real)?;
        Ok(ScopeTable {
            effective,
            table_idx,
            columns: &db.columns[table_idx],
            table_lock,
            row_lock,
        })
    }

    /// This table's binding in an evaluation scope, to a row's `values`.
    fn bind<'a>(&self, values: &'a [Value]) -> EvalTable<'a>
    where
        's: 'a,
    {
        EvalTable {
            effective_name: self.effective,
            columns: self.columns,
            values,
        }
    }
}

impl PlanTable for ScopeTable<'_> {
    fn effective_name(&self) -> &str {
        self.effective
    }

    fn columns(&self) -> &[String] {
        self.columns
    }
}

/// Take each scope table's table-level lock, in scope order.
fn lock_tables(db: &Database, txn: &TxnState, tables: &[ScopeTable]) -> Result<(), DbError> {
    for t in tables {
        if let Some(mode) = t.table_lock {
            acquire(db, txn, ResourceId::Table(t.table_idx), mode)?;
        }
    }
    Ok(())
}

/// One row version a statement reads or acts on, named rather than
/// copied: its slot and its position in the slot's chain. The statement's
/// latch keeps both stable, and the version's values readable in place,
/// until the statement returns (DESIGN.md §8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hit {
    slot: usize,
    version: usize,
}

/// A statement's matched row combinations, flat: one [`Hit`] per scope
/// table per match, in join order, so a joined row owns no allocation of
/// its own. Values are read in place from the latched `data` (aligned
/// with `tables`; self-joins alias one latched table).
struct Matches<'a> {
    tables: &'a [ScopeTable<'a>],
    data: &'a [&'a TableData],
    hits: Vec<Hit>,
}

impl<'a> Matches<'a> {
    /// Each match's hits, in order.
    fn rows(&self) -> std::slice::ChunksExact<'_, Hit> {
        self.hits.chunks_exact(self.tables.len())
    }

    fn len(&self) -> usize {
        self.hits.len() / self.tables.len()
    }

    /// The values `hit` names in scope table `table`.
    fn values(&self, table: usize, hit: Hit) -> &'a [Value] {
        &self.data[table].rows[hit.slot].versions[hit.version].values
    }

    /// Bind `scope` to the match `m`: one entry per scope table.
    fn bind(&self, m: &[Hit], scope: &mut EvalScope<'a>) {
        scope.tables.clear();
        scope.tables.extend(
            self.tables
                .iter()
                .zip(m)
                .enumerate()
                .map(|(i, (table, &hit))| table.bind(self.values(i, hit))),
        );
    }
}

/// The slots a walk visits, ascending: the index-supplied `candidates`, or
/// every one of a table's `len` slots when there are none.
fn walk(candidates: Option<&[usize]>, len: usize) -> impl Iterator<Item = usize> + '_ {
    let full = if candidates.is_some() { 0 } else { len };
    (0..full).chain(candidates.unwrap_or_default().iter().copied())
}

/// A (joined) scan with everything but the read view decided: the latched
/// tables (`data` is aligned with `tables`; self-joins alias one latched
/// table), the WHERE and ON clauses, and each depth's route.
struct Scan<'a> {
    data: &'a [&'a TableData],
    tables: &'a [ScopeTable<'a>],
    selection: Option<&'a Expr>,
    joins: &'a [Join],
    /// Per depth: `Some` holds ascending index-supplied candidate slots,
    /// `None` (or no entry at all) demands a full slot walk.
    candidates: Vec<Option<Vec<usize>>>,
}

impl<'a> Scan<'a> {
    /// Route each depth through an index where the WHERE/ON conjuncts
    /// allow. Must run after the latches are pinned: the probe has to see
    /// the frozen index state the scan will, and one probe then serves
    /// every pass of [`current_read`].
    ///
    /// Because index entries are visibility-agnostic supersets and probe
    /// results come back sorted in slot order, routing through an index
    /// never changes which rows the scan yields or the order it yields them
    /// in — only how many slots it inspects. The hit/fallback counters fire
    /// here, after the route is fixed, so observability never perturbs the
    /// decision; unpredicated scans are honest full walks and count as
    /// neither.
    fn plan(
        db: &Database,
        txn: &TxnState,
        data: &'a [&'a TableData],
        tables: &'a [ScopeTable<'a>],
        selection: Option<&'a Expr>,
        joins: &'a [Join],
    ) -> Self {
        let mut scan = Scan {
            data,
            tables,
            selection,
            joins,
            candidates: Vec::new(),
        };
        if selection.is_some() || !joins.is_empty() {
            if db.use_indexes() {
                let clauses = selection.into_iter().chain(joins.iter().map(|j| &j.on));
                scan.candidates = index_routes(clauses, tables, data);
            }
            for depth in 0..tables.len() {
                db.obs.index_probe(txn.id.0, scan.route(depth).is_some());
            }
        }
        scan
    }

    /// The candidate slots of depth `depth`, if an index routes it.
    fn route(&self, depth: usize) -> Option<&[usize]> {
        self.candidates.get(depth)?.as_deref()
    }

    /// The row combinations matching the ON and WHERE clauses under
    /// `view`, flat (see [`Matches`]). `scope` is the statement's one
    /// evaluation scope; the walk binds it depth by depth.
    fn run(&self, view: ReadView, scope: &mut EvalScope<'a>) -> Result<Vec<Hit>, DbError> {
        let mut hits = Vec::new();
        scope.tables.clear();
        self.rec(view, scope, &mut hits)?;
        Ok(hits)
    }

    /// Extend the partial combination by the next table. The partial
    /// combination is bound in `scope` and named by the last
    /// `scope.tables.len()` hits; the hits before it are the accepted
    /// matches. An accepted combination is copied onto the end, and the
    /// walk unwinds the copy, so a rejected row costs no allocation.
    fn rec(
        &self,
        view: ReadView,
        scope: &mut EvalScope<'a>,
        hits: &mut Vec<Hit>,
    ) -> Result<(), DbError> {
        let depth = scope.tables.len();
        if depth == self.tables.len() {
            if let Some(sel) = self.selection {
                if !eval(sel, scope)?.is_truthy() {
                    return Ok(());
                }
            }
            hits.extend_from_within(hits.len() - depth..);
            return Ok(());
        }
        let (table, rows) = (&self.tables[depth], &self.data[depth].rows);
        for slot in walk(self.route(depth), rows.len()) {
            let Some(version) = view.visible_index(&rows[slot]) else {
                continue;
            };
            hits.push(Hit { slot, version });
            scope
                .tables
                .push(table.bind(&rows[slot].versions[version].values));
            // Apply the join condition as soon as both sides are bound.
            if depth == 0 || eval(&self.joins[depth - 1].on, scope)?.is_truthy() {
                self.rec(view, scope, hits)?;
            }
            scope.tables.pop();
            hits.pop();
        }
        Ok(())
    }
}

/// The one current read: identify the versions a statement acts on, lock
/// them, and return them only once they are known to be the latest
/// committed ones.
///
/// A latch freezes a table's slots, chains and indexes for the statement,
/// but not the commit clock or the lock table: a commit stamps its versions
/// (under *read* latches, so even mid-scan), then publishes its timestamp,
/// then releases its row locks. A view drawn before that publication
/// identifies the commit's already-ended version as current — and once the
/// committer's locks are gone, nothing stops the statement from returning
/// its stale values or clobbering its end stamp. So:
///
/// 1. `identify` the versions under a view of the current clock;
/// 2. request each scope table's `row_lock` on every row identified in it
///    (`None` skips a table a coarser lock already covers) — a
///    `WouldBlock` or `Deadlock` exits here, before any effect, and the
///    caller's guards drop;
/// 3. re-draw the clock after the last grant; if it has not moved, done;
/// 4. otherwise re-`identify` under the fresh view, and finish when the
///    named `(table, slot, version)` set is the one just locked; else go
///    to 2.
///
/// Sound because locks are released only after the clock is published: a
/// grant proves the refreshed clock covers every commit that touched the
/// granted row, and the held lock keeps later ones out, so a set that
/// survives step 4 is current and stays so until this transaction ends.
/// With nothing to lock there is no grant to order against and the first
/// view stands (any clock value is a consistent cut). Terminates because a
/// row changes under this statement at most once before its lock is held.
/// Under a scheduler that runs one statement at a time the clock cannot
/// move mid-statement, so the driver is always a single pass.
fn current_read(
    db: &Database,
    txn: &TxnState,
    tables: &[ScopeTable],
    mut identify: impl FnMut(ReadView) -> Result<Vec<Hit>, DbError>,
) -> Result<Vec<Hit>, DbError> {
    let mut view = db.current_read(txn.id);
    let mut found = identify(view)?;
    loop {
        let mut requested = false;
        for (hit, table) in found.iter().zip(tables.iter().cycle()) {
            if let Some(mode) = table.row_lock {
                acquire(db, txn, ResourceId::Row(table.table_idx, hit.slot), mode)?;
                requested = true;
            }
        }
        let fresh = db.current_read(txn.id);
        if !requested || fresh == view {
            return Ok(found);
        }
        let refound = identify(fresh)?;
        let stable = refound == found;
        view = fresh;
        found = refound;
        if stable {
            return Ok(found);
        }
    }
}

// ---------------------------------------------------------------------------
// SELECT

fn exec_select(db: &Database, txn: &mut TxnState, s: &Select) -> Result<ResultSet, DbError> {
    // Table-less SELECT: evaluate the projection over an empty scope.
    let Some(from) = &s.from else {
        let scope = EvalScope::default();
        let mut columns = Vec::new();
        let mut row = Vec::new();
        for item in &s.projection {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Unsupported("wildcard without FROM".into()));
            };
            columns.push(projection_name(expr, alias));
            row.push(eval(expr, &scope)?);
        }
        return Ok(ResultSet {
            columns,
            rows: vec![row],
        });
    };

    // Resolve tables and the lock plan: per table, the table-level lock and
    // the row-level lock on everything read. A SERIALIZABLE predicate read
    // S-locks the whole table before its view is drawn, which already
    // covers every row.
    let isolation = txn.isolation;
    let tables = std::iter::once(from)
        .chain(s.joins.iter().map(|j| &j.table))
        .map(|t| {
            let locks = if s.for_update {
                (
                    Some(LockMode::IntentionExclusive),
                    Some(LockMode::Exclusive),
                )
            } else if isolation.read_locks_predicates()
                && select_access_kind(s, &t.name, &db.schema) == AccessKind::Predicate
            {
                (Some(LockMode::Shared), None)
            } else if isolation.read_locks_items() {
                (Some(LockMode::IntentionShared), Some(LockMode::Shared))
            } else {
                (None, None)
            };
            ScopeTable::resolve(db, t.effective_name(), &t.name, locks)
        })
        .collect::<Result<Vec<_>, _>>()?;
    lock_tables(db, txn, &tables)?;

    // Pin the statement's read latches: distinct tables only (a self-join
    // needs one latch), in ascending index order (latch hierarchy).
    let token = db.obs.latch_wait_start();
    let mut guards: Vec<(usize, TableReadGuard)> = Vec::with_capacity(tables.len());
    while let Some(next) = tables
        .iter()
        .map(|t| t.table_idx)
        .filter(|&idx| guards.last().is_none_or(|&(latched, _)| idx > latched))
        .min()
    {
        guards.push((next, db.storage.read(next)));
    }
    db.obs.latch_acquired(token, txn.id.0);
    let data: Vec<&TableData> = tables
        .iter()
        .map(|t| {
            let pos = guards
                .binary_search_by_key(&t.table_idx, |&(idx, _)| idx)
                .expect("latched table");
            &*guards[pos].1
        })
        .collect();

    // Locking reads and lock-based levels use a current read; MVCC levels
    // scan once under their snapshot.
    let scan = Scan::plan(db, txn, &data, &tables, s.selection.as_ref(), &s.joins);
    let mut scope = EvalScope {
        tables: Vec::with_capacity(tables.len()),
    };
    let hits = if s.for_update || isolation.read_locks_items() {
        current_read(db, txn, &tables, |view| scan.run(view, &mut scope))?
    } else if isolation.reads_uncommitted() {
        scan.run(ReadView::Latest, &mut scope)?
    } else {
        let as_of = db.read_snapshot_ts(txn);
        scan.run(ReadView::Snapshot { as_of, txn: txn.id }, &mut scope)?
    };

    let matches = Matches {
        tables: &tables,
        data: &data,
        hits,
    };
    project(s, matches, &mut scope)
}

fn projection_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column(c) => c.column.clone(),
        other => other.to_string(),
    }
}

/// Apply projection, ORDER BY, and LIMIT to the matched rows, evaluating
/// through the statement's one `scope`.
fn project<'a>(
    s: &Select,
    mut matches: Matches<'a>,
    scope: &mut EvalScope<'a>,
) -> Result<ResultSet, DbError> {
    let aggregate_mode = s
        .projection
        .iter()
        .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()));

    if aggregate_mode {
        let mut columns = Vec::new();
        let mut row = Vec::new();
        for item in &s.projection {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Unsupported(
                    "wildcard projection mixed with aggregates".into(),
                ));
            };
            columns.push(projection_name(expr, alias));
            row.push(eval_aggregate(expr, &matches, scope)?);
        }
        return Ok(ResultSet {
            columns,
            rows: vec![row],
        });
    }

    // ORDER BY before projection (sort keys may not be projected).
    if !s.order_by.is_empty() {
        sort_matches(&mut matches, &s.order_by, scope)?;
    }

    if let Some(limit) = s.limit {
        let stride = matches.tables.len();
        matches
            .hits
            .truncate((limit as usize).saturating_mul(stride));
    }

    // Column headers.
    let tables = matches.tables;
    let mut columns = Vec::new();
    for item in &s.projection {
        match item {
            SelectItem::Wildcard => {
                for t in tables {
                    columns.extend(t.columns.iter().cloned());
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let t = tables
                    .iter()
                    .find(|t| t.effective == q)
                    .ok_or_else(|| DbError::UnknownTable(q.clone()))?;
                columns.extend(t.columns.iter().cloned());
            }
            SelectItem::Expr { expr, alias } => columns.push(projection_name(expr, alias)),
        }
    }

    let mut rows = Vec::with_capacity(matches.len());
    for m in matches.rows() {
        matches.bind(m, scope);
        let mut row = Vec::with_capacity(columns.len());
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => {
                    for (ti, &hit) in m.iter().enumerate() {
                        row.extend_from_slice(matches.values(ti, hit));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let ti = tables.iter().position(|t| t.effective == q).unwrap();
                    row.extend_from_slice(matches.values(ti, m[ti]));
                }
                SelectItem::Expr { expr, .. } => row.push(eval(expr, scope)?),
            }
        }
        rows.push(row);
    }
    Ok(ResultSet { columns, rows })
}

/// Sort the matches by their ORDER BY keys, stably. Each match's keys are
/// evaluated once, into one flat buffer.
fn sort_matches<'a>(
    matches: &mut Matches<'a>,
    order_by: &[OrderByItem],
    scope: &mut EvalScope<'a>,
) -> Result<(), DbError> {
    let width = order_by.len();
    let mut keys = Vec::with_capacity(matches.len() * width);
    for m in matches.rows() {
        matches.bind(m, scope);
        for ob in order_by {
            keys.push(eval(&ob.expr, scope)?);
        }
    }
    let mut order: Vec<usize> = (0..matches.len()).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (&keys[a * width..][..width], &keys[b * width..][..width]);
        for ((x, y), ob) in ka.iter().zip(kb).zip(order_by) {
            let ord = x.compare(y).unwrap_or(std::cmp::Ordering::Equal);
            let ord = if ob.asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let stride = matches.tables.len();
    matches.hits = order
        .iter()
        .flat_map(|&i| &matches.hits[i * stride..][..stride])
        .copied()
        .collect();
    Ok(())
}

/// Evaluate an aggregate expression over the matched row set.
fn eval_aggregate<'a>(
    expr: &Expr,
    matches: &Matches<'a>,
    scope: &mut EvalScope<'a>,
) -> Result<Value, DbError> {
    match expr {
        Expr::Function {
            name,
            args,
            wildcard,
        } => {
            const AGGREGATES: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];
            let Some(func) = AGGREGATES
                .into_iter()
                .find(|f| name.eq_ignore_ascii_case(f))
            else {
                let upper = name.to_ascii_uppercase();
                return Err(DbError::Unsupported(format!("function {upper}")));
            };
            let mut per_row = |arg: &Expr| -> Result<Vec<Value>, DbError> {
                matches
                    .rows()
                    .map(|m| {
                        matches.bind(m, scope);
                        eval(arg, scope)
                    })
                    .collect()
            };
            match func {
                "COUNT" if *wildcard => Ok(Value::Int(matches.len() as i64)),
                "COUNT" => {
                    let arg = args.first().ok_or_else(|| {
                        DbError::Unsupported("COUNT requires an argument or *".into())
                    })?;
                    let vals = per_row(arg)?;
                    Ok(Value::Int(
                        vals.iter().filter(|v| !v.is_null()).count() as i64
                    ))
                }
                _ => {
                    let arg = args.first().ok_or_else(|| {
                        DbError::Unsupported(format!("{func} requires an argument"))
                    })?;
                    let vals: Vec<Value> =
                        per_row(arg)?.into_iter().filter(|v| !v.is_null()).collect();
                    if vals.is_empty() {
                        return Ok(Value::Null);
                    }
                    match func {
                        "SUM" => {
                            let mut acc = vals[0].clone();
                            for v in &vals[1..] {
                                acc = acc.add(v)?;
                            }
                            Ok(acc)
                        }
                        "AVG" => {
                            let mut acc = vals[0].clone();
                            for v in &vals[1..] {
                                acc = acc.add(v)?;
                            }
                            acc.div(&Value::Int(vals.len() as i64))
                        }
                        "MIN" => Ok(fold_extreme(vals, std::cmp::Ordering::Less)),
                        "MAX" => Ok(fold_extreme(vals, std::cmp::Ordering::Greater)),
                        _ => unreachable!(),
                    }
                }
            }
        }
        Expr::Literal(lit) => Ok(Value::from_literal(lit)),
        Expr::Binary { left, op, right } => {
            let l = eval_aggregate(left, matches, scope)?;
            let r = eval_aggregate(right, matches, scope)?;
            use acidrain_sql::ast::BinOp;
            match op {
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                BinOp::Div => l.div(&r),
                _ => Err(DbError::Unsupported(
                    "comparison over aggregates is not supported".into(),
                )),
            }
        }
        Expr::Unary {
            op: acidrain_sql::ast::UnaryOp::Neg,
            expr,
        } => eval_aggregate(expr, matches, scope)?.neg(),
        _ => Err(DbError::Unsupported(
            "non-aggregate expression in aggregate projection".into(),
        )),
    }
}

fn fold_extreme(vals: Vec<Value>, keep: std::cmp::Ordering) -> Value {
    let mut iter = vals.into_iter();
    let mut best = iter.next().expect("non-empty");
    for v in iter {
        if v.compare(&best) == Some(keep) {
            best = v;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// INSERT

fn exec_insert(db: &Database, txn: &mut TxnState, i: &Insert) -> Result<ResultSet, DbError> {
    // The duplicate-key wait is a current read taking S row locks.
    let scope = ScopeTable::resolve(
        db,
        &i.table,
        &i.table,
        (Some(LockMode::IntentionExclusive), Some(LockMode::Shared)),
    )?;
    let table_idx = scope.table_idx;
    let table_schema = db
        .schema
        .table(&i.table)
        .ok_or_else(|| DbError::UnknownTable(i.table.clone()))?;
    let tables = std::slice::from_ref(&scope);
    lock_tables(db, txn, tables)?;

    // Build every row before touching storage so the statement is atomic.
    let empty_scope = EvalScope::default();
    // The columns VALUES supplies, in order: the listed ones, else every
    // column in schema order.
    let provided_len = if i.columns.is_empty() {
        table_schema.columns.len()
    } else {
        i.columns.len()
    };
    let provided = |k: usize| match i.columns.get(k) {
        Some(name) => name.as_str(),
        None => table_schema.columns[k].name.as_str(),
    };
    let mut new_rows: Vec<Vec<Value>> = Vec::with_capacity(i.rows.len());
    for row_exprs in &i.rows {
        if row_exprs.len() != provided_len {
            return Err(DbError::Type(format!(
                "INSERT into {} provides {} values for {} columns",
                i.table,
                row_exprs.len(),
                provided_len
            )));
        }
        let mut values = Vec::with_capacity(table_schema.columns.len());
        for col in &table_schema.columns {
            match (0..provided_len).position(|k| provided(k) == col.name) {
                Some(pos) => values.push(eval(&row_exprs[pos], &empty_scope)?),
                None if col.auto_increment => values.push(Value::Null), // filled below
                None => match &col.default {
                    Some(lit) => values.push(Value::from_literal(lit)),
                    None => values.push(Value::Null),
                },
            }
        }
        // Unknown target columns are an error.
        for p in (0..provided_len).map(provided) {
            if table_schema.column(p).is_none() {
                return Err(DbError::UnknownColumn(format!("{}.{}", i.table, p)));
            }
        }
        new_rows.push(values);
    }

    // Pin the table's write latch for the checks and the apply phase.
    let token = db.obs.latch_wait_start();
    let mut table = db.storage.write(table_idx);
    db.obs.latch_acquired(token, txn.id.0);

    // Unique-constraint checks against live rows and within the batch.
    // Auto-increment unique columns are checked too: an *explicit* value
    // supplied for one must not duplicate a stored row. Values the engine
    // will assign below are still `Null` here and skip the check.
    for (col, def) in table_schema.columns.iter().enumerate() {
        if !def.unique {
            continue;
        }
        for (ri, row) in new_rows.iter().enumerate() {
            let v = &row[col];
            if v.is_null() {
                continue;
            }
            let equals_v = |version: &RowVersion| version.values[col].sql_eq(v).unwrap_or(false);
            let duplicate = || {
                DbError::ConstraintViolation(format!(
                    "duplicate value {v} for unique column {}.{}",
                    i.table, def.name
                ))
            };
            // Within the batch.
            if new_rows[..ri]
                .iter()
                .any(|o| o[col].sql_eq(v).unwrap_or(false))
            {
                return Err(duplicate());
            }
            // Unique columns are always index-backed, so the duplicate
            // probe is the point `[v, v]` unless `set_use_indexes(false)`
            // asks for the reference scan. The index is a visibility-
            // agnostic superset: every stored version carrying a
            // `sql_eq`-equal value has its slot among the candidates.
            let dup_candidates = db
                .use_indexes()
                .then(|| table.indexes.probe(col, Some(v), Some(v)))
                .flatten();
            db.obs.index_probe(txn.id.0, dup_candidates.is_some());
            // Against stored rows, as a current read: a committed-visible
            // duplicate violates; a duplicate from an in-flight writer —
            // uncommitted (begin word still tagged) *or* stamped by a
            // commit the view's clock does not cover yet — is waited out
            // under an S lock (InnoDB waits on the duplicate-key lock) and
            // judged again under the post-grant view. Every conflicting
            // writer is named: waiting out only one would let another
            // commit its duplicate unobserved.
            current_read(db, txn, tables, |view| {
                let mut in_flight = Vec::new();
                for slot_idx in walk(dup_candidates.as_deref(), table.rows.len()) {
                    let slot = &table.rows[slot_idx];
                    if view.visible_version(slot).is_some_and(equals_v) {
                        return Err(duplicate());
                    }
                    let Some(last) = slot.versions.last() else {
                        continue;
                    };
                    if !last.created_by(txn.id)
                        && last.is_open()
                        && !view.sees(last)
                        && equals_v(last)
                    {
                        in_flight.push(Hit {
                            slot: slot_idx,
                            version: slot.versions.len() - 1,
                        });
                    }
                }
                Ok(in_flight)
            })?;
        }
    }

    // Apply: assign auto-increment values and append slots.
    let n = new_rows.len();
    let mut last_insert_id = Value::Null;
    for mut values in new_rows {
        for (ci, col) in table_schema.columns.iter().enumerate() {
            if col.auto_increment && values[ci].is_null() {
                let v = table.next_auto();
                values[ci] = Value::Int(v);
                last_insert_id = Value::Int(v);
            } else if col.auto_increment {
                if let Value::Int(v) = values[ci] {
                    last_insert_id = Value::Int(v);
                    if v >= table.auto_counter {
                        table.auto_counter = v + 1;
                    }
                }
            }
        }
        let slot_idx = table.push_row(RowVersion::uncommitted(values, txn.id));
        // New rows are ours; the lock cannot block.
        acquire(
            db,
            txn,
            ResourceId::Row(table_idx, slot_idx),
            LockMode::Exclusive,
        )?;
        txn.undo.push(UndoRecord::Created {
            table: table_idx,
            row: slot_idx,
            version: 0,
        });
    }
    Ok(ResultSet {
        columns: vec!["affected".to_string(), "last_insert_id".to_string()],
        rows: vec![vec![Value::Int(n as i64), last_insert_id]],
    })
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE

/// The shared front half of UPDATE and DELETE: resolve the table, take its
/// IX lock and write latch, and X-lock the rows matching `selection` as a
/// current read (plus Snapshot Isolation's first-updater-wins validation).
/// Returns the table's scope entry, the held latch and the locked targets.
fn lock_write_targets<'a>(
    db: &'a Database,
    txn: &mut TxnState,
    name: &'a str,
    selection: Option<&Expr>,
) -> Result<(ScopeTable<'a>, TableWriteGuard<'a>, Vec<Hit>), DbError> {
    let scope = ScopeTable::resolve(
        db,
        name,
        name,
        (
            Some(LockMode::IntentionExclusive),
            Some(LockMode::Exclusive),
        ),
    )?;
    let tables = std::slice::from_ref(&scope);
    lock_tables(db, txn, tables)?;
    let token = db.obs.latch_wait_start();
    let table = db.storage.write(scope.table_idx);
    db.obs.latch_acquired(token, txn.id.0);
    // Pin the SI snapshot before writing so validation has a baseline even
    // when the transaction starts with a write. Pinned even for an
    // autocommit statement: a blocked attempt keeps its transaction, and
    // the retry must validate against this first snapshot (DESIGN.md §8.8).
    let snapshot = db.read_snapshot_ts(txn);

    let data = [&*table];
    let scan = Scan::plan(db, txn, &data, tables, selection, &[]);
    let mut eval_scope = EvalScope {
        tables: Vec::with_capacity(1),
    };
    let targets = current_read(db, txn, tables, |view| scan.run(view, &mut eval_scope))?;

    // Snapshot Isolation's first-updater-wins rule.
    if txn.isolation.validates_write_snapshot() {
        for t in &targets {
            let modified_since = table.rows[t.slot].versions.iter().any(|v| {
                !v.created_by(txn.id)
                    && (v.begin_ts().is_some_and(|ts| ts > snapshot)
                        || v.end_ts().is_some_and(|ts| ts > snapshot))
            });
            if modified_since {
                return Err(DbError::WriteConflict(format!(
                    "row {} of table {} changed after this transaction's snapshot",
                    t.slot, table.name
                )));
            }
        }
    }
    Ok((scope, table, targets))
}

/// End a locked target's version on behalf of `txn` and record the undo.
/// The X lock plus [`current_read`]'s post-grant pass guarantee the version
/// is live: a committed ender would have published a timestamp the final
/// view covers, making the version invisible, and an uncommitted ender
/// would still hold the row lock.
fn end_target(table: &TableData, table_idx: usize, txn: &mut TxnState, target: &Hit) {
    let version = &table.rows[target.slot].versions[target.version];
    debug_assert!(version.is_open(), "locked target version already ended");
    version.mark_ended(txn.id);
    txn.undo.push(UndoRecord::Ended {
        table: table_idx,
        row: target.slot,
        version: target.version,
    });
}

fn exec_update(db: &Database, txn: &mut TxnState, u: &Update) -> Result<ResultSet, DbError> {
    let (scope, mut table, targets) = lock_write_targets(db, txn, &u.table, u.selection.as_ref())?;
    let columns = scope.columns;

    // Compute all new value vectors before mutating (statement atomicity).
    let mut assignment_indices = Vec::with_capacity(u.assignments.len());
    for a in &u.assignments {
        let idx = columns
            .iter()
            .position(|c| c == &a.column)
            .ok_or_else(|| DbError::UnknownColumn(format!("{}.{}", u.table, a.column)))?;
        assignment_indices.push(idx);
    }
    let mut updated: Vec<Vec<Value>> = Vec::with_capacity(targets.len());
    let mut eval_scope = EvalScope::single(scope.effective, columns, &[]);
    for t in &targets {
        let values = &table.rows[t.slot].versions[t.version].values;
        eval_scope.tables[0].values = values;
        let mut new_values = values.clone();
        for (a, &ci) in u.assignments.iter().zip(&assignment_indices) {
            new_values[ci] = eval(&a.value, &eval_scope)?;
        }
        updated.push(new_values);
    }

    // Apply: end the identified version (by its recorded index — the
    // chain is frozen under the latch), append the new one.
    let n = targets.len();
    for (t, new_values) in targets.iter().zip(updated) {
        end_target(&table, scope.table_idx, txn, t);
        let created = table.push_version(t.slot, RowVersion::uncommitted(new_values, txn.id));
        txn.undo.push(UndoRecord::Created {
            table: scope.table_idx,
            row: t.slot,
            version: created,
        });
    }
    Ok(ResultSet::affected(n))
}

fn exec_delete(db: &Database, txn: &mut TxnState, d: &Delete) -> Result<ResultSet, DbError> {
    let (scope, table, targets) = lock_write_targets(db, txn, &d.table, d.selection.as_ref())?;
    for t in &targets {
        end_target(&table, scope.table_idx, txn, t);
    }
    Ok(ResultSet::affected(targets.len()))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

    use crate::db::Database;
    use crate::error::DbError;
    use crate::isolation::IsolationLevel;
    use crate::value::Value;

    fn shop_schema() -> Schema {
        Schema::new()
            .with_table(TableSchema::new(
                "product",
                vec![
                    ColumnDef::new("id", ColumnType::Int).auto_increment(),
                    ColumnDef::new("name", ColumnType::Str),
                    ColumnDef::new("stock", ColumnType::Int),
                    ColumnDef::new("price", ColumnType::Int),
                ],
            ))
            .with_table(TableSchema::new(
                "cart_items",
                vec![
                    ColumnDef::new("id", ColumnType::Int).auto_increment(),
                    ColumnDef::new("cart_id", ColumnType::Int),
                    ColumnDef::new("product_id", ColumnType::Int),
                    ColumnDef::new("qty", ColumnType::Int),
                ],
            ))
            .with_table(TableSchema::new(
                "users",
                vec![
                    ColumnDef::new("id", ColumnType::Int).auto_increment(),
                    ColumnDef::new("email", ColumnType::Str).unique(),
                ],
            ))
    }

    fn db() -> Arc<Database> {
        let db = Database::new(shop_schema(), IsolationLevel::ReadCommitted);
        db.seed(
            "product",
            vec![
                vec![Value::Int(1), "pen".into(), Value::Int(10), Value::Int(2)],
                vec![
                    Value::Int(2),
                    "laptop".into(),
                    Value::Int(3),
                    Value::Int(900),
                ],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn basic_select_and_projection() {
        let db = db();
        let mut c = db.connect();
        let rs = c
            .execute("SELECT name, stock FROM product WHERE price > 100")
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.value(0, "name"), Some(&Value::Str("laptop".into())));
        let rs = c
            .execute("SELECT * FROM product ORDER BY price DESC")
            .unwrap();
        assert_eq!(rs.value(0, "name"), Some(&Value::Str("laptop".into())));
        let rs = c
            .execute("SELECT * FROM product ORDER BY price DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn aggregates() {
        let db = db();
        let mut c = db.connect();
        assert_eq!(c.query_i64("SELECT COUNT(*) FROM product").unwrap(), 2);
        assert_eq!(c.query_i64("SELECT SUM(stock) FROM product").unwrap(), 13);
        assert_eq!(c.query_i64("SELECT MIN(price) FROM product").unwrap(), 2);
        assert_eq!(c.query_i64("SELECT MAX(price) FROM product").unwrap(), 900);
        assert_eq!(
            c.query_i64("SELECT SUM(stock * price) FROM product")
                .unwrap(),
            10 * 2 + 3 * 900
        );
        // Empty SUM is NULL.
        let rs = c
            .execute("SELECT SUM(stock) FROM product WHERE price > 99999")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Null));
        assert_eq!(
            c.query_i64("SELECT COUNT(*) FROM product WHERE price > 99999")
                .unwrap(),
            0
        );
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let db = db();
        let mut c = db.connect();
        c.execute("INSERT INTO product (name, stock, price) VALUES ('mug', 5, 7)")
            .unwrap();
        assert_eq!(c.query_i64("SELECT COUNT(*) FROM product").unwrap(), 3);
        // Auto-increment continued from the seed.
        assert_eq!(
            c.query_i64("SELECT id FROM product WHERE name = 'mug'")
                .unwrap(),
            3
        );
        let rs = c
            .execute("UPDATE product SET stock = stock - 2 WHERE name = 'mug'")
            .unwrap();
        assert_eq!(rs.affected_rows(), 1);
        assert_eq!(
            c.query_i64("SELECT stock FROM product WHERE name = 'mug'")
                .unwrap(),
            3
        );
        c.execute("DELETE FROM product WHERE name = 'mug'").unwrap();
        assert_eq!(c.query_i64("SELECT COUNT(*) FROM product").unwrap(), 2);
    }

    #[test]
    fn join_select() {
        let db = db();
        db.seed(
            "cart_items",
            vec![
                vec![Value::Null, Value::Int(1), Value::Int(1), Value::Int(2)],
                vec![Value::Null, Value::Int(1), Value::Int(2), Value::Int(1)],
                vec![Value::Null, Value::Int(9), Value::Int(1), Value::Int(5)],
            ],
        )
        .unwrap();
        let mut c = db.connect();
        let total = c
            .query_i64(
                "SELECT SUM(ci.qty * p.price) FROM cart_items AS ci INNER JOIN product AS p \
                 ON p.id = ci.product_id WHERE ci.cart_id = 1",
            )
            .unwrap();
        assert_eq!(total, 2 * 2 + 900);
    }

    #[test]
    fn transactions_commit_and_rollback() {
        let db = db();
        let mut c = db.connect();
        c.execute("BEGIN").unwrap();
        c.execute("UPDATE product SET stock = 0 WHERE id = 1")
            .unwrap();
        c.execute("ROLLBACK").unwrap();
        assert_eq!(
            c.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            10
        );
        c.execute("BEGIN").unwrap();
        c.execute("UPDATE product SET stock = 0 WHERE id = 1")
            .unwrap();
        c.execute("COMMIT").unwrap();
        assert_eq!(
            c.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            0
        );
    }

    #[test]
    fn autocommit_zero_opens_transaction() {
        let db = db();
        let mut c1 = db.connect();
        let mut c2 = db.connect();
        c1.execute("SET autocommit=0").unwrap();
        c1.execute("UPDATE product SET stock = 99 WHERE id = 1")
            .unwrap();
        // Uncommitted: another session still sees the old value.
        assert_eq!(
            c2.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            10
        );
        c1.execute("COMMIT").unwrap();
        assert_eq!(
            c2.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            99
        );
    }

    #[test]
    fn set_autocommit_one_commits_open_txn() {
        let db = db();
        let mut c = db.connect();
        c.execute("SET autocommit=0").unwrap();
        c.execute("UPDATE product SET stock = 42 WHERE id = 1")
            .unwrap();
        c.execute("SET autocommit=1").unwrap();
        assert!(!c.in_transaction());
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(42));
    }

    #[test]
    fn dirty_read_only_under_read_uncommitted() {
        let db = db();
        let mut writer = db.connect();
        writer.execute("BEGIN").unwrap();
        writer
            .execute("UPDATE product SET stock = 0 WHERE id = 1")
            .unwrap();

        let mut rc = db.connect();
        rc.set_isolation(IsolationLevel::ReadCommitted);
        assert_eq!(
            rc.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            10
        );

        let mut ru = db.connect();
        ru.set_isolation(IsolationLevel::ReadUncommitted);
        assert_eq!(
            ru.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            0
        );

        writer.execute("ROLLBACK").unwrap();
        assert_eq!(
            ru.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            10
        );
    }

    #[test]
    fn write_locks_block_concurrent_writers() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE product SET stock = 5 WHERE id = 1")
            .unwrap();
        b.execute("BEGIN").unwrap();
        let err = b
            .try_execute("UPDATE product SET stock = 6 WHERE id = 1")
            .unwrap_err();
        assert!(matches!(err, DbError::WouldBlock { .. }), "{err}");
        a.execute("COMMIT").unwrap();
        // Retry succeeds and sees a's committed value underneath.
        b.try_execute("UPDATE product SET stock = stock + 1 WHERE id = 1")
            .unwrap();
        b.execute("COMMIT").unwrap();
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(6));
    }

    #[test]
    fn select_for_update_blocks_readers_for_update() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.execute("BEGIN").unwrap();
        a.execute("SELECT stock FROM product WHERE id = 1 FOR UPDATE")
            .unwrap();
        b.execute("BEGIN").unwrap();
        let err = b
            .try_execute("SELECT stock FROM product WHERE id = 1 FOR UPDATE")
            .unwrap_err();
        assert!(matches!(err, DbError::WouldBlock { .. }));
        // Plain reads are not blocked (MVCC).
        assert_eq!(
            b.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            10
        );
        a.execute("COMMIT").unwrap();
    }

    #[test]
    fn unique_constraint_enforced() {
        let db = db();
        let mut c = db.connect();
        c.execute("INSERT INTO users (email) VALUES ('a@example.com')")
            .unwrap();
        let err = c
            .execute("INSERT INTO users (email) VALUES ('a@example.com')")
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation(_)));
        // Batch-internal duplicates are also rejected atomically.
        let err = c
            .execute("INSERT INTO users (email) VALUES ('b@x.com'), ('b@x.com')")
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation(_)));
        let mut c2 = db.connect();
        assert_eq!(c2.query_i64("SELECT COUNT(*) FROM users").unwrap(), 1);
    }

    #[test]
    fn deadlock_detected_and_victim_rolled_back() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("UPDATE product SET stock = 1 WHERE id = 1")
            .unwrap();
        b.execute("UPDATE product SET stock = 2 WHERE id = 2")
            .unwrap();
        assert!(matches!(
            b.try_execute("UPDATE product SET stock = 3 WHERE id = 1"),
            Err(DbError::WouldBlock { .. })
        ));
        let err = a
            .try_execute("UPDATE product SET stock = 4 WHERE id = 2")
            .unwrap_err();
        assert_eq!(err, DbError::Deadlock);
        assert!(!a.in_transaction());
        // b can proceed now.
        b.try_execute("UPDATE product SET stock = 3 WHERE id = 1")
            .unwrap();
        b.execute("COMMIT").unwrap();
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(3));
    }

    #[test]
    fn snapshot_isolation_first_updater_wins() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.set_isolation(IsolationLevel::SnapshotIsolation);
        b.set_isolation(IsolationLevel::SnapshotIsolation);
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        // Pin both snapshots.
        a.execute("SELECT stock FROM product WHERE id = 1").unwrap();
        b.execute("SELECT stock FROM product WHERE id = 1").unwrap();
        a.execute("UPDATE product SET stock = 9 WHERE id = 1")
            .unwrap();
        a.execute("COMMIT").unwrap();
        let err = b
            .try_execute("UPDATE product SET stock = 8 WHERE id = 1")
            .unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
        assert!(!b.in_transaction());
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(9));
    }

    #[test]
    fn mysql_rr_reads_snapshot_but_allows_lost_update() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.set_isolation(IsolationLevel::MySqlRepeatableRead);
        b.set_isolation(IsolationLevel::MySqlRepeatableRead);
        a.execute("BEGIN").unwrap();
        let stock_a = a
            .query_i64("SELECT stock FROM product WHERE id = 1")
            .unwrap();
        assert_eq!(stock_a, 10);
        // b commits a decrement.
        b.execute("UPDATE product SET stock = stock - 4 WHERE id = 1")
            .unwrap();
        // a's repeated read still sees 10 (repeatable read)...
        assert_eq!(
            a.query_i64("SELECT stock FROM product WHERE id = 1")
                .unwrap(),
            10
        );
        // ...but a's blind write based on the stale read clobbers b's
        // update: the classic Lost Update MySQL-RR admits.
        a.execute(&format!(
            "UPDATE product SET stock = {} WHERE id = 1",
            stock_a - 1
        ))
        .unwrap();
        a.execute("COMMIT").unwrap();
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(9));
    }

    #[test]
    fn true_repeatable_read_prevents_lost_update_via_deadlock() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.set_isolation(IsolationLevel::RepeatableRead);
        b.set_isolation(IsolationLevel::RepeatableRead);
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("SELECT stock FROM product WHERE id = 1").unwrap();
        b.execute("SELECT stock FROM product WHERE id = 1").unwrap();
        // Both try to upgrade: one blocks, the other deadlocks.
        let r1 = a.try_execute("UPDATE product SET stock = 9 WHERE id = 1");
        assert!(matches!(r1, Err(DbError::WouldBlock { .. })));
        let r2 = b.try_execute("UPDATE product SET stock = 8 WHERE id = 1");
        assert_eq!(r2.unwrap_err(), DbError::Deadlock);
        // a can now proceed.
        a.try_execute("UPDATE product SET stock = 9 WHERE id = 1")
            .unwrap();
        a.execute("COMMIT").unwrap();
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(9));
    }

    #[test]
    fn serializable_blocks_phantoms() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.set_isolation(IsolationLevel::Serializable);
        b.set_isolation(IsolationLevel::Serializable);
        a.execute("BEGIN").unwrap();
        // Predicate read takes a shared table lock.
        a.execute("SELECT COUNT(*) FROM product WHERE price > 1")
            .unwrap();
        b.execute("BEGIN").unwrap();
        let err = b
            .try_execute("INSERT INTO product (name, stock, price) VALUES ('x', 1, 5)")
            .unwrap_err();
        assert!(matches!(err, DbError::WouldBlock { .. }));
        a.execute("COMMIT").unwrap();
        b.try_execute("INSERT INTO product (name, stock, price) VALUES ('x', 1, 5)")
            .unwrap();
        b.execute("COMMIT").unwrap();
    }

    #[test]
    fn phantom_occurs_below_serializable() {
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::RepeatableRead,
            IsolationLevel::SnapshotIsolation,
        ] {
            let db = db();
            let mut a = db.connect();
            let mut b = db.connect();
            a.set_isolation(level);
            b.set_isolation(level);
            a.execute("BEGIN").unwrap();
            let before = a.query_i64("SELECT COUNT(*) FROM product").unwrap();
            assert_eq!(before, 2, "{level}");
            // Concurrent insert commits without blocking.
            b.execute("INSERT INTO product (name, stock, price) VALUES ('x', 1, 5)")
                .unwrap();
            a.execute("COMMIT").unwrap();
            assert_eq!(db.table_rows("product").unwrap().len(), 3, "{level}");
        }
    }

    #[test]
    fn query_log_records_api_tags() {
        let db = db();
        let mut c = db.connect();
        c.set_api("checkout", 7);
        c.execute("SELECT COUNT(*) FROM product").unwrap();
        c.clear_api();
        c.execute("SELECT COUNT(*) FROM cart_items").unwrap();
        let log = db.log_entries();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].api.as_ref().unwrap().name, "checkout");
        assert!(log[1].api.is_none());
    }

    #[test]
    fn blocked_statements_are_not_logged() {
        let db = db();
        let mut a = db.connect();
        let mut b = db.connect();
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE product SET stock = 1 WHERE id = 1")
            .unwrap();
        let _ = b.try_execute("UPDATE product SET stock = 2 WHERE id = 1");
        let logged: Vec<_> = db.log_entries().iter().map(|e| e.sql.clone()).collect();
        assert!(
            !logged.iter().any(|s| s.contains("stock = 2")),
            "{logged:?}"
        );
    }

    #[test]
    fn dropped_connection_rolls_back() {
        let db = db();
        {
            let mut c = db.connect();
            c.execute("BEGIN").unwrap();
            c.execute("UPDATE product SET stock = 0 WHERE id = 1")
                .unwrap();
        }
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(10));
        assert_eq!(db.active_transactions(), 0);
    }

    #[test]
    fn statement_errors_keep_explicit_transaction_open() {
        let db = db();
        let mut c = db.connect();
        c.execute("BEGIN").unwrap();
        assert!(c.execute("SELECT nope FROM product").is_err());
        assert!(c.in_transaction());
        c.execute("UPDATE product SET stock = 7 WHERE id = 1")
            .unwrap();
        c.execute("COMMIT").unwrap();
        assert_eq!(db.table_rows("product").unwrap()[0][2], Value::Int(7));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = db();
        let mut c = db.connect();
        assert!(matches!(
            c.execute("SELECT * FROM nope").unwrap_err(),
            DbError::UnknownTable(_)
        ));
        assert!(matches!(
            c.execute("UPDATE product SET nope = 1").unwrap_err(),
            DbError::UnknownColumn(_)
        ));
        assert!(matches!(
            c.execute("INSERT INTO product (nope) VALUES (1)")
                .unwrap_err(),
            DbError::UnknownColumn(_)
        ));
    }

    /// A schema whose `qty` column is declared-indexed (range-probe
    /// eligible) without being unique.
    fn indexed_schema() -> Schema {
        Schema::new().with_table(TableSchema::new(
            "items",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("qty", ColumnType::Int).indexed(),
                ColumnDef::new("tag", ColumnType::Str),
            ],
        ))
    }

    #[test]
    fn range_predicates_match_full_scan_results() {
        let db = Database::new(indexed_schema(), IsolationLevel::ReadCommitted);
        {
            let mut c = db.connect();
            for i in 0..50i64 {
                c.execute(&format!(
                    "INSERT INTO items (qty, tag) VALUES ({}, 't{}')",
                    i % 10,
                    i
                ))
                .unwrap();
            }
        }
        let queries = [
            "SELECT id FROM items WHERE qty < 3 ORDER BY id",
            "SELECT id FROM items WHERE qty >= 7 ORDER BY id",
            "SELECT id FROM items WHERE qty BETWEEN 2 AND 4 ORDER BY id",
            "SELECT id FROM items WHERE qty NOT BETWEEN 2 AND 4 ORDER BY id",
            "SELECT id FROM items WHERE qty > 1 AND qty < 5 ORDER BY id",
        ];
        for q in queries {
            db.set_use_indexes(true);
            let indexed = db.connect().execute(q).unwrap();
            db.set_use_indexes(false);
            let scanned = db.connect().execute(q).unwrap();
            assert_eq!(indexed, scanned, "route changed results for {q}");
        }
        db.set_use_indexes(true);
        // Writes through a range predicate behave identically too.
        let mut c = db.connect();
        c.execute("UPDATE items SET tag = 'low' WHERE qty < 2")
            .unwrap();
        assert_eq!(
            c.query_i64("SELECT COUNT(*) FROM items WHERE tag = 'low'")
                .unwrap(),
            10
        );
        c.execute("DELETE FROM items WHERE qty BETWEEN 8 AND 9")
            .unwrap();
        assert_eq!(c.query_i64("SELECT COUNT(*) FROM items").unwrap(), 40);
    }

    #[test]
    fn range_probe_counts_as_index_hit() {
        let db = Database::new(indexed_schema(), IsolationLevel::ReadCommitted);
        db.connect()
            .execute("INSERT INTO items (qty, tag) VALUES (5, 'x')")
            .unwrap();
        db.obs.enable();
        let before = db.obs.counters();
        db.connect()
            .execute("SELECT * FROM items WHERE qty < 10")
            .unwrap();
        let mid = db.obs.counters();
        assert_eq!(mid.index_hits, before.index_hits + 1);
        // With the index path off the same predicate is a fallback.
        db.set_use_indexes(false);
        db.connect()
            .execute("SELECT * FROM items WHERE qty < 10")
            .unwrap();
        let after = db.obs.counters();
        assert_eq!(after.index_hits, mid.index_hits);
        assert_eq!(after.index_fallbacks, mid.index_fallbacks + 1);
    }
}
