//! The bench's own tracing: a timing [`SqlConn`] wrapper that records one
//! span per statement under the span of the operation that issued it.
//! Spans live in memory and are written out when the run ends. Nothing
//! here reaches into the program: it wraps the calls into each layer.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use acidrain_apps::SqlConn;
use acidrain_db::{DbError, Obs, ResultSet};

use crate::stats::Samples;

/// One recorded interval. `request` is shared by an operation and the
/// statements it caused; the operation is span 0 and has no parent, its
/// statements are spans 1.. under it. Times are nanoseconds since the
/// run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// What client threads recorded during a traced repetition.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Every statement, by wall time of the wrapped `exec`.
    pub stmt: Samples,
    /// The `COMMIT` statements among them.
    pub commit: Samples,
    /// Per operation: its duration minus the statements under it.
    pub op_self: Samples,
    pub ops: u64,
    pub stmt_errors: u64,
    pub stmt_aborts: u64,
}

impl Trace {
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.stmt.extend(&other.stmt);
        self.commit.extend(&other.commit);
        self.op_self.extend(&other.op_self);
        self.ops += other.ops;
        self.stmt_errors += other.stmt_errors;
        self.stmt_aborts += other.stmt_aborts;
    }
}

/// One client thread's recorder, shared between its driver loop (which
/// opens and closes operation spans) and its [`TimingConn`] (which adds
/// the statement spans). Off until [`Recorder::start`], so warm-up is not
/// recorded; never started in an untraced run.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    request: u64,
    next_id: u32,
    op_start: u64,
    op_stmt_nanos: u64,
    trace: Trace,
}

pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// `origin` is the run's time zero.
    pub fn shared(origin: Instant) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            on: false,
            origin,
            request: 0,
            next_id: 1,
            op_start: 0,
            op_stmt_nanos: 0,
            trace: Trace::default(),
        }))
    }

    pub fn start(&mut self) {
        self.on = true;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the span of operation `request`.
    pub fn begin_op(&mut self, request: u64) {
        if self.on {
            self.request = request;
            self.next_id = 1;
            self.op_stmt_nanos = 0;
            self.op_start = self.now();
        }
    }

    /// Close the operation's span under `name`.
    pub fn end_op(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.trace.spans.push(Span {
            request: self.request,
            id: 0,
            parent: None,
            name,
            start: self.op_start,
            end,
        });
        self.trace.ops += 1;
        self.trace
            .op_self
            .push((end - self.op_start).saturating_sub(self.op_stmt_nanos));
    }

    fn statement(&mut self, sql: &str, start: u64, end: u64, error: Option<&DbError>) {
        let name = statement_name(sql);
        self.trace.spans.push(Span {
            request: self.request,
            id: self.next_id,
            parent: Some(0),
            name,
            start,
            end,
        });
        self.next_id += 1;
        self.op_stmt_nanos += end - start;
        self.trace.stmt.push(end - start);
        if name == "stmt.commit" {
            self.trace.commit.push(end - start);
        }
        if let Some(e) = error {
            self.trace.stmt_errors += 1;
            if e.aborts_transaction() {
                self.trace.stmt_aborts += 1;
            }
        }
    }

    pub fn take(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }
}

fn statement_name(sql: &str) -> &'static str {
    let word = sql.split_whitespace().next().unwrap_or("");
    match word.to_ascii_uppercase().as_str() {
        "SELECT" => "stmt.select",
        "INSERT" => "stmt.insert",
        "UPDATE" => "stmt.update",
        "DELETE" => "stmt.delete",
        "COMMIT" => "stmt.commit",
        "BEGIN" | "START" => "stmt.begin",
        "ROLLBACK" => "stmt.rollback",
        _ => "stmt.other",
    }
}

/// Times every `exec` of the wrapped connection while its recorder is on,
/// and is a plain pass-through otherwise.
pub struct TimingConn<C: SqlConn> {
    inner: C,
    recorder: SharedRecorder,
}

impl<C: SqlConn> TimingConn<C> {
    pub fn new(inner: C, recorder: SharedRecorder) -> Self {
        TimingConn { inner, recorder }
    }
}

impl<C: SqlConn> SqlConn for TimingConn<C> {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        if !self.recorder.borrow().on {
            return self.inner.exec(sql);
        }
        let start = self.recorder.borrow().now();
        let result = self.inner.exec(sql);
        let mut recorder = self.recorder.borrow_mut();
        let end = recorder.now();
        recorder.statement(sql, start, end, result.as_ref().err());
        result
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        self.inner.set_api(name, invocation);
    }

    fn session(&self) -> u64 {
        self.inner.session()
    }

    fn obs(&self) -> Obs {
        self.inner.obs()
    }
}

/// Spans written at most: `engine_read` records 400 000 a repetition.
const SPANS_WRITTEN: usize = 100_000;

/// Write the first [`SPANS_WRITTEN`] spans as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(SPANS_WRITTEN) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"request\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.id, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
