//! The ACIDRain line protocol: framing, value encoding, and the stable
//! error-code mapping to [`DbError`].
//!
//! Every frame is one UTF-8 line terminated by `\n` (see DESIGN.md §14
//! for the full specification). Requests are a command word followed by
//! operands; responses are `OK ...` or `ERR <CODE> <message>`. Result
//! rows travel as tab-separated typed values with backslash escaping, so
//! a [`acidrain_db::ResultSet`] round-trips the wire bit-for-bit.
//!
//! Error codes are load-bearing: the client decodes them back into the
//! *same* [`DbError`] variant the server saw, so
//! [`DbError::is_retryable`] and [`DbError::aborts_transaction`] give
//! identical answers on both sides of the socket — which is what lets
//! `RetryConn` wrap a remote connection with unchanged semantics.

use acidrain_db::{DbError, IsolationLevel, ResultSet, TxnId, Value};
use acidrain_sql::ParseError;

/// Longest request line the server accepts (bytes, excluding the
/// terminator). Longer lines are answered with `ERR PROTOCOL` and the
/// session is closed — an unbounded buffer would let one client exhaust
/// server memory.
pub const MAX_LINE: usize = 64 * 1024;

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `HELLO <iso>` — negotiate the session isolation level for
    /// subsequently started transactions.
    Hello(IsolationLevel),
    /// `Q <sql>` — execute one SQL statement. The statement travels
    /// [`escape`]d so multiline SQL stays one frame; raw `nc`-style
    /// input without backslashes is unaffected.
    Query(String),
    /// `API <invocation> <name>` — tag subsequent statements with an
    /// API-call identity for the query log.
    Api {
        /// Per-API invocation counter (client-assigned).
        invocation: u64,
        /// Endpoint name, e.g. `checkout`.
        name: String,
    },
    /// `NOAPI` — stop tagging statements.
    NoApi,
    /// `PING` — liveness probe, answered without touching the engine.
    Ping,
    /// `QUIT` — orderly close; any open transaction is rolled back.
    Quit,
}

impl Request {
    /// Parse one request line (without its `\n` terminator).
    pub fn parse(line: &str) -> Result<Request, String> {
        let (cmd, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r),
            None => (line, ""),
        };
        match cmd {
            "HELLO" => match parse_isolation(rest) {
                Some(level) => Ok(Request::Hello(level)),
                None => Err(format!("unknown isolation level {rest:?}")),
            },
            "Q" => {
                if rest.is_empty() {
                    Err("Q requires a statement".into())
                } else {
                    unescape(rest).map(Request::Query)
                }
            }
            "API" => {
                let (inv, name) = rest
                    .split_once(' ')
                    .ok_or_else(|| "API requires <invocation> <name>".to_string())?;
                let invocation = inv
                    .parse::<u64>()
                    .map_err(|_| format!("bad invocation {inv:?}"))?;
                if name.is_empty() {
                    return Err("API requires a name".into());
                }
                Ok(Request::Api {
                    invocation,
                    name: name.to_string(),
                })
            }
            "NOAPI" => Ok(Request::NoApi),
            "PING" => Ok(Request::Ping),
            "QUIT" => Ok(Request::Quit),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// Render the request as its wire line (without the terminator).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello(level) => format!("HELLO {}", isolation_code(*level)),
            Request::Query(sql) => format!("Q {}", escape(sql)),
            Request::Api { invocation, name } => format!("API {invocation} {name}"),
            Request::NoApi => "NOAPI".to_string(),
            Request::Ping => "PING".to_string(),
            Request::Quit => "QUIT".to_string(),
        }
    }
}

/// Short wire code for an isolation level (`RU`, `RC`, `MRR`, `RR`,
/// `SI`, `SER`).
pub fn isolation_code(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "RU",
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::MySqlRepeatableRead => "MRR",
        IsolationLevel::RepeatableRead => "RR",
        IsolationLevel::SnapshotIsolation => "SI",
        IsolationLevel::Serializable => "SER",
    }
}

/// Parse the level argument of `HELLO`: any spelling
/// [`IsolationLevel::parse`] accepts, the wire codes included.
pub fn parse_isolation(text: &str) -> Option<IsolationLevel> {
    IsolationLevel::parse(text)
}

/// Escape a string for single-line transport: backslash, tab, newline,
/// and carriage return are the only bytes with wire meaning.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Unknown escapes fail (they would silently corrupt
/// data otherwise).
pub fn unescape(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('N') => out.push_str("\\N"), // NULL marker survives verbatim
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// Encode one value as a typed wire token: `i:<n>`, `f:<decimal>`,
/// `s:<escaped>`, `b:0|1`, or `\N` for NULL.
pub fn encode_value(value: &Value) -> String {
    match value {
        Value::Int(n) => format!("i:{n}"),
        // `{:?}` on f64 prints a shortest round-trip representation.
        Value::Float(x) => format!("f:{x:?}"),
        Value::Str(s) => format!("s:{}", escape(s)),
        Value::Bool(b) => format!("b:{}", u8::from(*b)),
        Value::Null => "\\N".to_string(),
    }
}

/// Decode one typed wire token back into a [`Value`].
pub fn decode_value(token: &str) -> Result<Value, String> {
    if token == "\\N" {
        return Ok(Value::Null);
    }
    let (tag, body) = token
        .split_once(':')
        .ok_or_else(|| format!("bad value token {token:?}"))?;
    match tag {
        "i" => body
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad int {body:?}: {e}")),
        "f" => body
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("bad float {body:?}: {e}")),
        "s" => unescape(body).map(Value::Str),
        "b" => match body {
            "0" => Ok(Value::Bool(false)),
            "1" => Ok(Value::Bool(true)),
            other => Err(format!("bad bool {other:?}")),
        },
        other => Err(format!("unknown value tag {other:?}")),
    }
}

/// Render a successful result set as its wire lines: `OK rows <nrows>
/// <ncols>`, then (when `ncols > 0`) one tab-separated header line of
/// escaped column names, then `nrows` tab-separated value lines.
pub fn encode_result(rs: &ResultSet) -> String {
    let ncols = rs.columns.len();
    let mut out = format!("OK rows {} {}\n", rs.rows.len(), ncols);
    if ncols > 0 {
        let header: Vec<String> = rs.columns.iter().map(|c| escape(c)).collect();
        out.push_str(&header.join("\t"));
        out.push('\n');
        for row in &rs.rows {
            let vals: Vec<String> = row.iter().map(encode_value).collect();
            out.push_str(&vals.join("\t"));
            out.push('\n');
        }
    }
    out
}

/// Stable wire code for a [`DbError`] variant.
pub fn error_code(err: &DbError) -> &'static str {
    match err {
        DbError::Parse(_) => "PARSE",
        DbError::UnknownTable(_) => "UNKNOWN_TABLE",
        DbError::UnknownColumn(_) => "UNKNOWN_COLUMN",
        DbError::Type(_) => "TYPE",
        DbError::ConstraintViolation(_) => "CONSTRAINT",
        DbError::WouldBlock { .. } => "WOULD_BLOCK",
        DbError::Deadlock => "DEADLOCK",
        DbError::WriteConflict(_) => "WRITE_CONFLICT",
        DbError::LockTimeout => "LOCK_TIMEOUT",
        DbError::ConnectionDropped => "CONNECTION_DROPPED",
        DbError::Unsupported(_) => "UNSUPPORTED",
        DbError::Io(_) => "IO",
        DbError::WalCorrupt(_) => "WAL_CORRUPT",
        DbError::UnknownSavepoint(_) => "UNKNOWN_SAVEPOINT",
        DbError::TooManySessions => "SERVER_BUSY",
        DbError::Internal(_) => "INTERNAL",
    }
}

/// The variant-specific payload transmitted next to the code (enough to
/// reconstruct the variant on the client).
fn error_payload(err: &DbError) -> String {
    match err {
        DbError::Parse(e) => e.message.clone(),
        DbError::UnknownTable(s)
        | DbError::UnknownColumn(s)
        | DbError::Type(s)
        | DbError::ConstraintViolation(s)
        | DbError::WriteConflict(s)
        | DbError::Unsupported(s)
        | DbError::Io(s)
        | DbError::WalCorrupt(s)
        | DbError::UnknownSavepoint(s)
        | DbError::Internal(s) => s.clone(),
        DbError::WouldBlock { holders } => holders
            .iter()
            .map(|t| t.0.to_string())
            .collect::<Vec<_>>()
            .join(" "),
        DbError::Deadlock
        | DbError::LockTimeout
        | DbError::ConnectionDropped
        | DbError::TooManySessions => String::new(),
    }
}

/// Render an engine error as its wire line (without the terminator).
pub fn encode_error(err: &DbError) -> String {
    format!("ERR {} {}", error_code(err), escape(&error_payload(err)))
}

/// Decode an `ERR` line's code + payload back into the [`DbError`] the
/// server saw. Unknown codes decode to [`DbError::Internal`] (permanent,
/// never silently retried).
pub fn decode_error(code: &str, payload: &str) -> DbError {
    let msg = unescape(payload).unwrap_or_else(|_| payload.to_string());
    match code {
        "PARSE" => DbError::Parse(ParseError::at(0, msg)),
        "UNKNOWN_TABLE" => DbError::UnknownTable(msg),
        "UNKNOWN_COLUMN" => DbError::UnknownColumn(msg),
        "TYPE" => DbError::Type(msg),
        "CONSTRAINT" => DbError::ConstraintViolation(msg),
        "WOULD_BLOCK" => DbError::WouldBlock {
            holders: msg
                .split_whitespace()
                .filter_map(|t| t.parse::<u64>().ok().map(TxnId))
                .collect(),
        },
        "DEADLOCK" => DbError::Deadlock,
        "WRITE_CONFLICT" => DbError::WriteConflict(msg),
        "LOCK_TIMEOUT" => DbError::LockTimeout,
        "CONNECTION_DROPPED" | "TXN_TIMEOUT" => DbError::ConnectionDropped,
        "UNSUPPORTED" => DbError::Unsupported(msg),
        "IO" => DbError::Io(msg),
        "WAL_CORRUPT" => DbError::WalCorrupt(msg),
        "UNKNOWN_SAVEPOINT" => DbError::UnknownSavepoint(msg),
        "SERVER_BUSY" => DbError::TooManySessions,
        "PROTOCOL" => DbError::Unsupported(format!("protocol error: {msg}")),
        other => DbError::Internal(format!("unknown wire error {other}: {msg}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello(IsolationLevel::SnapshotIsolation),
            Request::Query("SELECT * FROM t WHERE a = 'x y'".into()),
            // Multiline SQL is legal; it must stay one wire frame.
            Request::Query("SELECT *\nFROM t\r\nWHERE a = 'b\\c'".into()),
            Request::Api {
                invocation: 7,
                name: "checkout".into(),
            },
            Request::NoApi,
            Request::Ping,
            Request::Quit,
        ];
        for req in cases {
            let line = req.encode();
            assert!(
                !line.contains('\n') && !line.contains('\r'),
                "encoded frame spans lines: {line:?}"
            );
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
        assert!(Request::parse("BOGUS 1").is_err());
        assert!(Request::parse("Q").is_err());
        assert!(Request::parse("HELLO NOPE").is_err());
        assert!(Request::parse("API x checkout").is_err());
    }

    #[test]
    fn every_isolation_level_has_a_code() {
        for level in IsolationLevel::ALL {
            assert_eq!(parse_isolation(isolation_code(level)), Some(level));
            assert_eq!(parse_isolation(level.name()), Some(level));
        }
    }

    #[test]
    fn values_round_trip() {
        let cases = vec![
            Value::Int(-42),
            Value::Float(3.25),
            Value::Float(-0.1),
            Value::Str("tab\there\nnewline\\slash".into()),
            Value::Str(String::new()),
            Value::Str("\\N".into()), // literal backslash-N is not NULL
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
        ];
        for v in cases {
            let token = encode_value(&v);
            assert!(!token.contains('\t') && !token.contains('\n'), "{token:?}");
            assert_eq!(decode_value(&token).unwrap(), v, "token {token:?}");
        }
        assert!(decode_value("x:1").is_err());
        assert!(decode_value("i:zzz").is_err());
    }

    #[test]
    fn errors_round_trip_with_semantics_intact() {
        let cases = vec![
            DbError::Parse(ParseError::at(0, "bad token")),
            DbError::UnknownTable("nope".into()),
            DbError::UnknownColumn("nope".into()),
            DbError::Type("int vs str".into()),
            DbError::ConstraintViolation("dup key".into()),
            DbError::WouldBlock {
                holders: vec![TxnId(3), TxnId(9)],
            },
            DbError::Deadlock,
            DbError::WriteConflict("row 4".into()),
            DbError::LockTimeout,
            DbError::ConnectionDropped,
            DbError::Unsupported("JOIN".into()),
            DbError::Io("fsync".into()),
            DbError::WalCorrupt("magic".into()),
            DbError::UnknownSavepoint("sp".into()),
            DbError::TooManySessions,
            DbError::Internal("bug".into()),
        ];
        for err in cases {
            let line = encode_error(&err);
            let rest = line.strip_prefix("ERR ").unwrap();
            let (code, payload) = rest.split_once(' ').unwrap_or((rest, ""));
            let decoded = decode_error(code, payload);
            assert_eq!(
                decoded.is_retryable(),
                err.is_retryable(),
                "retryability changed over the wire for {err:?}"
            );
            assert_eq!(
                decoded.aborts_transaction(),
                err.aborts_transaction(),
                "abort class changed over the wire for {err:?}"
            );
            assert_eq!(error_code(&decoded), code, "code unstable for {err:?}");
        }
        // Parse errors lose only the byte offset (the client pins 0).
        let decoded = decode_error("PARSE", "bad token");
        assert!(matches!(decoded, DbError::Parse(e) if e.message == "bad token"));
    }

    #[test]
    fn result_sets_round_trip_through_encode() {
        let rs = ResultSet {
            columns: vec!["id".into(), "note".into()],
            rows: vec![
                vec![Value::Int(1), Value::Str("a\tb".into())],
                vec![Value::Int(2), Value::Null],
            ],
        };
        let text = encode_result(&rs);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("OK rows 2 2"));
        assert_eq!(lines.next(), Some("id\tnote"));
        let row1: Vec<Value> = lines
            .next()
            .unwrap()
            .split('\t')
            .map(|t| decode_value(t).unwrap())
            .collect();
        assert_eq!(row1, rs.rows[0]);
        let row2: Vec<Value> = lines
            .next()
            .unwrap()
            .split('\t')
            .map(|t| decode_value(t).unwrap())
            .collect();
        assert_eq!(row2, rs.rows[1]);
        assert_eq!(encode_result(&ResultSet::empty()), "OK rows 0 0\n");
    }
}
