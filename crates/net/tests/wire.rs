//! End-to-end wire tests: real sockets against a live server.
//!
//! Everything here drives the server the way a remote ACIDRain attacker
//! would — over TCP, through [`RemoteConn`] or a raw socket — and then
//! inspects the engine from the inside (`active_transactions`,
//! `locked_resources`, the metrics report) to prove the session layer
//! kept its promises: admission control holds the line, timeouts fire,
//! pipelined frames execute in order, and a vanished socket is
//! indistinguishable from an explicit `ROLLBACK`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_apps::SqlConn;
use acidrain_db::{Database, DbError, IsolationLevel, Value};
use acidrain_net::{RemoteConn, Server, ServerConfig};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn accounts_db(isolation: IsolationLevel) -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, isolation);
    db.seed(
        "accounts",
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(2), Value::Int(100)],
        ],
    )
    .unwrap();
    db.enable_metrics();
    db
}

fn start(db: &Arc<Database>, config: ServerConfig) -> acidrain_net::ServerHandle {
    Server::start(Arc::clone(db), config).expect("start server")
}

/// Basic round trip: typed values survive the wire bit-for-bit, and the
/// remote result set matches what an in-process connection sees.
#[test]
fn query_results_round_trip() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();

    let over_wire = remote
        .exec("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap();
    let in_process = db
        .connect()
        .execute("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap();
    assert_eq!(over_wire.columns, in_process.columns);
    assert_eq!(over_wire.rows, in_process.rows);

    // Writes report affected rows the same way.
    let update = remote
        .exec("UPDATE accounts SET balance = 42 WHERE id = 1")
        .unwrap();
    assert_eq!(update.affected_rows(), 1);
    assert_eq!(
        remote
            .exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap()
            .scalar_i64(),
        Some(42)
    );
    handle.shutdown();
}

/// Engine errors come back as the same `DbError` variant the server saw,
/// so client-side retry classification matches in-process behavior.
#[test]
fn errors_round_trip_with_classification() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();

    let parse = remote.exec("SELEKT 1").unwrap_err();
    assert!(matches!(parse, DbError::Parse(_)), "got {parse:?}");
    assert!(!parse.is_retryable());

    let missing = remote.exec("SELECT x FROM nowhere").unwrap_err();
    assert!(!missing.is_retryable());
    handle.shutdown();
}

/// HELLO negotiates per-session isolation: a snapshot session keeps
/// reading its snapshot while a read-committed session on the same
/// server sees new commits.
#[test]
fn hello_negotiates_per_session_isolation() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());

    let mut si = RemoteConn::connect(handle.addr()).unwrap();
    si.set_isolation(IsolationLevel::SnapshotIsolation).unwrap();
    let mut rc = RemoteConn::connect(handle.addr()).unwrap();

    si.exec("BEGIN").unwrap();
    assert_eq!(
        si.exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap()
            .scalar_i64(),
        Some(100)
    );
    rc.exec("UPDATE accounts SET balance = 7 WHERE id = 1")
        .unwrap();
    assert_eq!(
        si.exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap()
            .scalar_i64(),
        Some(100),
        "snapshot session must not see the concurrent commit"
    );
    si.exec("COMMIT").unwrap();
    assert_eq!(
        si.exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap()
            .scalar_i64(),
        Some(7)
    );
    handle.shutdown();
}

/// Pipelined frames (several requests in one TCP write) execute in order
/// and produce one response each.
#[test]
fn pipelined_frames_execute_in_order() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(
            b"Q BEGIN\n\
              Q UPDATE accounts SET balance = balance + 5 WHERE id = 1\n\
              Q SELECT balance FROM accounts WHERE id = 1\n\
              Q COMMIT\n\
              QUIT\n",
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        lines.push(line.trim_end().to_string());
        line.clear();
    }
    assert!(lines[0].starts_with("OK acidrain "), "greeting: {lines:?}");
    assert_eq!(lines[1], "OK rows 0 0", "BEGIN: {lines:?}");
    // UPDATE: status + the affected-rows pseudo result.
    assert_eq!(lines[2], "OK rows 1 1", "UPDATE: {lines:?}");
    assert_eq!(lines[3], "affected");
    assert_eq!(lines[4], "i:1");
    // SELECT: status + header + one row carrying 105.
    assert_eq!(lines[5], "OK rows 1 1", "SELECT status: {lines:?}");
    assert_eq!(lines[6], "balance");
    assert_eq!(lines[7], "i:105");
    assert_eq!(lines[8], "OK rows 0 0", "COMMIT: {lines:?}");
    assert_eq!(lines[9], "OK bye");
    handle.shutdown();
}

/// Over-long request lines are refused before they can exhaust memory.
#[test]
fn oversized_line_is_a_protocol_error() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();

    let huge = vec![b'x'; 80 * 1024]; // > MAX_LINE, no newline
    stream.write_all(&huge).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("ERR PROTOCOL"),
        "expected protocol error, got {reply:?}"
    );
    handle.shutdown();
}

/// Past `max_sessions` with no queue, arrivals are refused with
/// `SERVER_BUSY`; with a queue they park and get admitted once a slot
/// frees.
#[test]
fn admission_rejects_and_queues() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(
        &db,
        ServerConfig {
            max_sessions: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );

    let first = RemoteConn::connect(handle.addr()).unwrap();

    // Second arrival parks in the admission queue: it sees no greeting
    // until the first session goes away.
    let addr = handle.addr();
    let queued = std::thread::spawn(move || {
        let mut conn = RemoteConn::connect(addr).unwrap();
        conn.ping().unwrap();
        conn
    });

    // Third arrival overflows the queue and is refused outright.
    std::thread::sleep(Duration::from_millis(200));
    let mut refused = TcpStream::connect(addr).unwrap();
    let mut reply = String::new();
    BufReader::new(refused.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(
        reply.starts_with("ERR SERVER_BUSY"),
        "expected SERVER_BUSY, got {reply:?}"
    );
    refused.write_all(b"").ok();
    drop(refused);

    assert!(!queued.is_finished(), "queued socket admitted too early");
    drop(first); // slot frees; the parked socket is promoted
    let conn = queued.join().expect("queued connect");
    drop(conn);

    let report = db.metrics_report();
    assert!(report.counters.net_rejected >= 1, "{report:?}");
    assert!(report.counters.net_queued >= 1, "{report:?}");
    handle.shutdown();
}

/// Sessions idle outside a transaction are closed after `idle_timeout` —
/// cleanly, with nothing to roll back.
#[test]
fn idle_timeout_closes_quiescent_session() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(
        &db,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();
    remote.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let err = remote.ping().unwrap_err();
    assert_eq!(err, DbError::ConnectionDropped);
    let report = db.metrics_report();
    assert_eq!(
        report.counters.net_disconnect_aborts, 0,
        "idle close must not count as a disconnect abort"
    );
    handle.shutdown();
}

/// A session squatting on row locks inside a transaction is aborted
/// after `txn_timeout`: the client is told why, the transaction rolls
/// back, and the locks are released.
#[test]
fn txn_timeout_aborts_and_releases_locks() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(
        &db,
        ServerConfig {
            txn_timeout: Some(Duration::from_millis(300)),
            ..ServerConfig::default()
        },
    );
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();
    remote.exec("BEGIN").unwrap();
    remote
        .exec("UPDATE accounts SET balance = 0 WHERE id = 1")
        .unwrap();
    assert_eq!(db.active_transactions(), 1);

    // Stall past the in-transaction limit; the server aborts us.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.active_transactions() != 0 {
        assert!(Instant::now() < deadline, "txn timeout never fired");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(db.locked_resources(), 0, "abort must release row locks");

    // The eviction notice reaches the client as a dropped connection.
    let err = remote.exec("SELECT 1").unwrap_err();
    assert_eq!(err, DbError::ConnectionDropped);

    // And the write is gone.
    assert_eq!(
        db.connect()
            .query_i64("SELECT balance FROM accounts WHERE id = 1")
            .unwrap(),
        100
    );
    let report = db.metrics_report();
    assert_eq!(report.counters.net_disconnect_aborts, 1, "{report:?}");
    handle.shutdown();
}

/// The tentpole guarantee, at every isolation level: a socket that
/// vanishes mid-transaction rolls back its writes, releases its row
/// locks, and wakes blocked waiters well within the lock-wait deadline.
#[test]
fn disconnect_mid_txn_rolls_back_at_every_level() {
    for level in IsolationLevel::ALL {
        let db = accounts_db(level);
        db.set_lock_wait_timeout(Duration::from_secs(30));
        let handle = start(&db, ServerConfig::default());

        let mut victim = RemoteConn::connect(handle.addr()).unwrap();
        victim.set_isolation(level).unwrap();
        victim.exec("BEGIN").unwrap();
        victim
            .exec("UPDATE accounts SET balance = balance - 60 WHERE id = 1")
            .unwrap();
        assert_eq!(db.active_transactions(), 1, "{level:?}");
        assert!(db.locked_resources() > 0, "{level:?}");

        // A second wire session parks on the victim's row lock.
        let addr = handle.addr();
        let waiter = std::thread::spawn(move || {
            let mut conn = RemoteConn::connect(addr).unwrap();
            let start = Instant::now();
            let result = conn.exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1");
            (result, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));

        // The socket vanishes — no QUIT, no ROLLBACK, just gone.
        drop(victim);

        let (result, waited) = waiter.join().unwrap();
        assert!(result.is_ok(), "{level:?}: waiter failed: {result:?}");
        assert!(
            waited < Duration::from_secs(10),
            "{level:?}: waiter took {waited:?}; must wake on disconnect, not on timeout"
        );

        // Rollback won the race with the waiter's increment: 100 + 1.
        assert_eq!(
            db.connect()
                .query_i64("SELECT balance FROM accounts WHERE id = 1")
                .unwrap(),
            101,
            "{level:?}: victim's write must be rolled back"
        );
        assert_eq!(db.locked_resources(), 0, "{level:?}");

        // Wait for the server to finalize the vanished session, then
        // check the disconnect was counted as an abort.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let report = db.metrics_report();
            if report.counters.net_disconnect_aborts >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{level:?}: disconnect abort never counted: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
    }
}

/// Shutdown with live sessions mid-transaction leaks nothing: every
/// transaction rolls back and every lock is released.
#[test]
fn shutdown_rolls_back_open_transactions() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();
    remote.exec("BEGIN").unwrap();
    remote
        .exec("UPDATE accounts SET balance = 1 WHERE id = 2")
        .unwrap();
    assert_eq!(db.active_transactions(), 1);
    handle.shutdown();
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
    assert_eq!(
        db.connect()
            .query_i64("SELECT balance FROM accounts WHERE id = 2")
            .unwrap(),
        100
    );
}

/// EOF from a half-closed client socket tears the session down even when
/// the teardown races a frame still executing.
#[test]
fn disconnect_while_frame_in_flight() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.set_lock_wait_timeout(Duration::from_secs(2));
    let handle = start(&db, ServerConfig::default());

    // Holder parks a row lock so the victim's frame blocks in the engine.
    let mut holder = db.connect();
    holder.execute("BEGIN").unwrap();
    holder
        .execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        .unwrap();

    let mut victim = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(victim.try_clone().unwrap());
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    victim
        .write_all(b"Q BEGIN\nQ UPDATE accounts SET balance = 9 WHERE id = 1\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // frame reaches the engine and parks
    drop(victim);
    drop(reader);

    // The parked statement finishes (lock timeout or success after the
    // holder commits); either way the dead session must be finalized.
    holder.execute("COMMIT").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if db.active_transactions() == 0 && db.locked_resources() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "vanished in-flight session leaked state: txns={} locks={}",
            db.active_transactions(),
            db.locked_resources()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// Multiline SQL is one frame: the client escapes the newlines, the
/// server executes the whole statement, and the session stays in sync.
#[test]
fn multiline_sql_stays_one_frame() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();

    let rs = remote
        .exec("SELECT balance\nFROM accounts\r\nWHERE id = 2")
        .unwrap();
    assert_eq!(rs.scalar_i64(), Some(100));

    // Request/response pairing survived: the next query answers itself,
    // not a leftover fragment of the previous one.
    assert_eq!(
        remote
            .exec("SELECT id FROM accounts WHERE id = 1")
            .unwrap()
            .scalar_i64(),
        Some(1)
    );
    handle.shutdown();
}

/// A socket waiting in the admission queue holds up nothing: the session
/// in the one slot is still served, and shutdown is prompt, rolls that
/// session's transaction back, and drops the queued socket unserved.
#[test]
fn a_queued_socket_starves_no_session_and_delays_no_shutdown() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(
        &db,
        ServerConfig {
            max_sessions: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    let mut admitted = RemoteConn::connect(handle.addr()).unwrap();
    admitted.exec("BEGIN").unwrap();
    admitted
        .exec("UPDATE accounts SET balance = 1 WHERE id = 1")
        .unwrap();

    let queued = TcpStream::connect(handle.addr()).unwrap();
    queued
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.metrics_report().counters.net_queued == 0 {
        assert!(Instant::now() < deadline, "second socket never queued");
        std::thread::sleep(Duration::from_millis(10));
    }

    admitted
        .ping()
        .expect("admitted session starved by the queue");

    let begun = Instant::now();
    handle.shutdown();
    let took = begun.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");

    let mut greeting = String::new();
    let read = BufReader::new(queued).read_line(&mut greeting);
    assert!(
        matches!(read, Ok(0) | Err(_)),
        "queued socket was served: {read:?} {greeting:?}"
    );
    assert_eq!(db.active_transactions(), 0);
    drop(admitted);
}

/// A client pipelining complete frames far past the read-buffer ceiling
/// is throttled by backpressure, not buffered without bound: every frame
/// is still answered, in order.
#[test]
fn pipelined_flood_is_bounded_and_fully_answered() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting

    // 60k pings ≈ 300 KiB of complete lines — the session buffers one
    // read chunk of them at a time; the rest waits in the socket buffers.
    const N: usize = 60_000;
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        let burst = "PING\n".repeat(1000);
        for _ in 0..N / 1000 {
            stream.write_all(burst.as_bytes()).unwrap();
        }
        stream
    });
    for i in 0..N {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF at frame {i}");
        assert_eq!(line.trim_end(), "OK pong", "frame {i}");
    }
    let stream = writer.join().unwrap();
    drop(stream);
    handle.shutdown();
}

/// An over-long line is refused even when complete pipelined frames sit
/// in front of it in the read buffer.
#[test]
fn oversized_tail_behind_pipelined_frames_is_refused() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting

    let mut payload = b"PING\n".to_vec();
    payload.extend(vec![b'x'; 80 * 1024]); // > MAX_LINE, no terminator
    stream.write_all(&payload).unwrap();

    // Depending on how TCP chunks the payload, the PING may be answered
    // before the over-long tail lands or discarded with the session;
    // either way the violation must be caught and the session closed.
    let mut lines = Vec::new();
    loop {
        line.clear();
        // A reset counts as end-of-stream: the violation already closed
        // the session server-side.
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => lines.push(line.trim_end().to_string()),
        }
    }
    let last = lines.last().expect("no response before close");
    assert!(
        last.starts_with("ERR PROTOCOL"),
        "expected protocol error, got {lines:?}"
    );
    for earlier in &lines[..lines.len() - 1] {
        assert_eq!(earlier, "OK pong", "unexpected response: {lines:?}");
    }
    handle.shutdown();
}

/// Raw-socket sanity for the greeting and HELLO, without `RemoteConn` in
/// the loop.
#[test]
fn greeting_and_hello_wire_format() {
    let db = accounts_db(IsolationLevel::Serializable);
    let handle = start(&db, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let parts: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(parts[0], "OK");
    assert_eq!(parts[1], "acidrain");
    assert_eq!(parts[3], "SER", "greeting carries the default isolation");

    stream.write_all(b"HELLO RC\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK iso RC");

    stream.write_all(b"HELLO bogus\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR PROTOCOL"), "got {line:?}");

    // Protocol errors are terminal: the server closes the session.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
    handle.shutdown();
}

/// The request path holds no nap: a round trip is two socket wake-ups
/// and the frame, so sequential `PING`s on an otherwise idle connection
/// finish far inside a budget of 400 us each (a debug build under the
/// parallel test runner on two cores takes 11-20 ms for the run, 170 ms
/// at worst). A server that polls its sockets between sleeps cannot: the
/// reactor this replaced napped 500 us at least once per round trip, so
/// its floor was 1 s, and it took 2.7 s.
#[test]
fn no_nap_on_the_request_path() {
    const PINGS: u32 = 2000;
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();
    remote.ping().unwrap(); // first frame: the session thread is awake
    let begun = Instant::now();
    for _ in 0..PINGS {
        remote.ping().unwrap();
    }
    let took = begun.elapsed();
    assert!(
        took < Duration::from_micros(400) * PINGS,
        "{PINGS} sequential pings took {took:?}: something naps on the request path"
    );
    handle.shutdown();
}

/// An idle server burns nothing: with no session open the acceptor is
/// blocked in `accept` — the park counter rises once and then stays flat
/// — and shutdown wakes it promptly from there.
#[test]
fn idle_acceptor_blocks_in_accept() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let parks = |db: &Arc<Database>| db.metrics_report().counters.net_reactor_parks;

    let deadline = Instant::now() + Duration::from_secs(5);
    while parks(&db) == 0 {
        assert!(Instant::now() < deadline, "acceptor never blocked");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(parks(&db), 1, "a blocked acceptor must stay blocked");

    // A client arriving at the blocked acceptor is admitted and served;
    // the acceptor goes back to `accept` with a session open, which is
    // not a park.
    let mut remote = RemoteConn::connect(handle.addr()).unwrap();
    remote.ping().unwrap();
    assert_eq!(parks(&db), 1);
    drop(remote);

    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(1),
        "shutdown took {:?} from a blocked accept",
        begun.elapsed()
    );
}

/// No head-of-line blocking, even with a single pre-started session
/// thread: of eight sockets connecting at once, one parks on a row lock
/// for two seconds and the other seven are admitted and answered at once,
/// before and while it is parked.
#[test]
fn a_parked_session_blocks_no_other() {
    const PROMPT: Duration = Duration::from_millis(250);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.set_lock_wait_timeout(Duration::from_secs(30));
    let handle = start(
        &db,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let mut holder = db.connect();
    holder.execute("BEGIN").unwrap();
    holder
        .execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        .unwrap();

    let addr = handle.addr();
    let line = Arc::new(std::sync::Barrier::new(8));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let line = Arc::clone(&line);
            std::thread::spawn(move || {
                line.wait();
                let begun = Instant::now();
                let mut conn = RemoteConn::connect(addr).unwrap();
                if i == 0 {
                    conn.exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
                        .unwrap();
                    return vec![begun.elapsed()];
                }
                conn.ping().unwrap();
                let admitted = begun.elapsed();
                std::thread::sleep(Duration::from_millis(500)); // socket 0 is parked by now
                let begun = Instant::now();
                conn.ping().unwrap();
                vec![admitted, begun.elapsed()]
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs(2));
    holder.execute("COMMIT").unwrap();

    for (i, client) in clients.into_iter().enumerate() {
        let times = client.join().unwrap();
        if i == 0 {
            assert!(
                times[0] > Duration::from_secs(1),
                "socket 0 was meant to park on the row lock, took {times:?}"
            );
        } else {
            assert!(
                times.iter().all(|t| *t < PROMPT),
                "socket {i} waited behind a parked session: {times:?}"
            );
        }
    }
    handle.shutdown();
}

/// Shutdown does not wait on its sessions' clients: 32 idle sessions and
/// one mid-transaction (holding a row lock and a snapshot pin) are closed
/// and joined within a second, and the engine is left clean.
#[test]
fn shutdown_is_prompt_with_many_sessions() {
    let db = accounts_db(IsolationLevel::SnapshotIsolation);
    let handle = start(&db, ServerConfig::default());
    let idle: Vec<RemoteConn> = (0..32)
        .map(|_| {
            let mut conn = RemoteConn::connect(handle.addr()).unwrap();
            conn.ping().unwrap();
            conn
        })
        .collect();
    let mut open = RemoteConn::connect(handle.addr()).unwrap();
    open.exec("BEGIN").unwrap();
    open.exec("SELECT balance FROM accounts WHERE id = 2")
        .unwrap();
    open.exec("UPDATE accounts SET balance = 1 WHERE id = 1")
        .unwrap();
    assert_eq!(db.active_transactions(), 1);
    assert_eq!(db.pinned_snapshots(), 1);

    let begun = Instant::now();
    handle.shutdown();
    let took = begun.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
    assert_eq!(db.pinned_snapshots(), 0);
    drop((idle, open));
}

/// Both timeouts are socket timeouts, so they fire on time: measured by
/// the client from just before its last request, the close arrives no
/// earlier than the limit and within 250 ms after it.
#[test]
fn timeouts_fire_on_time() {
    const IDLE: Duration = Duration::from_millis(400);
    const TXN: Duration = Duration::from_millis(200);
    const LATE: Duration = Duration::from_millis(250);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(
        &db,
        ServerConfig {
            idle_timeout: Some(IDLE),
            txn_timeout: Some(TXN),
            ..ServerConfig::default()
        },
    );
    for (request, limit, last_words) in [
        ("PING\n", IDLE, ""),
        (
            "Q BEGIN\n",
            TXN,
            "ERR TXN_TIMEOUT in-transaction idle limit\n",
        ),
    ] {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // greeting
        let begun = Instant::now();
        stream.write_all(request.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap(); // the request's own reply
        assert!(line.starts_with("OK"), "{request:?} answered {line:?}");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        let took = begun.elapsed();
        assert_eq!(rest, last_words, "{request:?}");
        assert!(
            took >= limit && took < limit + LATE,
            "{request:?}: closed after {took:?}, limit {limit:?}"
        );
    }
    handle.shutdown();
}

/// The idle clock is the socket's read timeout, so it restarts whenever
/// bytes arrive, terminated line or not: a client trickling one byte at a
/// time keeps its session for as long as it keeps trickling, and loses it
/// one limit after it stops.
#[test]
fn trickled_bytes_keep_a_session_alive() {
    const IDLE: Duration = Duration::from_millis(400);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(
        &db,
        ServerConfig {
            idle_timeout: Some(IDLE),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting

    // 600 ms without a complete line, never 400 ms without a byte.
    for byte in b"PING\r\n" {
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(&[*byte]).unwrap();
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "OK pong\n", "trickled frame");

    // Half a line, then silence.
    stream.write_all(b"PI").unwrap();
    let begun = Instant::now();
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "got {line:?}");
    let took = begun.elapsed();
    assert!(
        took >= IDLE && took < IDLE + Duration::from_millis(250),
        "closed after {took:?}"
    );
    handle.shutdown();
}

/// A client that stops *reading* is as gone as one that stops writing.
/// It opens a transaction, takes a row lock, and then pipelines queries
/// without ever reading a reply: once the socket buffers between them are
/// full the session thread's write blocks, and the write timeout — the
/// same limit as the read side — ends the session, rolling the
/// transaction back. The requests keep coming the whole time, so no idle
/// clock that restarts on inbound bytes would ever fire.
#[test]
fn unread_replies_cannot_pin_locks() {
    const TXN: Duration = Duration::from_millis(500);
    let schema = Schema::new()
        .with_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("balance", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "blobs",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("body", ColumnType::Str),
            ],
        ));
    let db = Database::new(schema, IsolationLevel::SnapshotIsolation);
    db.seed("accounts", vec![vec![Value::Int(1), Value::Int(100)]])
        .unwrap();
    // One 16 KiB reply per 30-byte request fills megabytes of socket
    // buffer in a few hundred frames.
    db.seed(
        "blobs",
        vec![vec![Value::Int(1), Value::Str("x".repeat(16 * 1024))]],
    )
    .unwrap();
    db.enable_metrics();
    let handle = start(
        &db,
        ServerConfig {
            txn_timeout: Some(TXN),
            ..ServerConfig::default()
        },
    );

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(
            b"Q BEGIN\n\
              Q UPDATE accounts SET balance = 0 WHERE id = 1\n\
              Q SELECT balance FROM accounts WHERE id = 1\n",
        )
        .unwrap();
    let mut line = String::new();
    for _ in 0..8 {
        // greeting, BEGIN's status, and three lines each for the others
        line.clear();
        reader.read_line(&mut line).unwrap();
    }
    assert_eq!(line, "i:0\n");
    assert_eq!(db.active_transactions(), 1);
    assert!(db.locked_resources() > 0);
    assert_eq!(db.pinned_snapshots(), 1);

    // From here on nobody reads. The writer stops when the server drops
    // the socket.
    let writer = std::thread::spawn(move || {
        let burst = "Q SELECT body FROM blobs\n".repeat(64);
        while stream.write_all(burst.as_bytes()).is_ok() {}
    });
    let deadline = Instant::now() + TXN + Duration::from_secs(5);
    while db.active_transactions() != 0 {
        assert!(
            Instant::now() < deadline,
            "a client that reads nothing still holds its transaction"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(db.locked_resources(), 0);
    assert_eq!(db.pinned_snapshots(), 0);
    writer.join().unwrap();
    let report = db.metrics_report();
    assert_eq!(report.counters.net_disconnect_aborts, 1, "{report:?}");
    assert_eq!(
        db.connect()
            .query_i64("SELECT balance FROM accounts WHERE id = 1")
            .unwrap(),
        100
    );
    handle.shutdown();
}

/// A wire session that vanishes mid-transaction at a snapshot-pinning
/// level (MySQL-RR, SI) must release its pinned snapshot through the
/// normal rollback path — a leaked pin silently wedges version GC at
/// that bound forever.
#[test]
fn wire_disconnect_mid_txn_releases_pin() {
    for level in [
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = accounts_db(level);
        let handle = start(&db, ServerConfig::default());

        let mut victim = RemoteConn::connect(handle.addr()).unwrap();
        victim.set_isolation(level).unwrap();
        victim.exec("BEGIN").unwrap();
        victim
            .exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();
        assert_eq!(db.pinned_snapshots(), 1, "{level:?}: pin registered");

        drop(victim); // vanish mid-transaction

        let deadline = Instant::now() + Duration::from_secs(5);
        while db.pinned_snapshots() != 0 {
            assert!(
                Instant::now() < deadline,
                "{level:?}: pin leaked: {} still registered",
                db.pinned_snapshots()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
    }
}

/// The txn-timeout eviction path releases the evicted session's snapshot
/// pin, same as a disconnect.
#[test]
fn txn_timeout_releases_pin() {
    for level in [
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = accounts_db(level);
        let handle = start(
            &db,
            ServerConfig {
                txn_timeout: Some(Duration::from_millis(200)),
                ..ServerConfig::default()
            },
        );
        let mut victim = RemoteConn::connect(handle.addr()).unwrap();
        victim.set_isolation(level).unwrap();
        victim.exec("BEGIN").unwrap();
        victim
            .exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();
        assert_eq!(db.pinned_snapshots(), 1, "{level:?}");
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.pinned_snapshots() != 0 {
            assert!(
                Instant::now() < deadline,
                "{level:?}: pin leaked on txn timeout"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
    }
}

/// Server shutdown with a pinned-snapshot transaction still open drops
/// the session through the normal rollback path and releases the pin.
#[test]
fn shutdown_releases_pin() {
    for level in [
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = accounts_db(level);
        let handle = start(&db, ServerConfig::default());
        let mut victim = RemoteConn::connect(handle.addr()).unwrap();
        victim.set_isolation(level).unwrap();
        victim.exec("BEGIN").unwrap();
        victim
            .exec("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();
        assert_eq!(db.pinned_snapshots(), 1, "{level:?}");
        handle.shutdown();
        assert_eq!(
            db.pinned_snapshots(),
            0,
            "{level:?}: pin leaked on shutdown"
        );
    }
}

/// The hard case: the socket vanishes while its frame is parked on a lock
/// wait. The dead session must still be finalized when the statement
/// returns, releasing the snapshot pin.
#[test]
fn disconnect_with_frame_in_flight_releases_pin() {
    for level in [
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = accounts_db(level);
        db.set_lock_wait_timeout(Duration::from_secs(2));
        let handle = start(&db, ServerConfig::default());

        // Holder parks a row lock so the victim's frame blocks in the engine.
        let mut holder = db.connect();
        holder.execute("BEGIN").unwrap();
        holder
            .execute("UPDATE accounts SET balance = 0 WHERE id = 1")
            .unwrap();

        let mut victim = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(victim.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        let code = match level {
            IsolationLevel::MySqlRepeatableRead => "MYSQL-RR",
            _ => "SI",
        };
        victim
            .write_all(
                format!(
                    "HELLO {code}\nQ BEGIN\nQ SELECT balance FROM accounts WHERE id = 2\n\
                     Q UPDATE accounts SET balance = 9 WHERE id = 1\n"
                )
                .as_bytes(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(300)); // frame reaches the engine and parks
        drop(victim);
        drop(reader);
        holder.execute("COMMIT").unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while db.pinned_snapshots() != 0 {
            assert!(
                Instant::now() < deadline,
                "{level:?}: pin leaked with frame in flight: {}",
                db.pinned_snapshots()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
    }
}

/// Binary garbage (not UTF-8) is refused without killing the server.
#[test]
fn non_utf8_frame_is_refused() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let handle = start(&db, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    stream.write_all(&[0xff, 0xfe, b'Q', b'\n']).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR PROTOCOL"), "got {line:?}");

    // The server is still serving other sessions.
    let mut other = RemoteConn::connect(handle.addr()).unwrap();
    other.ping().unwrap();
    handle.shutdown();
}
