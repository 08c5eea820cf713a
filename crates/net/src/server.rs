//! The wire server: one acceptor thread and one blocking thread per
//! admitted session.
//!
//! The acceptor owns the listener and admission control. A session thread
//! owns one socket and its engine [`Connection`] for the session's whole
//! life and does everything for it: read a line, execute it, write the
//! reply. Nothing polls on the request path — a thread is blocked in
//! `read` until its client speaks, in the engine while a statement waits
//! on a row lock, or in `write` until the reply is taken — and a session
//! executes one frame at a time by construction (pipelined input waits in
//! the session's buffer and, behind it, in the kernel's), which is the
//! one-session-one-thread discipline the engine's `Connection` assumes.
//!
//! Session threads are long-lived: `ServerConfig::workers` of them start
//! with the server, each serves one session after another, and a further
//! one is spawned only when an arrival finds none waiting.
//! [`Server::start`] returns once the first ones have allocated and are
//! waiting, which keeps every thread role of a process that starts
//! servers repeatedly on one malloc arena (DESIGN.md §14.2).
//!
//! Idle and in-transaction timeouts are the socket's read and write
//! timeouts. Disconnect-abort needs no machinery: whatever ends a session
//! — EOF, a timeout, a reply nobody takes, shutdown — its thread drops
//! the `Connection`, and the connection's `Drop` takes the same rollback
//! path an explicit `ROLLBACK` would (DESIGN.md §14.3).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use acidrain_db::{Connection, Database};

use crate::protocol::{encode_error, encode_result, escape, isolation_code, Request, MAX_LINE};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sessions the server will hold open at once (0 = unlimited): the
    /// one admission ceiling, as MySQL's `max_connections` is. Only this
    /// server's session threads release its slots, and each promotes the
    /// oldest queued socket into the slot it frees.
    pub max_sessions: usize,
    /// Sockets parked waiting for a session slot before new arrivals are
    /// refused outright with `ERR SERVER_BUSY` (0 = refuse immediately).
    pub queue_capacity: usize,
    /// Close sessions idle this long *outside* a transaction (cleanly:
    /// no abort, nothing to roll back).
    pub idle_timeout: Option<Duration>,
    /// Abort sessions idle this long *inside* a transaction: the open
    /// transaction is rolled back through the normal drop path and the
    /// client is told `ERR TXN_TIMEOUT` before the socket closes. This
    /// is the defense against a stalled client squatting on row locks,
    /// whether it stalls before its next request or stops reading its
    /// replies.
    pub txn_timeout: Option<Duration>,
    /// Session threads started with the server (at least one). This many
    /// concurrent sessions are served without spawning; beyond it each
    /// arrival that finds no thread waiting adds one, which then stays.
    /// It is not a concurrency limit — that is `max_sessions`.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 0,
            queue_capacity: 0,
            idle_timeout: None,
            txn_timeout: None,
            workers: 4,
        }
    }
}

/// The acceptor's pause after `accept` itself fails (out of file
/// descriptors, say): only time cures that, and retrying at once would
/// spin. No admitted session ever waits on it.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 4096;

/// How long a closing session waits for its client's own close, and how
/// much it will read and discard meanwhile, before the socket drops.
const DRAIN_WAIT: Duration = Duration::from_millis(50);
const DRAIN_MAX: usize = 4 * MAX_LINE;

/// An admitted socket and its engine session, on the way to the thread
/// that will serve it. The socket is shared with [`State::live`] so that
/// shutdown can reach it.
struct Session {
    stream: Arc<TcpStream>,
    conn: Connection,
}

/// Everything the acceptor and the session threads share.
struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    stop: AtomicBool,
    state: Mutex<State>,
    /// Waiting session threads sleep here; one is woken per hand-off.
    work: Condvar,
}

#[derive(Default)]
struct State {
    /// Sockets of admitted sessions by engine session id: the count
    /// `max_sessions` bounds, and the handles shutdown closes.
    live: HashMap<u64, Arc<TcpStream>>,
    /// Accepted sockets waiting for a session slot, oldest first.
    pending: VecDeque<TcpStream>,
    /// Admitted sessions no thread has picked up yet, each with a thread
    /// (woken or newly spawned) on its way.
    handoff: VecDeque<Session>,
    /// Waiting threads not yet spoken for. A hand-off claims one *when it
    /// is made*, not when the thread wakes, so an arrival never waits for
    /// a thread already promised to another session.
    idle: usize,
    /// Every session thread ever started; the acceptor joins them.
    threads: Vec<JoinHandle<()>>,
}

/// A running wire server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the acceptor, closes every session —
/// open transactions roll back via the normal connection drop path — and
/// joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (use this with
    /// `127.0.0.1:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server and wait for the acceptor and every session
    /// thread to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // The acceptor is normally blocked in `accept`; a connection is
        // the only thing that wakes it. It checks the stop flag before
        // looking at what it accepted.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Where to connect to reach a listener bound to `addr`: the address
/// itself, except that an unspecified address (`0.0.0.0`, `[::]`) is not
/// connectable everywhere and becomes the loopback address of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// The wire server front end. See the module docs for the threading
/// model and DESIGN.md §14 for the protocol.
pub struct Server;

impl Server {
    /// Bind a loopback listener on an ephemeral port and serve `db`.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        Server::start_on(db, "127.0.0.1:0", config)
    }

    /// Bind `addr` and serve `db` until the handle shuts down. Returns
    /// once the acceptor and the first `config.workers` session threads
    /// are running and waiting.
    pub fn start_on(
        db: Arc<Database>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            config,
            stop: AtomicBool::new(false),
            state: Mutex::default(),
            work: Condvar::new(),
        });
        let (ready_tx, ready_rx) = mpsc::channel();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("acidrain-acceptor".into())
                .spawn(move || run_acceptor(shared, listener, ready_tx))?
        };
        let mut handle = ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        };
        for _ in 0..handle.shared.config.workers.max(1) {
            if ready_rx.recv().is_err() {
                handle.stop_and_join();
                return Err(std::io::Error::other("session threads failed to start"));
            }
        }
        Ok(handle)
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("server state poisoned")
    }

    fn has_room(&self, state: &State) -> bool {
        self.config.max_sessions == 0 || state.live.len() < self.config.max_sessions
    }

    /// Route one accepted socket through admission control: into a
    /// session, the bounded wait queue behind earlier arrivals, or an
    /// outright `SERVER_BUSY` refusal.
    fn enroll(self: &Arc<Self>, mut stream: TcpStream) {
        let mut state = self.lock();
        if state.pending.is_empty() && self.has_room(&state) {
            self.admit(&mut state, stream);
        } else if state.pending.len() < self.config.queue_capacity {
            state.pending.push_back(stream);
            self.db.obs().net_queued(state.pending.len() as u64);
        } else {
            // Best effort: the client may already be gone. A fresh
            // socket's send buffer takes one line without blocking.
            let _ = stream.write_all(b"ERR SERVER_BUSY admission queue full\n");
            self.db.obs().net_rejected();
        }
    }

    /// Move queued sockets into freed slots, oldest first.
    fn promote(self: &Arc<Self>, state: &mut State) {
        while !self.stop.load(Ordering::Acquire) && self.has_room(state) {
            let Some(stream) = state.pending.pop_front() else {
                return;
            };
            self.admit(state, stream);
        }
    }

    /// Admit one socket: open its database session, register the socket
    /// for shutdown, and give both to a session thread — a waiting one if
    /// any is not yet spoken for, else a new one.
    fn admit(self: &Arc<Self>, state: &mut State, stream: TcpStream) {
        let conn = self.db.connect();
        let _ = stream.set_nodelay(true);
        let sid = conn.session_id();
        let stream = Arc::new(stream);
        state.live.insert(sid, Arc::clone(&stream));
        state.handoff.push_back(Session { stream, conn });
        if state.idle > 0 {
            state.idle -= 1;
            self.work.notify_one();
        } else if self.spawn_thread(state, None).is_err() {
            // Nobody to serve it: the slot is freed and the client sees a
            // bare close.
            state.handoff.pop_back();
            state.live.remove(&sid);
        }
    }

    /// Start a session thread; the acceptor joins it at shutdown.
    fn spawn_thread(
        self: &Arc<Self>,
        state: &mut State,
        ready: Option<mpsc::Sender<()>>,
    ) -> std::io::Result<()> {
        let shared = Arc::clone(self);
        let thread = std::thread::Builder::new()
            .name("acidrain-session".into())
            .spawn(move || run_session_thread(shared, ready))?;
        state.threads.push(thread);
        Ok(())
    }
}

fn run_acceptor(shared: Arc<Shared>, listener: TcpListener, ready: mpsc::Sender<()>) {
    {
        // A thread that fails to start drops its sender unsignalled, and
        // `Server::start_on` reports the failure.
        let mut state = shared.lock();
        for _ in 0..shared.config.workers.max(1) {
            let _ = shared.spawn_thread(&mut state, Some(ready.clone()));
        }
    }
    drop(ready);

    // The acceptor always blocks in `accept`: it only ever admits
    // arrivals, since a queued socket is promoted by the session thread
    // whose exit frees its slot.
    loop {
        if shared.lock().live.is_empty() {
            shared.db.obs().net_reactor_parked();
        }
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            break; // whatever arrived was, or raced with, the shutdown wake
        }
        match accepted {
            Ok((stream, _)) => shared.enroll(stream),
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }

    // Shutdown. The stop flag is visible, so nothing more is admitted.
    // Closing a socket wakes the thread blocked on it, which drops its
    // connection (open transactions roll back) and exits.
    let threads = {
        let mut state = shared.lock();
        for stream in state.live.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Sockets never served: queued ones, and hand-offs whose thread
        // will see the stop flag first.
        state.pending.clear();
        state.handoff.clear();
        shared.work.notify_all();
        std::mem::take(&mut state.threads)
    };
    for thread in threads {
        let _ = thread.join();
    }
}

/// A session thread: serve one handed-off session after another until
/// the server stops. A thread started with the server signals `ready`
/// once it owns its buffer and counts as waiting; one started for an
/// arrival is spoken for from birth.
fn run_session_thread(shared: Arc<Shared>, ready: Option<mpsc::Sender<()>>) {
    // Pending input. Allocated before `ready` so that the thread has
    // claimed its malloc arena by the time `Server::start` returns.
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut state = shared.lock();
    if let Some(ready) = ready {
        state.idle += 1;
        let _ = ready.send(());
    }
    loop {
        let session = loop {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            if let Some(session) = state.handoff.pop_front() {
                break session;
            }
            state = shared.work.wait(state).expect("server state poisoned");
        };
        drop(state);
        let sid = session.conn.session_id();
        serve(&shared.config, &session.stream, session.conn, &mut buf);
        state = shared.lock();
        state.live.remove(&sid);
        // Waiting again before promoting, so that a socket promoted into
        // the slot just freed is served by this thread, not a new one.
        state.idle += 1;
        shared.promote(&mut state);
    }
}

/// One session, greeting to close.
fn serve(config: &ServerConfig, stream: &TcpStream, mut conn: Connection, buf: &mut Vec<u8>) {
    let obs = conn.obs().clone();
    let sid = conn.session_id();
    obs.net_session_opened(sid);
    buf.clear();
    let farewell = converse(config, stream, &mut conn, buf);
    // However the session ended, an open transaction ends here, through
    // the normal rollback path — before any waiting on the client below,
    // so its row locks are not held for a client that is being dismissed.
    let aborted = conn.in_transaction();
    drop(conn);
    obs.net_session_closed(sid, aborted);
    if let Some(text) = farewell {
        close(stream, &text);
    }
}

/// The session's read-execute-reply loop. `None` means the client is
/// gone (EOF, a socket error, or a reply it would not take within the
/// limit); `Some(text)` asks for an orderly close after `text` is sent.
fn converse(
    config: &ServerConfig,
    mut stream: &TcpStream,
    conn: &mut Connection,
    buf: &mut Vec<u8>,
) -> Option<String> {
    let mut reply = format!(
        "OK acidrain {} {}\n",
        conn.session_id(),
        isolation_code(conn.isolation())
    );
    let mut chunk = [0u8; READ_CHUNK];
    let mut armed = None;
    loop {
        // One limit bounds both directions: how long the client may stay
        // silent, and how long it may leave a reply unread.
        let limit = if conn.in_transaction() {
            config.txn_timeout
        } else {
            config.idle_timeout
        }
        .map(|t| t.max(Duration::from_millis(1))); // zero is not a socket timeout
        if armed != Some(limit) {
            let _ = stream.set_read_timeout(limit);
            let _ = stream.set_write_timeout(limit);
            armed = Some(limit);
        }
        stream.write_all(reply.as_bytes()).ok()?;

        // The next line: from the buffer if a pipelining client already
        // sent it, else from the socket. Nothing is read while a complete
        // line waits, so the buffer holds at most one line under assembly
        // plus one chunk, and `MAX_LINE` is judged on that line alone.
        let end = loop {
            let end = buf.iter().position(|&b| b == b'\n');
            if end.unwrap_or(buf.len()) > MAX_LINE {
                return Some("ERR PROTOCOL line exceeds MAX_LINE\n".into());
            }
            if let Some(end) = end {
                break end;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Some(if conn.in_transaction() {
                        "ERR TXN_TIMEOUT in-transaction idle limit\n".into()
                    } else {
                        String::new()
                    });
                }
                Err(_) => return None,
            }
        };
        let Ok(line) = std::str::from_utf8(&buf[..end]) else {
            return Some("ERR PROTOCOL frame is not UTF-8\n".into());
        };
        let line = line.strip_suffix('\r').unwrap_or(line);

        // An engine panic must cost one session, not the thread: the
        // caller drops the connection, which rolls back whatever the
        // statement left open.
        let (response, last) = catch_unwind(AssertUnwindSafe(|| process(conn, line)))
            .unwrap_or_else(|_| ("ERR INTERNAL statement execution panicked\n".into(), true));
        buf.drain(..=end);
        if last {
            return Some(response);
        }
        reply = response;
    }
}

/// Execute one frame. This is where a session thread blocks on the
/// engine: a statement may park on the lock table for up to the
/// database's lock-wait timeout, and stalls nobody but its own client.
/// Returns the reply and whether it is the session's last.
fn process(conn: &mut Connection, line: &str) -> (String, bool) {
    let sid = conn.session_id();
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(msg) => {
            conn.obs().net_protocol_error(sid);
            return (format!("ERR PROTOCOL {}\n", escape(&msg)), true);
        }
    };
    conn.obs().net_frame(sid);
    let reply = match request {
        Request::Hello(level) => {
            conn.set_isolation(level);
            format!("OK iso {}\n", isolation_code(level))
        }
        Request::Query(sql) => match conn.execute(&sql) {
            Ok(rs) => encode_result(&rs),
            Err(e) => format!("{}\n", encode_error(&e)),
        },
        Request::Api { invocation, name } => {
            conn.set_api(name, invocation);
            "OK api\n".into()
        }
        Request::NoApi => {
            conn.clear_api();
            "OK api\n".into()
        }
        Request::Ping => "OK pong\n".into(),
        Request::Quit => return ("OK bye\n".into(), true),
    };
    (reply, false)
}

/// Orderly close: send the last words, half-close so the client reads
/// them and then EOF, and discard what it still sends until it closes
/// too. Dropping a socket with unread input turns the close into an RST,
/// which can destroy the very reply that explains it.
fn close(mut stream: &TcpStream, farewell: &str) {
    let _ = stream.write_all(farewell.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_WAIT));
    let mut sink = [0u8; READ_CHUNK];
    let mut budget = DRAIN_MAX;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_to_loopback_of_the_same_family() {
        for (bound, wake) in [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("127.0.0.1:7878", "127.0.0.1:7878"),
            ("192.0.2.7:80", "192.0.2.7:80"),
            ("[::1]:9", "[::1]:9"),
        ] {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), wake.parse().unwrap(), "{bound}");
        }
    }
}
