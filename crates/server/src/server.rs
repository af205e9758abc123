//! The TCP front end: accept loop, per-connection execution, and the
//! frame → [`Session`] dispatch with admission control on BEGIN.
//!
//! Two concurrency models share this module's dispatch logic, selected
//! by [`ServerConfig::mode`]:
//!
//! * [`ServerMode::Threads`] — the paper's baseline (MySQL's
//!   thread-per-connection): the accept thread spawns one OS thread per
//!   connection; that thread owns the connection's [`Session`] for the
//!   connection's lifetime. Simple, but a few hundred connections in it
//!   hits the scheduler cliff the paper attributes to OS-level noise.
//! * [`ServerMode::Evented`] — a readiness-driven reactor
//!   ([`crate::reactor`]): nonblocking sockets multiplexed by one event
//!   loop, per-connection state machines, and a bounded worker pool as
//!   the execution stage. Scales to 10k+ connections on a handful of
//!   threads.
//!
//! In both modes the admission controller sits between accept and
//! execute: a BEGIN frame must win an execution slot (or survive the
//! FIFO/deadline queue) before the engine sees it; overload is answered
//! with a typed `RETRY_LATER` instead of an ever-deeper queue.
//! Connection death in any state rolls back the open transaction
//! (dropping the `Session`) and frees the slot (dropping the
//! [`Permit`]) — no lock-queue entry survives a dead client.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tpd_engine::{Engine, EngineError, Session, SessionError, TableId};
use tpd_metrics::{Counter, MetricsSnapshot};

use crate::admission::{AdmissionConfig, AdmissionController, Permit, Shed};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, FrameReadError, HistSummary, MAX_ROW_COLS,
};
use crate::reactor;

/// Which concurrency model serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// One OS thread per connection (the comparison baseline).
    #[default]
    Threads,
    /// One reactor thread multiplexing nonblocking sockets, with a
    /// bounded worker pool executing transactions.
    Evented,
}

impl std::str::FromStr for ServerMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(ServerMode::Threads),
            "evented" => Ok(ServerMode::Evented),
            other => Err(format!(
                "unknown server mode {other:?} (expected \"threads\" or \"evented\")"
            )),
        }
    }
}

impl std::fmt::Display for ServerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServerMode::Threads => "threads",
            ServerMode::Evented => "evented",
        })
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Concurrency model for serving connections.
    pub mode: ServerMode,
    /// Admission control between accept and execute.
    pub admission: AdmissionConfig,
    /// Maximum simultaneously open connections; excess connections get a
    /// `RETRY_LATER` error frame and an immediate close.
    pub max_conns: usize,
    /// Per-connection idle deadline: a client that sends nothing for
    /// this long has its session rolled back, its admission permit
    /// released, and the connection closed — this is what reclaims
    /// permits from half-open (slow-loris / vanished-without-FIN)
    /// clients. `None` waits forever. In threads mode this is the socket
    /// read timeout; in evented mode the reactor enforces it.
    pub read_timeout: Option<Duration>,
    /// Worker threads for the evented execution stage. `0` defaults to
    /// `admission.slots` — one worker per execution slot, so a
    /// permit-holding transaction can always make progress (workers
    /// never block on admission; only admitted work reaches them).
    pub workers: usize,
    /// Set `TCP_NODELAY` on accepted sockets. Small length-prefixed
    /// request/response frames are the textbook delayed-ACK/Nagle
    /// interaction; leaving Nagle on poisons p999. On by default;
    /// disable only to measure the damage.
    pub nodelay: bool,
    /// Test hook: while this counter is nonzero, each accept attempt
    /// consumes one unit and fails with a synthetic `EMFILE` instead of
    /// accepting. Exercises the accept-error backoff path.
    #[doc(hidden)]
    pub inject_accept_errors: Option<Arc<AtomicU64>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            mode: ServerMode::Threads,
            admission: AdmissionConfig::default(),
            max_conns: 1024,
            read_timeout: Some(Duration::from_secs(60)),
            workers: 0,
            nodelay: true,
            inject_accept_errors: None,
        }
    }
}

/// A running server; dropping the handle shuts it down.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Threads mode: the accept thread. Evented mode: the reactor.
    accept_thread: Option<JoinHandle<()>>,
    /// Evented mode: wakes the reactor out of its poll wait.
    reactor_waker: Option<tpd_common::poll::Waker>,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServerConfig,
    pub(crate) admission: Arc<AdmissionController>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) open_conns: AtomicU64,
    pub(crate) conns_opened: AtomicU64,
    pub(crate) conn_rejects: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) frames: AtomicU64,
    /// Transient accept-path failures (EMFILE, ECONNABORTED, …) that
    /// were retried instead of killing the listener.
    pub(crate) accept_errs: Arc<Counter>,
}

impl Shared {
    /// The engine snapshot plus the server's own families. `server.*`
    /// names are part of the protocol surface: loadgen reads
    /// `server.shed_total` / `server.open_conns` out of the METRICS reply.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut m = self.engine.metrics_snapshot();
        m.set_counter("server.open_conns", self.open_conns.load(Ordering::Relaxed));
        m.set_counter(
            "server.conns_opened",
            self.conns_opened.load(Ordering::Relaxed),
        );
        m.set_counter(
            "server.conn_rejects",
            self.conn_rejects.load(Ordering::Relaxed),
        );
        m.set_counter(
            "server.protocol_errors",
            self.protocol_errors.load(Ordering::Relaxed),
        );
        m.set_counter("server.frames_total", self.frames.load(Ordering::Relaxed));
        m
    }
}

/// Spawn a server for `engine` per `config`. The listener is bound (and
/// the address resolvable via [`ServerHandle::local_addr`]) before this
/// returns.
pub fn spawn(engine: Arc<Engine>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let registry = engine.metrics_registry();
    let admission = AdmissionController::new(
        config.admission.clone(),
        registry.counter("server.shed_total"),
        registry.histogram("server.admission_wait_ns"),
        registry.counter("sched.deferred_total"),
    );
    let accept_errs = registry.counter("server.accept_err_total");
    let mode = config.mode;
    let shared = Arc::new(Shared {
        engine,
        config,
        admission,
        shutdown: AtomicBool::new(false),
        open_conns: AtomicU64::new(0),
        conns_opened: AtomicU64::new(0),
        conn_rejects: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
        frames: AtomicU64::new(0),
        accept_errs,
    });
    let (accept_thread, reactor_waker) = match mode {
        ServerMode::Threads => {
            let accept_shared = shared.clone();
            let t = std::thread::Builder::new()
                .name("tpd-accept".to_string())
                .spawn(move || accept_loop(listener, accept_shared))?;
            (t, None)
        }
        ServerMode::Evented => {
            let (t, waker) = reactor::spawn(listener, shared.clone())?;
            (t, Some(waker))
        }
    };
    Ok(ServerHandle {
        local_addr,
        shared,
        accept_thread: Some(accept_thread),
        reactor_waker,
    })
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently open connections.
    pub fn open_conns(&self) -> u64 {
        self.shared.open_conns.load(Ordering::Relaxed)
    }

    /// Protocol-level errors (malformed frames, bad versions) seen so far.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// Transient accept-path failures retried (not fatal) so far.
    pub fn accept_errors(&self) -> u64 {
        self.shared.accept_errs.get()
    }

    /// The server-side metrics snapshot (engine + `server.*` families) —
    /// the same data a METRICS frame returns.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Stop accepting, wake the front end, and wait for it to exit. In
    /// threads mode, live connection threads notice the flag at their
    /// next frame (or read timeout) and unwind, rolling back open
    /// transactions; in evented mode the reactor tears down every
    /// connection (rolling back open transactions) before exiting.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        match &self.reactor_waker {
            Some(waker) => waker.wake(),
            // Unblock the blocking accept with a throwaway connection.
            None => drop(TcpStream::connect(self.local_addr)),
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the accept loop should do about a failed `accept(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// Transient per-connection failure (the connection that aborted is
    /// gone; the listener is fine): retry immediately.
    Retry,
    /// Resource pressure (fd exhaustion) or an unrecognised error: back
    /// off briefly before retrying so the loop cannot hot-spin, then
    /// keep serving. Nothing kills the listener short of shutdown.
    Backoff,
}

const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Classify an accept-loop error. At 10k connections `EMFILE` is
/// routine — the listener must survive every transient error, counting
/// it in `server.accept_err_total`, instead of silently dying.
pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptDisposition {
    if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) {
        return AcceptDisposition::Backoff;
    }
    match e.kind() {
        io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::WouldBlock => AcceptDisposition::Retry,
        _ => AcceptDisposition::Backoff,
    }
}

/// `listener.accept()` with the test-only fault injection applied.
pub(crate) fn accept_with_faults(
    listener: &TcpListener,
    shared: &Shared,
) -> io::Result<(TcpStream, SocketAddr)> {
    if let Some(budget) = &shared.config.inject_accept_errors {
        if budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(io::Error::from_raw_os_error(EMFILE));
        }
    }
    listener.accept()
}

/// Over the connection limit: best-effort typed rejection, then close.
pub(crate) fn reject_over_limit(stream: &TcpStream, shared: &Shared) {
    shared.conn_rejects.fetch_add(1, Ordering::Relaxed);
    let mut buf = Vec::with_capacity(64);
    Frame::Error {
        code: ErrorCode::RetryLater,
        detail: "connection limit reached".to_string(),
    }
    .encode(&mut buf);
    let mut w = stream;
    let _ = w.write_all(&buf);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accept_with_faults(&listener, &shared) {
            Ok((s, _)) => s,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(e) => {
                shared.accept_errs.inc();
                match classify_accept_error(&e) {
                    AcceptDisposition::Retry => continue,
                    AcceptDisposition::Backoff => {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                }
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.open_conns.load(Ordering::SeqCst) >= shared.config.max_conns as u64 {
            reject_over_limit(&stream, &shared);
            continue; // stream drops ⇒ closed
        }
        shared.open_conns.fetch_add(1, Ordering::SeqCst);
        shared.conns_opened.fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let res = std::thread::Builder::new()
            .name("tpd-conn".to_string())
            .spawn(move || {
                serve_conn(stream, &conn_shared);
                conn_shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if res.is_err() {
            shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Per-connection state: the session plus the admission permit held
/// while its transaction is open.
pub(crate) struct Conn {
    pub(crate) session: Session,
    pub(crate) permit: Option<Permit>,
}

fn serve_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    if shared.config.nodelay {
        let _ = stream.set_nodelay(true);
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut conn = Conn {
        session: Session::new(shared.engine.clone()),
        permit: None,
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = write_frame(
                &mut writer,
                &Frame::Error {
                    code: ErrorCode::Shutdown,
                    detail: "server shutting down".to_string(),
                },
            );
            let _ = writer.flush();
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            // Clean close, torn close, or I/O error (incl. read timeout):
            // drop the connection; `conn` unwinds the txn and the permit.
            Ok(None) | Err(FrameReadError::Eof) | Err(FrameReadError::Io(_)) => return,
            Err(FrameReadError::Wire(e)) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        code: ErrorCode::Malformed,
                        detail: e.to_string(),
                    },
                );
                let _ = writer.flush();
                if e.recoverable() {
                    continue;
                }
                return; // framing lost; the stream cannot be resynced
            }
        };
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let reply = handle_frame(frame, &mut conn, shared);
        if write_frame(&mut writer, &reply).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

pub(crate) fn engine_error_reply(e: EngineError) -> Frame {
    let (code, detail) = match e {
        EngineError::Deadlock => (ErrorCode::Deadlock, e.to_string()),
        // Snapshot-too-old behaves like a timeout on the wire: the engine
        // rolled back; the client retries with a fresh transaction.
        EngineError::LockTimeout | EngineError::SnapshotTooOld => {
            (ErrorCode::LockTimeout, e.to_string())
        }
        EngineError::RowNotFound { .. } => (ErrorCode::RowNotFound, e.to_string()),
        EngineError::TxnFinished => (ErrorCode::TxnState, e.to_string()),
    };
    Frame::Error { code, detail }
}

pub(crate) fn session_error_reply(e: SessionError) -> Frame {
    match e {
        SessionError::Engine(inner) => engine_error_reply(inner),
        SessionError::NoActiveTxn | SessionError::TxnAlreadyActive => Frame::Error {
            code: ErrorCode::TxnState,
            detail: e.to_string(),
        },
    }
}

/// Whether this session error terminated the transaction (engine-side
/// rollback) — if so the admission slot must be released.
pub(crate) fn error_ended_txn(e: &SessionError) -> bool {
    matches!(
        e,
        SessionError::Engine(
            EngineError::Deadlock | EngineError::LockTimeout | EngineError::SnapshotTooOld
        )
    )
}

/// Execute one in-transaction request (statement, COMMIT, or ABORT) on
/// the session. Returns the reply and whether the admission permit must
/// be released (the transaction ended — cleanly or by engine rollback).
/// Both server modes funnel through this: the threads mode inline, the
/// evented mode from its worker pool.
pub(crate) fn execute_txn_frame(session: &mut Session, frame: Frame) -> (Frame, bool) {
    match frame {
        Frame::Read { table, key } => stmt_result(session, |s| {
            s.read(TableId(table), key).map(|row| Frame::Row { row })
        }),
        Frame::Update { table, key, row } => {
            if row.len() > MAX_ROW_COLS {
                return (
                    Frame::Error {
                        code: ErrorCode::Malformed,
                        detail: "row too wide".to_string(),
                    },
                    false,
                );
            }
            stmt_result(session, |s| {
                s.update_row(TableId(table), key, row)
                    .map(|()| Frame::Updated)
            })
        }
        Frame::Insert { table, row } => {
            if row.len() > MAX_ROW_COLS {
                return (
                    Frame::Error {
                        code: ErrorCode::Malformed,
                        detail: "row too wide".to_string(),
                    },
                    false,
                );
            }
            stmt_result(session, |s| {
                s.insert(TableId(table), row)
                    .map(|key| Frame::Inserted { key })
            })
        }
        Frame::Commit => {
            let reply = match session.commit() {
                Ok(()) => Frame::Committed,
                Err(e) => session_error_reply(e),
            };
            (reply, true) // slot freed whatever the outcome
        }
        Frame::Abort => {
            let reply = match session.abort() {
                Ok(()) => Frame::Aborted,
                Err(e) => session_error_reply(e),
            };
            (reply, true)
        }
        other => unreachable!("not an in-transaction frame: kind 0x{:02x}", other.kind()),
    }
}

/// Whether the engine proves `frame` cannot wait when run on `session`:
/// a snapshot read of resident pages, or the end of a transaction that
/// has nothing to log. Frames that may wait (lock waits, page I/O, WAL
/// flush) answer false.
pub(crate) fn never_waits(session: &Session, frame: &Frame) -> bool {
    match frame {
        Frame::Read { table, key } => session.read_never_waits(TableId(*table), *key),
        Frame::Commit | Frame::Abort => session.commit_never_waits(),
        _ => false,
    }
}

/// Render the metrics snapshot as a wire reply.
pub(crate) fn metrics_reply(snap: MetricsSnapshot) -> Frame {
    let counters = snap.counters.into_iter().collect();
    let histograms = snap
        .histograms
        .into_iter()
        .map(|(name, h)| {
            (
                name,
                HistSummary {
                    count: h.count,
                    sum: h.sum,
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                    p999: h.p999(),
                },
            )
        })
        .collect();
    Frame::MetricsSnapshot {
        counters,
        histograms,
    }
}

fn handle_frame(frame: Frame, conn: &mut Conn, shared: &Arc<Shared>) -> Frame {
    match frame {
        Frame::Begin { ty } => {
            if conn.session.in_txn() {
                return session_error_reply(SessionError::TxnAlreadyActive);
            }
            match shared.admission.admit_hot(begin_is_hot(shared, ty)) {
                Ok(permit) => match conn.session.begin(ty) {
                    Ok(txn_id) => {
                        conn.permit = Some(permit);
                        Frame::TxnBegun { txn_id }
                    }
                    Err(e) => session_error_reply(e), // permit drops here
                },
                Err(shed @ (Shed::QueueFull | Shed::DeadlineExpired)) => Frame::Error {
                    code: ErrorCode::RetryLater,
                    detail: shed.to_string(),
                },
            }
        }
        Frame::Read { .. }
        | Frame::Update { .. }
        | Frame::Insert { .. }
        | Frame::Commit
        | Frame::Abort => {
            let (reply, release) = execute_txn_frame(&mut conn.session, frame);
            if release {
                drop(conn.permit.take());
            }
            reply
        }
        Frame::Metrics => metrics_reply(shared.snapshot()),
        // A reply frame arriving as a request is a protocol violation,
        // but a well-formed one: answer with a typed error, keep the
        // connection.
        other => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            Frame::Error {
                code: ErrorCode::Malformed,
                detail: format!("frame kind 0x{:02x} is not a request", other.kind()),
            }
        }
    }
}

/// Classify a BEGIN as predicted-hot for the admission defer gate. The
/// wire protocol declares no key sample, so the classification is the
/// transaction type's learned conflict rate alone; always cold when the
/// engine runs a non-predictive policy.
pub(crate) fn begin_is_hot(shared: &Shared, ty: tpd_engine::TxnType) -> bool {
    shared
        .engine
        .predictor()
        .is_some_and(|p| p.is_hot(p.predict(ty, &[])))
}

/// Run one statement; map the outcome and whether the txn ended.
fn stmt_result(
    session: &mut Session,
    op: impl FnOnce(&mut Session) -> Result<Frame, SessionError>,
) -> (Frame, bool) {
    match op(session) {
        Ok(reply) => (reply, false),
        Err(e) => {
            let ended = error_ended_txn(&e);
            (session_error_reply(e), ended)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_mode_parses_both_names_and_rejects_junk() {
        assert_eq!("threads".parse::<ServerMode>(), Ok(ServerMode::Threads));
        assert_eq!("evented".parse::<ServerMode>(), Ok(ServerMode::Evented));
        assert!("epoll".parse::<ServerMode>().is_err());
        assert_eq!(ServerMode::Evented.to_string(), "evented");
    }

    #[test]
    fn accept_classifier_backs_off_on_fd_exhaustion() {
        for errno in [EMFILE, ENFILE] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify_accept_error(&e), AcceptDisposition::Backoff);
        }
    }

    #[test]
    fn accept_classifier_retries_per_connection_failures() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::WouldBlock,
        ] {
            let e = io::Error::new(kind, "transient");
            assert_eq!(classify_accept_error(&e), AcceptDisposition::Retry);
        }
    }

    #[test]
    fn accept_classifier_never_returns_a_fatal_disposition() {
        // Unknown errors must not kill the listener either — worst case
        // is a brief backoff.
        let e = io::Error::other("mystery");
        assert_eq!(classify_accept_error(&e), AcceptDisposition::Backoff);
    }
}
