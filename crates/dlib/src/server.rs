//! The dlib server: many connections, one serial dispatcher.
//!
//! §4: "To allow multiple clients to share the server process environment,
//! the dlib server was modified to accept more than one connection. Each
//! connection is selected for service by the server process in the
//! sequence that the dlib calls are received. The dlib calls are executed
//! by the server in a single process environment as though there were only
//! one client." The single dispatcher thread below *is* that guarantee:
//! every procedure runs with `&mut S` and no lock, because nothing else
//! ever touches the state.
//!
//! On top of the 1992 design this server adds the fault model the ROADMAP
//! needs before "heavy traffic" means anything:
//!
//! * the dispatch queue is **bounded** ([`ServerConfig::queue_capacity`]);
//!   when it fills, excess calls are answered [`Status::Busy`] from the
//!   reader thread instead of ballooning memory,
//! * [`PROC_PING`] is answered by the reader thread itself, so heartbeats
//!   measure transport liveness even while the dispatcher is saturated,
//! * sessions that go silent for [`ServerConfig::heartbeat_timeout`] (or
//!   whose connection drops, cleanly or not) are expired and a
//!   [`SessionEvent::Disconnected`] is delivered to the hook registered
//!   with [`DlibServer::on_session_event`] — the windtunnel uses this to
//!   release rake grabs and delta baselines held by dead clients,
//! * a malformed or oversized frame closes *only* the offending
//!   connection, with the reason logged; the dispatcher and every other
//!   session keep serving,
//! * a panicking procedure answers its caller with `Status::Error` and the
//!   dispatcher keeps serving; a panicking idle hook just returns.
//!
//! [`Status::Busy`]: crate::message::Status::Busy

use crate::message::{Call, Payload, Reply, Status};
use crate::wire::FrameAccumulator;
use crate::{DlibError, Result};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use std::cell::Cell;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Built-in heartbeat procedure. Reserved in the `0xFFFF_xxxx` range so it
/// can never collide with application procedure ids; answered directly by
/// each connection's reader thread (echoing the argument bytes) without
/// entering the dispatch queue.
pub const PROC_PING: u32 = 0xFFFF_0001;

/// Per-connection identity handed to every procedure — the hook the
/// windtunnel uses for first-come-first-served rake locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Session {
    /// Unique id of the client connection (monotonic from 1).
    pub client_id: u64,
}

/// Why a session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisconnectReason {
    /// The peer closed the connection (cleanly or by vanishing).
    ClosedByPeer,
    /// The peer sent bytes we refuse to parse (malformed call, oversized
    /// frame announcement); only this connection is closed.
    ProtocolError(String),
    /// The session went silent past the configured heartbeat deadline.
    TimedOut,
    /// The peer stopped reading: a reply could not be written within
    /// [`ServerConfig::write_timeout`].
    WriteTimedOut,
    /// The server itself is shutting down.
    ServerShutdown,
}

impl std::fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DisconnectReason::ClosedByPeer => write!(f, "closed by peer"),
            DisconnectReason::ProtocolError(m) => write!(f, "protocol error: {m}"),
            DisconnectReason::TimedOut => write!(f, "heartbeat deadline missed"),
            DisconnectReason::WriteTimedOut => write!(f, "reply write deadline missed"),
            DisconnectReason::ServerShutdown => write!(f, "server shutdown"),
        }
    }
}

/// Session lifecycle notification, delivered on the dispatcher thread
/// with exclusive `&mut S` access — exactly like a procedure call, and
/// ordered after every call that connection managed to enqueue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    Connected,
    Disconnected(DisconnectReason),
}

/// Server-side transport knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Dispatch queue depth shared by all connections. When full, further
    /// calls are shed with [`crate::message::Status::Busy`].
    pub queue_capacity: usize,
    /// Reap sessions silent (no complete frame received) for this long.
    /// `None` disables reaping — a session then lives until its
    /// connection drops.
    pub heartbeat_timeout: Option<Duration>,
    /// How often connection readers wake to check shutdown and heartbeat
    /// deadlines; bounds reaping latency.
    pub poll_interval: Duration,
    /// Deadline for writing one reply to a client that has stopped
    /// reading; elapsing ends it with [`DisconnectReason::WriteTimedOut`].
    pub write_timeout: Option<Duration>,
    /// Incremented once per call shed with `Busy`. Share the `Arc` to
    /// observe shedding (the windtunnel's governor cuts frame detail when
    /// this grows).
    pub shed_counter: Arc<AtomicU64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_capacity: 1024,
            heartbeat_timeout: None,
            poll_interval: Duration::from_millis(200),
            write_timeout: Some(Duration::from_secs(10)),
            shed_counter: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// A registered remote procedure: gets exclusive state access, the calling
/// session, and the raw argument bytes; returns the result body or an
/// error message that becomes `Status::Error` at the client.
pub type Procedure<S> =
    Box<dyn Fn(&mut S, Session, &[u8]) -> std::result::Result<Payload, String> + Send>;

type EventHook<S> = Box<dyn FnMut(&mut S, Session, SessionEvent) + Send>;

type IdleHook<S> = Box<dyn FnMut(&mut S, &dyn Fn() -> bool) + Send>;

/// Server under construction: state + procedure registry + hooks.
pub struct DlibServer<S> {
    state: S,
    procedures: HashMap<u32, Procedure<S>>,
    event_hook: Option<EventHook<S>>,
    idle_hook: Option<IdleHook<S>>,
}

enum Job {
    Call {
        session: Session,
        call: Call,
        reply_tx: Sender<Reply>,
    },
    Event {
        session: Session,
        event: SessionEvent,
    },
}

impl<S: Send + 'static> DlibServer<S> {
    pub fn new(state: S) -> DlibServer<S> {
        DlibServer {
            state,
            procedures: HashMap::new(),
            event_hook: None,
            idle_hook: None,
        }
    }

    /// Register a procedure under a numeric id (replaces any previous
    /// registration of the same id). Ids at `0xFFFF_0000` and above are
    /// reserved for built-ins like [`PROC_PING`]. The result converts
    /// into a [`Payload`]: one `Bytes`, or a rope of them sent unjoined.
    pub fn register<F, P>(&mut self, id: u32, f: F) -> &mut Self
    where
        F: Fn(&mut S, Session, &[u8]) -> std::result::Result<P, String> + Send + 'static,
        P: Into<Payload>,
    {
        self.procedures.insert(
            id,
            Box::new(move |state, session, args| f(state, session, args).map(Into::into)),
        );
        self
    }

    /// Register the session lifecycle hook. It runs on the dispatcher
    /// thread with exclusive state access; `Disconnected` is guaranteed to
    /// arrive exactly once per connection that delivered `Connected`, and
    /// after every call that connection enqueued. Events are never shed by
    /// a full queue.
    pub fn on_session_event<F>(&mut self, f: F) -> &mut Self
    where
        F: FnMut(&mut S, Session, SessionEvent) + Send + 'static,
    {
        self.event_hook = Some(Box::new(f));
        self
    }

    /// Register the idle hook: it runs like a procedure, after a *call's*
    /// reply has gone to its writer and the queue was found empty (never
    /// after an event). `pending()` turns true once a job is queued, and
    /// that job is served next, so arrival order is unchanged.
    pub fn on_idle<F>(&mut self, f: F) -> &mut Self
    where
        F: FnMut(&mut S, &dyn Fn() -> bool) + Send + 'static,
    {
        self.idle_hook = Some(Box::new(f));
        self
    }

    /// Bind and start serving with default configuration; returns a
    /// handle with the bound address. Pass `"127.0.0.1:0"` to let the OS
    /// choose a port.
    pub fn serve(self, addr: &str) -> Result<ServerHandle> {
        self.serve_with(addr, ServerConfig::default())
    }

    /// Bind and start serving with explicit transport configuration.
    pub fn serve_with(self, addr: &str, config: ServerConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = bounded::<Job>(config.queue_capacity.max(1));

        // The single serial dispatcher (the paper's "as though there were
        // only one client").
        let mut state = self.state;
        let procedures = self.procedures;
        let mut event_hook = self.event_hook;
        let mut idle_hook = self.idle_hook;
        let dispatcher = std::thread::Builder::new()
            .name("dlib-dispatch".into())
            .spawn(move || {
                // A job taken off the queue while looking for idle time.
                let mut peeked = None;
                while let Some(job) = peeked.take().or_else(|| job_rx.recv().ok()) {
                    let (session, call, reply_tx) = match job {
                        Job::Call {
                            session,
                            call,
                            reply_tx,
                        } => (session, call, reply_tx),
                        Job::Event { session, event } => {
                            if let Some(hook) = event_hook.as_mut() {
                                hook(&mut state, session, event);
                            }
                            continue;
                        }
                    };
                    let reply = match procedures.get(&call.procedure) {
                        Some(proc_fn) => match catch_unwind(AssertUnwindSafe(|| {
                            proc_fn(&mut state, session, &call.args)
                        })) {
                            Ok(Ok(payload)) => Reply::ok(call.seq, payload),
                            Ok(Err(msg)) => Reply::error(call.seq, &msg),
                            Err(_) => Reply::error(
                                call.seq,
                                &format!("procedure {:#x} panicked", call.procedure),
                            ),
                        },
                        None => Reply {
                            status: Status::UnknownProcedure,
                            ..Reply::busy(call.seq)
                        },
                    };
                    // A dead connection just drops its replies.
                    let _ = reply_tx.send(reply);
                    let next = Cell::new(None);
                    let pending = || {
                        let job = next.take().or_else(|| job_rx.try_recv().ok());
                        let queued = job.is_some();
                        next.set(job);
                        queued
                    };
                    if let (Some(hook), false) = (idle_hook.as_mut(), pending()) {
                        let _ = catch_unwind(AssertUnwindSafe(|| hook(&mut state, &pending)));
                    }
                    peeked = next.into_inner();
                }
            })?;

        // Accept loop.
        let accept_shutdown = Arc::clone(&shutdown);
        let next_client = Arc::new(AtomicU64::new(1));
        let conn_config = config.clone();
        let accept = std::thread::Builder::new()
            .name("dlib-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let client_id = next_client.fetch_add(1, Ordering::SeqCst);
                            spawn_connection(
                                stream,
                                Session { client_id },
                                job_tx.clone(),
                                Arc::clone(&accept_shutdown),
                                conn_config.clone(),
                            );
                        }
                        Err(_) => break,
                    }
                }
                // Dropping job_tx here ends the dispatcher once all
                // connection clones are gone too.
            })?;

        Ok(ServerHandle {
            addr: local_addr,
            shutdown,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
        })
    }
}

/// Pure heartbeat bookkeeping, separated from wall-clock reads so expiry
/// logic is testable with a fake clock.
pub(crate) struct IdleTimer {
    last_activity: Instant,
    timeout: Option<Duration>,
}

impl IdleTimer {
    pub(crate) fn new(now: Instant, timeout: Option<Duration>) -> IdleTimer {
        IdleTimer {
            last_activity: now,
            timeout,
        }
    }

    /// Record liveness (a complete frame arrived) at `now`.
    pub(crate) fn touch(&mut self, now: Instant) {
        self.last_activity = now;
    }

    /// Whether the silence from the last activity to `now` exceeds the
    /// deadline. Never expires when no timeout is configured.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        match self.timeout {
            Some(t) => now.saturating_duration_since(self.last_activity) > t,
            None => false,
        }
    }
}

/// Reader + writer threads for one client connection.
fn spawn_connection(
    stream: TcpStream,
    session: Session,
    job_tx: Sender<Job>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let (reply_tx, reply_rx): (Sender<Reply>, Receiver<Reply>) = unbounded();
    let mut write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            // lint:allow(hygiene): connection-fatal error path, not per-frame
            eprintln!(
                "dlib: session {}: cannot clone stream: {e}",
                session.client_id
            );
            return;
        }
    };
    // Each reply is one write; the kernel must not hold its tail back.
    let _ = stream.set_nodelay(true);
    // A client that stopped reading must not pin the writer forever.
    let _ = write_stream.set_write_timeout(config.write_timeout);
    let write_timed_out = Arc::new(AtomicBool::new(false));
    let writer_timed_out = Arc::clone(&write_timed_out);
    // Writer: drains the reply queue in dispatch order, so a slow client
    // backs up its own queue and never the dispatcher.
    let writer = std::thread::Builder::new()
        .name(format!("dlib-write-{}", session.client_id))
        .spawn(move || {
            while let Ok(reply) = reply_rx.recv() {
                if let Err(e) = reply.write_to(&mut write_stream) {
                    // Mid-frame and unusable: close it, so the reader
                    // reaps the session now and not at a heartbeat deadline.
                    writer_timed_out.store(matches!(e, DlibError::Timeout), Ordering::SeqCst);
                    let _ = write_stream.shutdown(Shutdown::Both);
                    break;
                }
            }
        });
    if let Err(e) = writer {
        // lint:allow(hygiene): spawn failure tears down this connection; rare, not per-frame
        eprintln!("dlib: session {}: spawn writer: {e}", session.client_id);
        return;
    }
    // Reader: decodes calls and enqueues them in arrival order. The short
    // read timeout lets the thread notice shutdown and heartbeat expiry;
    // the accumulator keeps partial frames coherent across timeouts.
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let reader = std::thread::Builder::new()
        .name(format!("dlib-read-{}", session.client_id))
        .spawn(move || {
            // Lifecycle events use the blocking `send`: they must never be
            // shed, and ordering after this connection's earlier calls is
            // preserved because they travel the same queue.
            if job_tx
                .send(Job::Event {
                    session,
                    event: SessionEvent::Connected,
                })
                .is_err()
            {
                return;
            }
            let mut reason = read_loop(&stream, session, &job_tx, &reply_tx, &shutdown, &config);
            if write_timed_out.load(Ordering::SeqCst) {
                // The EOF the read loop saw was the writer giving up.
                reason = DisconnectReason::WriteTimedOut;
            }
            if !matches!(
                reason,
                DisconnectReason::ClosedByPeer | DisconnectReason::ServerShutdown
            ) {
                // lint:allow(hygiene): once per disconnect, the operator wants to see it
                eprintln!("dlib: session {} dropped: {reason}", session.client_id);
            }
            let _ = stream.shutdown(Shutdown::Both);
            let _ = job_tx.send(Job::Event {
                session,
                event: SessionEvent::Disconnected(reason),
            });
            // reply_tx drops here, ending the writer thread.
        });
    if let Err(e) = reader {
        // lint:allow(hygiene): spawn failure tears down this connection; rare, not per-frame
        eprintln!("dlib: session {}: spawn reader: {e}", session.client_id);
    }
}

/// Body of a connection's reader thread; returns why the session ended.
fn read_loop(
    stream: &TcpStream,
    session: Session,
    job_tx: &Sender<Job>,
    reply_tx: &Sender<Reply>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) -> DisconnectReason {
    let mut r = std::io::BufReader::new(stream);
    let mut acc = FrameAccumulator::new();
    let mut idle = IdleTimer::new(Instant::now(), config.heartbeat_timeout);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return DisconnectReason::ServerShutdown;
        }
        let frame = match acc.read_from(&mut r) {
            Ok(frame) => frame,
            Err(DlibError::Timeout) => {
                if idle.expired(Instant::now()) {
                    return DisconnectReason::TimedOut;
                }
                continue;
            }
            Err(DlibError::Disconnected) => return DisconnectReason::ClosedByPeer,
            Err(DlibError::Protocol(m)) => return DisconnectReason::ProtocolError(m),
            Err(e) => return DisconnectReason::ProtocolError(e.to_string()),
        };
        idle.touch(Instant::now());
        let call = match Call::decode(frame) {
            Ok(call) => call,
            Err(e) => return DisconnectReason::ProtocolError(format!("undecodable call: {e}")),
        };
        // Heartbeats are answered right here: liveness is a property of
        // the transport, and a saturated dispatcher must not fail it.
        if call.procedure == PROC_PING {
            if reply_tx.send(Reply::ok(call.seq, call.args)).is_err() {
                return DisconnectReason::ClosedByPeer;
            }
            continue;
        }
        match job_tx.try_send(Job::Call {
            session,
            call,
            reply_tx: reply_tx.clone(),
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(Job::Call { call, .. })) => {
                // Shed load: the connection stays healthy, the caller is
                // told to back off.
                config.shed_counter.fetch_add(1, Ordering::Relaxed);
                if reply_tx.send(Reply::busy(call.seq)).is_err() {
                    return DisconnectReason::ClosedByPeer;
                }
            }
            Err(_) => return DisconnectReason::ServerShutdown,
        }
    }
}

/// Running server handle; shuts down on [`ServerHandle::shutdown`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, stop dispatching, join the threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_impl();
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests sleep to let real threads make progress
mod tests {
    use super::*;
    use crate::client::DlibClient;
    use crate::wire::write_frame;
    use bytes::Bytes;
    use parking_lot::Mutex;

    const PROC_APPEND: u32 = 1;
    const PROC_READ: u32 = 2;
    const PROC_FAIL: u32 = 3;
    const PROC_WHOAMI: u32 = 4;

    fn log_server() -> ServerHandle {
        let mut server = DlibServer::new(Vec::<u8>::new());
        server.register(PROC_APPEND, |state, _s, args| {
            state.extend_from_slice(args);
            Ok(Bytes::new())
        });
        server.register(PROC_READ, |state, _s, _| Ok(Bytes::copy_from_slice(state)));
        server.register(PROC_FAIL, |_state, _s, _| {
            Err::<Bytes, _>("deliberate".into())
        });
        server.register(PROC_WHOAMI, |_state, s, _| {
            Ok(Bytes::copy_from_slice(&s.client_id.to_le_bytes()))
        });
        server.serve("127.0.0.1:0").unwrap()
    }

    #[test]
    fn state_persists_across_calls() {
        let server = log_server();
        let mut c = DlibClient::connect(server.addr()).unwrap();
        c.call(PROC_APPEND, b"ab").unwrap();
        c.call(PROC_APPEND, b"cd").unwrap();
        let log = c.call(PROC_READ, b"").unwrap();
        assert_eq!(&log[..], b"abcd");
        server.shutdown();
    }

    #[test]
    fn errors_and_unknown_procedures_reported() {
        let server = log_server();
        let mut c = DlibClient::connect(server.addr()).unwrap();
        assert!(matches!(
            c.call(PROC_FAIL, b""),
            Err(DlibError::Remote(m)) if m == "deliberate"
        ));
        assert!(c.call(999, b"").is_err());
        // Connection still usable after errors.
        assert!(c.call(PROC_READ, b"").is_ok());
        server.shutdown();
    }

    #[test]
    fn clients_get_distinct_ids() {
        let server = log_server();
        let mut c1 = DlibClient::connect(server.addr()).unwrap();
        let mut c2 = DlibClient::connect(server.addr()).unwrap();
        let id1 = u64::from_le_bytes(c1.call(PROC_WHOAMI, b"").unwrap()[..8].try_into().unwrap());
        let id2 = u64::from_le_bytes(c2.call(PROC_WHOAMI, b"").unwrap()[..8].try_into().unwrap());
        assert_ne!(id1, id2);
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_state_serially() {
        // The §4 property: concurrent clients are serialized; nothing is
        // lost or torn.
        let server = log_server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            handles.push(std::thread::spawn(move || {
                let mut c = DlibClient::connect(addr).unwrap();
                for _ in 0..25 {
                    c.call(PROC_APPEND, &[b'a' + t]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut c = DlibClient::connect(addr).unwrap();
        let log = c.call(PROC_READ, b"").unwrap();
        assert_eq!(log.len(), 100);
        for t in 0..4u8 {
            assert_eq!(log.iter().filter(|&&b| b == b'a' + t).count(), 25);
        }
        server.shutdown();
    }

    #[test]
    fn calls_from_one_client_execute_in_order() {
        let server = log_server();
        let mut c = DlibClient::connect(server.addr()).unwrap();
        for b in b"ordered" {
            c.call(PROC_APPEND, &[*b]).unwrap();
        }
        assert_eq!(&c.call(PROC_READ, b"").unwrap()[..], b"ordered");
        server.shutdown();
    }

    #[test]
    fn server_survives_client_disconnect() {
        let server = log_server();
        {
            let mut c = DlibClient::connect(server.addr()).unwrap();
            c.call(PROC_APPEND, b"x").unwrap();
        } // dropped
        let mut c2 = DlibClient::connect(server.addr()).unwrap();
        assert_eq!(&c2.call(PROC_READ, b"").unwrap()[..], b"x");
        server.shutdown();
    }

    #[test]
    fn shutdown_terminates_cleanly() {
        let server = log_server();
        let addr = server.addr();
        server.shutdown();
        // New connections are refused or die immediately.
        let mut dead = match DlibClient::connect(addr) {
            Ok(c) => c,
            Err(_) => return,
        };
        assert!(dead.call(PROC_READ, b"").is_err());
    }

    // ---- fault-tolerance coverage -------------------------------------

    /// Shared event log for lifecycle assertions.
    type Events = Arc<Mutex<Vec<(u64, SessionEvent)>>>;

    fn event_server(config: ServerConfig) -> (ServerHandle, Events) {
        let events: Events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let mut server = DlibServer::new(());
        server.register(PROC_APPEND, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        server.on_session_event(move |_state, session, event| {
            sink.lock().push((session.client_id, event));
        });
        let handle = server.serve_with("127.0.0.1:0", config).unwrap();
        (handle, events)
    }

    fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn idle_timer_expiry_with_fake_clock() {
        let t0 = Instant::now();
        let mut timer = IdleTimer::new(t0, Some(Duration::from_millis(100)));
        assert!(!timer.expired(t0));
        assert!(!timer.expired(t0 + Duration::from_millis(100)));
        assert!(timer.expired(t0 + Duration::from_millis(101)));
        timer.touch(t0 + Duration::from_millis(150));
        assert!(!timer.expired(t0 + Duration::from_millis(200)));
        assert!(timer.expired(t0 + Duration::from_millis(251)));
    }

    #[test]
    fn idle_timer_never_expires_without_timeout() {
        let t0 = Instant::now();
        let timer = IdleTimer::new(t0, None);
        assert!(!timer.expired(t0 + Duration::from_secs(3600)));
    }

    #[test]
    fn connect_and_disconnect_events_fire() {
        let (server, events) = event_server(ServerConfig::default());
        let mut c = DlibClient::connect(server.addr()).unwrap();
        c.call(PROC_APPEND, b"hi").unwrap();
        drop(c);
        wait_for("disconnect event", || {
            events
                .lock()
                .iter()
                .any(|(_, e)| matches!(e, SessionEvent::Disconnected(_)))
        });
        let log = events.lock();
        assert_eq!(log[0].1, SessionEvent::Connected);
        assert_eq!(
            log[1].1,
            SessionEvent::Disconnected(DisconnectReason::ClosedByPeer)
        );
        assert_eq!(log[0].0, log[1].0);
        drop(log);
        server.shutdown();
    }

    #[test]
    fn silent_session_is_reaped_while_pinging_one_survives() {
        let (server, events) = event_server(ServerConfig {
            heartbeat_timeout: Some(Duration::from_millis(200)),
            poll_interval: Duration::from_millis(25),
            ..ServerConfig::default()
        });
        // Client A connects and goes silent while holding its socket open.
        let quiet = DlibClient::connect(server.addr()).unwrap();
        // Client B keeps heartbeating.
        let mut lively = DlibClient::connect(server.addr()).unwrap();
        let reaped = || {
            events
                .lock()
                .iter()
                .any(|(_, e)| matches!(e, SessionEvent::Disconnected(DisconnectReason::TimedOut)))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while !reaped() {
            assert!(Instant::now() < deadline, "silent session never reaped");
            lively.ping().unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        // Exactly one session timed out, and B is still fully usable.
        let timed_out: Vec<u64> = events
            .lock()
            .iter()
            .filter(|(_, e)| matches!(e, SessionEvent::Disconnected(DisconnectReason::TimedOut)))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(timed_out.len(), 1);
        assert_eq!(&lively.call(PROC_APPEND, b"alive").unwrap()[..], b"alive");
        drop(quiet);
        server.shutdown();
    }

    #[test]
    fn malformed_frame_closes_only_that_connection() {
        let (server, events) = event_server(ServerConfig::default());
        let mut healthy = DlibClient::connect(server.addr()).unwrap();
        // A "call" whose payload is garbage the decoder rejects.
        let mut bad = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut bad, b"\x01").unwrap();
        wait_for("protocol-error disconnect", || {
            events.lock().iter().any(|(_, e)| {
                matches!(
                    e,
                    SessionEvent::Disconnected(DisconnectReason::ProtocolError(_))
                )
            })
        });
        // The offender's socket is dead...
        let mut probe = [0u8; 1];
        let _ = bad.set_read_timeout(Some(Duration::from_secs(5)));
        assert!(matches!(std::io::Read::read(&mut bad, &mut probe), Ok(0)));
        // ...while the dispatcher and the healthy session keep serving.
        assert_eq!(&healthy.call(PROC_APPEND, b"ok").unwrap()[..], b"ok");
        server.shutdown();
    }

    #[test]
    fn oversized_frame_announcement_closes_only_that_connection() {
        let (server, events) = event_server(ServerConfig::default());
        let mut healthy = DlibClient::connect(server.addr()).unwrap();
        let mut bad = TcpStream::connect(server.addr()).unwrap();
        std::io::Write::write_all(&mut bad, &u32::MAX.to_le_bytes()).unwrap();
        wait_for("protocol-error disconnect", || {
            events.lock().iter().any(|(_, e)| {
                matches!(
                    e,
                    SessionEvent::Disconnected(DisconnectReason::ProtocolError(_))
                )
            })
        });
        assert_eq!(&healthy.call(PROC_APPEND, b"ok").unwrap()[..], b"ok");
        server.shutdown();
    }

    #[test]
    fn reader_that_stalls_mid_reply_is_reaped_with_write_timed_out() {
        const PROC_FLOOD: u32 = 9;
        let events: Events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let mut server = DlibServer::new(());
        // 32 MiB as a rope of one shared 4 MiB segment: far more than
        // loopback's socket buffers can absorb from a peer that never
        // reads.
        server.register(PROC_FLOOD, |_, _, _| {
            let segments = vec![Bytes::from(vec![0u8; 4 << 20]); 8];
            Ok(Payload { segments })
        });
        server.register(PROC_APPEND, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        server.on_session_event(move |_, session, event| {
            sink.lock().push((session.client_id, event));
        });
        let write_timeout = Duration::from_millis(250);
        let config = ServerConfig {
            write_timeout: Some(write_timeout),
            ..ServerConfig::default()
        };
        let handle = server.serve_with("127.0.0.1:0", config).unwrap();
        let mut stalled = TcpStream::connect(handle.addr()).unwrap();
        let flood = Call {
            seq: 1,
            procedure: PROC_FLOOD,
            args: Bytes::new(),
        };
        let asked = Instant::now();
        flood.write_to(&mut stalled).unwrap();
        // Never read. No heartbeat deadline is configured, so only the
        // write deadline can end this session.
        wait_for("write-timeout disconnect", || {
            events
                .lock()
                .iter()
                .any(|(_, e)| *e == SessionEvent::Disconnected(DisconnectReason::WriteTimedOut))
        });
        // One write can time out twice: once after partial progress, once
        // with none. Far beyond that (the slack is for a loaded host) the
        // writer thread was not released.
        assert!(asked.elapsed() < write_timeout * 2 + Duration::from_secs(2));
        // The dispatcher never waited on that socket.
        let mut healthy = DlibClient::connect(handle.addr()).unwrap();
        assert_eq!(&healthy.call(PROC_APPEND, b"ok").unwrap()[..], b"ok");
        drop(stalled);
        handle.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_busy() {
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let entered = Arc::new(AtomicBool::new(false));
        let entered_flag = Arc::clone(&entered);
        let shed = Arc::new(AtomicU64::new(0));
        let mut server = DlibServer::new(());
        server.register(PROC_APPEND, move |_, _, args| {
            // Park the dispatcher until the test opens the gate.
            entered_flag.store(true, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(Bytes::copy_from_slice(args))
        });
        let greeted = Arc::new(AtomicBool::new(false));
        let greeted_flag = Arc::clone(&greeted);
        server.on_session_event(move |_, _, event| {
            if event == SessionEvent::Connected {
                greeted_flag.store(true, Ordering::SeqCst);
            }
        });
        let handle = server
            .serve_with(
                "127.0.0.1:0",
                ServerConfig {
                    queue_capacity: 1,
                    shed_counter: Arc::clone(&shed),
                    ..ServerConfig::default()
                },
            )
            .unwrap();
        // Fire several calls back-to-back on a raw socket (a DlibClient
        // only keeps one call in flight, which can never overflow). Wait
        // out the Connected event (it shares the queue), then wedge the
        // dispatcher with seq 1 so the rest is deterministic: seq 2
        // occupies the single queue slot, 3..N are shed.
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        wait_for("connected event dispatched", || {
            greeted.load(Ordering::SeqCst)
        });
        const N: u64 = 6;
        let send = |raw: &mut TcpStream, seq: u64| {
            let call = Call {
                seq,
                procedure: PROC_APPEND,
                args: Bytes::from_static(b"x"),
            };
            write_frame(raw, &call.encode()).unwrap();
        };
        send(&mut raw, 1);
        wait_for("dispatcher parked", || entered.load(Ordering::SeqCst));
        for seq in 2..=N {
            send(&mut raw, seq);
        }
        // Busy replies come back while the dispatcher is still parked.
        wait_for("shed counter", || shed.load(Ordering::SeqCst) >= N - 2);
        gate.store(true, Ordering::SeqCst);
        let mut statuses = HashMap::new();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        for _ in 0..N {
            let reply = Reply::decode(crate::wire::read_frame(&mut reader).unwrap()).unwrap();
            statuses.insert(reply.seq, reply.status);
        }
        let busy = statuses.values().filter(|s| **s == Status::Busy).count();
        let ok = statuses.values().filter(|s| **s == Status::Ok).count();
        assert_eq!(busy + ok, N as usize);
        assert_eq!(busy as u64, N - 2, "exactly 3..N shed: {statuses:?}");
        assert_eq!(shed.load(Ordering::SeqCst), busy as u64);
        // Seq 1 wedged the dispatcher, seq 2 sat in the queue; both ran.
        assert_eq!(statuses[&1], Status::Ok);
        assert_eq!(statuses[&2], Status::Ok);
        handle.shutdown();
    }

    #[test]
    fn ping_answered_while_dispatcher_is_wedged() {
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let mut server = DlibServer::new(());
        server.register(PROC_APPEND, move |_, _, _| {
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(Bytes::new())
        });
        let handle = server.serve("127.0.0.1:0").unwrap();
        let addr = handle.addr();
        // Wedge the dispatcher from one client...
        let wedger = std::thread::spawn(move || {
            let mut c = DlibClient::connect(addr).unwrap();
            c.call(PROC_APPEND, b"").unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        // ...and heartbeat from another; the reader answers directly.
        let mut c = DlibClient::connect(addr).unwrap();
        let started = Instant::now();
        c.ping().unwrap();
        assert!(started.elapsed() < Duration::from_secs(2));
        gate.store(true, Ordering::SeqCst);
        wedger.join().unwrap();
        handle.shutdown();
    }

    #[test]
    fn disconnect_event_ordered_after_calls() {
        // The event rides the same queue as the calls, so the hook sees
        // every append before the disconnect.
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let call_log = Arc::clone(&log);
        let event_log = Arc::clone(&log);
        let mut server = DlibServer::new(());
        server.register(PROC_APPEND, move |_, _, args| {
            call_log
                .lock()
                .push(String::from_utf8_lossy(args).into_owned());
            Ok(Bytes::new())
        });
        server.on_session_event(move |_, _, event| {
            if matches!(event, SessionEvent::Disconnected(_)) {
                event_log.lock().push("gone".into());
            }
        });
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        for i in 0..5 {
            c.call(PROC_APPEND, format!("m{i}").as_bytes()).unwrap();
        }
        drop(c);
        wait_for("disconnect logged", || {
            log.lock().iter().any(|s| s == "gone")
        });
        let entries = log.lock().clone();
        assert_eq!(entries.last().map(String::as_str), Some("gone"));
        assert_eq!(entries.len(), 6);
        handle.shutdown();
    }

    #[test]
    fn panicking_procedure_answers_error_and_dispatcher_keeps_serving() {
        const PROC_PANIC: u32 = 7;
        let events: Events = Arc::default();
        let sink = Arc::clone(&events);
        let idle_runs = Arc::new(AtomicU64::new(0));
        let idle_count = Arc::clone(&idle_runs);
        let mut server = DlibServer::new(0u32);
        server.register(PROC_PANIC, |calls, _, _| {
            *calls += 1;
            if *calls == 1 {
                panic!("deliberate panic in a procedure");
            }
            Ok(Bytes::from_static(b"fine"))
        });
        server.on_idle(move |_, _| {
            idle_count.fetch_add(1, Ordering::SeqCst);
            panic!("deliberate panic in the idle hook");
        });
        server.on_session_event(move |_, session, event| {
            sink.lock().push((session.client_id, event));
        });
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut first = DlibClient::connect(handle.addr()).unwrap();
        assert!(matches!(
            first.call(PROC_PANIC, b""),
            Err(DlibError::Remote(m)) if m == "procedure 0x7 panicked"
        ));
        let mut second = DlibClient::connect(handle.addr()).unwrap();
        assert_eq!(&second.call(PROC_PANIC, b"").unwrap()[..], b"fine");
        assert_eq!(&first.call(PROC_PANIC, b"").unwrap()[..], b"fine");
        drop((first, second));
        let disconnects = |id: u64| {
            let log = events.lock();
            let of = |want: fn(&SessionEvent) -> bool| {
                log.iter().filter(|(c, e)| *c == id && want(e)).count()
            };
            (
                of(|e| *e == SessionEvent::Connected),
                of(|e| matches!(e, SessionEvent::Disconnected(_))),
            )
        };
        wait_for("both disconnects", || {
            disconnects(1).1 == 1 && disconnects(2).1 == 1
        });
        // Nothing more arrives: exactly one of each per connection.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!((disconnects(1), disconnects(2)), ((1, 1), (1, 1)));
        assert!(idle_runs.load(Ordering::SeqCst) >= 1, "the hook panicked");
        handle.shutdown();
    }

    /// Idle-hook test server: every append, idle run and event lands in
    /// one shared log; an append logs itself, then parks until `gate`
    /// opens.
    fn idle_log_server(
        gate: Arc<AtomicBool>,
        config: ServerConfig,
        on_idle: impl Fn(&Mutex<Vec<String>>, &dyn Fn() -> bool) + Send + 'static,
    ) -> (ServerHandle, Arc<Mutex<Vec<String>>>) {
        let log: Arc<Mutex<Vec<String>>> = Arc::default();
        let (call_log, idle_log, event_log) = (log.clone(), log.clone(), log.clone());
        let mut server = DlibServer::new(());
        server.register(PROC_APPEND, move |_, _, args| {
            call_log
                .lock()
                .push(String::from_utf8_lossy(args).into_owned());
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(Bytes::new())
        });
        server.on_idle(move |_, pending| on_idle(&idle_log, pending));
        server.on_session_event(move |_, _, event| {
            let name = match event {
                SessionEvent::Connected => "connected",
                SessionEvent::Disconnected(_) => "gone",
            };
            event_log.lock().push(name.into());
        });
        (server.serve_with("127.0.0.1:0", config).unwrap(), log)
    }

    #[test]
    fn idle_hook_waits_for_an_empty_queue_and_never_follows_an_event() {
        let gate = Arc::new(AtomicBool::new(false));
        let shed = Arc::new(AtomicU64::new(0));
        let config = ServerConfig {
            queue_capacity: 3,
            shed_counter: Arc::clone(&shed),
            ..ServerConfig::default()
        };
        let (handle, log) = idle_log_server(Arc::clone(&gate), config, |log, _| {
            log.lock().push("idle".into());
        });
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        wait_for("connected", || log.lock().len() == 1);
        let send = |raw: &mut TcpStream, seq: u64| {
            let call = Call {
                seq,
                procedure: PROC_APPEND,
                args: Bytes::from(format!("c{seq}").into_bytes()),
            };
            write_frame(raw, &call.encode()).unwrap();
        };
        // c1 parks the dispatcher; c2..c4 fill the three queue slots, so
        // c5 is shed, which proves the three are queued.
        send(&mut raw, 1);
        wait_for("dispatcher parked", || log.lock().len() == 2);
        for seq in 2..=5 {
            send(&mut raw, seq);
        }
        wait_for("c5 shed", || shed.load(Ordering::SeqCst) == 1);
        gate.store(true, Ordering::SeqCst);
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        for _ in 0..5 {
            crate::wire::read_frame(&mut reader).unwrap();
        }
        wait_for("idle run", || log.lock().iter().any(|s| s == "idle"));
        drop((reader, raw));
        wait_for("disconnect", || log.lock().iter().any(|s| s == "gone"));
        let entries = log.lock().clone();
        assert_eq!(
            entries,
            ["connected", "c1", "c2", "c3", "c4", "idle", "gone"],
            "one idle run, after the queue drained, none after events"
        );
        handle.shutdown();
    }

    #[test]
    fn call_arriving_during_idle_flips_pending_and_is_served_in_order() {
        let open = Arc::new(AtomicBool::new(true));
        let (handle, log) = idle_log_server(open, ServerConfig::default(), |log, pending| {
            log.lock().push("idle".into());
            let deadline = Instant::now() + Duration::from_secs(5);
            while !pending() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            // pending() stays true until the job it saw is served.
            let seen = pending() && pending();
            log.lock()
                .push(if seen { "pending" } else { "timeout" }.into());
        });
        let idle_runs = || log.lock().iter().filter(|s| *s == "idle").count();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        // Each next job is sent only once the hook is running, so it is
        // the hook that must notice it.
        c.call(PROC_APPEND, b"a").unwrap();
        wait_for("first idle run", || idle_runs() == 1);
        c.call(PROC_APPEND, b"b").unwrap();
        wait_for("second idle run", || idle_runs() == 2);
        drop(c);
        wait_for("disconnect", || log.lock().iter().any(|s| s == "gone"));
        let entries = log.lock().clone();
        assert_eq!(
            entries,
            [
                "connected",
                "a",
                "idle",
                "pending",
                "b",
                "idle",
                "pending",
                "gone"
            ],
        );
        handle.shutdown();
    }
}
