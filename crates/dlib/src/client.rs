//! The blocking dlib client.
//!
//! §4: "To execute a routine on a remote host, all the information
//! necessary to execute the routine in the remote environment must be
//! transmitted over the network to a remote server process. After
//! execution of the routine is invoked, results of the execution must
//! also be transmitted back to the local client process." [`DlibClient`]
//! is that round trip: encode, frame, send, block on the matching reply.
//!
//! Unlike the 1992 original, every call runs under a deadline
//! ([`ClientConfig::call_timeout`]) — a stalled or dead peer surfaces as
//! [`DlibError::Timeout`] instead of hanging the workstation forever.
//! Any failure of the transport itself *poisons* the client: the
//! request/reply stream is in an unknown state (a reply may be half-read,
//! half-written, or still in flight), so further calls refuse with
//! [`DlibError::Poisoned`] rather than silently desynchronizing sequence
//! matching. Reconnect, or let [`crate::resilient::ReconnectingClient`]
//! do it for you.

// A per-frame service file: a debug print here is a latency spike for
// every client (stderr is a blocking global lock).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crate::chaos::{FaultAction, FaultPlan};
use crate::message::{write_envelope, Reply, ENVELOPE_LEN};
use crate::wire::FrameAccumulator;
use crate::{DlibError, Result};
use bytes::Bytes;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side transport knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Deadline for one complete call (send + wait for the matching
    /// reply). `None` waits forever — only sensible on loopback test
    /// rigs. Elapsing surfaces as [`DlibError::Timeout`] and poisons the
    /// client.
    pub call_timeout: Option<Duration>,
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            // Generous against the paper's 1/8 s loop, tight against a
            // genuinely wedged peer.
            call_timeout: Some(Duration::from_secs(5)),
            connect_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// A connected dlib client. One outstanding call at a time (the original
/// dlib was synchronous too); the windtunnel client runs its network
/// conversation on a dedicated thread, per figure 9.
pub struct DlibClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    acc: FrameAccumulator,
    config: ClientConfig,
    next_seq: u64,
    poisoned: Option<String>,
    fault: Option<FaultPlan>,
}

impl DlibClient {
    /// Connect to a dlib server with the default deadlines.
    pub fn connect(addr: SocketAddr) -> Result<DlibClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with an explicit connect timeout (the call deadline stays
    /// at the default).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<DlibClient> {
        Self::connect_with(
            addr,
            ClientConfig {
                connect_timeout: Some(timeout),
                ..ClientConfig::default()
            },
        )
    }

    /// Connect with full control over deadlines.
    pub fn connect_with(addr: SocketAddr, config: ClientConfig) -> Result<DlibClient> {
        let stream = match config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        Self::from_stream(stream, config)
    }

    fn from_stream(stream: TcpStream, config: ClientConfig) -> Result<DlibClient> {
        stream.set_nodelay(true)?; // command latency beats throughput here
                                   // A dead peer must not absorb writes forever either; reads get
                                   // their deadline re-armed per call below.
        stream.set_write_timeout(config.call_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(DlibClient {
            reader,
            writer: stream,
            acc: FrameAccumulator::new(),
            config,
            next_seq: 1,
            poisoned: None,
            fault: None,
        })
    }

    /// Route every outgoing frame through a seeded fault schedule (chaos
    /// testing). Faults that swallow a frame rely on the call deadline to
    /// surface — combine with a finite [`ClientConfig::call_timeout`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Whether an earlier transport failure has disabled this client.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Invoke a remote procedure and block for its result, subject to the
    /// configured deadline. A transport failure (I/O error, disconnect,
    /// timeout, protocol violation) poisons the client; clean error
    /// replies ([`DlibError::Remote`], [`DlibError::Busy`]) do not.
    pub fn call(&mut self, procedure: u32, args: &[u8]) -> Result<Bytes> {
        if let Some(why) = &self.poisoned {
            return Err(DlibError::Poisoned(why.clone()));
        }
        let res = self.call_inner(procedure, args);
        if let Err(e) = &res {
            if e.is_transport() {
                self.poisoned = Some(e.to_string());
            }
        }
        res
    }

    fn call_inner(&mut self, procedure: u32, args: &[u8]) -> Result<Bytes> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_call(seq, procedure, args)?;
        let deadline = self.config.call_timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(d) = deadline {
                let now = Instant::now();
                if now >= d {
                    return Err(DlibError::Timeout);
                }
                self.reader.get_ref().set_read_timeout(Some(d - now))?;
            }
            let frame = match self.acc.read_from(&mut self.reader) {
                Ok(frame) => frame,
                // Partial progress is retained by the accumulator; loop
                // to re-check the overall deadline.
                Err(DlibError::Timeout) => continue,
                Err(e) => return Err(e),
            };
            let reply = Reply::decode(frame)?;
            if reply.seq == seq {
                return reply.into_result();
            }
            // A reply for an older sequence (e.g. a duplicate the server
            // answered twice) is dropped; anything from the future is a
            // protocol violation.
            if reply.seq > seq {
                return Err(DlibError::Protocol(format!(
                    "reply for future seq {} while waiting for {}",
                    reply.seq, seq
                )));
            }
        }
    }

    /// Write one call frame, applying the fault schedule when installed;
    /// every arm is the one vectored writer, `args` go out uncopied.
    fn send_call(&mut self, seq: u64, procedure: u32, args: &[u8]) -> Result<()> {
        let action = match &mut self.fault {
            Some(plan) => plan.next_action(ENVELOPE_LEN + args.len()),
            None => FaultAction::Deliver,
        };
        let mut send = |keep| write_envelope(&mut self.writer, seq, procedure, &[args], keep);
        match action {
            FaultAction::Deliver => send(usize::MAX),
            FaultAction::Drop => Ok(()), // swallowed; the deadline will notice
            FaultAction::Delay(d) => {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "injected-fault delay: the chaos transport deliberately stalls this call"
                )]
                std::thread::sleep(d);
                send(usize::MAX)
            }
            FaultAction::Duplicate => {
                send(usize::MAX)?;
                send(usize::MAX)
            }
            FaultAction::Truncate(keep) => {
                // Announce the full frame, deliver only a prefix, then
                // kill the link: the peer sees a mid-frame disconnect.
                let _ = send(keep);
                let _ = self.writer.shutdown(Shutdown::Both);
                Err(DlibError::Disconnected)
            }
            FaultAction::Disconnect => {
                let _ = self.writer.shutdown(Shutdown::Both);
                Err(DlibError::Disconnected)
            }
        }
    }

    /// Heartbeat: round-trip the built-in [`crate::server::PROC_PING`]
    /// procedure. Answered by the server's connection reader directly, so
    /// it measures transport liveness even while the dispatcher is busy.
    pub fn ping(&mut self) -> Result<()> {
        self.call(crate::server::PROC_PING, b"").map(|_| ())
    }

    /// Number of calls issued so far.
    pub fn calls_issued(&self) -> u64 {
        self.next_seq - 1
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests sleep to let real threads make progress"
)]
mod tests {
    use super::*;
    use crate::chaos::FaultConfig;
    use crate::server::DlibServer;

    #[test]
    fn echo_roundtrip() {
        let mut server = DlibServer::new(());
        server.register(1, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        let out = c.call(1, b"ping").unwrap();
        assert_eq!(&out[..], b"ping");
        assert_eq!(c.calls_issued(), 1);
        handle.shutdown();
    }

    #[test]
    fn large_payload_roundtrip() {
        // A Table-1-sized geometry frame: 100 000 particles × 12 B.
        let mut server = DlibServer::new(());
        server.register(1, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        let big = vec![0xA5u8; 1_200_000];
        let out = c.call(1, &big).unwrap();
        assert_eq!(out.len(), big.len());
        assert!(out.iter().all(|&b| b == 0xA5));
        handle.shutdown();
    }

    #[test]
    fn connect_to_dead_port_fails() {
        // Bind-then-drop to get a port that is very likely closed.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(DlibClient::connect(addr).is_err());
    }

    #[test]
    fn sequences_increment() {
        let mut server = DlibServer::new(0u64);
        server.register(1, |n, _, _| {
            *n += 1;
            Ok(Bytes::copy_from_slice(&n.to_le_bytes()))
        });
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        for expect in 1..=5u64 {
            let out = c.call(1, b"").unwrap();
            assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), expect);
        }
        assert_eq!(c.calls_issued(), 5);
        handle.shutdown();
    }

    #[test]
    fn stalled_server_times_out_instead_of_hanging() {
        // A listener that accepts and then never replies.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let mut c = DlibClient::connect_with(
            addr,
            ClientConfig {
                call_timeout: Some(Duration::from_millis(100)),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let started = Instant::now();
        assert!(matches!(c.call(1, b"x"), Err(DlibError::Timeout)));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "deadline must bound the wait"
        );
        hold.join().unwrap();
    }

    #[test]
    fn transport_failure_poisons_subsequent_calls() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let mut c = DlibClient::connect_with(
            addr,
            ClientConfig {
                call_timeout: Some(Duration::from_millis(50)),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert!(!c.is_poisoned());
        assert!(matches!(c.call(1, b""), Err(DlibError::Timeout)));
        assert!(c.is_poisoned());
        // Every further call refuses without touching the socket.
        for _ in 0..3 {
            assert!(matches!(c.call(1, b""), Err(DlibError::Poisoned(_))));
        }
        assert!(
            c.calls_issued() == 1,
            "poisoned calls must not burn sequence numbers"
        );
        hold.join().unwrap();
    }

    #[test]
    fn clean_error_replies_do_not_poison() {
        let mut server = DlibServer::new(());
        server.register(1, |_, _, _| Err::<Bytes, _>("deliberate".into()));
        server.register(2, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        assert!(matches!(c.call(1, b""), Err(DlibError::Remote(_))));
        assert!(matches!(c.call(99, b""), Err(DlibError::Remote(_))));
        assert!(!c.is_poisoned());
        assert_eq!(&c.call(2, b"still fine").unwrap()[..], b"still fine");
        handle.shutdown();
    }

    #[test]
    fn disconnect_fault_poisons_and_server_survives() {
        let mut server = DlibServer::new(());
        server.register(1, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        c.set_fault_plan(FaultPlan::new(
            0,
            FaultConfig {
                disconnect: 1.0,
                ..FaultConfig::quiet()
            },
        ));
        assert!(c.call(1, b"x").is_err());
        assert!(c.is_poisoned());
        // The server keeps serving fresh connections.
        let mut c2 = DlibClient::connect(handle.addr()).unwrap();
        assert_eq!(&c2.call(1, b"y").unwrap()[..], b"y");
        handle.shutdown();
    }

    #[test]
    fn ping_roundtrips_without_registration() {
        let server = DlibServer::new(());
        let handle = server.serve("127.0.0.1:0").unwrap();
        let mut c = DlibClient::connect(handle.addr()).unwrap();
        c.ping().unwrap();
        c.ping().unwrap();
        handle.shutdown();
    }
}
