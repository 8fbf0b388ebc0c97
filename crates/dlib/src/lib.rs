//! dlib — the Distributed Library (Yamasaki, RNR-90-008), reimplemented.
//!
//! §4 of the paper: "Like many systems which provide for distributed
//! processing, dlib is a high level interface to network services based on
//! the remote procedure call (RPC) model. However, unlike most of these
//! systems, dlib was developed to provide a service which allows for a
//! conversation of arbitrary length within a single context between client
//! and server. The dlib server process is designed to be capable of
//! storing state information which persists from call to call, as well as
//! allocating memory for data storage and manipulation."
//!
//! And the multi-client extension of §4/§5.1: "the dlib server was
//! modified to accept more than one connection. Each connection is
//! selected for service by the server process in the sequence that the
//! dlib calls are received. The dlib calls are executed by the server in a
//! single process environment as though there were only one client" —
//! which is also how the windtunnel resolves conflicting commands
//! first-come-first-served.
//!
//! The crate provides:
//!
//! * [`wire`] — length-prefixed binary framing over any byte stream; one
//!   vectored writer sends every frame,
//! * [`message`] — the call/reply envelope and the segmented [`Payload`],
//! * [`server`] — multi-connection TCP server with a **single serial
//!   dispatcher** over persistent, typed server state,
//! * [`client`] — blocking call interface,
//! * [`throttle`] — a bandwidth-paced stream wrapper standing in for the
//!   UltraNet's 13 MB/s (or its buggy 1 MB/s) links in Table 1 runs.

pub mod chaos;
pub mod client;
pub mod message;
pub mod resilient;
pub mod server;
pub mod throttle;
pub mod wire;

pub use chaos::{FaultAction, FaultConfig, FaultPlan};
pub use client::{ClientConfig, DlibClient};
pub use message::{Call, Payload, Reply, Status};
pub use resilient::{ReconnectingClient, RetryPolicy};
pub use server::{
    DisconnectReason, DlibServer, ServerConfig, ServerHandle, Session, SessionEvent, PROC_PING,
    RESERVED_PROC_MIN,
};
pub use throttle::ThrottledWriter;

/// Errors of the distributed layer.
#[derive(Debug)]
pub enum DlibError {
    Io(std::io::Error),
    /// Malformed or unexpected bytes on the wire.
    Protocol(String),
    /// The remote procedure reported failure.
    Remote(String),
    /// The peer went away.
    Disconnected,
    /// A deadline elapsed before the peer answered.
    Timeout,
    /// The server shed this call because its dispatch queue was full.
    /// The connection is still healthy; retry after backing off.
    Busy,
    /// A previous call on this client failed locally, leaving the
    /// request/reply stream in an unknown state; the client refuses
    /// further calls. Reconnect (or use [`ReconnectingClient`]).
    Poisoned(String),
}

impl std::fmt::Display for DlibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlibError::Io(e) => write!(f, "I/O error: {e}"),
            DlibError::Protocol(s) => write!(f, "protocol error: {s}"),
            DlibError::Remote(s) => write!(f, "remote error: {s}"),
            DlibError::Disconnected => write!(f, "peer disconnected"),
            DlibError::Timeout => write!(f, "call deadline elapsed"),
            DlibError::Busy => write!(f, "server busy: dispatch queue full"),
            DlibError::Poisoned(s) => write!(f, "client poisoned by earlier failure: {s}"),
        }
    }
}

impl std::error::Error for DlibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DlibError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DlibError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => DlibError::Disconnected,
            // Socket deadlines surface as WouldBlock on Unix and
            // TimedOut on Windows; both mean "the deadline elapsed".
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => DlibError::Timeout,
            _ => DlibError::Io(e),
        }
    }
}

impl DlibError {
    /// True for failures of the transport itself (as opposed to a clean
    /// reply carrying an application error). Transport faults leave a
    /// blocking client unusable; [`ReconnectingClient`] re-dials on them.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            DlibError::Io(_)
                | DlibError::Protocol(_)
                | DlibError::Disconnected
                | DlibError::Timeout
                | DlibError::Poisoned(_)
        )
    }
}

pub type Result<T> = std::result::Result<T, DlibError>;
