//! Reconnect-and-retry layer over the blocking client.
//!
//! The paper's frame loop (§5.2) assumes the session lives as long as the
//! workstation; real networks kill it. [`ReconnectingClient`] owns a
//! [`DlibClient`] and the knowledge of how to rebuild it: when a call
//! fails in the transport (timeout, disconnect, poisoning), the wrapper
//! drops the dead client and re-dials with capped exponential backoff on
//! the next use, running a caller-supplied session hook (e.g. the
//! windtunnel's `HELLO` handshake) against each fresh connection.
//!
//! Retry semantics are deliberately split:
//!
//! * [`ReconnectingClient::call`] retries only [`DlibError::Busy`] — the
//!   server explicitly said the call never ran, so resending is always
//!   safe. A transport failure mid-call leaves "did it execute?"
//!   unknowable, so non-idempotent calls surface the error and let the
//!   application decide (the windtunnel skips the frame).
//! * [`ReconnectingClient::call_idempotent`] also retries transport
//!   failures across a reconnect, because re-executing an idempotent
//!   procedure is harmless. Frame fetches and stats reads go here.

use crate::client::{ClientConfig, DlibClient};
use crate::{DlibError, Result};
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Capped exponential backoff schedule.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts for one logical call (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Growth factor between consecutive backoffs.
    pub multiplier: f64,
    /// Fractional jitter applied by [`RetryPolicy::backoff_jittered`]:
    /// each backoff is scaled uniformly into `[(1 − jitter)·b, b]`,
    /// clamped to `[0, 1]`. Zero disables jitter. Without it, every
    /// client that lost the same server re-dials on the same schedule —
    /// a reconnect thundering herd aimed at a host that just fell over.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that gives up after the first failure.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry` (0-based): `initial *
    /// multiplier^retry`, capped at [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = self
            .multiplier
            .max(1.0)
            .powi(i32::try_from(retry).map_or(63, |r| r.min(63)));
        let raw = self.initial_backoff.as_secs_f64() * factor;
        Duration::from_secs_f64(raw.min(self.max_backoff.as_secs_f64()))
    }

    /// [`RetryPolicy::backoff`] with seeded multiplicative jitter: the
    /// deterministic backoff `b` is scaled uniformly into
    /// `[(1 − jitter)·b, b]`. The draw is a pure function of
    /// `(seed, retry)`, so a given client replays the same schedule run
    /// to run while clients with different seeds spread out instead of
    /// re-dialing in lockstep.
    pub fn backoff_jittered(&self, retry: u32, seed: u64) -> Duration {
        let base = self.backoff(retry);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return base;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        base.mul_f64(1.0 - jitter * rng.random_range(0.0..1.0))
    }
}

/// Distinct default backoff seeds for clients dialed by the same process
/// — the whole point of the jitter is that siblings don't share a
/// schedule.
static NEXT_BACKOFF_SEED: AtomicU64 = AtomicU64::new(0x5eed_ba5e);

/// Runs against every freshly dialed connection before it serves calls —
/// the place to re-establish application session state (handshakes,
/// subscriptions, fault plans in chaos tests). Returning `Err` discards
/// the connection.
pub type SessionHook = Box<dyn FnMut(&mut DlibClient) -> Result<()> + Send>;

/// A self-healing client: re-dials on demand, reruns the session hook,
/// and exposes a generation counter so callers can detect that baselines
/// (e.g. a retained delta scene) must be reset.
pub struct ReconnectingClient {
    addr: SocketAddr,
    config: ClientConfig,
    policy: RetryPolicy,
    hook: Option<SessionHook>,
    client: Option<DlibClient>,
    generation: u64,
    backoff_seed: u64,
}

impl ReconnectingClient {
    /// Wrap `addr` with default deadlines and retry policy. No connection
    /// is made until the first call.
    pub fn new(addr: SocketAddr) -> ReconnectingClient {
        Self::with_config(addr, ClientConfig::default(), RetryPolicy::default())
    }

    pub fn with_config(
        addr: SocketAddr,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> ReconnectingClient {
        ReconnectingClient {
            addr,
            config,
            policy,
            hook: None,
            client: None,
            generation: 0,
            backoff_seed: NEXT_BACKOFF_SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed),
        }
    }

    /// Install the per-connection session hook (runs immediately against
    /// the current connection too, if one exists — it would otherwise
    /// miss the hook).
    pub fn on_session(&mut self, hook: SessionHook) {
        self.hook = Some(hook);
        if let Some(client) = self.client.as_mut() {
            let ok = match self.hook.as_mut() {
                Some(h) => h(client).is_ok(),
                None => true,
            };
            if !ok {
                self.client = None;
            }
        }
    }

    /// How many connections have been established so far. Bumps on every
    /// successful (re-)dial; a caller seeing the generation change knows
    /// any server-side per-session state was lost.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The live connection, dialing (with backoff across
    /// `policy.max_attempts` dial attempts) if there is none.
    pub fn ensure_connected(&mut self) -> Result<&mut DlibClient> {
        if self.client.is_none() {
            let mut last_err = DlibError::Disconnected;
            for retry in 0..self.policy.max_attempts.max(1) {
                if retry > 0 {
                    #[allow(
                        clippy::disallowed_methods,
                        reason = "reconnect backoff on the dedicated resilient-client thread"
                    )]
                    std::thread::sleep(self.policy.backoff_jittered(retry - 1, self.backoff_seed));
                }
                match DlibClient::connect_with(self.addr, self.config) {
                    Ok(mut fresh) => {
                        if let Some(hook) = self.hook.as_mut() {
                            if let Err(e) = hook(&mut fresh) {
                                last_err = e;
                                continue;
                            }
                        }
                        self.generation += 1;
                        self.client = Some(fresh);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            if self.client.is_none() {
                return Err(last_err);
            }
        }
        match self.client.as_mut() {
            Some(c) => Ok(c),
            None => Err(DlibError::Disconnected), // unreachable by construction
        }
    }

    /// Direct access to the underlying client (None when disconnected) —
    /// for tests and fault injection.
    pub fn client_mut(&mut self) -> Option<&mut DlibClient> {
        self.client.as_mut()
    }

    /// Drop the current connection; the next call re-dials (and reruns
    /// the session hook). Chaos tests use this to shed a connection whose
    /// fault plan should stop applying.
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    /// Invoke a procedure that must execute **at most once**. Retries
    /// `Busy` (the server guaranteed the call never ran); a transport
    /// failure drops the connection and surfaces the error so the caller
    /// decides — the next call will re-dial.
    pub fn call(&mut self, procedure: u32, args: &[u8]) -> Result<Bytes> {
        let mut retry = 0;
        loop {
            let res = self.ensure_connected()?.call(procedure, args);
            match res {
                Ok(b) => return Ok(b),
                Err(DlibError::Busy) if retry + 1 < self.policy.max_attempts => {
                    #[allow(
                        clippy::disallowed_methods,
                        reason = "reconnect backoff on the dedicated resilient-client thread"
                    )]
                    std::thread::sleep(self.policy.backoff_jittered(retry, self.backoff_seed));
                    retry += 1;
                }
                Err(e) => {
                    if e.is_transport() {
                        self.client = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Invoke an **idempotent** procedure: transport failures are also
    /// retried, across a reconnect, because re-execution is harmless.
    pub fn call_idempotent(&mut self, procedure: u32, args: &[u8]) -> Result<Bytes> {
        let mut retry = 0;
        loop {
            let res = match self.ensure_connected() {
                Ok(client) => client.call(procedure, args),
                Err(e) => Err(e),
            };
            match res {
                Ok(b) => return Ok(b),
                Err(e) => {
                    if e.is_transport() {
                        self.client = None;
                    }
                    let retryable = e.is_transport() || matches!(e, DlibError::Busy);
                    if !retryable || retry + 1 >= self.policy.max_attempts {
                        return Err(e);
                    }
                    #[allow(
                        clippy::disallowed_methods,
                        reason = "reconnect backoff on the dedicated resilient-client thread"
                    )]
                    std::thread::sleep(self.policy.backoff_jittered(retry, self.backoff_seed));
                    retry += 1;
                }
            }
        }
    }

    /// Heartbeat (idempotent by nature).
    pub fn ping(&mut self) -> Result<()> {
        self.call_idempotent(crate::server::PROC_PING, b"")
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultConfig, FaultPlan};
    use crate::server::DlibServer;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            jitter: 0.0,
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(4), Duration::from_millis(100));
        assert_eq!(p.backoff(63), Duration::from_millis(100));
        assert_eq!(p.backoff(10_000), Duration::from_millis(100));
        // Zero jitter leaves the schedule untouched.
        assert_eq!(p.backoff_jittered(3, 42), Duration::from_millis(80));
    }

    #[test]
    fn jittered_backoff_stays_in_bounds_and_is_seed_deterministic() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            multiplier: 2.0,
            jitter: 0.5,
        };
        let mut diverged = false;
        for retry in 0..8 {
            let base = p.backoff(retry);
            for seed in [0u64, 1, 7, 0xdead_beef] {
                let j = p.backoff_jittered(retry, seed);
                // Bounds: [(1 − jitter)·b, b].
                assert!(j <= base, "retry {retry} seed {seed}: {j:?} > {base:?}");
                assert!(
                    j >= base.mul_f64(1.0 - p.jitter),
                    "retry {retry} seed {seed}: {j:?} below jitter floor of {base:?}"
                );
                // Deterministic per (seed, retry).
                assert_eq!(j, p.backoff_jittered(retry, seed));
                diverged |= j != p.backoff_jittered(retry, seed ^ 0x5eed);
            }
        }
        assert!(diverged, "distinct seeds never produced distinct backoffs");

        // Out-of-range jitter configs are clamped, not panicked on.
        let wild = RetryPolicy { jitter: 7.5, ..p };
        assert!(wild.backoff_jittered(2, 9) <= wild.backoff(2));
        let negative = RetryPolicy { jitter: -1.0, ..p };
        assert_eq!(negative.backoff_jittered(2, 9), negative.backoff(2));
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            ..RetryPolicy::default()
        }
    }

    fn echo_server() -> crate::server::ServerHandle {
        let mut server = DlibServer::new(());
        server.register(1, |_, _, args| Ok(Bytes::copy_from_slice(args)));
        server.serve("127.0.0.1:0").unwrap()
    }

    #[test]
    fn lazy_dial_and_generation_counting() {
        let server = echo_server();
        let mut rc =
            ReconnectingClient::with_config(server.addr(), ClientConfig::default(), fast_policy());
        assert_eq!(rc.generation(), 0);
        assert_eq!(&rc.call(1, b"a").unwrap()[..], b"a");
        assert_eq!(rc.generation(), 1);
        assert_eq!(&rc.call(1, b"b").unwrap()[..], b"b");
        assert_eq!(rc.generation(), 1, "healthy connection is reused");
        server.shutdown();
    }

    #[test]
    fn idempotent_call_survives_forced_disconnect() {
        let server = echo_server();
        let mut rc =
            ReconnectingClient::with_config(server.addr(), ClientConfig::default(), fast_policy());
        rc.call(1, b"warm").unwrap();
        // Sabotage the live connection: every frame disconnects.
        if let Some(c) = rc.client_mut() {
            c.set_fault_plan(FaultPlan::new(
                0,
                FaultConfig {
                    disconnect: 1.0,
                    ..FaultConfig::quiet()
                },
            ));
        }
        // The retry reconnects (fresh client, no fault plan) and succeeds.
        assert_eq!(&rc.call_idempotent(1, b"again").unwrap()[..], b"again");
        assert_eq!(rc.generation(), 2);
        server.shutdown();
    }

    #[test]
    fn non_idempotent_call_fails_once_then_heals_on_next_call() {
        let server = echo_server();
        let mut rc =
            ReconnectingClient::with_config(server.addr(), ClientConfig::default(), fast_policy());
        rc.call(1, b"warm").unwrap();
        if let Some(c) = rc.client_mut() {
            c.set_fault_plan(FaultPlan::new(
                0,
                FaultConfig {
                    disconnect: 1.0,
                    ..FaultConfig::quiet()
                },
            ));
        }
        // At-most-once: the transport error surfaces...
        assert!(rc.call(1, b"lost").unwrap_err().is_transport());
        // ...but the wrapper healed itself for the next call.
        assert_eq!(&rc.call(1, b"back").unwrap()[..], b"back");
        assert_eq!(rc.generation(), 2);
        server.shutdown();
    }

    #[test]
    fn session_hook_runs_on_every_dial() {
        let server = echo_server();
        let dials = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&dials);
        let mut rc =
            ReconnectingClient::with_config(server.addr(), ClientConfig::default(), fast_policy());
        rc.on_session(Box::new(move |client| {
            counter.fetch_add(1, Ordering::SeqCst);
            client.call(1, b"handshake").map(|_| ())
        }));
        rc.call(1, b"x").unwrap();
        assert_eq!(dials.load(Ordering::SeqCst), 1);
        if let Some(c) = rc.client_mut() {
            c.set_fault_plan(FaultPlan::new(
                0,
                FaultConfig {
                    disconnect: 1.0,
                    ..FaultConfig::quiet()
                },
            ));
        }
        rc.call_idempotent(1, b"y").unwrap();
        assert_eq!(dials.load(Ordering::SeqCst), 2);
        server.shutdown();
    }

    #[test]
    fn dial_failure_reports_after_bounded_retries() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut rc = ReconnectingClient::with_config(
            addr,
            ClientConfig {
                connect_timeout: Some(Duration::from_millis(100)),
                ..ClientConfig::default()
            },
            fast_policy(),
        );
        let started = std::time::Instant::now();
        assert!(rc.call_idempotent(1, b"").is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(rc.generation(), 0);
    }
}
