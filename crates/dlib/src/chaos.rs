//! Fault injection for the framed transport.
//!
//! Real networks drop, delay, duplicate, and truncate; peers vanish
//! mid-call. A [`FaultPlan`] is a seeded, reproducible schedule of such
//! faults that [`crate::client::DlibClient`] applies as it hands a call to
//! [`crate::wire::write_frame_parts`] (a torn frame is that writer told to
//! stop early; see [`DlibClient::set_fault_plan`]). The chaos
//! tests drive random plans against a live server and assert the
//! resilience layer (deadlines, poisoning, reconnect-and-resync, session
//! reaping) converges back to a correct state.
//!
//! Faults are sampled per *outgoing* frame. Inbound corruption is
//! equivalent from the client's point of view (a timeout or a dead
//! connection), so one injection point exercises every recovery path.
//!
//! [`DlibClient::set_fault_plan`]: crate::client::DlibClient::set_fault_plan

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// What to do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Send normally.
    Deliver,
    /// Swallow the frame; the peer never sees it (the call times out).
    Drop,
    /// Hold the frame for the given duration, then send it.
    Delay(Duration),
    /// Send the frame twice back-to-back.
    Duplicate,
    /// Send a length prefix announcing the full frame but only this many
    /// payload bytes, then kill the connection — the peer sees a
    /// mid-frame disconnect.
    Truncate(usize),
    /// Kill the connection instead of sending.
    Disconnect,
}

/// Per-frame fault probabilities. Whatever probability mass is left over
/// delivers the frame unharmed.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    pub drop: f64,
    pub delay: f64,
    pub duplicate: f64,
    pub truncate: f64,
    pub disconnect: f64,
    /// Delays are uniform in `(0, max_delay]`.
    pub max_delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            drop: 0.05,
            delay: 0.10,
            duplicate: 0.05,
            truncate: 0.02,
            disconnect: 0.03,
            max_delay: Duration::from_millis(30),
        }
    }
}

impl FaultConfig {
    /// A plan that never injects anything — for A/B-ing test harnesses.
    pub fn quiet() -> FaultConfig {
        FaultConfig {
            drop: 0.0,
            delay: 0.0,
            duplicate: 0.0,
            truncate: 0.0,
            disconnect: 0.0,
            max_delay: Duration::ZERO,
        }
    }
}

/// A seeded schedule of transport faults. Two plans built from the same
/// seed and config produce the same action sequence, so any chaos-test
/// failure replays exactly from its seed.
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: ChaCha8Rng,
    injected: u64,
    delivered: u64,
}

impl FaultPlan {
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            injected: 0,
            delivered: 0,
        }
    }

    /// Sample the action for the next outgoing frame of `frame_len` bytes.
    pub fn next_action(&mut self, frame_len: usize) -> FaultAction {
        let roll: f64 = self.rng.random_range(0.0..1.0);
        let c = &self.cfg;
        let mut edge = c.drop;
        let action = if roll < edge {
            FaultAction::Drop
        } else if roll < {
            edge += c.delay;
            edge
        } {
            let max = u64::try_from(c.max_delay.as_micros()).unwrap_or(u64::MAX);
            let micros = self.rng.random_range(1..=max.max(1));
            FaultAction::Delay(Duration::from_micros(micros))
        } else if roll < {
            edge += c.duplicate;
            edge
        } {
            FaultAction::Duplicate
        } else if roll < {
            edge += c.truncate;
            edge
        } {
            // Cut somewhere strictly inside the payload (or at 0 for
            // empty frames): the peer must see fewer bytes than the
            // length prefix promised.
            let keep = if frame_len == 0 {
                0
            } else {
                self.rng.random_range(0..frame_len)
            };
            FaultAction::Truncate(keep)
        } else if roll < {
            edge += c.disconnect;
            edge
        } {
            FaultAction::Disconnect
        } else {
            FaultAction::Deliver
        };
        match action {
            FaultAction::Deliver => self.delivered += 1,
            _ => self.injected += 1,
        }
        action
    }

    /// How many frames were faulted so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// How many frames passed through unharmed so far.
    pub fn frames_delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actions(seed: u64, n: usize) -> Vec<FaultAction> {
        let mut p = FaultPlan::new(seed, FaultConfig::default());
        (0..n).map(|_| p.next_action(100)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(actions(42, 500), actions(42, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(actions(1, 500), actions(2, 500));
    }

    #[test]
    fn quiet_config_never_faults() {
        let mut p = FaultPlan::new(7, FaultConfig::quiet());
        for _ in 0..200 {
            assert_eq!(p.next_action(64), FaultAction::Deliver);
        }
        assert_eq!(p.faults_injected(), 0);
        assert_eq!(p.frames_delivered(), 200);
    }

    #[test]
    fn default_config_mixes_fault_kinds() {
        let mut p = FaultPlan::new(9, FaultConfig::default());
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..2000 {
            kinds.insert(std::mem::discriminant(&p.next_action(50)));
        }
        // All six variants should appear in 2000 samples at the default
        // probabilities (each has expected count >= 40).
        assert_eq!(kinds.len(), 6, "saw {} action kinds", kinds.len());
        assert!(p.faults_injected() > 0);
        assert!(p.frames_delivered() > p.faults_injected());
    }

    #[test]
    fn truncate_keeps_fewer_bytes_than_frame() {
        let cfg = FaultConfig {
            truncate: 1.0,
            ..FaultConfig::quiet()
        };
        let mut p = FaultPlan::new(3, cfg);
        for len in [1usize, 2, 64, 4096] {
            match p.next_action(len) {
                FaultAction::Truncate(keep) => assert!(keep < len),
                other => panic!("expected truncate, got {other:?}"),
            }
        }
        assert_eq!(p.next_action(0), FaultAction::Truncate(0));
    }
}
