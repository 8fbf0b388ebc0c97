//! Timestep storage for datasets larger than memory.
//!
//! §5.1 of the paper: "The problem of large data sets can be handled in a
//! variety of ways. With one gigabyte of physical memory, data sets can be
//! loaded into memory… When the data sets are larger than physical memory,
//! however, the data must reside on a mass storage device, usually disk."
//! And §5.2 / figure 8: while the current timestep is being used for
//! computation, "the timestep required for the next computation is loaded
//! into a buffer" by a separate process.
//!
//! * [`TimestepStore`] — the access abstraction shared by all backends;
//!   every store hands out the AoS [`VectorField`] and its cache owns
//!   residency (the compute side keeps no copies of its own),
//! * [`MemoryStore`] — whole dataset resident (the ≤1 GB regime),
//! * [`DiskStore`] — one file per timestep, read on demand,
//! * [`CachedStore`] — LRU window over any store (bounds the resident
//!   set, which in turn bounds particle-path length, as §5.1 notes),
//! * [`SimulatedDisk`] — wraps a store in a bandwidth/seek model so the
//!   Table 2 disk-constraint sweep can be measured rather than merely
//!   computed,
//! * [`Prefetcher`] — the figure-8 background loader: double-buffers the
//!   next timestep while the server computes with the current one.

pub mod cache;
pub mod constraints;
pub mod disk;
pub mod faulty;
pub mod memory;
pub mod prefetch;
pub mod readahead;
pub mod resilient;
pub mod simdisk;

pub use cache::CachedStore;
pub use disk::DiskStore;
pub use faulty::{
    DiskFaultAction, DiskFaultConfig, DiskFaultPlan, FaultyDisk, FileReader, TimestepReader,
};
pub use memory::MemoryStore;
pub use prefetch::Prefetcher;
pub use readahead::ReadAhead;
pub use resilient::{ResilientStore, RetryConfig};
pub use simdisk::{DiskModel, SimulatedDisk};

use flowfield::{DatasetMeta, Result, VectorField, VectorFieldSoA};
use std::sync::Arc;
use std::time::Instant;

/// Microseconds since `since`, saturating at `u64::MAX` instead of
/// truncating the `u128`: the one conversion every stage timer uses.
pub fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Cumulative I/O-path counters a store (or store stack) reports for
/// observability. Wrappers aggregate their own contribution on top of the
/// inner store's, so `io_stats()` on the outermost store describes the
/// whole fetch path. All counters are cumulative since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Microseconds fetch callers spent blocked on I/O — real file reads
    /// plus any simulated-disk budget slept off by [`SimulatedDisk`].
    pub io_wait_us: u64,
    /// Microseconds spent decoding payloads (v2 decompression, or plane
    /// parsing for v1).
    pub decode_us: u64,
    /// Fetches satisfied without blocking on the backend: prefetched
    /// timesteps that were ready on arrival and LRU-cache hits.
    pub prefetch_hits: u64,
    /// Fetches that had to go to the backend and wait.
    pub prefetch_misses: u64,
}

impl StoreIoStats {
    /// Component-wise sum (wrapper + inner contributions).
    ///
    /// `other` is destructured without `..`, so a field added to the
    /// struct and not summed here is a compile error, or an unused
    /// binding that the `-D warnings` clippy gate rejects. A fold that
    /// drops a counter does not build:
    ///
    /// ```compile_fail
    /// #![deny(warnings, unused)]
    /// #[derive(Default)]
    /// struct Agg { a: u64, b: u64 }
    /// fn plus(s: Agg, other: Agg) -> Agg {
    ///     let Agg { a, b } = other;
    ///     Agg { a: s.a + a, b: s.b } // `b` is never summed
    /// }
    /// let t = plus(Agg::default(), Agg { a: 1, b: 2 });
    /// assert_eq!((t.a, t.b), (1, 0));
    /// ```
    #[must_use]
    pub fn plus(self, other: StoreIoStats) -> StoreIoStats {
        let StoreIoStats {
            io_wait_us,
            decode_us,
            prefetch_hits,
            prefetch_misses,
        } = other;
        StoreIoStats {
            io_wait_us: self.io_wait_us.saturating_add(io_wait_us),
            decode_us: self.decode_us.saturating_add(decode_us),
            prefetch_hits: self.prefetch_hits.saturating_add(prefetch_hits),
            prefetch_misses: self.prefetch_misses.saturating_add(prefetch_misses),
        }
    }
}

/// Cumulative fault-tolerance counters a store stack reports alongside
/// [`StoreIoStats`]. All zeros on a healthy run — the counters exist so a
/// client can render a data-health indicator the moment playback starts
/// surviving on degraded data instead of clean reads. Wrappers fold with
/// [`StoreHealthStats::plus`], mirroring `io_stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealthStats {
    /// Reads retried after a transient I/O error or a corrupt payload
    /// (each retry counts once, successful or not).
    pub retried_reads: u64,
    /// v2 chunks that failed their checksum on first decode but were
    /// recovered bit-exact from a re-read.
    pub salvaged_chunks: u64,
    /// v2 chunks that exhausted salvage re-reads and were served
    /// zero-filled under a `FieldHealth` mask.
    pub zero_filled_chunks: u64,
    /// Timesteps quarantined after exhausting their retry budget; fetches
    /// for them fail fast without touching the device again.
    pub quarantined_steps: u64,
}

impl StoreHealthStats {
    /// Component-wise sum (wrapper + inner contributions), exhaustive
    /// like [`StoreIoStats::plus`].
    #[must_use]
    pub fn plus(self, other: StoreHealthStats) -> StoreHealthStats {
        let StoreHealthStats {
            retried_reads,
            salvaged_chunks,
            zero_filled_chunks,
            quarantined_steps,
        } = other;
        StoreHealthStats {
            retried_reads: self.retried_reads.saturating_add(retried_reads),
            salvaged_chunks: self.salvaged_chunks.saturating_add(salvaged_chunks),
            zero_filled_chunks: self.zero_filled_chunks.saturating_add(zero_filled_chunks),
            quarantined_steps: self.quarantined_steps.saturating_add(quarantined_steps),
        }
    }

    /// True when any counter is non-zero — playback has been degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        *self != StoreHealthStats::default()
    }
}

/// Random access to the timesteps of one dataset. Implementations must be
/// shareable across threads: the server's compute, send and prefetch
/// processes all touch the store.
pub trait TimestepStore: Send + Sync {
    /// Dataset metadata (dims, count, dt).
    fn meta(&self) -> &DatasetMeta;

    /// Fetch one timestep. Backends may return a shared handle (memory)
    /// or read from disk; either way the result is immutable and cheap to
    /// clone.
    fn fetch(&self, index: usize) -> Result<Arc<VectorField>>;

    /// One timestep converted to the SoA layout. No product code calls
    /// this: the server samples the AoS field end to end. It stays only
    /// because the end-to-end benchmark's store wrapper implements it
    /// (and tests that `Arc` forwards it); no backend overrides it.
    fn fetch_soa(&self, index: usize) -> Result<Arc<VectorFieldSoA>> {
        Ok(Arc::new(self.fetch(index)?.to_soa()))
    }

    /// Number of timesteps available.
    fn timestep_count(&self) -> usize {
        self.meta().timestep_count
    }

    /// On-disk payload size of one timestep in bytes — what a bandwidth
    /// model should charge for the read. The default assumes the raw
    /// uncompressed size; compressed backends report actual file bytes.
    fn payload_bytes(&self, _index: usize) -> u64 {
        self.meta().dims.timestep_bytes() as u64
    }

    /// Cumulative I/O counters for this store stack (see
    /// [`StoreIoStats`]). Plain memory-resident backends report zeros.
    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats::default()
    }

    /// Cumulative fault-tolerance counters for this store stack (see
    /// [`StoreHealthStats`]). Stores without a fault-handling layer report
    /// zeros; wrappers forward/fold the inner store's so the outermost
    /// store describes the whole fetch path, like `io_stats()`.
    fn health_stats(&self) -> StoreHealthStats {
        StoreHealthStats::default()
    }

    /// Advise the store of the expected playback direction: positive for
    /// forward, negative for reverse, zero for unknown/paused. Plain
    /// backends ignore it; prefetching wrappers ([`ReadAhead`]) use it to
    /// aim read-ahead the moment §2's "run backwards" control flips the
    /// rate, instead of waiting to observe a reversed fetch stride.
    fn hint_direction(&self, _direction: i64) {}
}

impl<S: TimestepStore + ?Sized> TimestepStore for Arc<S> {
    fn meta(&self) -> &DatasetMeta {
        (**self).meta()
    }
    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        (**self).fetch(index)
    }
    fn fetch_soa(&self, index: usize) -> Result<Arc<VectorFieldSoA>> {
        (**self).fetch_soa(index)
    }
    fn timestep_count(&self) -> usize {
        (**self).timestep_count()
    }
    fn payload_bytes(&self, index: usize) -> u64 {
        (**self).payload_bytes(index)
    }
    fn io_stats(&self) -> StoreIoStats {
        (**self).io_stats()
    }
    fn health_stats(&self) -> StoreHealthStats {
        (**self).health_stats()
    }
    fn hint_direction(&self, direction: i64) {
        (**self).hint_direction(direction)
    }
}
