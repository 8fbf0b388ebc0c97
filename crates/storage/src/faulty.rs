//! Seeded disk-fault injection beneath the storage stack.
//!
//! The sibling of `dlib::chaos::FaultPlan`, one layer down: where the
//! transport chaos harness mangles RPC frames, [`FaultyDisk`] mangles the
//! raw container bytes a [`TimestepReader`] returns — transient read
//! errors, torn (truncated) reads, payload bit flips, and permanently
//! unreadable timesteps. The resilient store above it must turn all of
//! that back into frames (see `resilient.rs`); the disk-chaos integration
//! test drives a live server through a seeded plan and checks the health
//! counters against the schedule.
//!
//! Reproducibility is the whole point, so the sampled action is a *pure
//! function* of `(seed, timestep index, per-index attempt number)` — not
//! a shared RNG stream. Concurrent fetches of different timesteps cannot
//! perturb each other's schedules, and a test can replay the exact
//! schedule with [`DiskFaultPlan::action`] without touching the disk.
//! Bit flips are aimed at v2 chunk *payload* bytes (never chunk framing)
//! via `format::v2_chunk_payload_ranges`, so an injected flip surfaces
//! deterministically as a checksum failure on a known chunk index.

use flowfield::format;
use parking_lot::Mutex;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw access to the container bytes of one timestep — the seam the
/// fault injector sits behind. `ResilientStore` decodes on top of this;
/// production uses [`FileReader`], chaos tests wrap any reader in
/// [`FaultyDisk`].
pub trait TimestepReader: Send + Sync {
    /// Read the raw container bytes of one timestep.
    fn read(&self, index: usize) -> io::Result<Vec<u8>>;

    /// On-disk payload size, when knowable without reading the file.
    fn payload_bytes(&self, _index: usize) -> Option<u64> {
        None
    }
}

/// Reads `q.NNNNN.dvwq` files from a dataset directory.
pub struct FileReader {
    dir: PathBuf,
}

impl FileReader {
    #[must_use]
    pub fn new(dir: &Path) -> FileReader {
        FileReader {
            dir: dir.to_path_buf(),
        }
    }
}

impl TimestepReader for FileReader {
    fn read(&self, index: usize) -> io::Result<Vec<u8>> {
        std::fs::read(format::velocity_path(&self.dir, index))
    }

    fn payload_bytes(&self, index: usize) -> Option<u64> {
        std::fs::metadata(format::velocity_path(&self.dir, index))
            .ok()
            .map(|m| m.len())
    }
}

/// Per-read fault probabilities. The three probabilities are a ladder
/// sampled from one uniform roll, so they must sum to ≤ 1; the remainder
/// is a clean delivery.
#[derive(Debug, Clone)]
pub struct DiskFaultConfig {
    /// Probability a read fails with a transient I/O error (retryable).
    pub transient: f64,
    /// Probability a read returns torn — truncated mid-container.
    pub torn: f64,
    /// Probability a read delivers with flipped chunk-payload bits.
    pub corrupt: f64,
    /// Upper bound on distinct chunks corrupted by one bad read (≥ 1).
    pub max_corrupt_chunks: usize,
    /// Timesteps that never read successfully, whatever the attempt.
    pub permanent: Vec<usize>,
}

impl Default for DiskFaultConfig {
    fn default() -> Self {
        DiskFaultConfig {
            transient: 0.05,
            torn: 0.02,
            corrupt: 0.08,
            max_corrupt_chunks: 2,
            permanent: Vec::new(),
        }
    }
}

impl DiskFaultConfig {
    /// A config that never faults — for verifying zero false degradation.
    #[must_use]
    pub fn quiet() -> DiskFaultConfig {
        DiskFaultConfig {
            transient: 0.0,
            torn: 0.0,
            corrupt: 0.0,
            max_corrupt_chunks: 1,
            permanent: Vec::new(),
        }
    }
}

/// What one read attempt does, fully specified so a test can replicate
/// the injected schedule without performing I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum DiskFaultAction {
    /// Bytes delivered unmodified.
    Deliver,
    /// The read fails with a retryable I/O error.
    Transient,
    /// The read returns only a prefix of the file: `frac` of its bytes.
    Torn { frac: f64 },
    /// The read delivers with one payload bit flipped in each of these
    /// component-major chunk indices.
    Corrupt { chunks: Vec<usize> },
    /// The timestep is permanently unreadable (every attempt fails).
    Permanent,
}

/// The seeded schedule: maps `(index, attempt)` to a [`DiskFaultAction`].
#[derive(Debug, Clone)]
pub struct DiskFaultPlan {
    seed: u64,
    cfg: DiskFaultConfig,
}

impl DiskFaultPlan {
    #[must_use]
    pub fn new(seed: u64, cfg: DiskFaultConfig) -> DiskFaultPlan {
        DiskFaultPlan { seed, cfg }
    }

    #[must_use]
    pub fn config(&self) -> &DiskFaultConfig {
        &self.cfg
    }

    /// True when `index` is configured permanently unreadable.
    #[must_use]
    pub fn is_permanent(&self, index: usize) -> bool {
        self.cfg.permanent.contains(&index)
    }

    fn rng_for(&self, index: usize, attempt: u64) -> ChaCha8Rng {
        let mix = self.seed
            ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        ChaCha8Rng::seed_from_u64(mix)
    }

    /// The action taken by read attempt `attempt` (0-based, per index) of
    /// timestep `index`, given the container holds `chunk_count` chunks.
    /// Pure: tests use this to compute the expected fault schedule.
    #[must_use]
    pub fn action(&self, index: usize, attempt: u64, chunk_count: usize) -> DiskFaultAction {
        if self.is_permanent(index) {
            return DiskFaultAction::Permanent;
        }
        let mut rng = self.rng_for(index, attempt);
        let roll: f64 = rng.random_range(0.0..1.0);
        let c = &self.cfg;
        if roll < c.transient {
            return DiskFaultAction::Transient;
        }
        if roll < c.transient + c.torn {
            return DiskFaultAction::Torn {
                frac: rng.random_range(0.05..0.95),
            };
        }
        if roll < c.transient + c.torn + c.corrupt && chunk_count > 0 {
            let want = rng
                .random_range(1..=c.max_corrupt_chunks.max(1))
                .min(chunk_count);
            let mut chunks: Vec<usize> = Vec::with_capacity(want);
            while chunks.len() < want {
                let ci = rng.random_range(0..chunk_count);
                if !chunks.contains(&ci) {
                    chunks.push(ci);
                }
            }
            chunks.sort_unstable();
            return DiskFaultAction::Corrupt { chunks };
        }
        DiskFaultAction::Deliver
    }
}

/// A [`TimestepReader`] that injects the faults of a [`DiskFaultPlan`]
/// into the bytes of an inner reader. Keeps per-index attempt counters
/// (so retries see fresh rolls) and cumulative injection counters the
/// chaos test checks against the resilient store's recovery counters.
pub struct FaultyDisk<R> {
    inner: R,
    plan: DiskFaultPlan,
    attempts: Mutex<HashMap<usize, u64>>,
    reads: AtomicU64,
    transient_injected: AtomicU64,
    torn_injected: AtomicU64,
    chunks_corrupted: AtomicU64,
    permanent_denials: AtomicU64,
}

impl<R: TimestepReader> FaultyDisk<R> {
    #[must_use]
    pub fn new(inner: R, plan: DiskFaultPlan) -> FaultyDisk<R> {
        FaultyDisk {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            reads: AtomicU64::new(0),
            transient_injected: AtomicU64::new(0),
            torn_injected: AtomicU64::new(0),
            chunks_corrupted: AtomicU64::new(0),
            permanent_denials: AtomicU64::new(0),
        }
    }

    #[must_use]
    pub fn plan(&self) -> &DiskFaultPlan {
        &self.plan
    }

    /// Total read attempts observed (including denied ones).
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn transient_injected(&self) -> u64 {
        self.transient_injected.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn torn_injected(&self) -> u64 {
        self.torn_injected.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn chunks_corrupted(&self) -> u64 {
        self.chunks_corrupted.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn permanent_denials(&self) -> u64 {
        self.permanent_denials.load(Ordering::Relaxed)
    }
}

impl<R: TimestepReader> TimestepReader for FaultyDisk<R> {
    fn read(&self, index: usize) -> io::Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let attempt = {
            let mut attempts = self.attempts.lock();
            let slot = attempts.entry(index).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        if self.plan.is_permanent(index) {
            self.permanent_denials.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("injected permanent fault for timestep {index}"),
            ));
        }
        let mut data = self.inner.read(index)?;
        // Non-v2 containers have no chunk table to aim at; the corrupt
        // rung of the ladder degrades to a clean delivery for them.
        let ranges = format::v2_chunk_payload_ranges(&data).unwrap_or_default();
        match self.plan.action(index, attempt, ranges.len()) {
            DiskFaultAction::Deliver | DiskFaultAction::Permanent => Ok(data),
            DiskFaultAction::Transient => {
                self.transient_injected.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient fault for timestep {index}"),
                ))
            }
            DiskFaultAction::Torn { frac } => {
                self.torn_injected.fetch_add(1, Ordering::Relaxed);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "frac is a fraction of the length, so the product fits"
                )]
                let keep = ((data.len() as f64 * frac) as usize).clamp(1, data.len() - 1);
                data.truncate(keep);
                Ok(data)
            }
            DiskFaultAction::Corrupt { chunks } => {
                for ci in &chunks {
                    // Flip one bit in the middle of the chunk's payload —
                    // deterministic, and framing is never touched.
                    if let Some(r) = ranges.get(*ci) {
                        let off = r.start + (r.end - r.start) / 2;
                        if let Some(b) = data.get_mut(off) {
                            *b ^= 0x01;
                            self.chunks_corrupted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(data)
            }
        }
    }

    fn payload_bytes(&self, index: usize) -> Option<u64> {
        self.inner.payload_bytes(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::{Dims, VectorField};
    use vecmath::Vec3;

    /// In-memory reader for injection tests.
    struct BytesReader {
        files: HashMap<usize, Vec<u8>>,
    }

    impl TimestepReader for BytesReader {
        fn read(&self, index: usize) -> io::Result<Vec<u8>> {
            self.files
                .get(&index)
                .cloned()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such timestep"))
        }
    }

    fn v2_bytes(index: u32) -> Vec<u8> {
        let dims = Dims::new(66, 33, 9); // 2 chunks per component
        let f = VectorField::from_fn(dims, |i, j, k| {
            Vec3::new(i as f32, j as f32 * 0.5, k as f32 - index as f32)
        });
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        format::write_velocity_v2(&path, index, 0.0, &f).unwrap();
        std::fs::read(&path).unwrap()
    }

    fn reader() -> BytesReader {
        let mut files = HashMap::new();
        for i in 0..4usize {
            files.insert(i, v2_bytes(i as u32));
        }
        BytesReader { files }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = DiskFaultPlan::new(7, DiskFaultConfig::default());
        let b = DiskFaultPlan::new(7, DiskFaultConfig::default());
        for index in 0..16 {
            for attempt in 0..8 {
                assert_eq!(a.action(index, attempt, 6), b.action(index, attempt, 6));
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = DiskFaultPlan::new(1, DiskFaultConfig::default());
        let b = DiskFaultPlan::new(2, DiskFaultConfig::default());
        let diverged = (0..64).any(|i| a.action(i, 0, 6) != b.action(i, 0, 6));
        assert!(diverged);
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = DiskFaultPlan::new(99, DiskFaultConfig::quiet());
        for index in 0..32 {
            for attempt in 0..4 {
                assert_eq!(plan.action(index, attempt, 6), DiskFaultAction::Deliver);
            }
        }
        let disk = FaultyDisk::new(reader(), plan);
        for i in 0..4 {
            assert!(disk.read(i).is_ok());
        }
        assert_eq!(disk.transient_injected(), 0);
        assert_eq!(disk.torn_injected(), 0);
        assert_eq!(disk.chunks_corrupted(), 0);
    }

    #[test]
    fn permanent_timestep_always_denied() {
        let cfg = DiskFaultConfig {
            permanent: vec![2],
            ..DiskFaultConfig::quiet()
        };
        let disk = FaultyDisk::new(reader(), DiskFaultPlan::new(0, cfg));
        for _ in 0..5 {
            let err = disk.read(2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
        }
        assert_eq!(disk.permanent_denials(), 5);
        assert!(disk.read(1).is_ok());
    }

    #[test]
    fn injected_faults_match_the_plan() {
        let cfg = DiskFaultConfig {
            transient: 0.25,
            torn: 0.10,
            corrupt: 0.30,
            max_corrupt_chunks: 2,
            permanent: Vec::new(),
        };
        let plan = DiskFaultPlan::new(1234, cfg);
        let disk = FaultyDisk::new(reader(), plan.clone());
        let clean = reader();
        let mut expected_transient = 0u64;
        let mut expected_chunks = 0u64;
        for index in 0..4usize {
            for attempt in 0..6u64 {
                let action = plan.action(index, attempt, 6);
                let got = disk.read(index);
                match action {
                    DiskFaultAction::Transient => {
                        expected_transient += 1;
                        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::Interrupted);
                    }
                    DiskFaultAction::Torn { .. } => {
                        let bytes = got.unwrap();
                        assert!(bytes.len() < clean.read(index).unwrap().len());
                    }
                    DiskFaultAction::Corrupt { ref chunks } => {
                        expected_chunks += chunks.len() as u64;
                        let bytes = got.unwrap();
                        let good = clean.read(index).unwrap();
                        assert_eq!(bytes.len(), good.len());
                        assert_ne!(bytes, good);
                        // Only the named chunks' checksums fail.
                        let dims = Dims::new(66, 33, 9);
                        let mut out = VectorField::zeros(dims);
                        let (_, health) =
                            format::decode_velocity_salvage_into(&bytes, &mut out).unwrap();
                        assert_eq!(&health.bad_chunks, chunks);
                    }
                    DiskFaultAction::Deliver => {
                        assert_eq!(got.unwrap(), clean.read(index).unwrap());
                    }
                    DiskFaultAction::Permanent => unreachable!(),
                }
            }
        }
        assert!(disk.reads() == 24);
        assert_eq!(disk.transient_injected(), expected_transient);
        assert_eq!(disk.chunks_corrupted(), expected_chunks);
        // The default ladder actually exercises multiple fault kinds at
        // this seed — otherwise the assertions above prove nothing.
        assert!(expected_transient > 0 && expected_chunks > 0);
    }
}
