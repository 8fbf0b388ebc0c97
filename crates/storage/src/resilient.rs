//! Fault-tolerant disk store: retries, chunk salvage, quarantine.
//!
//! §5.1's disk-resident regime makes every frame depend on a mass-storage
//! read, so a single bad read must not stall the VR loop. This store
//! classifies read failures and answers each class differently:
//!
//! * **transient** I/O errors (interrupted/timed-out reads) — retried
//!   with capped-exponential backoff plus seeded jitter,
//! * **corrupt** content (torn reads, checksum failures) — the v2
//!   container is salvaged at chunk granularity: good chunks decode
//!   bit-exact on the first pass, only the checksum-failed chunks are
//!   decoded again from a re-read, and chunks that exhaust the salvage
//!   budget are served zero-filled under a `FieldHealth` mask (the mask
//!   bounds the damage: everything outside it is bit-exact),
//! * **missing** files — quarantined immediately; a quarantined timestep
//!   fails fast with [`FieldError::Quarantined`] and never touches the
//!   device again, letting the playback layer substitute a neighbour.
//!
//! Every recovery decision is counted in [`StoreHealthStats`] so the
//! degradation is visible end to end, and the whole policy is
//! deterministic for a given fault schedule — the disk-chaos test
//! replays the schedule and checks the counters exactly.

use crate::faulty::{FileReader, TimestepReader};
use crate::{elapsed_us, StoreHealthStats, StoreIoStats, TimestepStore};
use flowfield::format::{self, FieldHealth};
use flowfield::{CurvilinearGrid, DatasetMeta, FieldError, Result, VectorField};
use parking_lot::Mutex;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry budget and backoff shape. The storage sibling of
/// `dlib::resilient::RetryPolicy`, with the same capped-exponential
/// curve and the same seeded-jitter rationale: a fleet of prefetch
/// workers retrying in lockstep would hammer a recovering device at
/// exactly the same instants.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Total read+decode attempts per fetch (≥ 1, first attempt included).
    pub max_read_attempts: u32,
    /// Extra re-reads allowed to salvage checksum-failed chunks before
    /// they are served zero-filled.
    pub max_salvage_rereads: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Backoff growth factor per retry (clamped to ≥ 1).
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a seeded
    /// uniform draw from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Seed for the jitter draws (deterministic per retry number).
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_read_attempts: 4,
            max_salvage_rereads: 2,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.5,
            seed: 0x5eed_d15c,
        }
    }
}

impl RetryConfig {
    /// A config that never sleeps — unit tests retry at full speed.
    #[must_use]
    pub fn instant() -> RetryConfig {
        RetryConfig {
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryConfig::default()
        }
    }
}

/// How a failed read should be answered.
enum ReadFault {
    /// Worth retrying: the next read may succeed.
    Transient,
    /// The file is gone (or unreadable by policy): retrying is pointless.
    Missing,
}

fn classify_io(e: &std::io::Error) -> ReadFault {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::NotFound | ErrorKind::PermissionDenied => ReadFault::Missing,
        _ => ReadFault::Transient,
    }
}

#[derive(Default)]
struct HealthState {
    /// Timesteps that exhausted their retry budget; fetches fail fast.
    quarantined: HashSet<usize>,
    /// Latest decode health of degraded timesteps (clean fetches clear
    /// their entry).
    health: HashMap<usize, FieldHealth>,
}

/// The fault-tolerant [`TimestepStore`]: any [`TimestepReader`] below,
/// retries/salvage/quarantine on top. Stacks under `CachedStore` /
/// `ReadAhead` like any other store.
pub struct ResilientStore<R> {
    reader: R,
    meta: DatasetMeta,
    grid: Option<CurvilinearGrid>,
    cfg: RetryConfig,
    state: Mutex<HealthState>,
    reads: AtomicU64,
    io_wait_us: AtomicU64,
    decode_us: AtomicU64,
    retried_reads: AtomicU64,
    salvaged_chunks: AtomicU64,
    zero_filled_chunks: AtomicU64,
}

impl ResilientStore<FileReader> {
    /// Open a dataset directory (metadata and grid read eagerly, like
    /// `DiskStore::open`) with fault handling on the timestep reads.
    pub fn open(dir: &Path, cfg: RetryConfig) -> Result<ResilientStore<FileReader>> {
        let meta = format::read_meta(&format::meta_path(dir))?;
        let grid = format::read_grid(&format::grid_path(dir))?;
        if grid.dims() != meta.dims {
            return Err(FieldError::Format(
                "grid file dims do not match metadata".into(),
            ));
        }
        let mut store = ResilientStore::with_reader(FileReader::new(dir), meta, cfg);
        store.grid = Some(grid);
        Ok(store)
    }
}

impl<R: TimestepReader> ResilientStore<R> {
    /// Wrap any reader (typically a `FaultyDisk` in chaos tests).
    #[must_use]
    pub fn with_reader(reader: R, meta: DatasetMeta, cfg: RetryConfig) -> ResilientStore<R> {
        ResilientStore {
            reader,
            meta,
            grid: None,
            cfg,
            state: Mutex::new(HealthState::default()),
            reads: AtomicU64::new(0),
            io_wait_us: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            retried_reads: AtomicU64::new(0),
            salvaged_chunks: AtomicU64::new(0),
            zero_filled_chunks: AtomicU64::new(0),
        }
    }

    /// The curvilinear grid, when opened from a dataset directory.
    #[must_use]
    pub fn grid(&self) -> Option<&CurvilinearGrid> {
        self.grid.as_ref()
    }

    /// The wrapped reader — chaos tests inspect its injection counters.
    #[must_use]
    pub fn reader(&self) -> &R {
        &self.reader
    }

    /// True when `index` has been quarantined.
    #[must_use]
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.state.lock().quarantined.contains(&index)
    }

    /// Sorted list of quarantined timesteps.
    #[must_use]
    pub fn quarantined(&self) -> Vec<usize> {
        let mut q: Vec<usize> = self.state.lock().quarantined.iter().copied().collect();
        q.sort_unstable();
        q
    }

    /// Latest decode health of a timestep; `None` means its last fetch
    /// (if any) was bit-exact.
    #[must_use]
    pub fn field_health(&self, index: usize) -> Option<FieldHealth> {
        self.state.lock().health.get(&index).cloned()
    }

    fn check_range(&self, index: usize) -> Result<()> {
        if index >= self.meta.timestep_count {
            return Err(FieldError::Format(format!("timestep {index} out of range")));
        }
        Ok(())
    }

    /// Backoff before retry number `retry` (0-based): capped exponential
    /// scaled by a seeded uniform draw from `[1 - jitter, 1]`.
    fn backoff(&self, retry: u32) -> Duration {
        let factor = self
            .cfg
            .multiplier
            .max(1.0)
            .powi(i32::try_from(retry).map_or(63, |r| r.min(63)));
        let raw = self.cfg.initial_backoff.as_secs_f64() * factor;
        let capped = raw.min(self.cfg.max_backoff.as_secs_f64());
        let jitter = self.cfg.jitter.clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.cfg.seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let scale = 1.0 - jitter * rng.random_range(0.0..1.0);
        Duration::from_secs_f64(capped * scale)
    }

    fn sleep_backoff(&self, retry: u32) {
        let d = self.backoff(retry);
        if d.is_zero() {
            return;
        }
        #[allow(
            clippy::disallowed_methods,
            reason = "retry backoff: the fetch caller (prefetch worker or the server's compute path) is already prepared to block on device I/O here"
        )]
        std::thread::sleep(d);
    }

    fn quarantine(&self, index: usize) {
        self.state.lock().quarantined.insert(index);
    }

    fn read_timed(&self, index: usize) -> std::io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.reader.read(index);
        self.io_wait_us.fetch_add(elapsed_us(t), Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Salvage loop for a payload whose first decode left bad chunks:
    /// re-read the file up to the salvage budget, decoding only the
    /// still-bad chunks each round. Returns the final bad set.
    fn salvage_chunks(
        &self,
        index: usize,
        field: &mut VectorField,
        mut bad: Vec<usize>,
    ) -> Vec<usize> {
        for round in 0..self.cfg.max_salvage_rereads {
            if bad.is_empty() {
                break;
            }
            self.retried_reads.fetch_add(1, Ordering::Relaxed);
            self.sleep_backoff(round);
            let Ok(data) = self.read_timed(index) else {
                continue; // errored re-read: chunks stay bad this round
            };
            let t = Instant::now();
            let decoded = format::decode_velocity_chunks_into(&data, field, &bad);
            self.decode_us.fetch_add(elapsed_us(t), Ordering::Relaxed);
            if let Ok(still_bad) = decoded {
                bad = still_bad;
            }
            // A torn/mis-framed re-read leaves the bad set unchanged: the
            // chunks are already zero-filled, so the field stays sound.
        }
        bad
    }
}

impl<R: TimestepReader> TimestepStore for ResilientStore<R> {
    fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        self.check_range(index)?;
        if self.is_quarantined(index) {
            return Err(FieldError::Quarantined { index });
        }
        let mut last_err = FieldError::Format(format!("timestep {index}: no read attempted"));
        for attempt in 0..self.cfg.max_read_attempts.max(1) {
            if attempt > 0 {
                self.retried_reads.fetch_add(1, Ordering::Relaxed);
                self.sleep_backoff(attempt - 1);
            }
            let data = match self.read_timed(index) {
                Ok(d) => d,
                Err(e) => match classify_io(&e) {
                    ReadFault::Missing => {
                        self.quarantine(index);
                        return Err(FieldError::Io(e));
                    }
                    ReadFault::Transient => {
                        last_err = FieldError::Io(e);
                        continue;
                    }
                },
            };
            let mut field = VectorField::zeros(self.meta.dims);
            let t = Instant::now();
            let decoded = format::decode_velocity_salvage_into(&data, &mut field);
            self.decode_us.fetch_add(elapsed_us(t), Ordering::Relaxed);
            match decoded {
                Ok((header, health)) => {
                    if header.index as usize != index {
                        // A mislabelled file will not fix itself on
                        // re-read: quarantine rather than retry.
                        self.quarantine(index);
                        return Err(FieldError::Format(format!(
                            "file for timestep {index} claims index {}",
                            header.index
                        )));
                    }
                    let initial_bad = health.bad_chunks.len();
                    let bad = self.salvage_chunks(index, &mut field, health.bad_chunks);
                    self.salvaged_chunks
                        .fetch_add((initial_bad - bad.len()) as u64, Ordering::Relaxed);
                    self.zero_filled_chunks
                        .fetch_add(bad.len() as u64, Ordering::Relaxed);
                    {
                        let mut st = self.state.lock();
                        if bad.is_empty() {
                            st.health.remove(&index);
                        } else {
                            st.health.insert(
                                index,
                                FieldHealth {
                                    chunk_count: health.chunk_count,
                                    bad_chunks: bad,
                                },
                            );
                        }
                    }
                    return Ok(Arc::new(field));
                }
                // Corrupt content (torn read, mangled framing): the next
                // whole-file read may be clean. Structural errors that
                // cannot heal (wrong dims) also land here and simply
                // exhaust the budget into quarantine.
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
        }
        self.quarantine(index);
        Err(last_err)
    }

    fn payload_bytes(&self, index: usize) -> u64 {
        self.reader
            .payload_bytes(index)
            .unwrap_or_else(|| self.meta.dims.timestep_bytes() as u64)
    }

    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            io_wait_us: self.io_wait_us.load(Ordering::Relaxed),
            decode_us: self.decode_us.load(Ordering::Relaxed),
            prefetch_hits: 0,
            prefetch_misses: self.reads.load(Ordering::Relaxed),
        }
    }

    fn health_stats(&self) -> StoreHealthStats {
        StoreHealthStats {
            retried_reads: self.retried_reads.load(Ordering::Relaxed),
            salvaged_chunks: self.salvaged_chunks.load(Ordering::Relaxed),
            zero_filled_chunks: self.zero_filled_chunks.load(Ordering::Relaxed),
            quarantined_steps: self.state.lock().quarantined.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::dataset::VelocityCoords;
    use flowfield::Dims;
    use std::collections::VecDeque;
    use std::io;
    use vecmath::Vec3;

    /// What one scripted read attempt returns.
    #[derive(Clone)]
    enum Step {
        Clean,
        Transient,
        Missing,
        Torn,
        /// Deliver with the named chunks' payloads corrupted.
        Corrupt(Vec<usize>),
    }

    /// Reader that plays back a per-index script, then delivers clean.
    struct ScriptedReader {
        clean: Vec<u8>,
        ranges: Vec<std::ops::Range<usize>>,
        script: Mutex<HashMap<usize, VecDeque<Step>>>,
        reads: AtomicU64,
    }

    impl ScriptedReader {
        fn new(clean: Vec<u8>, script: HashMap<usize, VecDeque<Step>>) -> ScriptedReader {
            let ranges = format::v2_chunk_payload_ranges(&clean).unwrap();
            ScriptedReader {
                clean,
                ranges,
                script: Mutex::new(script),
                reads: AtomicU64::new(0),
            }
        }
    }

    impl TimestepReader for ScriptedReader {
        fn read(&self, index: usize) -> io::Result<Vec<u8>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            let step = self
                .script
                .lock()
                .get_mut(&index)
                .and_then(|q| q.pop_front())
                .unwrap_or(Step::Clean);
            // Stamp the requested index into the header (offset 20) so
            // every timestep serves from the same template payload; the
            // header is outside the per-chunk checksums.
            let mut data = self.clean.clone();
            data[20..24].copy_from_slice(&u32::try_from(index).unwrap().to_le_bytes());
            match step {
                Step::Clean => Ok(data),
                Step::Transient => Err(io::Error::new(io::ErrorKind::Interrupted, "transient")),
                Step::Missing => Err(io::Error::new(io::ErrorKind::NotFound, "missing")),
                Step::Torn => {
                    data.truncate(data.len() / 3);
                    Ok(data)
                }
                Step::Corrupt(chunks) => {
                    for ci in chunks {
                        let r = &self.ranges[ci];
                        data[r.start + (r.end - r.start) / 2] ^= 0x01;
                    }
                    Ok(data)
                }
            }
        }
    }

    fn test_dims() -> Dims {
        Dims::new(66, 33, 9) // 2 chunks per component, 6 total
    }

    fn test_field() -> VectorField {
        VectorField::from_fn(test_dims(), |i, j, k| {
            Vec3::new(i as f32 * 0.25, j as f32 - 4.0, k as f32 * 2.0)
        })
    }

    fn clean_bytes() -> Vec<u8> {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        format::write_velocity_v2(&path, 0, 0.0, &test_field()).unwrap();
        std::fs::read(&path).unwrap()
    }

    fn meta() -> DatasetMeta {
        DatasetMeta {
            name: "resilient".into(),
            dims: test_dims(),
            timestep_count: 3,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        }
    }

    fn store_with(script: HashMap<usize, VecDeque<Step>>) -> ResilientStore<ScriptedReader> {
        ResilientStore::with_reader(
            ScriptedReader::new(clean_bytes(), script),
            meta(),
            RetryConfig::instant(),
        )
    }

    fn script(steps: Vec<Step>) -> HashMap<usize, VecDeque<Step>> {
        let mut m = HashMap::new();
        m.insert(0usize, VecDeque::from(steps));
        m
    }

    #[test]
    fn clean_fetch_reports_no_degradation() {
        let store = store_with(HashMap::new());
        let f = store.fetch(0).unwrap();
        assert_eq!(f.as_slice(), test_field().as_slice());
        assert_eq!(store.health_stats(), StoreHealthStats::default());
        assert!(!store.health_stats().is_degraded());
        assert!(store.field_health(0).is_none());
    }

    #[test]
    fn transient_errors_are_retried() {
        let store = store_with(script(vec![Step::Transient, Step::Transient]));
        let f = store.fetch(0).unwrap();
        assert_eq!(f.as_slice(), test_field().as_slice());
        let h = store.health_stats();
        assert_eq!(h.retried_reads, 2);
        assert_eq!(h.quarantined_steps, 0);
    }

    #[test]
    fn torn_read_retries_whole_file() {
        let store = store_with(script(vec![Step::Torn]));
        let f = store.fetch(0).unwrap();
        assert_eq!(f.as_slice(), test_field().as_slice());
        assert_eq!(store.health_stats().retried_reads, 1);
    }

    #[test]
    fn corrupt_chunk_salvaged_from_reread() {
        let store = store_with(script(vec![Step::Corrupt(vec![1, 4])]));
        let f = store.fetch(0).unwrap();
        // Salvage re-read recovered both chunks bit-exact.
        assert_eq!(f.as_slice(), test_field().as_slice());
        let h = store.health_stats();
        assert_eq!(h.salvaged_chunks, 2);
        assert_eq!(h.zero_filled_chunks, 0);
        assert_eq!(h.retried_reads, 1);
        assert!(store.field_health(0).is_none());
    }

    #[test]
    fn unsalvageable_chunk_zero_filled_under_mask() {
        // Chunk 1 is corrupt on the first read and every salvage re-read.
        let store = store_with(script(vec![
            Step::Corrupt(vec![1]),
            Step::Corrupt(vec![1]),
            Step::Corrupt(vec![1]),
        ]));
        let f = store.fetch(0).unwrap();
        let h = store.health_stats();
        assert_eq!(h.salvaged_chunks, 0);
        assert_eq!(h.zero_filled_chunks, 1);
        assert_eq!(h.retried_reads, 2); // both salvage re-reads
        let mask = store.field_health(0).unwrap();
        assert_eq!(mask.bad_chunks, vec![1]);
        assert_eq!(mask.chunk_count, 6);
        // Chunk 1 = U component, second range: zero-filled there, exact
        // everywhere else.
        let cv = format::V2_CHUNK_VALUES;
        for (i, (a, b)) in f.as_slice().iter().zip(test_field().as_slice()).enumerate() {
            if i >= cv {
                assert_eq!(a.x, 0.0);
            } else {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
            }
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn missing_file_quarantines_immediately() {
        let store = store_with(script(vec![Step::Missing]));
        assert!(matches!(store.fetch(0), Err(FieldError::Io(_))));
        // Fast-fail without touching the reader again.
        let reads_after_first = store.reads.load(Ordering::Relaxed);
        assert!(matches!(
            store.fetch(0),
            Err(FieldError::Quarantined { index: 0 })
        ));
        assert_eq!(store.reads.load(Ordering::Relaxed), reads_after_first);
        let h = store.health_stats();
        assert_eq!(h.quarantined_steps, 1);
        assert_eq!(store.quarantined(), vec![0]);
        assert!(store.is_quarantined(0));
        // Other timesteps are unaffected.
        assert!(store.fetch(1).is_ok());
    }

    #[test]
    fn exhausted_transient_retries_quarantine() {
        let store = store_with(script(vec![
            Step::Transient,
            Step::Transient,
            Step::Transient,
            Step::Transient,
        ]));
        assert!(matches!(store.fetch(0), Err(FieldError::Io(_))));
        assert!(store.is_quarantined(0));
        assert_eq!(store.health_stats().retried_reads, 3);
    }

    #[test]
    fn out_of_range_is_an_error_not_a_quarantine() {
        let store = store_with(HashMap::new());
        assert!(store.fetch(99).is_err());
        assert_eq!(store.health_stats().quarantined_steps, 0);
    }

    #[test]
    fn backoff_is_capped_and_jitter_bounded() {
        let cfg = RetryConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            jitter: 0.5,
            ..RetryConfig::default()
        };
        let store = ResilientStore::with_reader(
            ScriptedReader::new(clean_bytes(), HashMap::new()),
            meta(),
            cfg.clone(),
        );
        for retry in 0..12 {
            let envelope = (cfg.initial_backoff.as_secs_f64() * 2f64.powi(retry as i32))
                .min(cfg.max_backoff.as_secs_f64());
            let d = store.backoff(retry).as_secs_f64();
            assert!(d <= envelope + 1e-9, "retry {retry}: {d} > {envelope}");
            assert!(d >= envelope * 0.5 - 1e-9, "retry {retry}: {d} below floor");
            // Deterministic for a fixed seed.
            assert_eq!(store.backoff(retry), store.backoff(retry));
        }
    }

    #[test]
    fn health_stats_fold_through_cache() {
        let store = Arc::new(store_with(script(vec![Step::Transient])));
        let cached = crate::CachedStore::new(Arc::clone(&store), 4);
        cached.fetch(0).unwrap();
        assert_eq!(cached.health_stats().retried_reads, 1);
    }
}
