//! The figure-8 prefetch process: load the next timestep while the
//! current one is being used for computation.
//!
//! §5.2: "If the timesteps are being loaded from disk, that loading can
//! also occur in parallel. The timestep required for the next computation
//! is loaded into a buffer." The paper's remote system ran this as a
//! separate process communicating through shared memory; here it is a
//! small worker pool fed through channels, which is the same architecture
//! in Rust idiom.
//!
//! The scheduler is deadline-aware in the sense that matters for
//! playback: every queued request carries an implicit deadline of "when
//! the playhead arrives", so workers always claim the pending index
//! *closest to the playhead* first, the in-flight set is bounded (a
//! request for a far-away timestep is dropped or displaced rather than
//! allowed to starve near ones), and requests outside a re-aimed window
//! are cancelled wholesale when §2's run-backwards control flips
//! direction (see [`Prefetcher::retain`]).

use crate::TimestepStore;
use crossbeam_channel::{bounded, Receiver, Sender};
use flowfield::{FieldError, Result, VectorField};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default bound on queued-plus-loading requests.
const DEFAULT_IN_FLIGHT: usize = 16;

/// Ready-buffer bound, as a multiple of the in-flight bound. Mispredicted
/// loads park here until evicted by distance from the playhead.
const READY_FACTOR: usize = 2;

enum Token {
    Work,
    Shutdown,
}

type LoadResult = (usize, Result<Arc<VectorField>>);

/// Scheduler state shared between the caller-facing handle and the
/// worker pool.
struct Shared {
    state: Mutex<State>,
}

struct State {
    /// Requested but not yet claimed by a worker.
    pending: Vec<usize>,
    /// Claimed by a worker, fetch in progress.
    loading: Vec<usize>,
    /// Most recent playback position — the priority reference point.
    playhead: usize,
    /// Fetches served from the ready buffer without blocking.
    hits: u64,
    /// Fetches that had to wait for (or trigger) a load.
    misses: u64,
    /// Requests cancelled or displaced before a worker claimed them.
    cancelled: u64,
    /// Loads that completed with an error. Failures are *never* parked in
    /// the ready buffer: the error is delivered to the waiter that blocks
    /// on that index (if any) and otherwise dropped, so a stale failure
    /// can never satisfy a later request.
    failed: u64,
}

impl Shared {
    /// Claim the pending index closest to the playhead, if any.
    fn claim(&self) -> Option<usize> {
        let mut st = self.state.lock();
        let playhead = st.playhead;
        let best = st
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &idx)| idx.abs_diff(playhead))
            .map(|(pos, _)| pos)?;
        let idx = st.pending.swap_remove(best);
        st.loading.push(idx);
        Some(idx)
    }
}

/// Background timestep loader pool with a bounded in-flight set and a
/// small ready-buffer.
///
/// Typical frame loop:
/// ```ignore
/// prefetcher.request(next_index);          // overlaps with compute
/// let field = prefetcher.wait(current)?;   // ready by the time we ask
/// ```
pub struct Prefetcher {
    shared: Arc<Shared>,
    work_tx: Sender<Token>,
    res_rx: Receiver<LoadResult>,
    /// Successfully loaded timesteps only — failed loads never enter.
    ready: Mutex<HashMap<usize, Arc<VectorField>>>,
    capacity: usize,
    workers: Vec<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a two-worker pool over a shared store — enough to overlap
    /// the next decode with an in-progress read without oversubscribing
    /// small hosts.
    pub fn new<S: TimestepStore + 'static>(store: Arc<S>) -> Prefetcher {
        Prefetcher::with_workers(store, 2)
    }

    /// Spawn `workers` loader threads (≥ 1) over a shared store.
    pub fn with_workers<S: TimestepStore + 'static>(store: Arc<S>, workers: usize) -> Prefetcher {
        let workers = workers.max(1);
        let (work_tx, work_rx) = bounded::<Token>(8 * DEFAULT_IN_FLIGHT);
        let (res_tx, res_rx) = bounded::<LoadResult>(8 * DEFAULT_IN_FLIGHT);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Vec::new(),
                loading: Vec::new(),
                playhead: 0,
                hits: 0,
                misses: 0,
                cancelled: 0,
                failed: 0,
            }),
        });
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on resource exhaustion at startup; fail fast before any frame is served"
        )]
        let handles = (0..workers)
            .map(|n| {
                let shared = Arc::clone(&shared);
                let store = Arc::clone(&store);
                let work_rx = work_rx.clone();
                let res_tx = res_tx.clone();
                std::thread::Builder::new()
                    .name(format!("dvw-prefetch-{n}"))
                    .spawn(move || {
                        while let Ok(token) = work_rx.recv() {
                            match token {
                                Token::Work => {
                                    // The token may be stale (its request
                                    // was cancelled); claim whatever is
                                    // most urgent now, or nothing.
                                    let Some(idx) = shared.claim() else {
                                        continue;
                                    };
                                    // A store that panics mid-fetch must
                                    // not take the worker (and its token)
                                    // down with it: convert the panic to
                                    // an error result so the slot is
                                    // released and the pool keeps
                                    // draining.
                                    let result = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| store.fetch(idx)),
                                    )
                                    .unwrap_or_else(|_| {
                                        Err(FieldError::Format(format!(
                                            "prefetch worker panicked loading timestep {idx}"
                                        )))
                                    });
                                    if res_tx.send((idx, result)).is_err() {
                                        break;
                                    }
                                }
                                Token::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn prefetch thread")
            })
            .collect();
        Prefetcher {
            shared,
            work_tx,
            res_rx,
            ready: Mutex::new(HashMap::new()),
            capacity: DEFAULT_IN_FLIGHT,
            workers: handles,
        }
    }

    /// Queue a timestep load; no-op if already queued, loading or ready.
    /// When the in-flight set is full, the farthest-from-playhead pending
    /// request is displaced if the new one is closer; otherwise the new
    /// request is dropped (the caller will block in [`wait`] instead —
    /// correct, just slower).
    ///
    /// [`wait`]: Prefetcher::wait
    pub fn request(&self, index: usize) {
        self.request_inner(index, false);
    }

    fn request_inner(&self, index: usize, force: bool) {
        if self.ready.lock().contains_key(&index) {
            return;
        }
        {
            let mut st = self.shared.state.lock();
            if st.pending.contains(&index) || st.loading.contains(&index) {
                return;
            }
            if st.pending.len() + st.loading.len() >= self.capacity {
                // Full: displace the farthest pending request if the new
                // one is closer (or we're forced), else drop the new one.
                let playhead = st.playhead;
                let Some(far) = st
                    .pending
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &idx)| idx.abs_diff(playhead))
                    .map(|(pos, _)| pos)
                else {
                    // Everything in flight is already loading; nothing to
                    // displace. Forced requests queue anyway.
                    if force {
                        st.pending.push(index);
                        drop(st);
                        let _ = self.work_tx.try_send(Token::Work);
                    }
                    return;
                };
                if force || st.pending[far].abs_diff(playhead) > index.abs_diff(playhead) {
                    st.pending.swap_remove(far);
                    st.cancelled += 1;
                    // Reuse the displaced request's wakeup token: swap the
                    // index in, no new token needed.
                    st.pending.push(index);
                    return;
                }
                return;
            }
            st.pending.push(index);
        }
        // One token per queued item. A full token queue can only mean a
        // storm of cancellations left stale tokens; the pending item will
        // be claimed by one of those instead.
        let _ = self.work_tx.try_send(Token::Work);
    }

    /// Tell the scheduler where playback is; pending requests are
    /// prioritised by distance from this point.
    pub fn set_playhead(&self, index: usize) {
        self.shared.state.lock().playhead = index;
    }

    /// Cancel every *pending* (not yet claimed) request for which `keep`
    /// returns false, and drop matching mispredictions from the ready
    /// buffer. Loads already claimed by a worker run to completion — the
    /// disk is already seeking — but their results land in the ready
    /// buffer where distance-eviction reclaims them.
    pub fn retain(&self, keep: impl Fn(usize) -> bool) {
        {
            let mut st = self.shared.state.lock();
            let before = st.pending.len();
            st.pending.retain(|&idx| keep(idx));
            let dropped = before - st.pending.len();
            st.cancelled += dropped as u64;
        }
        self.ready.lock().retain(|&idx, _| keep(idx));
    }

    /// Drain completed loads into the ready buffer without blocking, then
    /// bound the buffer by evicting entries farthest from the playhead.
    fn drain(&self) {
        let mut ready = self.ready.lock();
        let mut st = self.shared.state.lock();
        while let Ok((idx, result)) = self.res_rx.try_recv() {
            st.loading.retain(|&i| i != idx);
            match result {
                Ok(field) => {
                    ready.insert(idx, field);
                }
                // Never park a failure: drop it so a later request for
                // this index triggers a fresh load instead of being
                // served a stale error.
                Err(_) => st.failed += 1,
            }
        }
        let playhead = st.playhead;
        drop(st);
        while ready.len() > READY_FACTOR * self.capacity {
            let Some(&far) = ready.keys().max_by_key(|&&idx| idx.abs_diff(playhead)) else {
                break;
            };
            ready.remove(&far);
        }
    }

    /// True when `index` can be taken without blocking.
    pub fn is_ready(&self, index: usize) -> bool {
        self.drain();
        self.ready.lock().contains_key(&index)
    }

    /// Take a loaded timestep, blocking until it is available. If it was
    /// never requested, it is requested now at top priority (synchronous
    /// fallback). Also moves the playhead to `index`.
    pub fn wait(&self, index: usize) -> Result<Arc<VectorField>> {
        self.set_playhead(index);
        self.drain();
        if let Some(field) = self.ready.lock().remove(&index) {
            self.shared.state.lock().hits += 1;
            return Ok(field);
        }
        self.shared.state.lock().misses += 1;
        loop {
            self.drain();
            if let Some(field) = self.ready.lock().remove(&index) {
                return Ok(field);
            }
            {
                let st = self.shared.state.lock();
                let queued = st.pending.contains(&index) || st.loading.contains(&index);
                drop(st);
                if !queued {
                    self.request_inner(index, true);
                    let st = self.shared.state.lock();
                    if !st.pending.contains(&index) && !st.loading.contains(&index) {
                        return Err(FieldError::Format(format!(
                            "prefetch queue refused timestep {index}"
                        )));
                    }
                }
            }
            // Block on the next completion, whichever index it is.
            match self.res_rx.recv() {
                Ok((idx, result)) => {
                    self.shared.state.lock().loading.retain(|&i| i != idx);
                    if idx == index {
                        // Errors are delivered only to the waiter that
                        // asked for this exact index.
                        return result;
                    }
                    match result {
                        Ok(field) => {
                            self.ready.lock().insert(idx, field);
                        }
                        Err(_) => self.shared.state.lock().failed += 1,
                    }
                }
                Err(_) => {
                    return Err(FieldError::Format("prefetch worker died".into()));
                }
            }
        }
    }

    /// Number of loads sitting in the ready buffer.
    pub fn ready_count(&self) -> usize {
        self.drain();
        self.ready.lock().len()
    }

    /// Number of requests queued or being loaded right now.
    pub fn in_flight(&self) -> usize {
        let st = self.shared.state.lock();
        st.pending.len() + st.loading.len()
    }

    /// Scheduler counters: `(hits, misses, cancelled)` — waits served
    /// from the ready buffer, waits that blocked, and requests cancelled
    /// or displaced before loading.
    pub fn stats(&self) -> (u64, u64, u64) {
        let st = self.shared.state.lock();
        (st.hits, st.misses, st.cancelled)
    }

    /// Loads that completed with an error (dropped, never cached). Drains
    /// completions first so the count reflects everything the workers have
    /// finished.
    pub fn failed_count(&self) -> u64 {
        self.drain();
        self.shared.state.lock().failed
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.work_tx.send(Token::Shutdown);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests sleep to let real threads make progress"
)]
mod tests {
    use super::*;
    use crate::{DiskModel, MemoryStore, SimulatedDisk};
    use flowfield::{dataset::VelocityCoords, CurvilinearGrid, Dataset, DatasetMeta, Dims};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use vecmath::{Aabb, Vec3};

    fn mem_store(n: usize) -> MemoryStore {
        let dims = Dims::new(4, 4, 4);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::splat(3.0))).unwrap();
        let meta = DatasetMeta {
            name: "pf".into(),
            dims,
            timestep_count: n,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..n)
            .map(|t| VectorField::from_fn(dims, move |_, _, _| Vec3::splat(t as f32)))
            .collect();
        MemoryStore::from_dataset(Dataset::new(meta, grid, fields).unwrap())
    }

    #[test]
    fn wait_without_request_loads_synchronously() {
        let pf = Prefetcher::new(Arc::new(mem_store(5)));
        let f = pf.wait(3).unwrap();
        assert_eq!(f.at(0, 0, 0), Vec3::splat(3.0));
        let (hits, misses, _) = pf.stats();
        assert_eq!((hits, misses), (0, 1));
    }

    #[test]
    fn requested_timestep_becomes_ready() {
        let pf = Prefetcher::new(Arc::new(mem_store(5)));
        pf.request(2);
        // Poll until ready (workers are fast on a memory store).
        let deadline = Instant::now() + Duration::from_secs(2);
        while !pf.is_ready(2) {
            assert!(Instant::now() < deadline, "prefetch never completed");
            std::thread::yield_now();
        }
        assert_eq!(pf.wait(2).unwrap().at(0, 0, 0), Vec3::splat(2.0));
        let (hits, misses, _) = pf.stats();
        assert_eq!((hits, misses), (1, 0));
    }

    #[test]
    fn duplicate_requests_coalesce() {
        let pf = Prefetcher::new(Arc::new(mem_store(5)));
        for _ in 0..10 {
            pf.request(1);
        }
        assert_eq!(pf.wait(1).unwrap().at(0, 0, 0), Vec3::splat(1.0));
        // The ready buffer holds at most the one load.
        assert!(pf.ready_count() <= 1);
    }

    #[test]
    fn errors_propagate() {
        let pf = Prefetcher::new(Arc::new(mem_store(2)));
        assert!(pf.wait(7).is_err());
        // And the prefetcher still works afterwards.
        assert!(pf.wait(1).is_ok());
    }

    #[test]
    fn prefetch_overlaps_compute() {
        // The point of figure 8: with a slow disk, request-ahead hides
        // the load behind the compute. Simulate 20 ms loads and 25 ms of
        // compute: sequential would be ~45 ms/frame, overlapped ~25 ms.
        let model = DiskModel {
            bandwidth_bytes_per_sec: 1.0e12,
            seek: Duration::from_millis(20),
        };
        let store = Arc::new(SimulatedDisk::new(mem_store(8), model));
        let pf = Prefetcher::new(store);

        pf.request(0);
        let start = Instant::now();
        let mut checksum = 0.0f32;
        for t in 0..6 {
            pf.request(t + 1); // prefetch next while "computing"
            let field = pf.wait(t).unwrap();
            // Fake 25 ms compute.
            std::thread::sleep(Duration::from_millis(25));
            checksum += field.at(0, 0, 0).x;
        }
        let elapsed = start.elapsed();
        assert_eq!(checksum, 15.0); // 0+1+..+5
                                    // Overlapped pipeline: ~6·25 ms + one initial 20 ms load. Allow
                                    // generous slack but stay clearly under the 6·45 ms sequential
                                    // cost.
        assert!(
            elapsed < Duration::from_millis(240),
            "pipeline did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn shutdown_on_drop_is_clean() {
        let pf = Prefetcher::new(Arc::new(mem_store(3)));
        pf.request(0);
        drop(pf); // must not hang or panic
    }

    /// A store whose first fetch blocks until released, so tests can pile
    /// up pending requests behind a busy worker deterministically.
    struct GatedStore {
        inner: MemoryStore,
        gate: AtomicBool,
        order: Mutex<Vec<usize>>,
    }

    impl GatedStore {
        fn new(n: usize) -> GatedStore {
            GatedStore {
                inner: mem_store(n),
                gate: AtomicBool::new(false),
                order: Mutex::new(Vec::new()),
            }
        }
    }

    impl TimestepStore for GatedStore {
        fn meta(&self) -> &DatasetMeta {
            self.inner.meta()
        }
        fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
            let first = {
                let mut order = self.order.lock();
                order.push(index);
                order.len() == 1
            };
            if first {
                while !self.gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            self.inner.fetch(index)
        }
    }

    #[test]
    fn pending_requests_claimed_nearest_playhead_first() {
        let store = Arc::new(GatedStore::new(20));
        let pf = Prefetcher::with_workers(Arc::clone(&store), 1);
        pf.request(10); // claims the single worker, blocks on the gate
        while store.order.lock().is_empty() {
            std::thread::yield_now();
        }
        // Queue far-to-near with the playhead at 0.
        pf.set_playhead(0);
        for idx in [9, 1, 8, 2, 15] {
            pf.request(idx);
        }
        store.gate.store(true, Ordering::SeqCst);
        for idx in [1, 2, 8, 9, 15] {
            let deadline = Instant::now() + Duration::from_secs(2);
            while !pf.is_ready(idx) {
                assert!(Instant::now() < deadline, "load of {idx} never finished");
                std::thread::yield_now();
            }
        }
        let order = store.order.lock().clone();
        assert_eq!(
            order,
            vec![10, 1, 2, 8, 9, 15],
            "claims must follow distance"
        );
    }

    #[test]
    fn retain_cancels_pending_and_evicts_ready() {
        let store = Arc::new(GatedStore::new(30));
        let pf = Prefetcher::with_workers(Arc::clone(&store), 1);
        pf.request(5); // occupy the worker
        while store.order.lock().is_empty() {
            std::thread::yield_now();
        }
        for idx in [6, 7, 8, 9] {
            pf.request(idx);
        }
        assert_eq!(pf.in_flight(), 5);
        // Direction flip: only 4 and 3 remain interesting.
        pf.retain(|idx| idx == 4 || idx == 3 || idx == 5);
        pf.request(4);
        pf.request(3);
        store.gate.store(true, Ordering::SeqCst);
        assert_eq!(pf.wait(4).unwrap().at(0, 0, 0), Vec3::splat(4.0));
        assert_eq!(pf.wait(3).unwrap().at(0, 0, 0), Vec3::splat(3.0));
        let order = store.order.lock().clone();
        assert!(
            !order.contains(&8) && !order.contains(&9),
            "cancelled requests must never reach the store: {order:?}"
        );
        let (_, _, cancelled) = pf.stats();
        assert_eq!(cancelled, 4);
    }

    #[test]
    fn in_flight_set_is_bounded_with_distance_displacement() {
        let store = Arc::new(GatedStore::new(200));
        let pf = Prefetcher::with_workers(Arc::clone(&store), 1);
        pf.request(0); // occupy the worker
        while store.order.lock().is_empty() {
            std::thread::yield_now();
        }
        pf.set_playhead(0);
        for idx in 1..=DEFAULT_IN_FLIGHT + 10 {
            pf.request(idx);
        }
        // Bounded: far requests past the cap were dropped...
        assert_eq!(pf.in_flight(), DEFAULT_IN_FLIGHT);
        // ...but a *nearer* late request displaces the farthest pending.
        pf.request(1); // dup, no-op
        let before = pf.in_flight();
        pf.set_playhead(100);
        pf.request(101);
        assert_eq!(pf.in_flight(), before, "displacement keeps the bound");
        store.gate.store(true, Ordering::SeqCst);
        assert_eq!(pf.wait(101).unwrap().at(0, 0, 0), Vec3::splat(101.0));
    }

    use std::sync::atomic::AtomicU64;

    /// A store that fails fetches according to a predicate over
    /// `(index, attempt)`, then serves from memory. Lets tests pin the
    /// "failed load must not be cached" invariant without wall-clock
    /// dependence.
    struct FlakyStore {
        inner: MemoryStore,
        fails: fn(usize, u64) -> bool,
        attempts: Mutex<HashMap<usize, u64>>,
        fetches: AtomicU64,
    }

    impl FlakyStore {
        fn new(n: usize, fails: fn(usize, u64) -> bool) -> FlakyStore {
            FlakyStore {
                inner: mem_store(n),
                fails,
                attempts: Mutex::new(HashMap::new()),
                fetches: AtomicU64::new(0),
            }
        }
    }

    impl TimestepStore for FlakyStore {
        fn meta(&self) -> &DatasetMeta {
            self.inner.meta()
        }
        fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
            self.fetches.fetch_add(1, Ordering::SeqCst);
            let attempt = {
                let mut attempts = self.attempts.lock();
                let n = attempts.entry(index).or_insert(0);
                *n += 1;
                *n
            };
            if (self.fails)(index, attempt) {
                return Err(FieldError::Corrupt(format!(
                    "injected failure {attempt} for timestep {index}"
                )));
            }
            self.inner.fetch(index)
        }
    }

    #[test]
    fn failed_load_is_never_cached_or_served_to_a_later_waiter() {
        // Index 2 fails on its first fetch only, then heals.
        let store = Arc::new(FlakyStore::new(5, |idx, attempt| idx == 2 && attempt == 1));
        let pf = Prefetcher::with_workers(Arc::clone(&store), 1);
        pf.request(2); // background load fails once
        let deadline = Instant::now() + Duration::from_secs(2);
        while pf.failed_count() < 1 {
            assert!(Instant::now() < deadline, "failure never drained");
            std::thread::yield_now();
        }
        // The failure was dropped, not parked as ready.
        assert!(!pf.is_ready(2));
        assert_eq!(pf.ready_count(), 0);
        // A later waiter triggers a *fresh* fetch and gets the healed
        // data, not the stale error.
        assert_eq!(pf.wait(2).unwrap().at(0, 0, 0), Vec3::splat(2.0));
        assert_eq!(store.fetches.load(Ordering::SeqCst), 2);
        assert_eq!(pf.in_flight(), 0);
    }

    #[test]
    fn erroring_store_returns_tokens_and_pool_keeps_draining() {
        // Odd indices always fail; drive several failing loads through a
        // single worker and verify it keeps claiming work.
        let store = Arc::new(FlakyStore::new(6, |idx, _| idx % 2 == 1));
        let pf = Prefetcher::with_workers(Arc::clone(&store), 1);
        for idx in [1, 3, 5] {
            pf.request(idx);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while pf.failed_count() < 3 || pf.in_flight() > 0 {
            assert!(Instant::now() < deadline, "worker wedged after errors");
            std::thread::yield_now();
        }
        // Waiting on a failing index surfaces the error to that waiter…
        assert!(pf.wait(1).is_err());
        // …and the pool is still alive for healthy loads afterwards.
        assert_eq!(pf.wait(0).unwrap().at(0, 0, 0), Vec3::splat(0.0));
        assert_eq!(pf.wait(2).unwrap().at(0, 0, 0), Vec3::splat(2.0));
        assert_eq!(pf.in_flight(), 0);
    }

    /// A store that panics when asked for a poisoned index.
    struct PanickyStore {
        inner: MemoryStore,
        poisoned: usize,
    }

    impl TimestepStore for PanickyStore {
        fn meta(&self) -> &DatasetMeta {
            self.inner.meta()
        }
        fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
            assert!(index != self.poisoned, "poisoned timestep {index}");
            self.inner.fetch(index)
        }
    }

    #[test]
    fn panicking_store_does_not_wedge_the_pool() {
        let store = Arc::new(PanickyStore {
            inner: mem_store(5),
            poisoned: 1,
        });
        let pf = Prefetcher::with_workers(store, 1);
        // The panic is converted to an error for the blocked waiter…
        let err = pf.wait(1).unwrap_err();
        assert!(err.to_string().contains("panicked"), "got: {err}");
        // …the slot is released, and the same single worker still serves
        // later loads.
        assert_eq!(pf.wait(0).unwrap().at(0, 0, 0), Vec3::splat(0.0));
        assert_eq!(pf.wait(3).unwrap().at(0, 0, 0), Vec3::splat(3.0));
        assert_eq!(pf.in_flight(), 0);
        assert!(!pf.is_ready(1), "a panicked load must never look ready");
    }
}
