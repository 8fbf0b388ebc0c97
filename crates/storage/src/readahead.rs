//! Direction-predicting read-ahead — figure 8's prefetch, packaged as a
//! store wrapper.
//!
//! The prefetcher in [`crate::prefetch`] needs the caller to say what to
//! load next; [`ReadAhead`] infers it. It watches the stride between
//! consecutive fetches (playback forward → +1, reversed → −1, every
//! other step → ±2 …) and keeps the next `depth` timesteps along that
//! direction in flight, so a windtunnel server whose clients are playing
//! the dataset never waits on the disk — including §2's "run backwards".

use crate::{Prefetcher, StoreIoStats, TimestepStore};
use flowfield::{DatasetMeta, Result, VectorField};
use parking_lot::Mutex;
use std::sync::Arc;

/// Store wrapper that keeps upcoming timesteps in flight.
pub struct ReadAhead<S: TimestepStore + 'static> {
    inner: Arc<S>,
    prefetcher: Prefetcher,
    depth: usize,
    state: Mutex<PredictState>,
}

#[derive(Default)]
struct PredictState {
    last: Option<usize>,
    stride: i64,
}

impl<S: TimestepStore + 'static> ReadAhead<S> {
    /// Wrap `inner`, keeping `depth` predicted timesteps in flight on a
    /// two-worker pool.
    pub fn new(inner: Arc<S>, depth: usize) -> ReadAhead<S> {
        ReadAhead::with_workers(inner, depth, 2)
    }

    /// Wrap `inner` with an explicit loader-pool size.
    pub fn with_workers(inner: Arc<S>, depth: usize, workers: usize) -> ReadAhead<S> {
        ReadAhead {
            prefetcher: Prefetcher::with_workers(Arc::clone(&inner), workers),
            inner,
            depth: depth.max(1),
            state: Mutex::new(PredictState::default()),
        }
    }

    /// The stride currently predicted (0 until two fetches happened).
    pub fn predicted_stride(&self) -> i64 {
        self.state.lock().stride
    }

    /// Prefetch scheduler counters: `(hits, misses, cancelled)`.
    pub fn prefetch_stats(&self) -> (u64, u64, u64) {
        self.prefetcher.stats()
    }

    /// The window of timestep indices predicted from `anchor` along
    /// `stride` (wrapping), nearest first.
    #[expect(
        clippy::cast_possible_wrap,
        clippy::cast_possible_truncation,
        reason = "timestep indices and counts are far below i64::MAX"
    )]
    fn window(&self, anchor: usize, stride: i64, len: i64) -> Vec<usize> {
        (1..=self.depth as i64)
            .map(|n| (anchor as i64 + stride * n).rem_euclid(len) as usize)
            .collect()
    }

    #[expect(
        clippy::cast_possible_wrap,
        reason = "timestep indices and counts are far below i64::MAX"
    )]
    fn predict_and_request(&self, index: usize) {
        let len = self.inner.timestep_count() as i64;
        if len <= 1 {
            return;
        }
        let mut st = self.state.lock();
        if let Some(last) = st.last {
            let delta = index as i64 - last as i64;
            // Playback wrap (t_max → 0) shows up as a large negative
            // delta; treat any |delta| > len/2 as a wrap of the
            // complementary stride.
            let delta = if delta > len / 2 {
                delta - len
            } else if delta < -len / 2 {
                delta + len
            } else {
                delta
            };
            if delta != 0 {
                st.stride = delta;
            }
        }
        st.last = Some(index);
        let stride = st.stride;
        drop(st);
        if stride != 0 {
            for next in self.window(index, stride, len) {
                self.prefetcher.request(next);
            }
        }
    }
}

impl<S: TimestepStore + 'static> TimestepStore for ReadAhead<S> {
    fn meta(&self) -> &DatasetMeta {
        self.inner.meta()
    }

    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        // Take from the in-flight set (blocking if the prediction was
        // right but the disk hasn't finished), then schedule the next
        // predictions.
        let result = self.prefetcher.wait(index);
        self.predict_and_request(index);
        result
    }

    fn payload_bytes(&self, index: usize) -> u64 {
        self.inner.payload_bytes(index)
    }

    fn io_stats(&self) -> StoreIoStats {
        let (hits, misses, _) = self.prefetcher.stats();
        StoreIoStats {
            prefetch_hits: hits,
            prefetch_misses: misses,
            ..StoreIoStats::default()
        }
        .plus(self.inner.io_stats())
    }

    fn health_stats(&self) -> crate::StoreHealthStats {
        self.inner.health_stats()
    }

    #[expect(
        clippy::cast_possible_wrap,
        reason = "timestep indices and counts are far below i64::MAX"
    )]
    fn hint_direction(&self, direction: i64) {
        let len = self.inner.timestep_count() as i64;
        if direction == 0 || len <= 1 {
            return;
        }
        let mut st = self.state.lock();
        let dir = direction.signum();
        let flipped = st.stride != 0 && st.stride.signum() != dir;
        if st.stride == 0 {
            st.stride = dir;
        } else if flipped {
            // Keep any learned skip magnitude (every-other-step playback)
            // but aim it the advised way.
            st.stride = -st.stride;
        }
        let (stride, last) = (st.stride, st.last);
        drop(st);
        // Re-aim the in-flight set right away — the next fetch after a
        // reversal should already find its timestep loading, and the now
        // stale opposite-direction requests must not keep the loader pool
        // busy ahead of it.
        if let Some(last) = last {
            let wanted = self.window(last, stride, len);
            if flipped {
                self.prefetcher
                    .retain(|idx| idx == last || wanted.contains(&idx));
            }
            for next in wanted {
                self.prefetcher.request(next);
            }
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
    use std::time::{Duration, Instant};
    use vecmath::{Aabb, Vec3};

    fn mem_store(n: usize) -> MemoryStore {
        let dims = Dims::new(4, 4, 4);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::splat(3.0))).unwrap();
        let meta = DatasetMeta {
            name: "ra".into(),
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
    fn returns_correct_data() {
        let ra = ReadAhead::new(Arc::new(mem_store(8)), 2);
        for t in [0usize, 1, 2, 5, 3] {
            assert_eq!(ra.fetch(t).unwrap().at(0, 0, 0), Vec3::splat(t as f32));
        }
    }

    #[test]
    fn learns_forward_stride() {
        let ra = ReadAhead::new(Arc::new(mem_store(10)), 2);
        ra.fetch(0).unwrap();
        ra.fetch(1).unwrap();
        assert_eq!(ra.predicted_stride(), 1);
        ra.fetch(2).unwrap();
        assert_eq!(ra.predicted_stride(), 1);
    }

    #[test]
    fn learns_reverse_and_skip_strides() {
        let ra = ReadAhead::new(Arc::new(mem_store(20)), 2);
        ra.fetch(10).unwrap();
        ra.fetch(8).unwrap();
        assert_eq!(ra.predicted_stride(), -2);
        ra.fetch(6).unwrap();
        assert_eq!(ra.predicted_stride(), -2);
    }

    #[test]
    fn wraparound_reads_as_continuation() {
        let ra = ReadAhead::new(Arc::new(mem_store(10)), 2);
        ra.fetch(8).unwrap();
        ra.fetch(9).unwrap();
        assert_eq!(ra.predicted_stride(), 1);
        ra.fetch(0).unwrap(); // loop playback wrap
        assert_eq!(ra.predicted_stride(), 1, "wrap must not flip the stride");
    }

    #[test]
    fn hides_disk_latency_on_sequential_playback() {
        // 15 ms simulated loads, 20 ms compute: synchronous would be
        // ~35 ms/frame; read-ahead should approach ~20 ms/frame.
        let model = DiskModel {
            bandwidth_bytes_per_sec: 1.0e12,
            seek: Duration::from_millis(15),
        };
        let slow = Arc::new(SimulatedDisk::new(mem_store(12), model));
        let ra = ReadAhead::new(slow, 2);
        // Prime the predictor.
        ra.fetch(0).unwrap();
        ra.fetch(1).unwrap();
        let start = Instant::now();
        let frames = 8;
        for t in 2..2 + frames {
            let _ = ra.fetch(t % 12).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let per_frame = start.elapsed() / frames as u32;
        assert!(
            per_frame < Duration::from_millis(30),
            "read-ahead failed to overlap: {per_frame:?}"
        );
    }

    #[test]
    fn direction_hint_seeds_stride_before_any_pattern() {
        let ra = ReadAhead::new(Arc::new(mem_store(10)), 2);
        ra.hint_direction(-1);
        assert_eq!(ra.predicted_stride(), -1);
        ra.fetch(9).unwrap();
        ra.fetch(8).unwrap();
        assert_eq!(ra.predicted_stride(), -1);
    }

    #[test]
    fn direction_hint_flips_learned_stride_keeping_magnitude() {
        let ra = ReadAhead::new(Arc::new(mem_store(20)), 2);
        ra.fetch(0).unwrap();
        ra.fetch(2).unwrap();
        ra.fetch(4).unwrap();
        assert_eq!(ra.predicted_stride(), 2);
        // §2's "run backwards": the rate flips, the store is told at once.
        ra.hint_direction(-1);
        assert_eq!(ra.predicted_stride(), -2);
        // A matching hint is a no-op.
        ra.hint_direction(-3);
        assert_eq!(ra.predicted_stride(), -2);
    }

    #[test]
    fn direction_hint_hides_latency_on_reversal() {
        // Prime forward, then reverse with a hint: the first backward
        // fetches should already be in flight, not mispredicted.
        let model = DiskModel {
            bandwidth_bytes_per_sec: 1.0e12,
            seek: Duration::from_millis(15),
        };
        let slow = Arc::new(SimulatedDisk::new(mem_store(12), model));
        let ra = ReadAhead::new(slow, 2);
        ra.fetch(6).unwrap();
        ra.fetch(7).unwrap();
        ra.fetch(8).unwrap();
        ra.hint_direction(-1);
        std::thread::sleep(Duration::from_millis(40)); // let 7, 6 land
        let start = Instant::now();
        let f = ra.fetch(7).unwrap();
        assert_eq!(f.at(0, 0, 0), Vec3::splat(7.0));
        assert!(
            start.elapsed() < Duration::from_millis(10),
            "reversed fetch was not in flight: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn hint_forwards_through_wrappers() {
        let ra = Arc::new(ReadAhead::new(Arc::new(mem_store(10)), 2));
        let stack = crate::CachedStore::new(
            SimulatedDisk::new(
                Arc::clone(&ra),
                DiskModel {
                    bandwidth_bytes_per_sec: 1.0e12,
                    seek: Duration::ZERO,
                },
            ),
            4,
        );
        stack.hint_direction(-5);
        assert_eq!(ra.predicted_stride(), -1);
    }

    #[test]
    fn reversal_cancels_stale_forward_pileup() {
        // The regression this scheduler exists for: deep read-ahead on a
        // slow disk piles up forward requests; flipping direction used to
        // leave the reversed fetch stuck behind every stale forward read
        // still in the queue. With cancellation + nearest-first claiming,
        // the reversed fetch waits for at most the load already on the
        // "platter" plus its own.
        let model = DiskModel {
            bandwidth_bytes_per_sec: 1.0e12,
            seek: Duration::from_millis(25),
        };
        let slow = Arc::new(SimulatedDisk::new(mem_store(40), model));
        // One worker and a deep window: a stale pileup is 6 × 25 ms.
        let ra = ReadAhead::with_workers(slow, 6, 1);
        ra.fetch(20).unwrap();
        ra.fetch(21).unwrap();
        ra.fetch(22).unwrap(); // queues 23..=28 behind one busy worker
        ra.hint_direction(-1); // cancels them, aims 21..=16
        let start = Instant::now();
        let f = ra.fetch(21).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(f.at(0, 0, 0), Vec3::splat(21.0));
        // Stuck-behind-stale would be ≥ 5 × 25 ms = 125 ms before 21 even
        // starts loading; cancelled + prioritised is ≤ one in-progress
        // stale load + 21's own (~50 ms). Allow slack for a busy host.
        assert!(
            elapsed < Duration::from_millis(100),
            "reversed fetch was stuck behind stale forward reads: {elapsed:?}"
        );
        let (_, _, cancelled) = ra.prefetch_stats();
        assert!(cancelled > 0, "stale forward requests were not cancelled");
    }

    #[test]
    fn io_stats_fold_prefetch_counters() {
        let ra = ReadAhead::new(Arc::new(mem_store(10)), 2);
        ra.fetch(0).unwrap(); // miss (nothing predicted yet)
        ra.fetch(1).unwrap(); // miss (stride learned only now)
                              // Give the pool a moment to land the predicted 2 and 3.
        let deadline = Instant::now() + Duration::from_secs(2);
        while ra.prefetcher.ready_count() < 2 {
            assert!(Instant::now() < deadline, "window never loaded");
            std::thread::yield_now();
        }
        ra.fetch(2).unwrap(); // hit
        let io = ra.io_stats();
        assert_eq!(io.prefetch_hits, 1);
        assert_eq!(io.prefetch_misses, 2);
    }

    #[test]
    fn single_timestep_dataset_is_safe() {
        let ra = ReadAhead::new(Arc::new(mem_store(1)), 4);
        for _ in 0..3 {
            assert_eq!(ra.fetch(0).unwrap().at(0, 0, 0), Vec3::splat(0.0));
        }
        assert_eq!(ra.predicted_stride(), 0);
    }
}
