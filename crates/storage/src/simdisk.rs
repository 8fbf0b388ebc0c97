//! Simulated-bandwidth disk.
//!
//! Table 2 of the paper sweeps grid sizes from the tapered cylinder's
//! 131 072 points (needs 15 MB/s at 10 fps) to 10 million points (needs
//! 3 433 MB/s) and concludes "we are still a long way from interactively
//! visualizing very large unsteady data sets". Reproducing that *regime*
//! on 2026 hardware needs a disk whose sustained bandwidth we control:
//! [`SimulatedDisk`] wraps any store and delays each fetch by
//! `seek + bytes/bandwidth`, so the bench harness can measure achieved
//! frame rates as a function of disk speed.

use crate::{StoreIoStats, TimestepStore};
use flowfield::{DatasetMeta, Result, VectorField};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A disk model: sustained bandwidth plus per-read seek latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sustained transfer rate in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed latency per read.
    pub seek: Duration,
}

impl DiskModel {
    /// The Convex C3240's measured disk: "between 30 and 50
    /// megabytes/second sustained rate" (§5.1); we model the low end.
    pub fn convex_c3240() -> DiskModel {
        DiskModel {
            bandwidth_bytes_per_sec: 30.0e6,
            seek: Duration::from_millis(2),
        }
    }

    /// Time to read `bytes` under this model.
    pub fn read_duration(&self, bytes: u64) -> Duration {
        if self.bandwidth_bytes_per_sec <= 0.0 {
            return self.seek;
        }
        self.seek + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Timesteps per second this disk can deliver for a given timestep
    /// size — the quantity Table 2 inverts.
    pub fn timesteps_per_sec(&self, timestep_bytes: u64) -> f64 {
        1.0 / self.read_duration(timestep_bytes).as_secs_f64()
    }
}

/// Store wrapper imposing a [`DiskModel`] on every fetch.
///
/// Each fetch is charged `seek + payload_bytes / bandwidth` — *actual*
/// on-disk bytes, so a compressed (v2) backend is charged its compressed
/// size; multiplying effective bandwidth is exactly what the codec is
/// for. Concurrent fetches overlap their budgets, modeling the striped
/// controller / command-queuing of the paper's Convex I/O system rather
/// than a single serializing spindle.
pub struct SimulatedDisk<S> {
    inner: S,
    model: DiskModel,
    simulated_busy_nanos: AtomicU64,
    slept_us: AtomicU64,
}

impl<S: TimestepStore> SimulatedDisk<S> {
    pub fn new(inner: S, model: DiskModel) -> SimulatedDisk<S> {
        SimulatedDisk {
            inner,
            model,
            simulated_busy_nanos: AtomicU64::new(0),
            slept_us: AtomicU64::new(0),
        }
    }

    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Total simulated disk-busy time accumulated so far.
    pub fn simulated_busy(&self) -> Duration {
        Duration::from_nanos(self.simulated_busy_nanos.load(Ordering::Relaxed))
    }

    /// Charge the model's budget around `op`: run it, then sleep off
    /// whatever the real backend didn't already cost.
    fn charge<T>(&self, index: usize, op: impl FnOnce() -> Result<T>) -> Result<T> {
        let budget = self.model.read_duration(self.inner.payload_bytes(index));
        let start = Instant::now();
        let result = op()?;
        let elapsed = start.elapsed();
        if budget > elapsed {
            let pause = budget - elapsed;
            #[allow(clippy::disallowed_methods)]
            // simulated disk latency is the entire point of simdisk
            std::thread::sleep(pause);
            self.slept_us.fetch_add(
                u64::try_from(pause.as_micros()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        self.simulated_busy_nanos.fetch_add(
            u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        Ok(result)
    }
}

impl<S: TimestepStore> TimestepStore for SimulatedDisk<S> {
    fn meta(&self) -> &DatasetMeta {
        self.inner.meta()
    }

    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        self.charge(index, || self.inner.fetch(index))
    }

    fn payload_bytes(&self, index: usize) -> u64 {
        self.inner.payload_bytes(index)
    }

    fn io_stats(&self) -> StoreIoStats {
        // The slept-off budget is I/O wait the caller really experienced;
        // the inner store accounts its own real read time.
        StoreIoStats {
            io_wait_us: self.slept_us.load(Ordering::Relaxed),
            ..StoreIoStats::default()
        }
        .plus(self.inner.io_stats())
    }

    fn health_stats(&self) -> crate::StoreHealthStats {
        self.inner.health_stats()
    }

    fn hint_direction(&self, direction: i64) {
        self.inner.hint_direction(direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;
    use flowfield::{dataset::VelocityCoords, CurvilinearGrid, Dataset, Dims, VectorField};
    use vecmath::{Aabb, Vec3};

    fn mem_store(n: usize) -> MemoryStore {
        let dims = Dims::new(4, 4, 4);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::splat(3.0))).unwrap();
        let meta = DatasetMeta {
            name: "sim".into(),
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
    fn read_duration_math() {
        let m = DiskModel {
            bandwidth_bytes_per_sec: 1.0e6,
            seek: Duration::from_millis(1),
        };
        // 1 MB at 1 MB/s = 1 s + 1 ms seek.
        let d = m.read_duration(1_000_000);
        assert!((d.as_secs_f64() - 1.001).abs() < 1e-9);
    }

    #[test]
    fn convex_loads_tapered_cylinder_within_budget() {
        // §5.1: the tapered cylinder's 1.57 MB timestep loads well within
        // 1/8 s at 30 MB/s.
        let m = DiskModel::convex_c3240();
        let d = m.read_duration(Dims::TAPERED_CYLINDER.timestep_bytes() as u64);
        assert!(d < Duration::from_millis(125), "{d:?}");
    }

    #[test]
    fn convex_cannot_stream_harrier() {
        // §5.1: the hovering Harrier's ~36 MB timesteps need ~600 MB/s;
        // the Convex's 30 MB/s cannot deliver 10 fps.
        let m = DiskModel::convex_c3240();
        assert!(m.timesteps_per_sec(36_000_000) < 1.0);
    }

    #[test]
    fn zero_bandwidth_degenerates_to_seek() {
        let m = DiskModel {
            bandwidth_bytes_per_sec: 0.0,
            seek: Duration::from_millis(5),
        };
        assert_eq!(m.read_duration(1 << 30), Duration::from_millis(5));
    }

    #[test]
    fn fetch_is_delayed_and_counted() {
        let model = DiskModel {
            bandwidth_bytes_per_sec: 1.0e9,
            seek: Duration::from_millis(5),
        };
        let disk = SimulatedDisk::new(mem_store(3), model);
        let start = Instant::now();
        let f = disk.fetch(1).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(f.at(0, 0, 0), Vec3::splat(1.0));
        assert!(elapsed >= Duration::from_millis(4), "{elapsed:?}");
        assert!(disk.simulated_busy() >= Duration::from_millis(5));
    }

    #[test]
    fn errors_pass_through_without_delay() {
        let model = DiskModel {
            bandwidth_bytes_per_sec: 1.0,
            seek: Duration::from_secs(10),
        };
        let disk = SimulatedDisk::new(mem_store(1), model);
        let start = Instant::now();
        assert!(disk.fetch(5).is_err());
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
