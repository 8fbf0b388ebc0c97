//! A `TimestepStore` wrapper that times `fetch`/`fetch_soa` from outside
//! and forwards everything else untouched.
//!
//! The `serve` child places one outermost (what `windtunnel::serve`
//! calls) and one just above `SimulatedDisk` (what reaches the backend).
//! Every trait method is forwarded: a dropped `payload_bytes` would make
//! `SimulatedDisk` charge the raw size instead of the compressed one, a
//! dropped `hint_direction` would blind `ReadAhead`, a dropped `fetch_soa`
//! would route the decode-to-SoA fast path through an AoS conversion.

use crate::spans::Recorder;
use flowfield::{DatasetMeta, Result, VectorField, VectorFieldSoA};
use std::sync::Arc;
use storage::{StoreHealthStats, StoreIoStats, TimestepStore};

pub struct SpanStore<S> {
    inner: S,
    name: &'static str,
    recorder: Arc<Recorder>,
}

impl<S: TimestepStore> SpanStore<S> {
    pub fn new(inner: S, name: &'static str, recorder: Arc<Recorder>) -> SpanStore<S> {
        SpanStore {
            inner,
            name,
            recorder,
        }
    }
}

impl<S: TimestepStore> TimestepStore for SpanStore<S> {
    fn meta(&self) -> &DatasetMeta {
        self.inner.meta()
    }

    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        self.recorder
            .time(self.name, -1, || self.inner.fetch(index))
    }

    fn fetch_soa(&self, index: usize) -> Result<Arc<VectorFieldSoA>> {
        self.recorder
            .time(self.name, -1, || self.inner.fetch_soa(index))
    }

    fn timestep_count(&self) -> usize {
        self.inner.timestep_count()
    }

    fn payload_bytes(&self, index: usize) -> u64 {
        self.inner.payload_bytes(index)
    }

    fn io_stats(&self) -> StoreIoStats {
        self.inner.io_stats()
    }

    fn health_stats(&self) -> StoreHealthStats {
        self.inner.health_stats()
    }

    fn hint_direction(&self, direction: i64) {
        self.inner.hint_direction(direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::dataset::VelocityCoords;
    use flowfield::Dims;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    /// Answers every method with a value no default implementation gives
    /// and counts which fetch flavour was used.
    struct Probe {
        meta: DatasetMeta,
        fetches: AtomicU64,
        soa_fetches: AtomicU64,
        hinted: AtomicI64,
    }

    impl TimestepStore for Probe {
        fn meta(&self) -> &DatasetMeta {
            &self.meta
        }
        fn fetch(&self, _index: usize) -> Result<Arc<VectorField>> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(VectorField::zeros(self.meta.dims)))
        }
        fn fetch_soa(&self, _index: usize) -> Result<Arc<VectorFieldSoA>> {
            self.soa_fetches.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(VectorFieldSoA::zeros(self.meta.dims)))
        }
        fn timestep_count(&self) -> usize {
            7
        }
        fn payload_bytes(&self, index: usize) -> u64 {
            1000 + index as u64
        }
        fn io_stats(&self) -> StoreIoStats {
            StoreIoStats {
                io_wait_us: 1,
                decode_us: 2,
                prefetch_hits: 3,
                prefetch_misses: 4,
            }
        }
        fn health_stats(&self) -> StoreHealthStats {
            StoreHealthStats {
                retried_reads: 5,
                salvaged_chunks: 6,
                zero_filled_chunks: 7,
                quarantined_steps: 8,
            }
        }
        fn hint_direction(&self, direction: i64) {
            self.hinted.store(direction, Ordering::Relaxed);
        }
    }

    fn probe() -> Arc<Probe> {
        Arc::new(Probe {
            meta: DatasetMeta {
                name: "probe".into(),
                dims: Dims::new(2, 2, 2),
                timestep_count: 3,
                dt: 0.1,
                coords: VelocityCoords::Grid,
            },
            fetches: AtomicU64::new(0),
            soa_fetches: AtomicU64::new(0),
            hinted: AtomicI64::new(0),
        })
    }

    #[test]
    fn forwards_every_method() {
        let inner = probe();
        let rec = Arc::new(Recorder::new(true));
        let store = SpanStore::new(Arc::clone(&inner), "storage.fetch", Arc::clone(&rec));

        assert_eq!(store.meta().name, "probe");
        assert_eq!(store.timestep_count(), 7);
        assert_eq!(store.payload_bytes(2), 1002);
        assert_eq!(store.io_stats(), inner.io_stats());
        assert_eq!(store.health_stats(), inner.health_stats());
        store.hint_direction(-1);
        assert_eq!(inner.hinted.load(Ordering::Relaxed), -1);

        store.fetch(0).unwrap();
        store.fetch_soa(1).unwrap();
        // fetch_soa reached the inner fast path, not the AoS default.
        assert_eq!(inner.fetches.load(Ordering::Relaxed), 1);
        assert_eq!(inner.soa_fetches.load(Ordering::Relaxed), 1);

        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "storage.fetch"));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
