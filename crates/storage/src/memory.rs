//! Fully memory-resident store — the "data sets can be loaded into
//! memory" regime of §5.1 (the Convex's 1 GB allowed datasets four times
//! larger than the workstation's 256 MB).

use crate::TimestepStore;
use flowfield::{Dataset, DatasetMeta, FieldError, Result, VectorField};
use std::sync::Arc;

/// All timesteps held in memory as shared handles.
pub struct MemoryStore {
    meta: DatasetMeta,
    timesteps: Vec<Arc<VectorField>>,
}

impl MemoryStore {
    /// Take ownership of a dataset's timesteps.
    pub fn from_dataset(dataset: Dataset) -> MemoryStore {
        let meta = dataset.meta().clone();
        let mut ds = dataset;
        let timesteps = std::mem::take(ds.timesteps_mut())
            .into_iter()
            .map(Arc::new)
            .collect();
        MemoryStore { meta, timesteps }
    }

    /// Build from raw parts.
    pub fn new(meta: DatasetMeta, timesteps: Vec<Arc<VectorField>>) -> Result<MemoryStore> {
        if timesteps.len() != meta.timestep_count {
            return Err(FieldError::Format(format!(
                "metadata says {} timesteps, got {}",
                meta.timestep_count,
                timesteps.len()
            )));
        }
        Ok(MemoryStore { meta, timesteps })
    }

    /// Total bytes of resident velocity data.
    pub fn resident_bytes(&self) -> u64 {
        self.meta.dims.timestep_bytes() as u64 * self.timesteps.len() as u64
    }
}

impl TimestepStore for MemoryStore {
    fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        self.timesteps
            .get(index)
            .cloned()
            .ok_or_else(|| FieldError::Format(format!("timestep {index} out of range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::{dataset::VelocityCoords, CurvilinearGrid, Dims};
    use vecmath::{Aabb, Vec3};

    fn make_dataset(n: usize) -> Dataset {
        let dims = Dims::new(3, 3, 3);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
        let meta = DatasetMeta {
            name: "mem".into(),
            dims,
            timestep_count: n,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..n)
            .map(|t| VectorField::from_fn(dims, move |_, _, _| Vec3::splat(t as f32)))
            .collect();
        Dataset::new(meta, grid, fields).unwrap()
    }

    #[test]
    fn fetch_returns_correct_timestep() {
        let store = MemoryStore::from_dataset(make_dataset(4));
        assert_eq!(store.timestep_count(), 4);
        let f = store.fetch(2).unwrap();
        assert_eq!(f.at(0, 0, 0), Vec3::splat(2.0));
    }

    #[test]
    fn out_of_range_is_error() {
        let store = MemoryStore::from_dataset(make_dataset(2));
        assert!(store.fetch(2).is_err());
    }

    #[test]
    fn fetch_shares_not_copies() {
        let store = MemoryStore::from_dataset(make_dataset(1));
        let a = store.fetch(0).unwrap();
        let b = store.fetch(0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn resident_bytes_accounting() {
        let store = MemoryStore::from_dataset(make_dataset(5));
        assert_eq!(store.resident_bytes(), 27 * 12 * 5);
    }

    #[test]
    fn mismatched_count_rejected() {
        let ds = make_dataset(2);
        let meta = DatasetMeta {
            timestep_count: 3,
            ..ds.meta().clone()
        };
        let fields: Vec<_> = ds.timesteps().iter().cloned().map(Arc::new).collect();
        assert!(MemoryStore::new(meta, fields).is_err());
    }
}
