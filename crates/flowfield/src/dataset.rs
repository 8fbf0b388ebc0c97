//! Dataset metadata and the in-memory timestep series.
//!
//! An unsteady dataset is a curvilinear grid plus a sequence of velocity
//! fields, one per timestep (§1.1). In the windtunnel the velocity data
//! have already been converted to *grid coordinates* (§2.1), so the tracer
//! can integrate without point-location searches; [`Dataset`] records which
//! coordinate system its fields are in so that mistake is unrepresentable.

use crate::field::FieldSample;
use crate::{CurvilinearGrid, Dims, FieldError, Result, VectorField};
use serde::{Deserialize, Serialize};
use vecmath::Vec3;

/// Which coordinate system velocity samples are expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VelocityCoords {
    /// Physical (world) space — as produced by a flow solver.
    Physical,
    /// Computational (grid) space — as consumed by the tracer.
    Grid,
}

/// Metadata describing a dataset; serializable so it can be stored next to
/// the timestep files and shipped to clients at session start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetMeta {
    /// Human-readable name, e.g. "tapered-cylinder".
    pub name: String,
    /// Grid dimensions.
    pub dims: Dims,
    /// Number of timesteps in the series.
    pub timestep_count: usize,
    /// Physical time between consecutive timesteps.
    pub dt: f32,
    /// Coordinate system of the stored velocities.
    pub coords: VelocityCoords,
}

impl DatasetMeta {
    /// Total bytes of velocity data across all timesteps (the paper's
    /// "tens of gigabytes" problem statement, quantified).
    pub fn total_velocity_bytes(&self) -> u64 {
        self.dims.timestep_bytes() as u64 * self.timestep_count as u64
    }

    /// The metadata of the paper's tapered-cylinder dataset: 64×64×32,
    /// 800 timesteps (§1), ~1.2 GB of velocity data.
    pub fn tapered_cylinder() -> DatasetMeta {
        DatasetMeta {
            name: "tapered-cylinder".to_string(),
            dims: Dims::TAPERED_CYLINDER,
            timestep_count: 800,
            dt: 0.05,
            coords: VelocityCoords::Grid,
        }
    }
}

/// A fully in-memory unsteady dataset: grid + timestep series.
///
/// This is the "data sets can be loaded into memory" mode of §5.1; datasets
/// larger than memory use `storage::TimestepStore` instead and hold only a
/// window of timesteps here.
#[derive(Debug, Clone)]
pub struct Dataset {
    meta: DatasetMeta,
    grid: CurvilinearGrid,
    timesteps: Vec<VectorField>,
}

impl Dataset {
    /// Assemble a dataset, validating that every timestep matches the grid.
    pub fn new(
        meta: DatasetMeta,
        grid: CurvilinearGrid,
        timesteps: Vec<VectorField>,
    ) -> Result<Dataset> {
        if grid.dims() != meta.dims {
            return Err(FieldError::LengthMismatch {
                expected: meta.dims.point_count(),
                actual: grid.dims().point_count(),
            });
        }
        if timesteps.len() != meta.timestep_count {
            return Err(FieldError::Format(format!(
                "metadata says {} timesteps, got {}",
                meta.timestep_count,
                timesteps.len()
            )));
        }
        for ts in &timesteps {
            if ts.dims() != meta.dims {
                return Err(FieldError::LengthMismatch {
                    expected: meta.dims.point_count(),
                    actual: ts.dims().point_count(),
                });
            }
        }
        Ok(Dataset {
            meta,
            grid,
            timesteps,
        })
    }

    /// Build from physical-space velocity fields, converting them to grid
    /// coordinates — the windtunnel's dataset-preparation step.
    pub fn from_physical(
        name: &str,
        dt: f32,
        grid: CurvilinearGrid,
        physical_timesteps: Vec<VectorField>,
    ) -> Result<Dataset> {
        let mut converted = Vec::with_capacity(physical_timesteps.len());
        for ts in &physical_timesteps {
            converted.push(grid.convert_field_to_grid_coords(ts)?);
        }
        let meta = DatasetMeta {
            name: name.to_string(),
            dims: grid.dims(),
            timestep_count: converted.len(),
            dt,
            coords: VelocityCoords::Grid,
        };
        Dataset::new(meta, grid, converted)
    }

    #[inline]
    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    #[inline]
    pub fn grid(&self) -> &CurvilinearGrid {
        &self.grid
    }

    #[inline]
    pub fn dims(&self) -> Dims {
        self.meta.dims
    }

    #[inline]
    pub fn timestep_count(&self) -> usize {
        self.timesteps.len()
    }

    /// Velocity field of one timestep.
    pub fn timestep(&self, t: usize) -> Option<&VectorField> {
        self.timesteps.get(t)
    }

    /// All timesteps.
    pub fn timesteps(&self) -> &[VectorField] {
        &self.timesteps
    }

    /// Mutable access for generators that fill a dataset in place.
    pub fn timesteps_mut(&mut self) -> &mut Vec<VectorField> {
        &mut self.timesteps
    }

    /// Sample velocity at fractional grid coordinate and *fractional*
    /// timestep, linear in time between the two bracketing fields. The
    /// stand-alone windtunnel runs time forward/backward at user-controlled
    /// rates (§2), which lands between stored timesteps.
    pub fn sample_time_interp(&self, grid_coord: Vec3, t: f32) -> Option<Vec3> {
        if !(0.0..=(self.timesteps.len().saturating_sub(1)) as f32).contains(&t) {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "t is checked to lie in [0, len - 1] above"
        )]
        let t0 = (t as usize).min(self.timesteps.len().saturating_sub(1));
        let t1 = (t0 + 1).min(self.timesteps.len() - 1);
        let f = t - t0 as f32;
        let v0 = self.timesteps[t0].sample(grid_coord)?;
        if t1 == t0 || f == 0.0 {
            return Some(v0);
        }
        let v1 = self.timesteps[t1].sample(grid_coord)?;
        Some(v0.lerp(v1, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmath::Aabb;

    fn tiny_grid() -> CurvilinearGrid {
        CurvilinearGrid::cartesian(Dims::new(3, 3, 3), Aabb::new(Vec3::ZERO, Vec3::splat(2.0)))
            .unwrap()
    }

    fn const_field(dims: Dims, v: Vec3) -> VectorField {
        VectorField::from_fn(dims, |_, _, _| v)
    }

    fn tiny_meta(n: usize) -> DatasetMeta {
        DatasetMeta {
            name: "tiny".into(),
            dims: Dims::new(3, 3, 3),
            timestep_count: n,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        }
    }

    #[test]
    fn assembles_and_indexes() {
        let d = Dataset::new(
            tiny_meta(2),
            tiny_grid(),
            vec![
                const_field(Dims::new(3, 3, 3), Vec3::X),
                const_field(Dims::new(3, 3, 3), Vec3::Y),
            ],
        )
        .unwrap();
        assert_eq!(d.timestep_count(), 2);
        assert_eq!(d.timestep(0).unwrap().at(1, 1, 1), Vec3::X);
        assert_eq!(d.timestep(1).unwrap().at(0, 0, 0), Vec3::Y);
        assert!(d.timestep(2).is_none());
    }

    #[test]
    fn rejects_wrong_timestep_count() {
        let r = Dataset::new(
            tiny_meta(3),
            tiny_grid(),
            vec![const_field(Dims::new(3, 3, 3), Vec3::X)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_mismatched_field_dims() {
        let r = Dataset::new(
            tiny_meta(1),
            tiny_grid(),
            vec![const_field(Dims::new(2, 2, 2), Vec3::X)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn from_physical_converts_coords() {
        // Cartesian grid spacing 1.0 in each axis (3 nodes over [0,2]).
        let grid = tiny_grid();
        let phys = vec![const_field(Dims::new(3, 3, 3), Vec3::new(2.0, 2.0, 2.0))];
        let d = Dataset::from_physical("conv", 0.1, grid, phys).unwrap();
        assert_eq!(d.meta().coords, VelocityCoords::Grid);
        // spacing = 1, so grid velocity = physical velocity / 1.
        let v = d.timestep(0).unwrap().at(1, 1, 1);
        assert!(v.distance(Vec3::splat(2.0)) < 1e-3);
    }

    #[test]
    fn time_interpolation_blends() {
        let d = Dataset::new(
            tiny_meta(2),
            tiny_grid(),
            vec![
                const_field(Dims::new(3, 3, 3), Vec3::X),
                const_field(Dims::new(3, 3, 3), Vec3::Y),
            ],
        )
        .unwrap();
        let mid = d.sample_time_interp(Vec3::ONE, 0.5).unwrap();
        assert!(mid.distance(Vec3::new(0.5, 0.5, 0.0)) < 1e-5);
        let at0 = d.sample_time_interp(Vec3::ONE, 0.0).unwrap();
        assert!(at0.distance(Vec3::X) < 1e-6);
        assert!(d.sample_time_interp(Vec3::ONE, 1.5).is_none());
        assert!(d.sample_time_interp(Vec3::ONE, -0.1).is_none());
    }

    #[test]
    fn meta_total_bytes_matches_table2() {
        // Table 2 row 1: tapered cylinder, 1 572 864 bytes per timestep,
        // 682 timesteps fit in a gigabyte.
        let meta = DatasetMeta::tapered_cylinder();
        assert_eq!(meta.dims.timestep_bytes(), 1_572_864);
        let per_gb = 1_000_000_000u64 / meta.dims.timestep_bytes() as u64;
        assert_eq!(per_gb, 635); // 10^9 B; the paper's 682 uses 2^30 B.
        let per_gib = (1u64 << 30) / meta.dims.timestep_bytes() as u64;
        assert_eq!(per_gib, 682);
    }
}
