//! Curvilinear grids: node positions and the grid↔physical machinery.
//!
//! §2.1 of the paper: "the fluid flow data are provided on curvilinear
//! grids, which contain the physical position of each grid point and the
//! velocity vector at that point. If the position of a particle is known in
//! physical space, a search of the curvilinear grid must be performed …
//! This search involves unacceptable performance overhead. It is avoided …
//! by converting the velocity data to grid coordinates and performing all
//! integrations in grid coordinates. The resulting paths are easily
//! converted to physical coordinates by using their known grid coordinates
//! to directly lookup their corresponding physical coordinates, using
//! trilinear interpolation if necessary."
//!
//! [`CurvilinearGrid`] provides all three pieces: the fast grid→physical
//! lookup, the (slow, setup-time-only) physical→grid search, and the bulk
//! conversion of a physical velocity field into grid-coordinate velocities.

use crate::field::FieldSample;
use crate::{Dims, FieldError, Result, VectorField};
use vecmath::{Aabb, Mat3, Vec3};

/// A structured curvilinear grid: physical position of every node.
#[derive(Debug, Clone)]
pub struct CurvilinearGrid {
    positions: VectorField,
    bounds: Aabb,
}

impl CurvilinearGrid {
    /// Wrap a position field. Requires interpolable dims.
    pub fn new(positions: VectorField) -> Result<CurvilinearGrid> {
        let dims = positions.dims();
        if !dims.supports_interpolation() {
            return Err(FieldError::DegenerateDims(dims));
        }
        let bounds = Aabb::from_points(positions.as_slice().iter().copied());
        Ok(CurvilinearGrid { positions, bounds })
    }

    /// Build by evaluating a mapping at every node.
    pub fn from_fn(
        dims: Dims,
        f: impl FnMut(usize, usize, usize) -> Vec3,
    ) -> Result<CurvilinearGrid> {
        CurvilinearGrid::new(VectorField::from_fn(dims, f))
    }

    /// A uniform Cartesian grid filling `bounds` — the degenerate
    /// curvilinear case, useful for tests and the Navier-Stokes solver.
    pub fn cartesian(dims: Dims, bounds: Aabb) -> Result<CurvilinearGrid> {
        let size = bounds.size();
        let step = Vec3::new(
            size.x / (dims.ni - 1).max(1) as f32,
            size.y / (dims.nj - 1).max(1) as f32,
            size.z / (dims.nk - 1).max(1) as f32,
        );
        CurvilinearGrid::from_fn(dims, |i, j, k| {
            bounds.min + Vec3::new(step.x * i as f32, step.y * j as f32, step.z * k as f32)
        })
    }

    #[inline]
    pub fn dims(&self) -> Dims {
        self.positions.dims()
    }

    /// Physical-space bounding box of the whole grid.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Node position.
    #[inline]
    pub fn node(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.positions.at(i, j, k)
    }

    /// Raw position field.
    #[inline]
    pub fn positions(&self) -> &VectorField {
        &self.positions
    }

    /// Grid→physical: trilinear lookup of the position field at a
    /// fractional grid coordinate. This is the cheap direction used every
    /// frame on computed paths.
    #[inline]
    pub fn to_physical(&self, grid_coord: Vec3) -> Option<Vec3> {
        self.positions.sample(grid_coord)
    }

    /// Convert a whole polyline of grid coordinates to physical space,
    /// skipping points that left the grid.
    pub fn path_to_physical(&self, grid_coords: &[Vec3]) -> Vec<Vec3> {
        grid_coords
            .iter()
            .filter_map(|&g| self.to_physical(g))
            .collect()
    }

    /// [`CurvilinearGrid::path_to_physical`], but rewriting the buffer in
    /// place (write-index compaction) instead of allocating a fresh
    /// vector — the hot-path variant used on per-frame streak filaments.
    pub fn path_to_physical_in_place(&self, path: &mut Vec<Vec3>) {
        let mut w = 0;
        for r in 0..path.len() {
            if let Some(p) = self.to_physical(path[r]) {
                path[w] = p;
                w += 1;
            }
        }
        path.truncate(w);
    }

    /// Jacobian ∂x/∂ξ at a fractional grid coordinate: columns are the
    /// physical-space tangents of the three grid directions, estimated by
    /// differencing the trilinear position mapping. For interior points
    /// this uses central differences of half a cell.
    pub fn jacobian(&self, grid_coord: Vec3) -> Option<Mat3> {
        let dims = self.dims();
        let h = 0.5f32;
        let mut cols = [Vec3::ZERO; 3];
        for axis in 0..3 {
            let mut lo = grid_coord;
            let mut hi = grid_coord;
            lo[axis] -= h;
            hi[axis] += h;
            // Clamp one-sided at boundaries, scaling by the actual span.
            let lo_c = dims.clamp_grid_coord(lo);
            let hi_c = dims.clamp_grid_coord(hi);
            let span = hi_c[axis] - lo_c[axis];
            if span <= 0.0 {
                return None;
            }
            let p_lo = self.to_physical(lo_c)?;
            let p_hi = self.to_physical(hi_c)?;
            cols[axis] = (p_hi - p_lo) / span;
        }
        Some(Mat3::from_cols(cols[0], cols[1], cols[2]))
    }

    /// Convert one physical-space velocity at a grid coordinate into
    /// grid-coordinate velocity: `ξ̇ = J⁻¹ · v`.
    pub fn physical_velocity_to_grid(&self, grid_coord: Vec3, v_physical: Vec3) -> Option<Vec3> {
        let jac = self.jacobian(grid_coord)?;
        let inv = jac.inverse()?;
        Some(inv.mul_vec(v_physical))
    }

    /// Bulk conversion of a physical velocity field to grid-coordinate
    /// velocities — the preprocessing step the paper performs once per
    /// dataset so every frame's integrations are search-free. Cells with
    /// singular Jacobians produce an error identifying the node.
    pub fn convert_field_to_grid_coords(&self, physical: &VectorField) -> Result<VectorField> {
        let dims = self.dims();
        if physical.dims() != dims {
            return Err(FieldError::LengthMismatch {
                expected: dims.point_count(),
                actual: physical.dims().point_count(),
            });
        }
        let mut out = VectorField::zeros(dims);
        for (i, j, k) in dims.iter_nodes() {
            let gc = Vec3::new(i as f32, j as f32, k as f32);
            let jac = self
                .jacobian(gc)
                .ok_or(FieldError::SingularCell { i, j, k })?;
            let inv = jac.inverse().ok_or(FieldError::SingularCell { i, j, k })?;
            *out.at_mut(i, j, k) = inv.mul_vec(physical.at(i, j, k));
        }
        Ok(out)
    }

    /// Precompute the inverse Jacobian at every node. The grid is static
    /// while timesteps stream past, so converting an 800-timestep dataset
    /// should invert each node's Jacobian once, not 800 times.
    pub fn precompute_inverse_jacobians(&self) -> Result<Vec<Mat3>> {
        let dims = self.dims();
        let mut out = Vec::with_capacity(dims.point_count());
        for (i, j, k) in dims.iter_nodes() {
            let gc = Vec3::new(i as f32, j as f32, k as f32);
            let inv = self
                .jacobian(gc)
                .and_then(|jac| jac.inverse())
                .ok_or(FieldError::SingularCell { i, j, k })?;
            out.push(inv);
        }
        Ok(out)
    }

    /// Convert a physical velocity field using precomputed inverse
    /// Jacobians from [`CurvilinearGrid::precompute_inverse_jacobians`].
    pub fn convert_field_with(
        &self,
        inv_jacobians: &[Mat3],
        physical: &VectorField,
    ) -> Result<VectorField> {
        let dims = self.dims();
        if physical.dims() != dims || inv_jacobians.len() != dims.point_count() {
            return Err(FieldError::LengthMismatch {
                expected: dims.point_count(),
                actual: physical.dims().point_count().min(inv_jacobians.len()),
            });
        }
        let mut out = VectorField::zeros(dims);
        let src = physical.as_slice();
        let dst = out.as_mut_slice();
        for n in 0..src.len() {
            dst[n] = inv_jacobians[n].mul_vec(src[n]);
        }
        Ok(out)
    }

    /// Physical→grid point location: the expensive search the windtunnel
    /// avoids in its inner loop but still needs at *setup* time (placing a
    /// rake specified in physical space). Coarse nearest-node scan followed
    /// by damped Newton iterations on the trilinear mapping. Returns `None`
    /// if Newton fails to converge inside the grid.
    pub fn locate(&self, p_physical: Vec3) -> Option<Vec3> {
        let dims = self.dims();
        // Coarse scan: nearest node (subsampled for large grids).
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a cube root of the point count, far below usize::MAX"
        )]
        let stride = ((dims.point_count() as f64).powf(1.0 / 3.0) as usize / 16).max(1);
        let mut best = Vec3::ZERO;
        let mut best_d = f32::INFINITY;
        let mut k = 0;
        while k < dims.nk as usize {
            let mut j = 0;
            while j < dims.nj as usize {
                let mut i = 0;
                while i < dims.ni as usize {
                    let d = self.node(i, j, k).distance(p_physical);
                    if d < best_d {
                        best_d = d;
                        best = Vec3::new(i as f32, j as f32, k as f32);
                    }
                    i += stride;
                }
                j += stride;
            }
            k += stride;
        }
        // Newton refinement: solve to_physical(ξ) = p.
        let mut xi = best;
        for _ in 0..40 {
            let x = self.to_physical(dims.clamp_grid_coord(xi))?;
            let r = p_physical - x;
            if r.length() < 1.0e-5 * (1.0 + self.bounds.diagonal()) {
                let clamped = dims.clamp_grid_coord(xi);
                return Some(clamped);
            }
            let jac = self.jacobian(dims.clamp_grid_coord(xi))?;
            let step = jac.inverse()?.mul_vec(r);
            // Damping: limit the step to one cell to keep Newton stable in
            // strongly curved grids.
            let limited = if step.length() > 1.0 {
                step.normalized_or_zero()
            } else {
                step
            };
            xi = dims.clamp_grid_coord(xi + limited);
        }
        // Converged check after the loop.
        let x = self.to_physical(xi)?;
        if x.distance(p_physical) < 1.0e-3 * (1.0 + self.bounds.diagonal()) {
            Some(xi)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cart_grid() -> CurvilinearGrid {
        CurvilinearGrid::cartesian(
            Dims::new(5, 5, 5),
            Aabb::new(Vec3::ZERO, Vec3::new(8.0, 4.0, 2.0)),
        )
        .unwrap()
    }

    /// A smoothly sheared grid: x' = x + 0.3 y, y' = y, z' = z + 0.1 x.
    fn sheared_grid() -> CurvilinearGrid {
        CurvilinearGrid::from_fn(Dims::new(6, 6, 6), |i, j, k| {
            let (x, y, z) = (i as f32, j as f32, k as f32);
            Vec3::new(x + 0.3 * y, y, z + 0.1 * x)
        })
        .unwrap()
    }

    #[test]
    fn degenerate_dims_rejected() {
        let f = VectorField::zeros(Dims::new(1, 4, 4));
        assert!(matches!(
            CurvilinearGrid::new(f),
            Err(FieldError::DegenerateDims(_))
        ));
    }

    #[test]
    fn cartesian_nodes_and_bounds() {
        let g = cart_grid();
        assert_eq!(g.node(0, 0, 0), Vec3::ZERO);
        assert_eq!(g.node(4, 4, 4), Vec3::new(8.0, 4.0, 2.0));
        assert_eq!(g.node(1, 0, 0), Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(g.bounds().min, Vec3::ZERO);
        assert_eq!(g.bounds().max, Vec3::new(8.0, 4.0, 2.0));
    }

    #[test]
    fn to_physical_interpolates() {
        let g = cart_grid();
        let p = g.to_physical(Vec3::new(0.5, 0.5, 0.5)).unwrap();
        assert!(p.distance(Vec3::new(1.0, 0.5, 0.25)) < 1e-5);
        assert!(g.to_physical(Vec3::splat(4.5)).is_none());
    }

    #[test]
    fn jacobian_of_cartesian_is_diagonal_spacing() {
        let g = cart_grid();
        let j = g.jacobian(Vec3::splat(2.0)).unwrap();
        // Spacings: 2.0, 1.0, 0.5.
        assert!((j.m[0][0] - 2.0).abs() < 1e-4);
        assert!((j.m[1][1] - 1.0).abs() < 1e-4);
        assert!((j.m[2][2] - 0.5).abs() < 1e-4);
        assert!(j.m[0][1].abs() < 1e-4);
    }

    #[test]
    fn jacobian_at_boundary_uses_one_sided() {
        let g = cart_grid();
        let j = g.jacobian(Vec3::ZERO).unwrap();
        assert!((j.m[0][0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn velocity_conversion_cartesian() {
        let g = cart_grid();
        // Physical velocity (2, 1, 0.5) should become grid velocity (1,1,1).
        let vg = g
            .physical_velocity_to_grid(Vec3::splat(1.0), Vec3::new(2.0, 1.0, 0.5))
            .unwrap();
        assert!(vg.distance(Vec3::ONE) < 1e-4);
    }

    #[test]
    fn velocity_conversion_sheared() {
        let g = sheared_grid();
        // Jacobian columns: d/di = (1,0,0.1), d/dj = (0.3,1,0), d/dk = (0,0,1).
        // A physical velocity equal to the i-tangent maps to grid velocity e_i.
        let vg = g
            .physical_velocity_to_grid(Vec3::splat(2.0), Vec3::new(1.0, 0.0, 0.1))
            .unwrap();
        assert!(vg.distance(Vec3::X) < 1e-3, "{vg:?}");
    }

    #[test]
    fn bulk_conversion_matches_pointwise() {
        let g = sheared_grid();
        let physical = VectorField::from_fn(g.dims(), |i, j, k| {
            Vec3::new(i as f32 * 0.1, 1.0 - j as f32 * 0.05, k as f32 * 0.02)
        });
        let converted = g.convert_field_to_grid_coords(&physical).unwrap();
        for (i, j, k) in [(0usize, 0usize, 0usize), (2, 3, 1), (5, 5, 5)] {
            let gc = Vec3::new(i as f32, j as f32, k as f32);
            let expect = g
                .physical_velocity_to_grid(gc, physical.at(i, j, k))
                .unwrap();
            assert!(converted.at(i, j, k).distance(expect) < 1e-4);
        }
    }

    #[test]
    fn bulk_conversion_dim_mismatch() {
        let g = cart_grid();
        let wrong = VectorField::zeros(Dims::new(2, 2, 2));
        assert!(g.convert_field_to_grid_coords(&wrong).is_err());
    }

    #[test]
    fn precomputed_jacobians_match_bulk_conversion() {
        let g = sheared_grid();
        let physical = VectorField::from_fn(g.dims(), |i, j, k| {
            Vec3::new(0.3 * i as f32, -0.2 * j as f32, 0.1 * k as f32 + 1.0)
        });
        let slow = g.convert_field_to_grid_coords(&physical).unwrap();
        let inv = g.precompute_inverse_jacobians().unwrap();
        let fast = g.convert_field_with(&inv, &physical).unwrap();
        for n in 0..slow.as_slice().len() {
            assert!(slow.as_slice()[n].distance(fast.as_slice()[n]) < 1e-5);
        }
    }

    #[test]
    fn convert_field_with_rejects_bad_lengths() {
        let g = cart_grid();
        let inv = g.precompute_inverse_jacobians().unwrap();
        let wrong = VectorField::zeros(Dims::new(2, 2, 2));
        assert!(g.convert_field_with(&inv, &wrong).is_err());
        let ok_field = VectorField::zeros(g.dims());
        assert!(g.convert_field_with(&inv[..3], &ok_field).is_err());
    }

    #[test]
    fn locate_recovers_grid_coords_cartesian() {
        let g = cart_grid();
        let gc = g.locate(Vec3::new(3.0, 2.0, 1.0)).unwrap();
        assert!(gc.distance(Vec3::new(1.5, 2.0, 2.0)) < 1e-2);
    }

    #[test]
    fn locate_recovers_grid_coords_sheared() {
        let g = sheared_grid();
        let target_gc = Vec3::new(2.25, 3.5, 1.75);
        let phys = g.to_physical(target_gc).unwrap();
        let found = g.locate(phys).unwrap();
        // The physical round-trip must match even if ξ differs slightly.
        assert!(g.to_physical(found).unwrap().distance(phys) < 1e-3);
    }

    #[test]
    fn locate_far_outside_fails() {
        let g = cart_grid();
        assert!(g.locate(Vec3::splat(1.0e4)).is_none());
    }

    #[test]
    fn path_to_physical_drops_outside_points() {
        let g = cart_grid();
        let path = vec![Vec3::splat(1.0), Vec3::splat(100.0), Vec3::splat(2.0)];
        let phys = g.path_to_physical(&path);
        assert_eq!(phys.len(), 2);
    }

    proptest! {
        #[test]
        fn prop_grid_physical_roundtrip(x in 0.0f32..5.0, y in 0.0f32..5.0, z in 0.0f32..5.0) {
            let g = sheared_grid();
            let gc = Vec3::new(x, y, z);
            let p = g.to_physical(gc).unwrap();
            let back = g.locate(p);
            prop_assume!(back.is_some());
            let rt = g.to_physical(back.unwrap()).unwrap();
            prop_assert!(rt.distance(p) < 1e-2);
        }

        #[test]
        fn prop_jacobian_det_positive_on_shear(x in 0.5f32..4.5, y in 0.5f32..4.5, z in 0.5f32..4.5) {
            let g = sheared_grid();
            let j = g.jacobian(Vec3::new(x, y, z)).unwrap();
            prop_assert!(j.determinant() > 0.0);
        }
    }
}
