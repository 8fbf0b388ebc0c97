//! Structured-grid dimensions and index arithmetic.

use serde::{Deserialize, Serialize};
use vecmath::Vec3;

/// A cell decomposition: `((i0, j0, k0), (fx, fy, fz))` — base node plus
/// in-cell fractions, as produced by [`Dims::cell_of`].
pub type CellCoords = ((usize, usize, usize), (f32, f32, f32));

/// Dimensions of a structured grid: `ni × nj × nk` nodes. Storage order is
/// i-fastest (Fortran/PLOT3D order, which is what the NAS datasets used):
/// `index = i + ni * (j + nj * k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dims {
    pub ni: u32,
    pub nj: u32,
    pub nk: u32,
}

impl Dims {
    pub const fn new(ni: u32, nj: u32, nk: u32) -> Dims {
        Dims { ni, nj, nk }
    }

    /// The tapered-cylinder grid of the paper: 64 × 64 × 32 = 131 072
    /// points, 1 572 864 bytes of velocity data per timestep.
    pub const TAPERED_CYLINDER: Dims = Dims::new(64, 64, 32);

    /// Number of grid nodes.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.ni as usize * self.nj as usize * self.nk as usize
    }

    /// [`Dims::point_count`], or `None` when the product overflows — for
    /// dims read from an untrusted header.
    pub fn checked_point_count(&self) -> Option<usize> {
        (self.ni as usize)
            .checked_mul(self.nj as usize)?
            .checked_mul(self.nk as usize)
    }

    /// Number of hexahedral cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.ni.saturating_sub(1) as usize)
            * (self.nj.saturating_sub(1) as usize)
            * (self.nk.saturating_sub(1) as usize)
    }

    /// Bytes of one velocity timestep at 3 × f32 per node — the quantity
    /// Table 2 of the paper is built around.
    #[inline]
    pub fn timestep_bytes(&self) -> usize {
        self.point_count() * 12
    }

    /// Linear index of node `(i, j, k)`; debug-asserts bounds.
    #[inline]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(self.in_bounds(i, j, k), "({i},{j},{k}) out of {self:?}");
        i + self.ni as usize * (j + self.nj as usize * k)
    }

    /// Inverse of [`Dims::index`].
    #[inline]
    pub fn coords(&self, index: usize) -> (usize, usize, usize) {
        let ni = self.ni as usize;
        let nj = self.nj as usize;
        let i = index % ni;
        let j = (index / ni) % nj;
        let k = index / (ni * nj);
        (i, j, k)
    }

    #[inline]
    pub fn in_bounds(&self, i: usize, j: usize, k: usize) -> bool {
        i < self.ni as usize && j < self.nj as usize && k < self.nk as usize
    }

    /// True when every direction has at least two nodes, i.e. trilinear
    /// interpolation is possible.
    #[inline]
    pub fn supports_interpolation(&self) -> bool {
        self.ni >= 2 && self.nj >= 2 && self.nk >= 2
    }

    /// Is a *fractional* grid coordinate inside the interpolable domain
    /// `[0, n-1]` in every direction?
    #[inline]
    pub fn contains_grid_coord(&self, p: Vec3) -> bool {
        p.x >= 0.0
            && p.y >= 0.0
            && p.z >= 0.0
            && p.x <= (self.ni - 1) as f32
            && p.y <= (self.nj - 1) as f32
            && p.z <= (self.nk - 1) as f32
    }

    /// Clamp a fractional grid coordinate into the valid domain.
    #[inline]
    pub fn clamp_grid_coord(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            p.x.clamp(0.0, (self.ni - 1) as f32),
            p.y.clamp(0.0, (self.nj - 1) as f32),
            p.z.clamp(0.0, (self.nk - 1) as f32),
        )
    }

    /// Decompose a fractional coordinate into the base cell `(i0, j0, k0)`
    /// and fractions `(fx, fy, fz) ∈ [0, 1]`, clamping so that points on the
    /// high boundary use the last full cell (the usual trilinear-sampling
    /// convention). Returns `None` when the coordinate is outside the grid.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "p is inside the grid, so each axis floors to a node index"
    )]
    pub fn cell_of(&self, p: Vec3) -> Option<CellCoords> {
        if !self.contains_grid_coord(p) || !self.supports_interpolation() {
            return None;
        }
        let max_i = self.ni as usize - 2;
        let max_j = self.nj as usize - 2;
        let max_k = self.nk as usize - 2;
        let i0 = (p.x as usize).min(max_i);
        let j0 = (p.y as usize).min(max_j);
        let k0 = (p.z as usize).min(max_k);
        Some((
            (i0, j0, k0),
            (p.x - i0 as f32, p.y - j0 as f32, p.z - k0 as f32),
        ))
    }

    /// Iterator over all node coordinates in storage order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (ni, nj, nk) = (self.ni as usize, self.nj as usize, self.nk as usize);
        (0..nk).flat_map(move |k| (0..nj).flat_map(move |j| (0..ni).map(move |i| (i, j, k))))
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.ni, self.nj, self.nk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tapered_cylinder_matches_paper() {
        // §1: "Each timestep consists of about one and a half megabytes of
        // velocity data" — Table 2 row 1 gives the exact numbers.
        let d = Dims::TAPERED_CYLINDER;
        assert_eq!(d.point_count(), 131_072);
        assert_eq!(d.timestep_bytes(), 1_572_864);
    }

    #[test]
    fn index_roundtrip_exhaustive_small() {
        let d = Dims::new(3, 4, 5);
        let mut seen = vec![false; d.point_count()];
        for (i, j, k) in d.iter_nodes() {
            let idx = d.index(i, j, k);
            assert!(!seen[idx], "duplicate index {idx}");
            seen[idx] = true;
            assert_eq!(d.coords(idx), (i, j, k));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn storage_is_i_fastest() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.index(0, 0, 0), 0);
        assert_eq!(d.index(1, 0, 0), 1);
        assert_eq!(d.index(0, 1, 0), 4);
        assert_eq!(d.index(0, 0, 1), 12);
    }

    #[test]
    fn cell_counts() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.cell_count(), (3 * 2));
        assert_eq!(Dims::new(1, 3, 2).cell_count(), 0);
    }

    #[test]
    fn grid_coord_containment() {
        let d = Dims::new(4, 4, 4);
        assert!(d.contains_grid_coord(Vec3::ZERO));
        assert!(d.contains_grid_coord(Vec3::splat(3.0)));
        assert!(!d.contains_grid_coord(Vec3::splat(3.001)));
        assert!(!d.contains_grid_coord(Vec3::new(-0.001, 0.0, 0.0)));
    }

    #[test]
    fn cell_of_interior_point() {
        let d = Dims::new(4, 4, 4);
        let ((i, j, k), (fx, fy, fz)) = d.cell_of(Vec3::new(1.25, 2.5, 0.75)).unwrap();
        assert_eq!((i, j, k), (1, 2, 0));
        assert!((fx - 0.25).abs() < 1e-6);
        assert!((fy - 0.5).abs() < 1e-6);
        assert!((fz - 0.75).abs() < 1e-6);
    }

    #[test]
    fn cell_of_high_boundary_uses_last_cell() {
        let d = Dims::new(4, 4, 4);
        let ((i, _, _), (fx, _, _)) = d.cell_of(Vec3::new(3.0, 0.0, 0.0)).unwrap();
        assert_eq!(i, 2);
        assert!((fx - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cell_of_outside_is_none() {
        let d = Dims::new(4, 4, 4);
        assert!(d.cell_of(Vec3::splat(3.5)).is_none());
        assert!(d.cell_of(Vec3::new(-0.5, 0.0, 0.0)).is_none());
    }

    #[test]
    fn degenerate_dims_rejected() {
        assert!(!Dims::new(1, 4, 4).supports_interpolation());
        assert!(Dims::new(2, 2, 2).supports_interpolation());
        assert!(Dims::new(1, 4, 4).cell_of(Vec3::ZERO).is_none());
    }

    #[test]
    fn clamp_grid_coord() {
        let d = Dims::new(5, 5, 5);
        assert_eq!(d.clamp_grid_coord(Vec3::splat(10.0)), Vec3::splat(4.0));
        assert_eq!(d.clamp_grid_coord(Vec3::splat(-1.0)), Vec3::ZERO);
    }

    proptest! {
        #[test]
        fn prop_index_coords_roundtrip(ni in 2u32..16, nj in 2u32..16, nk in 2u32..16, seed in 0usize..10_000) {
            let d = Dims::new(ni, nj, nk);
            let idx = seed % d.point_count();
            let (i, j, k) = d.coords(idx);
            prop_assert!(d.in_bounds(i, j, k));
            prop_assert_eq!(d.index(i, j, k), idx);
        }

        #[test]
        fn prop_cell_of_fractions_in_unit_box(ni in 2u32..12, x in 0.0f32..11.0, y in 0.0f32..11.0, z in 0.0f32..11.0) {
            let d = Dims::new(ni, ni, ni);
            let p = Vec3::new(x, y, z);
            if let Some(((i, j, k), (fx, fy, fz))) = d.cell_of(p) {
                prop_assert!(i + 1 < ni as usize && j + 1 < ni as usize && k + 1 < ni as usize);
                prop_assert!((0.0..=1.0).contains(&fx));
                prop_assert!((0.0..=1.0).contains(&fy));
                prop_assert!((0.0..=1.0).contains(&fz));
                // Reconstruction matches the input coordinate.
                prop_assert!((i as f32 + fx - p.x).abs() < 1e-4);
            } else {
                prop_assert!(!d.contains_grid_coord(p));
            }
        }
    }
}
