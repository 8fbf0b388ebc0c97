//! Velocity fields on structured grids, in two memory layouts.
//!
//! §5.3 of the paper is a study of exactly this choice: the
//! pointer-striding *scalar* C code could not be vectorized by the Convex
//! compiler, while "standard C arrays" could. We reproduce both sides:
//!
//! * [`VectorField`] — array-of-structs (`Vec<Vec3>`), natural for the
//!   per-streamline scalar kernel;
//! * [`VectorFieldSoA`] — structure-of-arrays (three `Vec<f32>`), the
//!   layout whose inner loops the compiler can autovectorize across a batch
//!   of particles, standing in for the Convex's 128-entry vector registers.
//!
//! Both support trilinear sampling at *fractional grid coordinates* — the
//! coordinate system all integrations run in (§2.1).

use crate::{Dims, FieldError, Result};
use vecmath::Vec3;

/// Anything that can be trilinearly sampled at a fractional grid
/// coordinate. The tracer is generic over this so every integrator works
/// with either layout.
pub trait FieldSample {
    /// Grid dimensions.
    fn dims(&self) -> Dims;

    /// Trilinear sample at fractional grid coordinate `p`; `None` outside
    /// the grid.
    fn sample(&self, p: Vec3) -> Option<Vec3>;
}

/// Trilinear weights for the 8 corners of a cell, in `(i, j, k)` bit order:
/// corner `c` has i-offset `c & 1`, j-offset `(c >> 1) & 1`, k-offset
/// `(c >> 2) & 1`.
#[inline]
pub fn trilinear_weights(fx: f32, fy: f32, fz: f32) -> [f32; 8] {
    let gx = 1.0 - fx;
    let gy = 1.0 - fy;
    let gz = 1.0 - fz;
    [
        gx * gy * gz,
        fx * gy * gz,
        gx * fy * gz,
        fx * fy * gz,
        gx * gy * fz,
        fx * gy * fz,
        gx * fy * fz,
        fx * fy * fz,
    ]
}

/// Array-of-structs velocity field: one [`Vec3`] per node, i-fastest order.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    dims: Dims,
    data: Vec<Vec3>,
}

impl VectorField {
    /// Wrap existing data; checks the length against the dims.
    pub fn new(dims: Dims, data: Vec<Vec3>) -> Result<VectorField> {
        if data.len() != dims.point_count() {
            return Err(FieldError::LengthMismatch {
                expected: dims.point_count(),
                actual: data.len(),
            });
        }
        Ok(VectorField { dims, data })
    }

    /// A zero-filled field.
    pub fn zeros(dims: Dims) -> VectorField {
        VectorField {
            data: vec![Vec3::ZERO; dims.point_count()],
            dims,
        }
    }

    /// Build by evaluating `f(i, j, k)` at every node.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(usize, usize, usize) -> Vec3) -> VectorField {
        let mut data = Vec::with_capacity(dims.point_count());
        for k in 0..dims.nk as usize {
            for j in 0..dims.nj as usize {
                for i in 0..dims.ni as usize {
                    data.push(f(i, j, k));
                }
            }
        }
        VectorField { dims, data }
    }

    #[inline]
    pub fn dims_ref(&self) -> Dims {
        self.dims
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.data[self.dims.index(i, j, k)]
    }

    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut Vec3 {
        let idx = self.dims.index(i, j, k);
        &mut self.data[idx]
    }

    #[inline]
    pub fn as_slice(&self) -> &[Vec3] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Vec3] {
        &mut self.data
    }

    pub fn into_inner(self) -> Vec<Vec3> {
        self.data
    }

    /// Largest velocity magnitude in the field (used to choose stable
    /// integration step sizes).
    pub fn max_magnitude(&self) -> f32 {
        self.data.iter().map(|v| v.length()).fold(0.0f32, f32::max)
    }

    /// Convert to the SoA layout.
    pub fn to_soa(&self) -> VectorFieldSoA {
        let n = self.data.len();
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut z = Vec::with_capacity(n);
        for v in &self.data {
            x.push(v.x);
            y.push(v.y);
            z.push(v.z);
        }
        VectorFieldSoA {
            dims: self.dims,
            x,
            y,
            z,
        }
    }

    /// The eight corner indices of a cell, matching
    /// [`trilinear_weights`] corner order.
    #[inline]
    pub(crate) fn corner_indices(dims: Dims, i0: usize, j0: usize, k0: usize) -> [usize; 8] {
        let ni = dims.ni as usize;
        let nij = ni * dims.nj as usize;
        let base = i0 + ni * j0 + nij * k0;
        [
            base,
            base + 1,
            base + ni,
            base + ni + 1,
            base + nij,
            base + nij + 1,
            base + nij + ni,
            base + nij + ni + 1,
        ]
    }

    /// Corner indices and trilinear weights of the cell holding `p`.
    #[inline]
    fn corners(&self, p: Vec3) -> Option<([usize; 8], [f32; 8])> {
        let ((i0, j0, k0), (fx, fy, fz)) = self.dims.cell_of(p)?;
        let idx = VectorField::corner_indices(self.dims, i0, j0, k0);
        Some((idx, trilinear_weights(fx, fy, fz)))
    }

    /// Weighted sum of the corners `idx`, in corner order.
    #[inline]
    fn blend(&self, idx: &[usize; 8], w: &[f32; 8]) -> Option<Vec3> {
        let mut acc = Vec3::ZERO;
        for (&n, &wc) in idx.iter().zip(w) {
            acc += *self.data.get(n)? * wc;
        }
        Some(acc)
    }

    /// `(self.sample(p)?, other.sample(p)?)` bit for bit, from one cell
    /// location and one set of weights; `None` if the dims differ.
    #[inline]
    pub fn sample_pair(&self, other: &VectorField, p: Vec3) -> Option<(Vec3, Vec3)> {
        if other.dims != self.dims {
            return None;
        }
        let (idx, w) = self.corners(p)?;
        Some((self.blend(&idx, &w)?, other.blend(&idx, &w)?))
    }
}

impl FieldSample for VectorField {
    #[inline]
    fn dims(&self) -> Dims {
        self.dims
    }

    #[inline]
    fn sample(&self, p: Vec3) -> Option<Vec3> {
        let (idx, w) = self.corners(p)?;
        self.blend(&idx, &w)
    }
}

/// Structure-of-arrays velocity field: three parallel `f32` arrays.
///
/// The inner interpolation loop over a *batch* of particles is written so
/// that each component is a pure indexed-gather + multiply-add chain over a
/// flat `f32` slice — the shape LLVM's autovectorizer (and the Convex
/// vectorizing compiler of 1992) can chew on.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorFieldSoA {
    dims: Dims,
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
}

impl VectorFieldSoA {
    pub fn new(dims: Dims, x: Vec<f32>, y: Vec<f32>, z: Vec<f32>) -> Result<VectorFieldSoA> {
        let n = dims.point_count();
        for len in [x.len(), y.len(), z.len()] {
            if len != n {
                return Err(FieldError::LengthMismatch {
                    expected: n,
                    actual: len,
                });
            }
        }
        Ok(VectorFieldSoA { dims, x, y, z })
    }

    pub fn zeros(dims: Dims) -> VectorFieldSoA {
        let n = dims.point_count();
        VectorFieldSoA {
            dims,
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> Vec3 {
        let idx = self.dims.index(i, j, k);
        Vec3::new(self.x[idx], self.y[idx], self.z[idx])
    }

    /// Convert back to the AoS layout.
    pub fn to_aos(&self) -> VectorField {
        let data = (0..self.x.len())
            .map(|n| Vec3::new(self.x[n], self.y[n], self.z[n]))
            .collect();
        VectorField {
            dims: self.dims,
            data,
        }
    }

    /// Batched trilinear sampling: for each input coordinate, write the
    /// sampled vector into `out` and set `alive[n] = false` for coordinates
    /// outside the grid (their `out` entry is untouched). This is the
    /// "vectorize across streamlines" kernel of §5.3: the loop body is
    /// branch-light and component-separated.
    pub fn sample_batch(&self, coords: &[Vec3], out: &mut [Vec3], alive: &mut [bool]) {
        assert_eq!(coords.len(), out.len());
        assert_eq!(coords.len(), alive.len());
        let dims = self.dims;
        for n in 0..coords.len() {
            if !alive[n] {
                continue;
            }
            match dims.cell_of(coords[n]) {
                Some(((i0, j0, k0), (fx, fy, fz))) => {
                    let idx = VectorField::corner_indices(dims, i0, j0, k0);
                    let w = trilinear_weights(fx, fy, fz);
                    let mut ax = 0.0;
                    let mut ay = 0.0;
                    let mut az = 0.0;
                    // Component-separated gathers over flat f32 slices.
                    for c in 0..8 {
                        ax += self.x[idx[c]] * w[c];
                    }
                    for c in 0..8 {
                        ay += self.y[idx[c]] * w[c];
                    }
                    for c in 0..8 {
                        az += self.z[idx[c]] * w[c];
                    }
                    out[n] = Vec3::new(ax, ay, az);
                }
                None => alive[n] = false,
            }
        }
    }
}

impl FieldSample for VectorFieldSoA {
    #[inline]
    fn dims(&self) -> Dims {
        self.dims
    }

    #[inline]
    fn sample(&self, p: Vec3) -> Option<Vec3> {
        let ((i0, j0, k0), (fx, fy, fz)) = self.dims.cell_of(p)?;
        let idx = VectorField::corner_indices(self.dims, i0, j0, k0);
        let w = trilinear_weights(fx, fy, fz);
        let mut ax = 0.0;
        let mut ay = 0.0;
        let mut az = 0.0;
        for c in 0..8 {
            ax += self.x[idx[c]] * w[c];
            ay += self.y[idx[c]] * w[c];
            az += self.z[idx[c]] * w[c];
        }
        Some(Vec3::new(ax, ay, az))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn linear_field(dims: Dims) -> VectorField {
        // v = (2i + 3j + 4k, i - j, k) — trilinear interpolation must
        // reproduce any (tri)linear function exactly.
        VectorField::from_fn(dims, |i, j, k| {
            Vec3::new(
                2.0 * i as f32 + 3.0 * j as f32 + 4.0 * k as f32,
                i as f32 - j as f32,
                k as f32,
            )
        })
    }

    fn expected_linear(p: Vec3) -> Vec3 {
        Vec3::new(2.0 * p.x + 3.0 * p.y + 4.0 * p.z, p.x - p.y, p.z)
    }

    #[test]
    fn weights_sum_to_one() {
        let w = trilinear_weights(0.3, 0.7, 0.1);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weights_at_corners_are_indicators() {
        let w000 = trilinear_weights(0.0, 0.0, 0.0);
        assert_eq!(w000[0], 1.0);
        assert_eq!(w000[1..].iter().sum::<f32>(), 0.0);
        let w111 = trilinear_weights(1.0, 1.0, 1.0);
        assert_eq!(w111[7], 1.0);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = VectorField::new(Dims::new(2, 2, 2), vec![Vec3::ZERO; 7]);
        assert!(matches!(
            err,
            Err(FieldError::LengthMismatch {
                expected: 8,
                actual: 7
            })
        ));
    }

    #[test]
    fn sample_reproduces_node_values() {
        let f = linear_field(Dims::new(4, 3, 3));
        for (i, j, k) in f.dims().iter_nodes() {
            let p = Vec3::new(i as f32, j as f32, k as f32);
            let s = f.sample(p).unwrap();
            assert!(s.distance(f.at(i, j, k)) < 1e-5, "node ({i},{j},{k})");
        }
    }

    #[test]
    fn sample_exact_on_linear_field() {
        let f = linear_field(Dims::new(5, 5, 5));
        for p in [
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(3.99, 0.01, 2.5),
            Vec3::new(1.25, 3.75, 0.5),
        ] {
            let s = f.sample(p).unwrap();
            assert!(s.distance(expected_linear(p)) < 1e-4, "at {p:?}");
        }
    }

    #[test]
    fn sample_outside_is_none() {
        let f = linear_field(Dims::new(3, 3, 3));
        assert!(f.sample(Vec3::splat(2.01)).is_none());
        assert!(f.sample(Vec3::new(-0.01, 1.0, 1.0)).is_none());
    }

    #[test]
    fn soa_matches_aos_samples() {
        let f = linear_field(Dims::new(6, 4, 5));
        let soa = f.to_soa();
        for p in [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(4.9, 2.9, 3.9),
            Vec3::new(2.5, 1.5, 2.0),
        ] {
            let a = f.sample(p).unwrap();
            let b = soa.sample(p).unwrap();
            assert!(a.distance(b) < 1e-5);
        }
    }

    #[test]
    fn soa_aos_roundtrip() {
        let f = linear_field(Dims::new(3, 4, 2));
        assert_eq!(f.to_soa().to_aos(), f);
    }

    #[test]
    fn batch_sampling_matches_scalar() {
        let f = linear_field(Dims::new(6, 6, 6));
        let soa = f.to_soa();
        let coords = vec![
            Vec3::new(0.5, 1.5, 2.5),
            Vec3::new(10.0, 0.0, 0.0), // outside
            Vec3::new(4.0, 4.0, 4.0),
        ];
        let mut out = vec![Vec3::ZERO; coords.len()];
        let mut alive = vec![true; coords.len()];
        soa.sample_batch(&coords, &mut out, &mut alive);
        assert!(alive[0] && !alive[1] && alive[2]);
        assert!(out[0].distance(f.sample(coords[0]).unwrap()) < 1e-5);
        assert!(out[2].distance(f.sample(coords[2]).unwrap()) < 1e-5);
    }

    #[test]
    fn batch_skips_dead_particles() {
        let f = linear_field(Dims::new(4, 4, 4));
        let soa = f.to_soa();
        let coords = vec![Vec3::splat(1.0)];
        let mut out = vec![Vec3::splat(-99.0)];
        let mut alive = vec![false];
        soa.sample_batch(&coords, &mut out, &mut alive);
        // Dead on entry: untouched.
        assert_eq!(out[0], Vec3::splat(-99.0));
        assert!(!alive[0]);
    }

    #[test]
    fn max_magnitude() {
        let mut f = VectorField::zeros(Dims::new(2, 2, 2));
        *f.at_mut(1, 1, 1) = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(f.max_magnitude(), 5.0);
    }

    #[test]
    fn from_fn_ordering() {
        let f = VectorField::from_fn(Dims::new(2, 2, 2), |i, j, k| {
            Vec3::new(i as f32, j as f32, k as f32)
        });
        assert_eq!(f.as_slice()[1], Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(f.as_slice()[2], Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(f.as_slice()[4], Vec3::new(0.0, 0.0, 1.0));
    }

    proptest! {
        #[test]
        fn prop_trilinear_exact_on_linear_fields(
            x in 0.0f32..4.0, y in 0.0f32..4.0, z in 0.0f32..4.0,
            a in -2.0f32..2.0, b in -2.0f32..2.0, c in -2.0f32..2.0,
        ) {
            let dims = Dims::new(5, 5, 5);
            let f = VectorField::from_fn(dims, |i, j, k| {
                Vec3::splat(a * i as f32 + b * j as f32 + c * k as f32)
            });
            let p = Vec3::new(x, y, z);
            let s = f.sample(p).unwrap();
            let expect = a * x + b * y + c * z;
            prop_assert!((s.x - expect).abs() < 1e-3);
        }

        #[test]
        fn prop_sample_within_data_range(x in 0.0f32..3.0, y in 0.0f32..3.0, z in 0.0f32..3.0, seed in 0u64..1000) {
            // Interpolation is a convex combination: results stay inside
            // the per-component min/max of the data.
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let dims = Dims::new(4, 4, 4);
            let f = VectorField::from_fn(dims, |_, _, _| {
                Vec3::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
            });
            let s = f.sample(Vec3::new(x, y, z)).unwrap();
            prop_assert!(s.x >= -1.0 && s.x <= 1.0);
            prop_assert!(s.y >= -1.0 && s.y <= 1.0);
            prop_assert!(s.z >= -1.0 && s.z <= 1.0);
        }

        #[test]
        fn prop_soa_aos_agree(x in 0.0f32..4.0, y in 0.0f32..4.0, z in 0.0f32..4.0) {
            let f = linear_field(Dims::new(5, 5, 5));
            let soa = f.to_soa();
            let p = Vec3::new(x, y, z);
            let a = f.sample(p).unwrap();
            let b = soa.sample(p).unwrap();
            prop_assert!(a.distance(b) < 1e-4);
        }
    }
}
