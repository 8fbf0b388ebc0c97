//! Time-blended field pairs — the sampling side of unsteady playback.
//!
//! §2.1's streaklines advance "using the data in the current time step",
//! but playback time is *fractional*: between stored timesteps the field
//! the smoke should feel is the linear blend of the two neighbours. The
//! scalar way to get it is two full trilinear samples plus a lerp — which
//! pays the cell location and the eight corner weights twice. The pair
//! samplers here fix the cost side:
//!
//! * [`BlendedPair`] — the scalar reference: any two [`FieldSample`]s and
//!   a blend factor, sampled as `a.lerp(b, alpha)`. This is the exact
//!   arithmetic every fused kernel must reproduce bit for bit.
//! * [`BlendedPairSoA`] — two [`VectorField`] timesteps interleaved
//!   node-by-node into 32-byte [`PairNode`]s and sampled by the *fused*
//!   batch kernel [`BlendedPairSoA::sample_batch_blended`]: cell base
//!   index and the 8 trilinear weights are computed once per particle
//!   and reused for all six blend inputs (both timesteps' x/y/z), which
//!   one aligned 256-bit load per corner fetches together. On AVX2
//!   hosts the whole kernel — bounds test, cell truncation, weight
//!   tree, corner accumulation, lerp — runs as packed lane ops that are
//!   IEEE-identical to their scalar forms (the §5.3 "vectorize within a
//!   group" shape: the six independent accumulation chains are the
//!   lanes, the corner loop order is untouched). Elsewhere a portable
//!   scalar kernel runs the same recurrence. Liveness is an explicit
//!   mask, not `Option`.
//!
//! Bit-exactness contract: for every in-domain coordinate the fused
//! kernel writes exactly the bits of
//! `f0.sample(p).lerp(f1.sample(p), alpha)` — each component is
//! accumulated corner-by-corner in the same order as the scalar sampler
//! and blended with the same `a + (b - a) * alpha` formula. Tests below
//! (and the streakline equality proptest in `tracer`) hold this line.

use crate::field::{trilinear_weights, FieldSample, VectorField};
use crate::{Dims, FieldError, Result};
use vecmath::Vec3;

/// Two samplable fields blended at factor `alpha` (0 = `f0`, 1 = `f1`).
/// The scalar reference for every fused unsteady kernel; also what the
/// pathline integrator uses to cross timestep boundaries.
#[derive(Debug, Clone, Copy)]
pub struct BlendedPair<'a, F> {
    pub f0: &'a F,
    pub f1: &'a F,
    pub alpha: f32,
}

impl<'a, F: FieldSample> BlendedPair<'a, F> {
    pub fn new(f0: &'a F, f1: &'a F, alpha: f32) -> BlendedPair<'a, F> {
        BlendedPair { f0, f1, alpha }
    }
}

impl<F: FieldSample> FieldSample for BlendedPair<'_, F> {
    fn dims(&self) -> Dims {
        self.f0.dims()
    }

    #[inline]
    fn sample(&self, p: Vec3) -> Option<Vec3> {
        // No alpha == 0 shortcut: the fused kernels always run the full
        // lerp, and `a + (b - a) * 0.0` is not bit-identical to `a` in
        // every corner of IEEE 754 (e.g. `a = -0.0`). One formula, both
        // paths.
        let a = self.f0.sample(p)?;
        let b = self.f1.sample(p)?;
        Some(a.lerp(b, self.alpha))
    }
}

/// One grid node of a [`BlendedPairSoA`]: all six blend inputs —
/// `[x0, x1, y0, y1, z0, z1]` for the two timesteps — plus two zero pad
/// lanes, packed and 32-byte aligned so a single 256-bit register load
/// fetches everything a corner contributes to the fused kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
struct PairNode([f32; 8]);

/// Two timesteps and a blend factor, with the fused batch kernel.
///
/// Construction *interleaves* the two timesteps per node — each
/// [`PairNode`] packs `[f0.x, f1.x, f0.y, f1.y, f0.z, f1.z, 0, 0]` — so
/// one corner gather is a single aligned 32-byte load that never splits
/// a cache line and carries both endpoints of the time blend for all
/// three components. That costs 32 bytes/node instead of the 24 the
/// raw components need, bought back many times over by the kernel's
/// load count (8 loads per particle instead of 48). Building the
/// interleave costs one linear sweep over the field, amortized across
/// every particle of every advance that samples the same timestep
/// interval (the engine caches the pair per `(t0, t1)` and only
/// re-blends `alpha`).
#[derive(Debug, Clone, PartialEq)]
pub struct BlendedPairSoA {
    dims: Dims,
    /// Same i-fastest node order as the source fields.
    nodes: Vec<PairNode>,
    alpha: f32,
}

fn interleave(f0: &VectorField, f1: &VectorField) -> Vec<PairNode> {
    f0.as_slice()
        .iter()
        .zip(f1.as_slice())
        .map(|(a, b)| PairNode([a.x, b.x, a.y, b.y, a.z, b.z, 0.0, 0.0]))
        .collect()
}

impl BlendedPairSoA {
    /// Pair two timesteps; their grids must agree.
    pub fn new(f0: &VectorField, f1: &VectorField, alpha: f32) -> Result<Self> {
        if f0.dims() != f1.dims() {
            return Err(FieldError::LengthMismatch {
                expected: f0.dims().point_count(),
                actual: f1.dims().point_count(),
            });
        }
        Ok(BlendedPairSoA {
            dims: f0.dims(),
            nodes: interleave(f0, f1),
            alpha,
        })
    }

    /// A steady field viewed as a (degenerate) pair: both endpoints are
    /// the same timestep, alpha 0.
    pub fn steady(f: &VectorField) -> Self {
        BlendedPairSoA {
            dims: f.dims(),
            nodes: interleave(f, f),
            alpha: 0.0,
        }
    }

    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Re-blend the same timestep interval at a new fraction — the
    /// per-tick operation while playback time moves between the same
    /// two stored timesteps.
    pub fn set_alpha(&mut self, alpha: f32) {
        self.alpha = alpha;
    }

    /// Fused batched sampling of the blended field over SoA coordinate
    /// slices: for each live particle `n`, write the blended velocity
    /// components into `ox/oy/oz[n]`; clear `alive[n]` for coordinates
    /// outside the grid (their outputs are untouched). Cell location and
    /// trilinear weights are computed once and reused for all six
    /// component gathers.
    ///
    /// On x86-64 with AVX (checked once at runtime) the corner
    /// accumulation runs six scalar chains packed into one 256-bit
    /// register; elsewhere a portable scalar loop runs the identical
    /// recurrence. Both produce the same bits: per accumulator lane the
    /// operation sequence is exactly the scalar `acc += value * w[c]`
    /// chain in ascending corner order.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn sample_batch_blended(
        &self,
        px: &[f32],
        py: &[f32],
        pz: &[f32],
        ox: &mut [f32],
        oy: &mut [f32],
        oz: &mut [f32],
        alive: &mut [bool],
    ) {
        let n = px.len();
        assert_eq!(n, py.len());
        assert_eq!(n, pz.len());
        assert_eq!(n, ox.len());
        assert_eq!(n, oy.len());
        assert_eq!(n, oz.len());
        assert_eq!(n, alive.len());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 requirement was just verified at
            // runtime; the detection result is cached, so this costs
            // one atomic load per call.
            unsafe { self.batch_kernel_avx2(px, py, pz, ox, oy, oz, alive) };
            return;
        }
        self.batch_kernel_portable(px, py, pz, ox, oy, oz, alive);
    }

    /// AVX2 body of [`BlendedPairSoA::sample_batch_blended`]: one
    /// aligned 256-bit load per corner, six accumulation chains in one
    /// register, and vectorized cell location / weight construction.
    ///
    /// Bit-exactness: every lane operation is the IEEE-identical packed
    /// form of the scalar op it replaces, applied in the same order —
    ///
    /// * bounds test: `cmpps` per axis reproduces
    ///   `Dims::contains_grid_coord` (NaN compares false, so NaN
    ///   coordinates are rejected exactly like the scalar path);
    /// * cell index: `cvttps2dq` truncates toward zero exactly like
    ///   `p.x as usize` for the in-range values that survive the bounds
    ///   test, `pminsd` is integer `min`, and `cvtdq2ps` is exact for
    ///   these small integers, so the fractions `p - i0 as f32` match
    ///   bit for bit;
    /// * weights: each lane computes `(X * Y) * Z` — the same multiply
    ///   tree as `trilinear_weights`;
    /// * accumulation: lane L runs the scalar recurrence
    ///   `acc[L] += node[L] * w[c]` for `c = 0..8` in ascending corner
    ///   order;
    /// * blend: `a + (b - a) * alpha` per lane, the one formula both
    ///   paths use everywhere.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the public entry point verifies this
    /// with `is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn batch_kernel_avx2(
        &self,
        px: &[f32],
        py: &[f32],
        pz: &[f32],
        ox: &mut [f32],
        oy: &mut [f32],
        oz: &mut [f32],
        alive: &mut [bool],
    ) {
        use core::arch::x86_64::{
            _mm256_add_ps, _mm256_mul_ps, _mm256_permutevar8x32_ps, _mm256_set1_epi32,
            _mm256_set1_ps, _mm256_set_m128, _mm256_setr_epi32, _mm256_setzero_ps,
            _mm256_storeu_ps, _mm256_sub_ps, _mm_and_ps, _mm_cmpge_ps, _mm_cmple_ps,
            _mm_cvtepi32_ps, _mm_cvtsi128_si32, _mm_cvttps_epi32, _mm_extract_epi32, _mm_min_epi32,
            _mm_movemask_ps, _mm_mul_ps, _mm_set1_ps, _mm_set_epi32, _mm_set_ps, _mm_setzero_ps,
            _mm_shuffle_ps, _mm_sub_ps, _mm_unpacklo_ps,
        };
        let dims = self.dims;
        if !dims.supports_interpolation() {
            // `cell_of` would reject every coordinate; match it.
            for a in alive.iter_mut() {
                *a = false;
            }
            return;
        }
        let ni = dims.ni as usize;
        let nij = ni * dims.nj as usize;
        let offs = [0, 1, ni, ni + 1, nij, nij + 1, nij + ni, nij + ni + 1];
        // Loop-invariant vectors. Lane 3 of the coordinate vector is a
        // harmless 0 (in range, cell 0, fraction 0).
        // SAFETY: AVX2 presence is the function's safety contract; the
        // only pointer ops in this block are storeu writes of 32 bytes
        // into same-sized locals and 32-byte loads of one
        // 32-byte-aligned `PairNode` each, all in bounds.
        unsafe {
            let zero = _mm_setzero_ps();
            let hi = _mm_set_ps(
                f32::INFINITY,
                (dims.nk - 1) as f32,
                (dims.nj - 1) as f32,
                (dims.ni - 1) as f32,
            );
            let max_cell = _mm_set_epi32(
                i32::MAX,
                // lint:allow(panic-path): grid extents are node counts, far below i32::MAX.
                dims.nk as i32 - 2,
                // lint:allow(panic-path): see above — small node count.
                dims.nj as i32 - 2,
                // lint:allow(panic-path): see above — small node count.
                dims.ni as i32 - 2,
            );
            let ones = _mm_set1_ps(1.0);
            let alpha8 = _mm256_set1_ps(self.alpha);
            let lane_a = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
            let lane_b = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
            for i in 0..px.len() {
                if !alive[i] {
                    continue;
                }
                let p = _mm_set_ps(0.0, pz[i], py[i], px[i]);
                // contains_grid_coord: 0 <= p <= n-1 on every axis.
                let ok = _mm_movemask_ps(_mm_and_ps(_mm_cmpge_ps(p, zero), _mm_cmple_ps(p, hi)));
                if ok != 0xF {
                    alive[i] = false;
                    continue;
                }
                // Base cell (clamped to the last full cell) + fractions.
                let cell = _mm_min_epi32(_mm_cvttps_epi32(p), max_cell);
                let f = _mm_sub_ps(p, _mm_cvtepi32_ps(cell));
                let i0 = _mm_cvtsi128_si32(cell) as usize;
                let j0 = _mm_extract_epi32::<1>(cell) as usize;
                let k0 = _mm_extract_epi32::<2>(cell) as usize;
                let base = i0 + ni * j0 + nij * k0;
                let window = &self.nodes[base..base + nij + ni + 2];
                // Trilinear weights, the trilinear_weights() tree:
                // xy4 = [gx*gy, fx*gy, gx*fy, fx*fy], then * gz / * fz.
                let g = _mm_sub_ps(ones, f);
                let gf = _mm_unpacklo_ps(g, f); // [gx, fx, gy, fy]
                let x4 = _mm_shuffle_ps::<0b01_00_01_00>(gf, gf); // [gx,fx,gx,fx]
                let y4 = _mm_shuffle_ps::<0b01_01_01_01>(g, f); // [gy,gy,fy,fy]
                let xy4 = _mm_mul_ps(x4, y4);
                let gz4 = _mm_shuffle_ps::<0b10_10_10_10>(g, g);
                let fz4 = _mm_shuffle_ps::<0b10_10_10_10>(f, f);
                let w = _mm256_set_m128(_mm_mul_ps(xy4, fz4), _mm_mul_ps(xy4, gz4));
                // Corner-order accumulation; pad lanes stay zero.
                let mut acc = _mm256_setzero_ps();
                for c in 0..8 {
                    let node = &window[offs[c]];
                    let v = core::arch::x86_64::_mm256_loadu_ps(node.0.as_ptr());
                    // lint:allow(panic-path): c is a corner index in 0..8.
                    let wc = _mm256_permutevar8x32_ps(w, _mm256_set1_epi32(c as i32));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(v, wc));
                }
                // acc = [ax, bx, ay, by, az, bz, 0, 0] → blended output.
                let a = _mm256_permutevar8x32_ps(acc, lane_a);
                let b = _mm256_permutevar8x32_ps(acc, lane_b);
                let out = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), alpha8));
                let mut r = [0.0f32; 8];
                _mm256_storeu_ps(r.as_mut_ptr(), out);
                ox[i] = r[0];
                oy[i] = r[1];
                oz[i] = r[2];
            }
        }
    }

    /// Portable body of [`BlendedPairSoA::sample_batch_blended`] — the
    /// reference recurrence the AVX lanes reproduce.
    #[allow(clippy::too_many_arguments)]
    fn batch_kernel_portable(
        &self,
        px: &[f32],
        py: &[f32],
        pz: &[f32],
        ox: &mut [f32],
        oy: &mut [f32],
        oz: &mut [f32],
        alive: &mut [bool],
    ) {
        let dims = self.dims;
        let ni = dims.ni as usize;
        let nij = ni * dims.nj as usize;
        let alpha = self.alpha;
        for i in 0..px.len() {
            if !alive[i] {
                continue;
            }
            let p = Vec3::new(px[i], py[i], pz[i]);
            let Some(((i0, j0, k0), (fx, fy, fz))) = dims.cell_of(p) else {
                alive[i] = false;
                continue;
            };
            let base = i0 + ni * j0 + nij * k0;
            let offs = [0, 1, ni, ni + 1, nij, nij + 1, nij + ni, nij + ni + 1];
            let window = &self.nodes[base..base + nij + ni + 2];
            let w = trilinear_weights(fx, fy, fz);
            let mut acc = [0.0f32; 6];
            for c in 0..8 {
                let node = &window[offs[c]].0;
                for l in 0..6 {
                    acc[l] += node[l] * w[c];
                }
            }
            let [ax, bx, ay, by, az, bz] = acc;
            ox[i] = ax + (bx - ax) * alpha;
            oy[i] = ay + (by - ay) * alpha;
            oz[i] = az + (bz - az) * alpha;
        }
    }
}

impl FieldSample for BlendedPairSoA {
    #[inline]
    fn dims(&self) -> Dims {
        self.dims
    }

    /// Scalar sample of the blend — the same per-corner accumulation and
    /// lerp as the batch kernel, one particle at a time. Bit-identical
    /// to sampling `f0` and `f1` separately and calling [`Vec3::lerp`].
    #[inline]
    fn sample(&self, p: Vec3) -> Option<Vec3> {
        let ((i0, j0, k0), (fx, fy, fz)) = self.dims.cell_of(p)?;
        let idx = VectorField::corner_indices(self.dims, i0, j0, k0);
        let w = trilinear_weights(fx, fy, fz);
        let mut a = Vec3::ZERO;
        let mut b = Vec3::ZERO;
        for c in 0..8 {
            let [xa, xb, ya, yb, za, zb, _, _] = self.nodes[idx[c]].0;
            a += Vec3::new(xa, ya, za) * w[c];
            b += Vec3::new(xb, yb, zb) * w[c];
        }
        Some(a.lerp(b, self.alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_field(dims: Dims, seed: u64) -> VectorField {
        let mut rng = StdRng::seed_from_u64(seed);
        VectorField::from_fn(dims, |_, _, _| {
            Vec3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            )
        })
    }

    fn bits(v: Vec3) -> [u32; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    #[test]
    fn dims_mismatch_rejected() {
        let a = VectorField::zeros(Dims::new(4, 4, 4));
        let b = VectorField::zeros(Dims::new(5, 4, 4));
        assert!(BlendedPairSoA::new(&a, &b, 0.5).is_err());
    }

    #[test]
    fn fused_kernel_bit_identical_to_two_samples_plus_lerp() {
        let dims = Dims::new(7, 6, 5);
        let f0 = random_field(dims, 11);
        let f1 = random_field(dims, 22);
        for &alpha in &[0.0f32, 0.25, 0.5, 0.99, 1.0] {
            let pair = BlendedPairSoA::new(&f0, &f1, alpha).unwrap();
            let mut rng = StdRng::seed_from_u64(alpha.to_bits() as u64);
            let pts: Vec<Vec3> = (0..200)
                .map(|_| {
                    Vec3::new(
                        rng.random_range(0.0..6.0),
                        rng.random_range(0.0..5.0),
                        rng.random_range(0.0..4.0),
                    )
                })
                .collect();
            let px: Vec<f32> = pts.iter().map(|p| p.x).collect();
            let py: Vec<f32> = pts.iter().map(|p| p.y).collect();
            let pz: Vec<f32> = pts.iter().map(|p| p.z).collect();
            let mut ox = vec![0.0f32; pts.len()];
            let mut oy = vec![0.0f32; pts.len()];
            let mut oz = vec![0.0f32; pts.len()];
            let mut alive = vec![true; pts.len()];
            pair.sample_batch_blended(&px, &py, &pz, &mut ox, &mut oy, &mut oz, &mut alive);
            for (i, &p) in pts.iter().enumerate() {
                assert!(alive[i], "interior point {p:?} must stay alive");
                let a = f0.sample(p).unwrap();
                let b = f1.sample(p).unwrap();
                let expect = a.lerp(b, alpha);
                let got = Vec3::new(ox[i], oy[i], oz[i]);
                assert_eq!(bits(got), bits(expect), "alpha {alpha} point {p:?}");
                // And the pair's own scalar sample agrees bit-for-bit.
                assert_eq!(bits(pair.sample(p).unwrap()), bits(expect));
            }
        }
    }

    #[test]
    fn fused_kernel_matches_aos_blend_reference() {
        // The scalar AoS pair (what the retained streakline reference
        // path samples) and the fused SoA kernel agree bit for bit.
        let dims = Dims::new(6, 6, 6);
        let f0 = random_field(dims, 5);
        let f1 = random_field(dims, 6);
        let aos = BlendedPair::new(&f0, &f1, 0.375);
        let soa = BlendedPairSoA::new(&f0, &f1, 0.375).unwrap();
        for p in [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(4.9, 2.5, 3.1),
            Vec3::new(2.5, 2.5, 2.5),
            Vec3::new(5.0, 5.0, 5.0),
        ] {
            assert_eq!(
                bits(aos.sample(p).unwrap()),
                bits(soa.sample(p).unwrap()),
                "at {p:?}"
            );
        }
    }

    #[test]
    fn out_of_domain_clears_alive_and_leaves_output() {
        let dims = Dims::new(4, 4, 4);
        let f = random_field(dims, 9);
        let pair = BlendedPairSoA::steady(&f);
        let px = [1.0f32, 9.0, 2.0];
        let py = [1.0f32, 1.0, 2.0];
        let pz = [1.0f32, 1.0, 2.0];
        let mut ox = [-7.0f32; 3];
        let mut oy = [-7.0f32; 3];
        let mut oz = [-7.0f32; 3];
        let mut alive = [true, true, false];
        pair.sample_batch_blended(&px, &py, &pz, &mut ox, &mut oy, &mut oz, &mut alive);
        assert!(alive[0]);
        assert!(!alive[1], "outside the grid: killed");
        assert_eq!(ox[1], -7.0, "dead output untouched");
        assert!(!alive[2], "dead on entry stays dead");
        assert_eq!(ox[2], -7.0);
    }

    #[test]
    fn steady_pair_matches_single_field() {
        let dims = Dims::new(5, 5, 5);
        let f = random_field(dims, 3);
        let pair = BlendedPairSoA::steady(&f);
        let p = Vec3::new(1.3, 2.7, 0.4);
        // lerp(a, a, 0) may canonicalize -0.0 to +0.0; values here are
        // random nonzero so bit equality is exact.
        assert_eq!(bits(pair.sample(p).unwrap()), bits(f.sample(p).unwrap()));
    }

    #[test]
    fn blended_pair_generic_over_aos() {
        let dims = Dims::new(6, 6, 6);
        let f0 = VectorField::from_fn(dims, |_, _, _| Vec3::X);
        let f1 = VectorField::from_fn(dims, |_, _, _| Vec3::Y);
        let pair = BlendedPair::new(&f0, &f1, 0.5);
        let v = pair.sample(Vec3::splat(2.0)).unwrap();
        assert!(v.distance(Vec3::new(0.5, 0.5, 0.0)) < 1e-6);
        assert_eq!(pair.dims(), dims);
    }
}
