//! Batch streamline kernels — the §5.3 optimization study.
//!
//! The paper compares two ways of computing 100 streamlines on the Convex:
//!
//! * **scalar, parallelized across streamlines** — "optimized scalar C
//!   techniques such as pointer manipulation and striding … successfully
//!   parallelizes across the four processors … by distributing the
//!   streamlines among the processors" (0.24 s);
//! * **vectorized across streamlines** — "Each component of each point in
//!   the streamline is handled in parallel … the only possibility, as the
//!   computation of an individual streamline is an iterative process"
//!   (0.19 s);
//!
//! and proposes the hybrid — "parallelize across groups of streamlines and
//! vectorize across streamlines in a group" — as future work. All three
//! are implemented here:
//!
//! * [`trace_batch_scalar`] — one streamline at a time over the AoS field,
//! * [`trace_batch_parallel`] — scalar kernel distributed over threads
//!   with rayon (streamline granularity),
//! * [`trace_batch_vector`] — all streamlines advanced in lockstep over
//!   the SoA field, with component-separated inner loops (the analog of
//!   the Convex's 128-entry vector registers),
//! * [`trace_batch_vector_parallel`] — the proposed hybrid: rayon across
//!   groups of [`VECTOR_GROUP`] streamlines, lockstep within each group.
//!
//! The server runs [`trace_batch_physical`]: [`streamline_physical`]
//! (two field accesses per RK2 step, mapped in the same sweep) per thread.

use crate::domain::Domain;
use crate::streamline::{streamline, streamline_physical, TraceConfig};
use crate::Polyline;
use flowfield::{CurvilinearGrid, VectorField, VectorFieldSoA};
use rayon::prelude::*;
use vecmath::Vec3;

/// Streamlines per vector group in the hybrid kernel — the Convex C3240's
/// vector registers held 128 entries (§5.1).
pub const VECTOR_GROUP: usize = 128;

/// Scalar kernel: trace each seed independently (single thread).
pub fn trace_batch_scalar(
    field: &VectorField,
    domain: &Domain,
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> Vec<Polyline> {
    seeds
        .iter()
        .map(|&s| streamline(field, domain, s, cfg))
        .collect()
}

/// Scalar kernel distributed across threads, streamline granularity —
/// the paper's "parallelize across streamlines".
pub fn trace_batch_parallel(
    field: &VectorField,
    domain: &Domain,
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> Vec<Polyline> {
    seeds
        .par_iter()
        .map(|&s| streamline(field, domain, s, cfg))
        .collect()
}

/// [`streamline_physical`] across threads, in seed order; seeds outside
/// the domain yield no path.
pub fn trace_batch_physical(
    field: &VectorField,
    grid: &CurvilinearGrid,
    domain: &Domain,
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> Vec<Polyline> {
    seeds
        .par_iter()
        .filter_map(|&s| streamline_physical(field, grid, domain, s, cfg))
        .collect()
}

/// Lockstep RK2 advance of a set of particle fronts. Returns when all are
/// dead or `max_points` steps have been taken. Pushes each surviving step
/// onto the per-seed polylines.
fn lockstep_rk2(
    field: &VectorFieldSoA,
    domain: &Domain,
    front: &mut [Vec3],
    alive: &mut [bool],
    lines: &mut [Polyline],
    cfg: &TraceConfig,
) {
    let n = front.len();
    let mut k1 = vec![Vec3::ZERO; n];
    let mut mid = vec![Vec3::ZERO; n];
    let mut k2 = vec![Vec3::ZERO; n];
    let half_dt = cfg.dt * 0.5;
    for _ in 0..cfg.max_points {
        if !alive.iter().any(|&a| a) {
            break;
        }
        // k1 = v(front); kills out-of-domain particles.
        field.sample_batch(front, &mut k1, alive);
        // Stagnation check.
        for i in 0..n {
            if alive[i] && k1[i].length() < cfg.min_speed {
                alive[i] = false;
            }
        }
        // mid = canonicalize(front + k1·dt/2).
        for i in 0..n {
            if alive[i] {
                match domain.canonicalize(front[i] + k1[i] * half_dt) {
                    Some(p) => mid[i] = p,
                    None => alive[i] = false,
                }
            }
        }
        // k2 = v(mid).
        field.sample_batch(&mid, &mut k2, alive);
        // front = canonicalize(front + k2·dt); record.
        for i in 0..n {
            if alive[i] {
                match domain.canonicalize(front[i] + k2[i] * cfg.dt) {
                    Some(p) => {
                        front[i] = p;
                        lines[i].push(p);
                    }
                    None => alive[i] = false,
                }
            }
        }
    }
}

/// Vectorized kernel: advance *all* streamlines in lockstep over the SoA
/// field. RK2 only (the paper's integrator); `cfg.integrator` and
/// `cfg.both_directions` are ignored.
pub fn trace_batch_vector(
    field: &VectorFieldSoA,
    domain: &Domain,
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> Vec<Polyline> {
    let n = seeds.len();
    let mut front = Vec::with_capacity(n);
    let mut alive = Vec::with_capacity(n);
    let mut lines: Vec<Polyline> = Vec::with_capacity(n);
    for &s in seeds {
        match domain.canonicalize(s) {
            Some(p) => {
                front.push(p);
                alive.push(true);
                lines.push(vec![p]);
            }
            None => {
                front.push(Vec3::ZERO);
                alive.push(false);
                lines.push(Vec::new());
            }
        }
    }
    lockstep_rk2(field, domain, &mut front, &mut alive, &mut lines, cfg);
    lines
}

/// The hybrid kernel the paper proposes as future work: parallelize
/// across groups of streamlines (rayon), vectorize across the streamlines
/// inside each group (lockstep over SoA).
pub fn trace_batch_vector_parallel(
    field: &VectorFieldSoA,
    domain: &Domain,
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> Vec<Polyline> {
    seeds
        .par_chunks(VECTOR_GROUP)
        .flat_map_iter(|chunk| trace_batch_vector(field, domain, chunk, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::Dims;
    use flowfield::FieldSample;

    fn vortex_field() -> VectorField {
        VectorField::from_fn(Dims::new(33, 33, 5), |i, j, _| {
            let c = 16.0;
            Vec3::new(-(j as f32 - c), i as f32 - c, 0.0)
        })
    }

    fn seeds(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|s| Vec3::new(18.0 + 0.35 * s as f32, 16.0, 2.0))
            .collect()
    }

    fn cfg() -> TraceConfig {
        TraceConfig {
            dt: 0.05,
            max_points: 60,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn scalar_and_parallel_agree_exactly() {
        let f = vortex_field();
        let d = Domain::boxed(f.dims());
        let s = seeds(12);
        let a = trace_batch_scalar(&f, &d, &s, &cfg());
        let b = trace_batch_parallel(&f, &d, &s, &cfg());
        assert_eq!(a, b); // identical arithmetic, identical results
    }

    #[test]
    fn vector_kernel_matches_scalar_paths() {
        let f = vortex_field();
        let soa = f.to_soa();
        let d = Domain::boxed(f.dims());
        let s = seeds(8);
        let a = trace_batch_scalar(&f, &d, &s, &cfg());
        let b = trace_batch_vector(&soa, &d, &s, &cfg());
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.len(), lb.len(), "path lengths differ");
            for (pa, pb) in la.iter().zip(lb) {
                assert!(pa.distance(*pb) < 1e-4, "{pa:?} vs {pb:?}");
            }
        }
    }

    #[test]
    fn hybrid_matches_vector() {
        let f = vortex_field();
        let soa = f.to_soa();
        let d = Domain::boxed(f.dims());
        let s = seeds(20);
        let a = trace_batch_vector(&soa, &d, &s, &cfg());
        let b = trace_batch_vector_parallel(&soa, &d, &s, &cfg());
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.iter().zip(&b) {
            for (pa, pb) in la.iter().zip(lb) {
                assert!(pa.distance(*pb) < 1e-5);
            }
        }
    }

    #[test]
    fn dead_seed_yields_empty_line_in_vector_kernel() {
        let f = vortex_field();
        let soa = f.to_soa();
        let d = Domain::boxed(f.dims());
        let s = vec![Vec3::splat(-5.0), Vec3::new(18.0, 16.0, 2.0)];
        let lines = trace_batch_vector(&soa, &d, &s, &cfg());
        assert!(lines[0].is_empty());
        assert!(lines[1].len() > 10);
    }

    #[test]
    fn lockstep_survivors_continue_after_others_die() {
        // One seed near the boundary dies early; the other keeps going.
        let f = VectorField::from_fn(Dims::new(16, 8, 8), |_, _, _| Vec3::X);
        let soa = f.to_soa();
        let d = Domain::boxed(f.dims());
        let s = vec![Vec3::new(13.0, 4.0, 4.0), Vec3::new(1.0, 4.0, 4.0)];
        let c = TraceConfig {
            dt: 1.0,
            max_points: 10,
            ..TraceConfig::default()
        };
        let lines = trace_batch_vector(&soa, &d, &s, &c);
        assert!(lines[0].len() < lines[1].len());
        assert_eq!(lines[1].len(), 11);
    }

    #[test]
    fn empty_seed_list_is_fine() {
        let f = vortex_field();
        let d = Domain::boxed(f.dims());
        assert!(trace_batch_scalar(&f, &d, &[], &cfg()).is_empty());
        assert!(trace_batch_vector(&f.to_soa(), &d, &[], &cfg()).is_empty());
        assert!(trace_batch_parallel(&f, &d, &[], &cfg()).is_empty());
    }

    #[test]
    fn group_boundary_does_not_change_results() {
        // More seeds than one vector group: results must equal ungrouped.
        let f = vortex_field();
        let soa = f.to_soa();
        let d = Domain::boxed(f.dims());
        let many: Vec<Vec3> = (0..VECTOR_GROUP + 7)
            .map(|s| Vec3::new(17.0 + 0.05 * (s % 50) as f32, 16.0, 2.0))
            .collect();
        let a = trace_batch_vector(&soa, &d, &many, &cfg());
        let b = trace_batch_vector_parallel(&soa, &d, &many, &cfg());
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.len(), lb.len());
        }
    }
}
