//! Streamlines: integral curves of the instantaneous field.
//!
//! §2.1: "Streamlines take as input the seed points and iteratively
//! integrate the particle position without incrementing the current
//! timestep. This results in an array of positions which is displayed as
//! the streamline." And crucially: "the virtual environment system must be
//! capable of computing the entire path in a single frame time" — which is
//! why the whole path is a single tight loop and why §5.3 benchmarks it.

use crate::domain::Domain;
use crate::integrate::Integrator;
use crate::Polyline;
use flowfield::{CurvilinearGrid, FieldSample, VectorField};
use vecmath::Vec3;

/// Parameters of a streamline trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Integration scheme.
    pub integrator: Integrator,
    /// Step size in grid-time units.
    pub dt: f32,
    /// Maximum integration steps per direction (the paper's benchmark
    /// uses 200 per streamline). A path carries the seed too, so up to
    /// `max_points + 1` points (`2 * max_points + 1` both ways).
    pub max_points: usize,
    /// Terminate when the local speed (grid units / time) drops below
    /// this — the particle has hit a stagnation region and further steps
    /// add no visible path.
    pub min_speed: f32,
    /// Also integrate backwards from the seed, producing a path through
    /// (not just downstream of) the seed.
    pub both_directions: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            integrator: Integrator::Rk2,
            dt: 0.1,
            max_points: 200,
            min_speed: 1.0e-6,
            both_directions: false,
        }
    }
}

impl TraceConfig {
    /// The paper's benchmark configuration: 200-point streamlines, RK2.
    pub fn paper_benchmark() -> TraceConfig {
        TraceConfig {
            max_points: 200,
            ..TraceConfig::default()
        }
    }
}

/// Trace one direction from `seed`; appends points after the seed.
fn trace_one_direction<F: FieldSample>(
    field: &F,
    domain: &Domain,
    seed: Vec3,
    cfg: &TraceConfig,
    dt: f32,
    out: &mut Polyline,
) {
    let mut p = match domain.canonicalize(seed) {
        Some(p) => p,
        None => return,
    };
    while out.len() < cfg.max_points {
        // Stagnation check on the local velocity.
        match field.sample(p) {
            Some(v) if v.length() >= cfg.min_speed => {}
            _ => break,
        }
        match cfg.integrator.step(field, domain, p, dt) {
            Some(next) => {
                p = next;
                out.push(p);
            }
            None => break,
        }
    }
}

/// Compute a streamline from `seed` through the instantaneous `field`.
/// The seed itself is always the first point of the result (or the middle
/// point when tracing both directions); an out-of-domain seed yields an
/// empty polyline.
pub fn streamline<F: FieldSample>(
    field: &F,
    domain: &Domain,
    seed: Vec3,
    cfg: &TraceConfig,
) -> Polyline {
    let Some(seed) = domain.canonicalize(seed) else {
        return Vec::new();
    };
    let mut forward = Vec::with_capacity(cfg.max_points);
    trace_one_direction(field, domain, seed, cfg, cfg.dt, &mut forward);
    if !cfg.both_directions {
        let mut path = Vec::with_capacity(forward.len() + 1);
        path.push(seed);
        path.extend(forward);
        return path;
    }
    let mut backward = Vec::with_capacity(cfg.max_points);
    trace_one_direction(field, domain, seed, cfg, -cfg.dt, &mut backward);
    // Stitch: reversed backward, seed, forward.
    let mut path = Vec::with_capacity(backward.len() + forward.len() + 1);
    path.extend(backward.iter().rev().copied());
    path.push(seed);
    path.extend(forward);
    path
}

/// The production streamline kernel: bit for bit
/// `grid.path_to_physical(&streamline(field, domain, seed, cfg))` in one
/// sweep, or `None` where [`streamline`] is empty. Two trilinear lookups
/// per RK2 point where that composition takes four: the stagnation
/// sample at `p` is reused as `k1`, and each point is mapped from its
/// velocity sample's cell and weights ([`VectorField::sample_pair`]).
pub fn streamline_physical(
    field: &VectorField,
    grid: &CurvilinearGrid,
    domain: &Domain,
    seed: Vec3,
    cfg: &TraceConfig,
) -> Option<Polyline> {
    let seed = domain.canonicalize(seed)?;
    let steps = cfg
        .max_points
        .saturating_mul(1 + usize::from(cfg.both_directions));
    let mut path = Vec::with_capacity(steps.saturating_add(1));
    if cfg.both_directions {
        trace_mapped(field, grid, domain, seed, cfg, -cfg.dt, &mut path);
        path.reverse();
    }
    path.extend(field.sample_pair(grid.positions(), seed).map(|(_, x)| x));
    trace_mapped(field, grid, domain, seed, cfg, cfg.dt, &mut path);
    Some(path)
}

/// [`trace_one_direction`], pushing each point's physical position.
fn trace_mapped(
    field: &VectorField,
    grid: &CurvilinearGrid,
    domain: &Domain,
    seed: Vec3,
    cfg: &TraceConfig,
    dt: f32,
    out: &mut Polyline,
) {
    let sample = |p: Vec3| field.sample_pair(grid.positions(), p);
    let Some(mut p) = domain.canonicalize(seed) else {
        return;
    };
    let mut here = sample(p);
    for _ in 0..cfg.max_points {
        let Some((v, _)) = here.filter(|(v, _)| v.length() >= cfg.min_speed) else {
            break;
        };
        // `step` samples `k1` at `canonicalize(p)`, which is not `p` when
        // `p` sits exactly on a periodic seam: resample there.
        let next = match domain.canonicalize(p) {
            Some(q) if same_bits(q, p) => cfg.integrator.step_from(field, domain, p, v, dt),
            _ => cfg.integrator.step(field, domain, p, dt),
        };
        let Some(next) = next else {
            break;
        };
        p = next;
        here = sample(p);
        out.extend(here.map(|(_, x)| x));
    }
}

/// Bitwise equality: `-0.0` and `0.0` differ, a NaN equals itself.
fn same_bits(a: Vec3, b: Vec3) -> bool {
    (a.x.to_bits(), a.y.to_bits(), a.z.to_bits()) == (b.x.to_bits(), b.y.to_bits(), b.z.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::FieldSample;
    use flowfield::{Dims, VectorField};

    fn uniform_x() -> VectorField {
        VectorField::from_fn(Dims::new(16, 8, 8), |_, _, _| Vec3::X)
    }

    #[test]
    fn straight_line_in_uniform_flow() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let cfg = TraceConfig {
            dt: 0.5,
            max_points: 10,
            ..TraceConfig::default()
        };
        let path = streamline(&f, &d, Vec3::new(1.0, 4.0, 4.0), &cfg);
        assert_eq!(path.len(), 11); // seed + 10
        for (n, p) in path.iter().enumerate() {
            assert!(p.distance(Vec3::new(1.0 + 0.5 * n as f32, 4.0, 4.0)) < 1e-4);
        }
    }

    #[test]
    fn terminates_at_domain_boundary() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let cfg = TraceConfig {
            dt: 1.0,
            max_points: 100,
            ..TraceConfig::default()
        };
        let path = streamline(&f, &d, Vec3::new(12.0, 4.0, 4.0), &cfg);
        // Can take at most 3 steps (12 → 15), then leaves.
        assert!(path.len() <= 4);
        assert!(path.last().unwrap().x <= 15.0);
    }

    #[test]
    fn out_of_domain_seed_gives_empty_path() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        assert!(streamline(&f, &d, Vec3::splat(-5.0), &TraceConfig::default()).is_empty());
    }

    #[test]
    fn stagnation_terminates() {
        let f = VectorField::zeros(Dims::new(8, 8, 8));
        let d = Domain::boxed(Dims::new(8, 8, 8));
        let path = streamline(&f, &d, Vec3::splat(4.0), &TraceConfig::default());
        assert_eq!(path.len(), 1); // just the seed
    }

    #[test]
    fn both_directions_passes_through_seed() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let cfg = TraceConfig {
            dt: 0.5,
            max_points: 4,
            both_directions: true,
            ..TraceConfig::default()
        };
        let seed = Vec3::new(8.0, 4.0, 4.0);
        let path = streamline(&f, &d, seed, &cfg);
        // 4 back + seed + 4 forward.
        assert_eq!(path.len(), 9);
        assert!(path[4].distance(seed) < 1e-5);
        // Monotone in x.
        for w in path.windows(2) {
            assert!(w[1].x > w[0].x);
        }
    }

    #[test]
    fn max_points_bounds_path() {
        let f = VectorField::from_fn(Dims::new(9, 9, 3), |i, j, _| {
            let c = 4.0;
            Vec3::new(-(j as f32 - c), i as f32 - c, 0.0)
        });
        let d = Domain::boxed(f.dims());
        let cfg = TraceConfig {
            dt: 0.05,
            max_points: 200,
            ..TraceConfig::default()
        };
        // Orbiting forever, so only max_points stops it.
        let path = streamline(&f, &d, Vec3::new(6.0, 4.0, 1.0), &cfg);
        assert_eq!(path.len(), 201);
    }

    #[test]
    fn paper_benchmark_config_is_200_points() {
        assert_eq!(TraceConfig::paper_benchmark().max_points, 200);
        assert_eq!(TraceConfig::paper_benchmark().integrator, Integrator::Rk2);
    }

    #[test]
    fn streamline_follows_circles_in_vortex() {
        let f = VectorField::from_fn(Dims::new(17, 17, 3), |i, j, _| {
            let c = 8.0;
            Vec3::new(-(j as f32 - c), i as f32 - c, 0.0)
        });
        let d = Domain::boxed(f.dims());
        let cfg = TraceConfig {
            dt: 0.02,
            max_points: 300,
            ..TraceConfig::default()
        };
        let c = Vec3::new(8.0, 8.0, 1.0);
        let path = streamline(&f, &d, c + Vec3::new(4.0, 0.0, 0.0), &cfg);
        for p in &path {
            let r = (*p - c).length();
            assert!((r - 4.0).abs() < 0.05, "radius drifted to {r}");
        }
    }
}
