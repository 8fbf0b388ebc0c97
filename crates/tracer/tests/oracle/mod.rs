//! The streamline path as it stood before trace and map became one sweep:
//! `VectorField::sample`'s one-`Vec3`-per-corner loop, `Integrator::step`
//! (which samples `k1` at `p` even though the stagnation test just did),
//! `streamline` / `trace_one_direction`, and `path_to_physical`'s second
//! cell location per point. Kept verbatim (only the sampler is wrapped in
//! a local type and the integrator method became a free function) as the
//! oracle the production kernel must match bit for bit:
//! `tracer/tests/streamline_equiv.rs` and `windtunnel/tests/streamline_equiv.rs`
//! compare against it.

#![allow(dead_code)]

use flowfield::{CurvilinearGrid, Dims, FieldSample, VectorField};
use tracer::{Domain, Integrator, Polyline, TraceConfig};
use vecmath::Vec3;

/// A [`VectorField`] sampled with the old per-corner `Vec3` loop.
pub struct OracleField<'a>(pub &'a VectorField);

fn trilinear_weights(fx: f32, fy: f32, fz: f32) -> [f32; 8] {
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

fn corner_indices(dims: Dims, i0: usize, j0: usize, k0: usize) -> [usize; 8] {
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

impl FieldSample for OracleField<'_> {
    fn dims(&self) -> Dims {
        self.0.dims()
    }

    fn sample(&self, p: Vec3) -> Option<Vec3> {
        let data = self.0.as_slice();
        let ((i0, j0, k0), (fx, fy, fz)) = self.0.dims().cell_of(p)?;
        let idx = corner_indices(self.0.dims(), i0, j0, k0);
        let w = trilinear_weights(fx, fy, fz);
        let mut acc = Vec3::ZERO;
        for c in 0..8 {
            acc += data[idx[c]] * w[c];
        }
        Some(acc)
    }
}

pub fn step<F: FieldSample>(
    integrator: Integrator,
    field: &F,
    domain: &Domain,
    p: Vec3,
    dt: f32,
) -> Option<Vec3> {
    let p = domain.canonicalize(p)?;
    match integrator {
        Integrator::Euler => {
            let k1 = field.sample(p)?;
            domain.canonicalize(p + k1 * dt)
        }
        Integrator::Rk2 => {
            let k1 = field.sample(p)?;
            let mid = domain.canonicalize(p + k1 * (dt * 0.5))?;
            let k2 = field.sample(mid)?;
            domain.canonicalize(p + k2 * dt)
        }
        Integrator::Rk4 => {
            let k1 = field.sample(p)?;
            let p2 = domain.canonicalize(p + k1 * (dt * 0.5))?;
            let k2 = field.sample(p2)?;
            let p3 = domain.canonicalize(p + k2 * (dt * 0.5))?;
            let k3 = field.sample(p3)?;
            let p4 = domain.canonicalize(p + k3 * dt)?;
            let k4 = field.sample(p4)?;
            let avg = (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (1.0 / 6.0);
            domain.canonicalize(p + avg * dt)
        }
    }
}

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
        match step(cfg.integrator, field, domain, p, dt) {
            Some(next) => {
                p = next;
                out.push(p);
            }
            None => break,
        }
    }
}

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

pub fn path_to_physical(grid: &CurvilinearGrid, grid_coords: &[Vec3]) -> Vec<Vec3> {
    grid_coords
        .iter()
        .filter_map(|&g| OracleField(grid.positions()).sample(g))
        .collect()
}

/// The old serving path for one seed: trace in grid space, then map. An
/// empty grid-space path (seed outside the domain) is `None`, as
/// `compute_frame_cached` skipped it.
pub fn streamline_physical(
    field: &VectorField,
    grid: &CurvilinearGrid,
    domain: &Domain,
    seed: Vec3,
    cfg: &TraceConfig,
) -> Option<Vec<Vec3>> {
    let line = streamline(&OracleField(field), domain, seed, cfg);
    (!line.is_empty()).then(|| path_to_physical(grid, &line))
}

/// Every coordinate's bit pattern, for exact comparison (NaN-safe).
pub fn bits(points: &[Vec3]) -> Vec<[u32; 3]> {
    points
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}
