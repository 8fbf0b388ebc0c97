//! The one-sweep streamline kernel against the path it replaced, down to
//! the bit pattern of every point.
//!
//! The contract under test: [`streamline_physical`] (the stagnation
//! sample reused as `k1`, each point mapped from its velocity sample's
//! cell and weights) returns exactly what the verbatim old path in
//! `oracle/` does — trace with the old per-corner sampler, then
//! `path_to_physical` — including which seeds yield no path and which
//! yield an empty one. Inputs vary per case: random fields and
//! curvilinear grids from 2 nodes a side (every cell touches the final
//! node) upward, boxed and O-grid domains, NaN,
//! ±∞, denormal and zero-velocity (stagnant) nodes, seeds on and just
//! below the periodic seam (where `canonicalize` is not idempotent), all
//! three integrators, both directions, and `max_points` 0, 1, 2 or more.

mod oracle;

use flowfield::{CurvilinearGrid, Dims, FieldSample, VectorField};
use oracle::{bits, OracleField};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tracer::{streamline, streamline_physical, Domain, Integrator, TraceConfig};
use vecmath::Vec3;

/// A random velocity: mostly uniform in `±scale`, sometimes a special
/// value in one component, sometimes exactly zero (stagnation).
fn random_velocity(rng: &mut StdRng, scale: f32) -> Vec3 {
    let mut v = Vec3::new(
        rng.random_range(-scale..scale),
        rng.random_range(-scale..scale),
        rng.random_range(-scale..scale),
    );
    match rng.random_range(0..40) {
        0 => v.x = f32::NAN,
        1 => v.y = f32::INFINITY,
        2 => v.z = f32::NEG_INFINITY,
        3 => v.x = 1.0e-40, // denormal
        4..=7 => v = Vec3::ZERO,
        _ => {}
    }
    v
}

fn random_field(dims: Dims, rng: &mut StdRng, scale: f32) -> VectorField {
    // A zero slab in k makes whole stagnant regions, not just nodes.
    let slab = rng.random_range(0..dims.nk as usize + 2);
    VectorField::from_fn(dims, |_, _, k| {
        let v = random_velocity(rng, scale);
        if k == slab {
            Vec3::ZERO
        } else {
            v
        }
    })
}

/// A jittered, sheared Cartesian grid: curvilinear, so the mapping's
/// weights matter in every component.
fn random_grid(dims: Dims, rng: &mut StdRng) -> CurvilinearGrid {
    CurvilinearGrid::from_fn(dims, |i, j, k| {
        let (x, y, z) = (i as f32, j as f32, k as f32);
        Vec3::new(
            x + 0.3 * y + rng.random_range(-0.2..0.2),
            y * 1.5 + rng.random_range(-0.2..0.2),
            z + 0.1 * x + rng.random_range(-0.2..0.2),
        )
    })
    .unwrap()
}

/// Seeds: interior, outside, on the far corner (a cell whose last
/// corner is the final node), and on or just below the i-seam.
fn random_seed(dims: Dims, rng: &mut StdRng) -> Vec3 {
    let hi = Vec3::new(
        (dims.ni - 1) as f32,
        (dims.nj - 1) as f32,
        (dims.nk - 1) as f32,
    );
    let mut s = Vec3::new(
        rng.random_range(0.0..hi.x),
        rng.random_range(0.0..hi.y),
        rng.random_range(0.0..hi.z),
    );
    match rng.random_range(0..12) {
        0 => s.x = -1.0e-10,
        1 => s.x = -0.0,
        2 => s.x = hi.x,
        3 => s.x = hi.x + 1.0e-6,
        4 => s = hi,
        5 => s.y = -3.0,
        6 => s.z = f32::NAN,
        _ => {}
    }
    s
}

fn random_config(rng: &mut StdRng) -> TraceConfig {
    TraceConfig {
        integrator: [Integrator::Euler, Integrator::Rk2, Integrator::Rk4][rng.random_range(0..3)],
        dt: rng.random_range(-0.8..0.8),
        max_points: match rng.random_range(0..6) {
            n @ 0..=2 => n,
            _ => rng.random_range(3..60),
        },
        min_speed: [0.0, 1.0e-6, 0.3][rng.random_range(0..3)],
        both_directions: rng.random_range(0..2) == 1,
    }
}

proptest! {
    #[test]
    fn prop_streamline_physical_bitwise_equals_trace_then_map(
        case_seed in 0u64..1_000_000,
        ni in 2u32..9,
        nj in 2u32..7,
        nk in 2u32..6,
        o_grid in 0u8..2,
        scale in 0.05f32..3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let dims = Dims::new(ni, nj, nk);
        let field = random_field(dims, &mut rng, scale);
        let grid = random_grid(dims, &mut rng);
        let domain = if o_grid == 1 { Domain::o_grid(dims) } else { Domain::boxed(dims) };
        for _ in 0..8 {
            let cfg = random_config(&mut rng);
            let seed = random_seed(dims, &mut rng);
            let want = oracle::streamline_physical(&field, &grid, &domain, seed, &cfg);
            let got = streamline_physical(&field, &grid, &domain, seed, &cfg);
            let (want, got) = (want.as_deref().map(bits), got.as_deref().map(bits));
            prop_assert!(want == got, "seed {seed:?} {cfg:?}: {want:?} != {got:?}");
            // The grid-space paper row keeps its bits through the
            // rewritten sampler too.
            prop_assert_eq!(
                bits(&oracle::streamline(&OracleField(&field), &domain, seed, &cfg)),
                bits(&streamline(&field, &domain, seed, &cfg))
            );
        }
    }

    #[test]
    fn prop_sampler_and_pair_bitwise_equal_old_loop(
        case_seed in 0u64..1_000_000,
        ni in 2u32..7,
        nj in 2u32..7,
        nk in 2u32..7,
    ) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let dims = Dims::new(ni, nj, nk);
        let field = random_field(dims, &mut rng, 2.0);
        let other = random_field(dims, &mut rng, 5.0);
        for _ in 0..32 {
            let p = random_seed(dims, &mut rng);
            let want = OracleField(&field).sample(p);
            prop_assert_eq!(want.map(|v| bits(&[v])), field.sample(p).map(|v| bits(&[v])));
            let pair = field.sample_pair(&other, p);
            let want_pair = want.zip(OracleField(&other).sample(p));
            prop_assert_eq!(
                want_pair.map(|(a, b)| bits(&[a, b])),
                pair.map(|(a, b)| bits(&[a, b]))
            );
        }
    }
}

/// A step that lands a hair below the seam wraps to exactly the period,
/// where `canonicalize` is not idempotent: the next step must resample at
/// the re-wrapped 0.0 rather than reuse the sample taken at the period.
#[test]
fn seam_landing_resamples_k1() {
    let dims = Dims::new(5, 4, 4);
    // v differs between i = 0 and i = 4 (the seam's two sides).
    let field = VectorField::from_fn(dims, |i, _, _| {
        Vec3::new(-1.0 - i as f32, 0.25 * i as f32, 0.0)
    });
    let grid = CurvilinearGrid::from_fn(dims, |i, j, k| {
        Vec3::new(i as f32 * 2.0, j as f32 + 0.5 * i as f32, k as f32)
    })
    .unwrap();
    let domain = Domain::o_grid(dims);
    for integrator in [Integrator::Euler, Integrator::Rk2, Integrator::Rk4] {
        let cfg = TraceConfig {
            integrator,
            dt: 2.0e-10,
            max_points: 4,
            min_speed: 0.0,
            both_directions: false,
        };
        let seed = Vec3::new(1.0e-10, 1.0, 1.0);
        let line = oracle::streamline(&OracleField(&field), &domain, seed, &cfg);
        assert!(
            line.iter().any(|p| p.x == 4.0),
            "{integrator:?}: the case must land on the period: {line:?}"
        );
        let want = oracle::streamline_physical(&field, &grid, &domain, seed, &cfg);
        let got = streamline_physical(&field, &grid, &domain, seed, &cfg);
        assert_eq!(
            want.as_deref().map(bits),
            got.as_deref().map(bits),
            "{integrator:?}"
        );
    }
}

/// A 2×2×2 grid has one cell, and its last corner is the final node.
#[test]
fn single_cell_grid_matches() {
    let dims = Dims::new(2, 2, 2);
    let field = VectorField::from_fn(dims, |i, j, k| {
        Vec3::new(
            0.3 + i as f32 * 0.1,
            0.2 - j as f32 * 0.05,
            0.1 + k as f32 * 0.2,
        )
    });
    let grid = CurvilinearGrid::from_fn(dims, |i, j, k| {
        Vec3::new(
            i as f32 * 3.0 + j as f32,
            j as f32 * 2.0,
            k as f32 - 0.5 * i as f32,
        )
    })
    .unwrap();
    let domain = Domain::boxed(dims);
    let cfg = TraceConfig {
        dt: 0.1,
        max_points: 20,
        both_directions: true,
        ..TraceConfig::default()
    };
    for seed in [
        Vec3::splat(0.5),
        Vec3::splat(1.0),
        Vec3::new(0.9, 0.1, 0.99),
    ] {
        let want = oracle::streamline_physical(&field, &grid, &domain, seed, &cfg);
        let got = streamline_physical(&field, &grid, &domain, seed, &cfg);
        assert!(want.as_ref().is_some_and(|w| !w.is_empty()));
        assert_eq!(
            want.as_deref().map(bits),
            got.as_deref().map(bits),
            "seed {seed:?}"
        );
    }
}
