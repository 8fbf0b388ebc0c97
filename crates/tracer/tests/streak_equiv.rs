//! Scalar-vs-batch streakline equality, down to the bit pattern.
//!
//! The contract under test: [`Streakline::advance_batch`] (the fused
//! SoA fast path, time-blended pair sampling, lockstep RK2, swap-remove
//! compaction) produces *exactly* the same particle system as the
//! retained scalar reference path [`Streakline::advance`] over the
//! scalar blend of the same two fields — same particle count, same pool
//! order, same filament order, and the same bits in every `f32` — under
//! random fields, domains (boxed and periodic O-grid), configurations,
//! and op sequences that include mid-sequence `set_seeds` (growing and
//! shrinking), `clear`, and domain-exit retirements.

use flowfield::{BlendedPair, BlendedPairSoA, Dims, VectorField};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tracer::{Domain, Polyline, StagnationPolicy, Streakline, StreaklineConfig};
use vecmath::Vec3;

fn random_field(dims: Dims, seed: u64, scale: f32) -> VectorField {
    let mut rng = StdRng::seed_from_u64(seed);
    VectorField::from_fn(dims, |_, _, _| {
        Vec3::new(
            rng.random_range(-scale..scale),
            rng.random_range(-scale..scale),
            rng.random_range(-scale..scale),
        )
    })
}

/// Random seed points: mostly interior, occasionally outside the grid
/// (those must inject nothing, identically in both paths).
fn random_seeds(dims: Dims, seed: u64, count: usize) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hi = Vec3::new(
        (dims.ni - 1) as f32,
        (dims.nj - 1) as f32,
        (dims.nk - 1) as f32,
    );
    (0..count)
        .map(|_| {
            if rng.random_range(0..8) == 0 {
                Vec3::new(
                    -3.0,
                    rng.random_range(0.0..hi.y),
                    rng.random_range(0.0..hi.z),
                )
            } else {
                Vec3::new(
                    rng.random_range(0.0..hi.x),
                    rng.random_range(0.0..hi.y),
                    rng.random_range(0.0..hi.z),
                )
            }
        })
        .collect()
}

fn position_bits(s: &Streakline) -> Vec<[u32; 3]> {
    s.positions()
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn filament_bits(fils: &[Polyline]) -> Vec<Vec<[u32; 3]>> {
    fils.iter()
        .map(|line| {
            line.iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn prop_batch_advance_bitwise_equals_scalar_reference(
        field_seed in 0u64..1_000_000,
        ni in 4u32..9,
        nj in 4u32..9,
        nk in 4u32..9,
        dt in 0.05f32..1.5,
        max_age in 0u32..12,
        inject in 1u32..3,
        alpha in 0.0f32..1.0,
        o_grid in 0u8..2,
        retire in 0u8..2,
        seed_count in 1usize..5,
        ops in proptest::collection::vec((0u8..8, 0u64..1_000_000), 4..18),
    ) {
        let dims = Dims::new(ni, nj, nk);
        // Velocities up to ~2 cells/step: plenty of domain exits.
        let f0 = random_field(dims, field_seed, 2.0);
        let f1 = random_field(dims, field_seed.wrapping_add(77), 2.0);
        let domain = if o_grid == 1 {
            Domain::o_grid(dims)
        } else {
            Domain::boxed(dims)
        };
        let cfg = StreaklineConfig {
            dt,
            max_age,
            inject_per_frame: inject,
            stagnation: if retire == 1 {
                StagnationPolicy::Retire
            } else {
                StagnationPolicy::Keep
            },
            // High enough that random slow spots actually trigger it.
            min_speed: 0.05,
            ..StreaklineConfig::default()
        };

        // Reference: scalar stepping through the AoS blend. Fast path:
        // fused batch kernel over the SoA pair. Same alpha, same fields.
        let scalar_pair = BlendedPair::new(&f0, &f1, alpha);
        let batch_pair = BlendedPairSoA::new(&f0, &f1, alpha).unwrap();

        let seeds = random_seeds(dims, field_seed ^ 0xD00D, seed_count);
        let mut scalar = Streakline::new(seeds.clone(), cfg);
        let mut batch = Streakline::new(seeds, cfg);

        for (op, op_seed) in ops {
            match op {
                // set_seeds, including shrink-to-smaller (stale seed_id
                // retirement) and occasional growth.
                5 => {
                    let n = (op_seed % 5) as usize; // 0..=4 seeds
                    let next = random_seeds(dims, op_seed, n);
                    scalar.set_seeds(next.clone());
                    batch.set_seeds(next);
                }
                6 => {
                    scalar.clear();
                    batch.clear();
                }
                _ => {
                    scalar.advance(&scalar_pair, &domain);
                    batch.advance_batch(&batch_pair, &domain);
                }
            }
            prop_assert_eq!(scalar.particle_count(), batch.particle_count());
            prop_assert_eq!(scalar.frame_count(), batch.frame_count());
            // Pool order and every coordinate bit must agree.
            prop_assert_eq!(position_bits(&scalar), position_bits(&batch));
            // Filament order (per seed, newest first) and bits too.
            prop_assert_eq!(
                filament_bits(&scalar.filaments()),
                filament_bits(&batch.filaments())
            );
        }
    }

    /// The satellite invariant on its own: after any seed shrink, the
    /// point-cloud and connected renderings agree on particle count.
    #[test]
    fn prop_positions_and_filaments_agree_after_set_seeds(
        field_seed in 0u64..1_000_000,
        shrink_to in 0usize..3,
        frames_before in 1usize..8,
        frames_after in 0usize..5,
    ) {
        let dims = Dims::new(12, 8, 8);
        let f = random_field(dims, field_seed, 0.4);
        let domain = Domain::boxed(dims);
        let seeds = random_seeds(dims, field_seed ^ 0xBEEF, 4);
        let mut s = Streakline::new(seeds, StreaklineConfig::default());
        for _ in 0..frames_before {
            s.advance(&f, &domain);
        }
        let next = random_seeds(dims, field_seed ^ 0xF00D, shrink_to);
        s.set_seeds(next);
        for _ in 0..frames_after {
            s.advance(&f, &domain);
        }
        let filament_points: usize = s.filaments().iter().map(|l| l.len()).sum();
        prop_assert_eq!(s.positions().len(), filament_points);
    }
}
