//! The frame path is the same bytes on any number of threads: a scene
//! with a streamline rake of several seed blocks, two streak rakes and a
//! pathline rake, ticked and recomputed frame after frame under one, two
//! and three threads, must give bit-identical frames and chunk bytes —
//! and every chunk must be the bytes `RakeChunkMsg::encode_parts` writes
//! serially. Seed counts and the clock's rate vary by proptest; takes
//! `PROPTEST_SEED` for fresh cases.

use bench_support::{small_spec, tapered_dataset};
use bytes::{Bytes, BytesMut};
use flowfield::CurvilinearGrid;
use proptest::prelude::*;
use std::sync::OnceLock;
use storage::{MemoryStore, TimestepStore};
use tracer::{Domain, Rake, ToolKind, TraceConfig};
use vecmath::Vec3;
use windtunnel::compute::{update_geometry, ComputeConfig, GeometryCache, ToolEngines, SEED_BLOCK};
use windtunnel::proto::RakeChunkMsg;
use windtunnel::EnvironmentState;

fn dataset() -> &'static (MemoryStore, CurvilinearGrid) {
    static DATA: OnceLock<(MemoryStore, CurvilinearGrid)> = OnceLock::new();
    DATA.get_or_init(|| {
        let ds = tapered_dataset(small_spec(), 4);
        let grid = ds.grid().clone();
        (MemoryStore::from_dataset(ds), grid)
    })
}

/// Per tick: the encoded frame (paths included) and every rake's chunk.
type Ticks = Vec<(Bytes, Vec<Bytes>)>;

fn run(streamline_seeds: u32, streak_seeds: (u32, u32), path_seeds: u32, rate: f32) -> Ticks {
    let (store, grid) = dataset();
    let domain = Domain::o_grid(grid.dims());
    let mut env = EnvironmentState::new(store.timestep_count());
    let rakes = [
        (
            Vec3::new(2.0, 4.0, 1.0),
            streamline_seeds,
            ToolKind::Streamline,
        ),
        (
            Vec3::new(4.0, 3.0, 2.0),
            streak_seeds.0,
            ToolKind::Streakline,
        ),
        (
            Vec3::new(24.0, 5.0, 2.0),
            streak_seeds.1,
            ToolKind::Streakline,
        ),
        (Vec3::new(8.0, 6.0, 1.0), path_seeds, ToolKind::ParticlePath),
    ];
    for (a, seeds, tool) in rakes {
        env.add_rake(Rake::new(a, a + Vec3::new(1.0, 2.0, 6.0), seeds, tool));
    }
    env.time.set_rate(rate);
    env.time.play();
    let cfg = ComputeConfig {
        trace: TraceConfig {
            dt: 0.05,
            max_points: 80,
            ..TraceConfig::default()
        },
        pathline_window: 3,
        ..ComputeConfig::default()
    };
    let mut engines = ToolEngines::new();
    let mut cache = GeometryCache::new();
    let mut ticks = Vec::new();
    for _ in 0..6 {
        env.time.advance();
        engines
            .advance_streaks(&env, store, &domain, &cfg.streak)
            .unwrap();
        env.bump_revision();
        let (mut frame, _) =
            update_geometry(&env, &mut engines, &mut cache, store, grid, &domain, &cfg).unwrap();
        let parts: Vec<_> = frame
            .rakes
            .iter()
            .filter_map(|rk| Some((rk.id, cache.rake_geometry(rk.id)?.0)))
            .collect();
        let chunks = RakeChunkMsg::encode_many(frame.lattice, frame.revision, &parts);
        for (&(id, paths), chunk) in parts.iter().zip(&chunks) {
            let mut serial = BytesMut::new();
            RakeChunkMsg::encode_parts(&mut serial, frame.lattice, id, frame.revision, paths);
            assert_eq!(chunk[..], serial[..], "rake {id}: chunk bytes differ");
        }
        frame.paths = cache.frame_paths(&env);
        ticks.push((frame.encode(), chunks));
    }
    ticks
}

proptest! {
    #[test]
    fn frames_and_chunks_identical_on_one_two_and_three_threads(
        streamline_seeds in (SEED_BLOCK as u32 + 1)..=(4 * SEED_BLOCK as u32),
        streak_a in 1u32..=12,
        streak_b in 1u32..=12,
        path_seeds in 1u32..=5,
        half_steps in 0u32..=2,
    ) {
        let rate = half_steps as f32 * 0.5;
        let under = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| run(streamline_seeds, (streak_a, streak_b), path_seeds, rate))
        };
        let one = under(1);
        prop_assert!(one.iter().any(|(_, chunks)| chunks.iter().all(|c| c.len() > 16)));
        for threads in [2, 3] {
            let many = under(threads);
            prop_assert!(many == one, "{threads} threads differ from one");
        }
    }
}
