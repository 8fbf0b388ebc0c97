//! The server's frame path in process: `drag_smoke`'s scene — a 100-seed
//! streamline rake dragged every frame beside four 50-seed streak rakes,
//! on the 64×64×32 tapered cylinder, after 160 ticks of smoke — timed
//! through one clock tick (streak advance), `update_geometry` and the
//! chunk encode, the three stages the server runs for each of that
//! workload's frames. No disk, link, client or dispatcher: this is the
//! compute wall alone, on every core the host has.

use cfd::tapered_cylinder::{generate_dataset, TaperedCylinderFlow};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use storage::{MemoryStore, TimestepStore};
use tracer::{Domain, Handle, Rake, ToolKind, TraceConfig};
use vecmath::Vec3;
use windtunnel::compute::{update_geometry, ComputeConfig, GeometryCache, ToolEngines};
use windtunnel::proto::RakeChunkMsg;
use windtunnel::EnvironmentState;

/// The benchmark's streamline length (501 points a seed) and warm-up.
const MAX_POINTS: usize = 500;
const WARMUP_TICKS: usize = 160;

fn bench_drag_frame(c: &mut Criterion) {
    let flow = TaperedCylinderFlow::default();
    let dataset = generate_dataset(&flow, "benchmark", 2, 0.25).expect("dataset");
    let grid = dataset.grid().clone();
    let store = MemoryStore::from_dataset(dataset);
    let domain = Domain::o_grid(grid.dims());
    let cfg = ComputeConfig {
        trace: TraceConfig {
            dt: 0.02,
            max_points: MAX_POINTS,
            ..TraceConfig::default()
        },
        ..ComputeConfig::default()
    };

    // The workload's scene, without its seeded jitter: rakes spanwise
    // upstream of the cylinder, smoke released 0.8 closer in.
    let mut env = EnvironmentState::new(store.timestep_count());
    let mut rake = |x: f32, y: f32, seeds: u32, tool: ToolKind| {
        let end = |z| grid.locate(Vec3::new(x, y, z)).expect("inside the grid");
        env.add_rake(Rake::new(end(1.0), end(7.0), seeds, tool))
    };
    let dragged = rake(-2.6, 0.7, 100, ToolKind::Streamline);
    for slot in 0..4 {
        let y = -1.75 + 3.5 * slot as f32 / 3.0;
        rake(-1.8, y, 50, ToolKind::Streakline);
    }
    env.grab(1, dragged, Handle::Center).expect("grab");

    let mut engines = ToolEngines::new();
    let mut cache = GeometryCache::new();
    for _ in 0..WARMUP_TICKS {
        engines
            .advance_streaks(&env, &store, &domain, &cfg.streak)
            .expect("advance");
    }

    let mut g = c.benchmark_group("frame_path");
    g.sample_size(20);
    let mut sway = 0.02f32;
    g.bench_function("drag_frame", |b| {
        b.iter(|| {
            sway = -sway;
            env.drag(1, dragged, Vec3::new(sway, sway, 0.0))
                .expect("drag");
            engines
                .advance_streaks(&env, &store, &domain, &cfg.streak)
                .expect("advance");
            env.bump_revision();
            let (frame, _) =
                update_geometry(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                    .expect("frame");
            let parts: Vec<_> = frame
                .rakes
                .iter()
                .filter_map(|rk| Some((rk.id, cache.rake_geometry(rk.id)?.0)))
                .collect();
            black_box(RakeChunkMsg::encode_many(
                frame.lattice,
                frame.revision,
                &parts,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_drag_frame);
criterion_main!(benches);
