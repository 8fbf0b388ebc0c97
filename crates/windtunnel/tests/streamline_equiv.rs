//! The serving path's streamlines against the path it replaced, as wire
//! bytes: [`compute_frame_cached`] on the 64×64×32 tapered cylinder, three
//! rakes of 40 seeds (one reaching outside the grid), must encode to
//! exactly the frame whose paths the verbatim oracle in
//! `tracer/tests/oracle/` builds — trace each seed with the old sampler,
//! skip empty paths, then `path_to_physical` — for RK2 one way, RK4 both
//! ways and Euler with a short budget.

#[path = "../../tracer/tests/oracle/mod.rs"]
mod oracle;

use cfd::tapered_cylinder::{generate_dataset, TaperedCylinderFlow};
use storage::{MemoryStore, TimestepStore};
use tracer::{Domain, Integrator, Rake, ToolKind, TraceConfig};
use vecmath::Vec3;
use windtunnel::compute::{compute_frame_cached, ComputeConfig, GeometryCache, ToolEngines};
use windtunnel::proto::PathMsg;
use windtunnel::{EnvironmentState, PathKind};

#[test]
fn tapered_cylinder_frame_encodes_identically() {
    let flow = TaperedCylinderFlow::default();
    let dataset = generate_dataset(&flow, "tapered-cylinder", 1, 0.05).unwrap();
    let grid = dataset.grid().clone();
    let dims = grid.dims();
    let store = MemoryStore::from_dataset(dataset);
    let field = store.fetch(0).unwrap();
    let domain = Domain::o_grid(dims);

    let mut env = EnvironmentState::new(store.timestep_count());
    for (a, b) in [
        (Vec3::new(5.0, 20.0, 3.0), Vec3::new(40.0, 30.0, 28.0)),
        (Vec3::new(0.0, 10.0, 16.0), Vec3::new(63.0, 10.0, 16.0)),
        // Reaches past the far field and below k = 0: some seeds yield
        // no path at all.
        (Vec3::new(20.0, 50.0, -4.0), Vec3::new(30.0, 70.0, 12.0)),
    ] {
        env.add_rake(Rake::new(a, b, 40, ToolKind::Streamline));
    }

    for trace in [
        TraceConfig::default(),
        TraceConfig {
            integrator: Integrator::Rk4,
            dt: 0.05,
            max_points: 120,
            both_directions: true,
            ..TraceConfig::default()
        },
        TraceConfig {
            integrator: Integrator::Euler,
            dt: 0.3,
            max_points: 2,
            ..TraceConfig::default()
        },
    ] {
        let cfg = ComputeConfig {
            trace,
            ..ComputeConfig::default()
        };
        let (frame, _) = compute_frame_cached(
            &env,
            &mut ToolEngines::new(),
            &mut GeometryCache::new(),
            &store,
            &grid,
            &domain,
            &cfg,
        )
        .unwrap();

        let mut want = frame.clone();
        want.paths = env
            .rakes()
            .flat_map(|(id, entry)| {
                let (grid, domain, field) = (&grid, &domain, field.as_ref());
                entry.rake.seeds().into_iter().filter_map(move |seed| {
                    Some(PathMsg {
                        rake_id: id,
                        kind: PathKind::Streamline,
                        points: oracle::streamline_physical(field, grid, domain, seed, &trace)?,
                    })
                })
            })
            .collect();
        assert!(
            want.paths.len() > 80,
            "most seeds trace: {}",
            want.paths.len()
        );
        assert!(want.paths.len() < 120, "some seeds start outside the grid");
        assert!(
            frame.encode() == want.encode(),
            "{trace:?}: frame bytes differ"
        );
    }
}
