//! The paper's §5.3 benchmark scenario, packaged.
//!
//! "To evaluate the computational performance, a benchmark computation of
//! 100 streamlines each containing 200 points was performed. This scenario
//! contains 20,000 points with a transfer over the networks of 240,000
//! bytes of data."
//!
//! Table 3 then derives the maximum particle count sustainable at ten
//! frames per second from the measured benchmark time, "assuming that the
//! performance scales with the number of particles".

use crate::batch::{
    trace_batch_parallel, trace_batch_physical, trace_batch_scalar, trace_batch_vector,
    trace_batch_vector_parallel,
};
use crate::domain::Domain;
use crate::streamline::TraceConfig;
use crate::Polyline;
use flowfield::{CurvilinearGrid, Dims, VectorField, VectorFieldSoA};
use std::time::{Duration, Instant};
use vecmath::Vec3;

/// Streamlines in the paper's benchmark.
pub const PAPER_STREAMLINES: usize = 100;
/// Points per streamline in the paper's benchmark.
pub const PAPER_POINTS: usize = 200;
/// Total particles: 20 000.
pub const PAPER_PARTICLES: usize = PAPER_STREAMLINES * PAPER_POINTS;
/// Wire bytes for the benchmark at 12 B/point: 240 000.
pub const PAPER_WIRE_BYTES: usize = PAPER_PARTICLES * 12;
/// Frame budget of the virtual environment: 1/8 s reaction, 10 fps target.
pub const FRAME_BUDGET: Duration = Duration::from_millis(100);

/// Which kernel to run (§5.3's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Scalar, single thread.
    Scalar,
    /// Scalar parallelized across streamlines (the Convex's 0.24 s row).
    Parallel,
    /// Vectorized across streamlines, single thread (the 0.19 s row).
    Vector,
    /// Parallel across groups, vectorized within (the proposed hybrid).
    VectorParallel,
    /// The serving kernel: `Parallel` at two field accesses per RK2 step
    /// (the scalar rows take three), mapped to physical space as it goes.
    Production,
}

impl Kernel {
    pub const ALL: [Kernel; 5] = [
        Kernel::Scalar,
        Kernel::Parallel,
        Kernel::Vector,
        Kernel::VectorParallel,
        Kernel::Production,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar x1",
            Kernel::Parallel => "scalar-parallel",
            Kernel::Vector => "vectorized x1",
            Kernel::VectorParallel => "vector+parallel",
            Kernel::Production => "production (traced+mapped)",
        }
    }
}

/// Benchmark inputs: both field layouts, the grid and the domain.
pub struct BenchField {
    pub aos: VectorField,
    pub soa: VectorFieldSoA,
    pub grid: CurvilinearGrid,
    pub domain: Domain,
}

impl BenchField {
    pub fn new(aos: VectorField, grid: CurvilinearGrid, domain: Domain) -> BenchField {
        BenchField {
            soa: aos.to_soa(),
            aos,
            grid,
            domain,
        }
    }
}

/// Seeds for the benchmark: `n` seeds on a diagonal rake through the grid
/// interior, positioned so most streamlines can run the full 200 steps.
pub fn benchmark_seeds(dims: Dims, n: usize) -> Vec<Vec3> {
    let lo = Vec3::new(
        dims.ni as f32 * 0.2,
        dims.nj as f32 * 0.25,
        dims.nk as f32 * 0.3,
    );
    let hi = Vec3::new(
        dims.ni as f32 * 0.3,
        dims.nj as f32 * 0.75,
        dims.nk as f32 * 0.7,
    );
    (0..n)
        .map(|s| {
            lo.lerp(
                hi,
                if n > 1 {
                    s as f32 / (n - 1) as f32
                } else {
                    0.5
                },
            )
        })
        .collect()
}

/// Run one kernel over the benchmark scenario; returns the paths and the
/// wall time of the compute only.
pub fn run_kernel(
    kernel: Kernel,
    field: &BenchField,
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> (Vec<Polyline>, Duration) {
    let start = Instant::now();
    let lines = match kernel {
        Kernel::Scalar => trace_batch_scalar(&field.aos, &field.domain, seeds, cfg),
        Kernel::Parallel => trace_batch_parallel(&field.aos, &field.domain, seeds, cfg),
        Kernel::Vector => trace_batch_vector(&field.soa, &field.domain, seeds, cfg),
        Kernel::VectorParallel => {
            trace_batch_vector_parallel(&field.soa, &field.domain, seeds, cfg)
        }
        Kernel::Production => {
            trace_batch_physical(&field.aos, &field.grid, &field.domain, seeds, cfg)
        }
    };
    (lines, start.elapsed())
}

/// Table 3's derivation: given a measured benchmark time for
/// `bench_particles` particles, the maximum particles sustainable inside
/// `budget`, assuming linear scaling.
#[expect(
    clippy::cast_possible_truncation,
    reason = "floors a rate to whole particles; `as` saturates at usize::MAX"
)]
pub fn max_particles(bench_time: Duration, bench_particles: usize, budget: Duration) -> usize {
    if bench_time.is_zero() {
        return usize::MAX;
    }
    ((bench_particles as f64) * budget.as_secs_f64() / bench_time.as_secs_f64()) as usize
}

/// Table 3's last column: streamlines of 200 points at that particle count.
pub fn max_streamlines_200(
    bench_time: Duration,
    bench_particles: usize,
    budget: Duration,
) -> usize {
    max_particles(bench_time, bench_particles, budget) / PAPER_POINTS
}

/// Total points actually produced by a batch of polylines (the particle
/// count the tables talk about).
pub fn total_points(lines: &[Polyline]) -> usize {
    lines.iter().map(|l| l.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_PARTICLES, 20_000);
        assert_eq!(PAPER_WIRE_BYTES, 240_000);
    }

    #[test]
    fn table3_rows_reproduce() {
        // The paper's Table 3, exactly:
        //   0.25 s → 8 000 particles → 40 streamlines
        //   0.19 s → 10 526         → 52
        //   0.13 s → 15 384         → 76
        //   0.10 s → 20 000         → 100
        //   0.05 s → 40 000         → 200
        let rows = [
            (0.25, 8_000, 40),
            (0.19, 10_526, 52),
            (0.13, 15_384, 76),
            (0.10, 20_000, 100),
            (0.05, 40_000, 200),
        ];
        for (secs, particles, lines) in rows {
            let t = Duration::from_secs_f64(secs);
            assert_eq!(max_particles(t, PAPER_PARTICLES, FRAME_BUDGET), particles);
            assert_eq!(max_streamlines_200(t, PAPER_PARTICLES, FRAME_BUDGET), lines);
        }
    }

    #[test]
    fn seeds_inside_domain() {
        let dims = Dims::new(64, 64, 32);
        let seeds = benchmark_seeds(dims, PAPER_STREAMLINES);
        assert_eq!(seeds.len(), 100);
        for s in &seeds {
            assert!(dims.contains_grid_coord(*s));
        }
    }

    #[test]
    fn kernels_produce_same_point_totals() {
        let dims = Dims::new(24, 24, 8);
        let aos = VectorField::from_fn(dims, |i, j, _| {
            let c = 11.5;
            Vec3::new(-(j as f32 - c) * 0.1, (i as f32 - c) * 0.1, 0.05)
        });
        let grid = CurvilinearGrid::from_fn(dims, |i, j, k| {
            Vec3::new(i as f32, j as f32 * 0.5, k as f32 * 2.0)
        })
        .unwrap();
        let field = BenchField::new(aos, grid, Domain::boxed(dims));
        let seeds = benchmark_seeds(dims, 10);
        let cfg = TraceConfig {
            dt: 0.2,
            max_points: 50,
            ..TraceConfig::default()
        };
        let totals: Vec<usize> = Kernel::ALL
            .iter()
            .map(|&k| total_points(&run_kernel(k, &field, &seeds, &cfg).0))
            .collect();
        assert!(totals.iter().all(|&t| t == totals[0]), "{totals:?}");
        assert!(totals[0] > 0);
    }

    #[test]
    fn zero_time_means_unbounded() {
        assert_eq!(max_particles(Duration::ZERO, 100, FRAME_BUDGET), usize::MAX);
    }
}
