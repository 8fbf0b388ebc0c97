//! Table 3 + §5.3 — the computational-performance study.
//!
//! The paper's benchmark: "a benchmark computation of 100 streamlines
//! each containing 200 points … 20,000 points". Its §5.3 rows:
//!
//! * scalar C, parallelized across streamlines on 4 Convex CPUs: 0.24 s
//! * vectorized across streamlines (3 effective CPUs):            0.19 s
//! * the 8-CPU SGI workstation, scalar-parallel:                  0.13-0.14 s
//!
//! and Table 3 converts benchmark time → max particles at 10 fps
//! (linear scaling assumption). We run the same benchmark on the *full*
//! 64×64×32 tapered-cylinder field with every kernel at several thread
//! counts, print measured time and the derived Table 3 columns, and
//! reprint the paper's own rows for comparison. Absolute times are ~100×
//! faster on 2026 hardware. The rows differ in more than layout: the
//! scalar rows sample the field three times per RK2 step (stagnation
//! test, then `k1` at the same point, then `k2`), the lockstep rows and
//! the production row twice, and only the production row also maps
//! every point to physical space (the serving path's whole job).

use bench_support::{paper_benchmark_seeds, paper_spec, tapered_field, TablePrinter};
use flowfield::{BlendedPair, BlendedPairSoA};
use std::time::{Duration, Instant};
use storage::constraints::TABLE3_BENCH_TIMES;
use tracer::benchmark::{
    max_particles, max_streamlines_200, run_kernel, BenchField, Kernel, FRAME_BUDGET,
    PAPER_PARTICLES, PAPER_STREAMLINES,
};
use tracer::streamline::TraceConfig;
use tracer::{Streakline, StreaklineConfig};

fn main() {
    println!("\nTable 3 (paper rows): computational performance constraints\n");
    let mut p = TablePrinter::new(&["benchmark s", "max particles", "streamlines@200"]);
    for &secs in &TABLE3_BENCH_TIMES {
        let t = Duration::from_secs_f64(secs);
        p.row(&[
            format!("{secs:.2}"),
            format!("{}", max_particles(t, PAPER_PARTICLES, FRAME_BUDGET)),
            format!("{}", max_streamlines_200(t, PAPER_PARTICLES, FRAME_BUDGET)),
        ]);
    }

    println!(
        "\nMeasured: 100 streamlines x 200 points on the full 64x64x32 tapered-cylinder field\n"
    );
    let spec = paper_spec();
    eprintln!("generating field ...");
    let (field, domain) = tapered_field(spec, 12.0);
    let field_aos = field.clone();
    let field_soa = field.to_soa();
    let bench = BenchField::new(field, spec.build().expect("grid"), domain);
    let seeds = paper_benchmark_seeds(spec.dims, PAPER_STREAMLINES);
    // dt chosen so a 200-step path stays inside the O-grid disc for
    // most seeds (the paper's benchmark assumes full-length streamlines).
    let cfg = TraceConfig {
        dt: 0.04,
        max_points: 200,
        ..TraceConfig::default()
    };

    let mut t = TablePrinter::new(&[
        "kernel",
        "threads",
        "seconds",
        "points",
        "max particles@10fps",
        "streamlines@200",
    ]);

    let thread_counts = [1usize, 2, 4, 8];
    for &kernel in &Kernel::ALL {
        let threads: &[usize] = match kernel {
            Kernel::Scalar | Kernel::Vector => &[1],
            _ => &thread_counts,
        };
        for &n in threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            // Warm up once, then take the best of 5 (the paper reports a
            // single best-case figure).
            let mut best = Duration::MAX;
            let mut points = 0usize;
            pool.install(|| {
                let _ = run_kernel(kernel, &bench, &seeds, &cfg);
                for _ in 0..5 {
                    let (lines, dt) = run_kernel(kernel, &bench, &seeds, &cfg);
                    points = lines.iter().map(|l| l.len()).sum();
                    best = best.min(dt);
                }
            });
            t.row(&[
                kernel.label().to_string(),
                format!("{n}"),
                format!("{:.4}", best.as_secs_f64()),
                format!("{points}"),
                format!("{}", max_particles(best, points.max(1), FRAME_BUDGET)),
                format!("{}", max_streamlines_200(best, points.max(1), FRAME_BUDGET)),
            ]);
        }
    }

    // ------------------------------------------------------------------
    // Scaled workload: 2 000 streamlines. The 1992 benchmark took 0.19 s
    // on the Convex; 2026 hardware finishes 100 streamlines in well under
    // a millisecond, too little work for thread scaling to register. A
    // 20x workload restores the regime the paper's parallelism argument
    // lives in.
    println!("\nScaled workload: 2000 streamlines x 200 points (thread-scaling regime)\n");
    let big_seeds = paper_benchmark_seeds(spec.dims, 2000);
    let mut t2 = TablePrinter::new(&[
        "kernel",
        "threads",
        "seconds",
        "points",
        "max particles@10fps",
    ]);
    for &kernel in &Kernel::ALL {
        let threads: &[usize] = match kernel {
            Kernel::Scalar | Kernel::Vector => &[1],
            _ => &thread_counts,
        };
        for &n in threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let mut best = Duration::MAX;
            let mut points = 0usize;
            pool.install(|| {
                let _ = run_kernel(kernel, &bench, &big_seeds, &cfg);
                for _ in 0..3 {
                    let (lines, dt) = run_kernel(kernel, &bench, &big_seeds, &cfg);
                    points = lines.iter().map(|l| l.len()).sum();
                    best = best.min(dt);
                }
            });
            t2.row(&[
                kernel.label().to_string(),
                format!("{n}"),
                format!("{:.4}", best.as_secs_f64()),
                format!("{points}"),
                format!("{}", max_particles(best, points.max(1), FRAME_BUDGET)),
            ]);
        }
    }

    // ------------------------------------------------------------------
    // Streak-advance kernel: the *unsteady* smoke path. The paper's
    // benchmark above is streamlines through one frozen timestep; smoke
    // in an unsteady dataset must blend two timesteps every sample. The
    // scalar row steps one particle at a time through two trilinear
    // samples + a lerp; the batch rows run the fused kernel (cell +
    // weights located once per particle, both timesteps gathered from
    // SoA arrays) in rayon-chunked lockstep. Identical output bits —
    // see tracer/tests/streak_equiv.rs.
    println!("\nStreak advance: smoke pool on the tapered-cylinder field (alpha = 0.37)\n");
    let streak_pair_aos = BlendedPair::new(&field_aos, &field_aos, 0.37);
    let streak_pair_soa = BlendedPairSoA::new(&field_soa, &field_soa, 0.37).expect("matching dims");
    let streak_cfg = StreaklineConfig {
        dt: 0.04,
        max_age: 199,
        ..StreaklineConfig::default()
    };
    let mut proto = Streakline::new(paper_benchmark_seeds(spec.dims, 100), streak_cfg);
    for _ in 0..200 {
        proto.advance_batch(&streak_pair_soa, &domain);
    }
    let particles = proto.particle_count();
    let mut t3 = TablePrinter::new(&["kernel", "threads", "us/advance", "Mparticles/s"]);
    let streak_time = |f: &mut dyn FnMut(&mut Streakline)| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut s = proto.clone();
            let t = Instant::now();
            for _ in 0..4 {
                f(&mut s);
            }
            best = best.min(t.elapsed().as_secs_f64() / 4.0);
        }
        best
    };
    let scalar_t = streak_time(&mut |s| {
        s.advance(&streak_pair_aos, &domain);
    });
    t3.row(&[
        "streak-scalar".to_string(),
        "1".to_string(),
        format!("{:.1}", scalar_t * 1e6),
        format!("{:.1}", particles as f64 / scalar_t / 1e6),
    ]);
    for &n in &thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap();
        let batch_t = pool.install(|| {
            streak_time(&mut |s| {
                s.advance_batch(&streak_pair_soa, &domain);
            })
        });
        t3.row(&[
            "streak-batch".to_string(),
            format!("{n}"),
            format!("{:.1}", batch_t * 1e6),
            format!("{:.1}", particles as f64 / batch_t / 1e6),
        ]);
    }
    println!("({particles} live particles; full sweep in bench_trace / BENCH_trace.json)");

    println!();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    println!("paper comparison (absolute numbers differ by the 34-year hardware gap):");
    println!(
        "  scalar-parallel x4 = 0.24 s | vectorized x3 = 0.19 s | workstation x8 = 0.13-0.14 s"
    );
    println!("what the rows measure: scalar rows take 3 field samples per RK2 step (the");
    println!("stagnation test and k1 sample the same point), the lockstep (vectorized) rows and");
    println!("the production row take the paper's 2, and only the production row also maps each");
    println!("point to physical space. Lockstep vs scalar therefore mixes layout with sample");
    println!("count; production vs scalar-parallel is the serving kernel against the trace");
    println!("half of the path it replaced. Thread rows scale only up to the host parallelism.");
}
