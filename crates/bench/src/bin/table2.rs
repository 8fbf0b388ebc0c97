//! Table 2 — disk-bandwidth constraints.
//!
//! Paper columns: grid points, bytes per timestep, timesteps per GB,
//! required disk bandwidth for 10 fps. We print the analytic rows, then
//! measure two things:
//!
//! 1. achieved timestep rate streaming a real tapered-cylinder-sized
//!    timestep file from tmpfs through the Convex disk model
//!    (30 MB/s + 2 ms seek) — the paper's §5.1 observation that this
//!    dataset streams comfortably inside the 1/8 s budget;
//! 2. the same stream with and without the figure-8 prefetcher, showing
//!    that double-buffering hides the disk behind a 40 ms compute;
//! 3. the chunked container's encoded timesteps (DESIGN.md §6.5): bytes
//!    on disk for a full 131 072-point timestep and the Convex rate they
//!    buy, then the reduced grid streamed raw and encoded.
//!
//! Expected shape: the tapered cylinder clears 10 fps on the Convex
//! model; the ≥3 M-point rows do not (the paper: "we are still a long way
//! from interactively visualizing very large unsteady data sets").

use bench_support::{paper_spec, small_spec, tapered_dataset, TablePrinter};
use flowfield::Dims;
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::constraints::{
    required_disk_mbytes_per_sec, timestep_bytes, timesteps_per_gibibyte, TABLE2_GRID_POINTS,
    TARGET_FPS,
};
use storage::{DiskModel, DiskStore, Prefetcher, SimulatedDisk, TimestepStore};

fn main() {
    println!("\nTable 2: Disk bandwidth constraints (analytic rows = the paper's table)\n");
    let convex = DiskModel::convex_c3240();
    let mut t = TablePrinter::new(&[
        "grid points",
        "bytes/timestep",
        "steps per GiB",
        "req MB/s @10fps",
        "fps @Convex 30MB/s",
        "fps @600MB/s",
    ]);
    for &points in &TABLE2_GRID_POINTS {
        let bytes = timestep_bytes(points);
        let modern = DiskModel {
            bandwidth_bytes_per_sec: 600.0e6,
            seek: Duration::from_micros(200),
        };
        t.row(&[
            format!("{points}"),
            format!("{bytes}"),
            format!("{}", timesteps_per_gibibyte(points)),
            format!("{:.1}", required_disk_mbytes_per_sec(points, TARGET_FPS)),
            format!("{:.1}", convex.timesteps_per_sec(bytes)),
            format!("{:.1}", modern.timesteps_per_sec(bytes)),
        ]);
    }

    // ------------------------------------------------------------------
    // Measured: real files + simulated Convex disk + prefetch pipeline.
    println!("\nMeasured streaming (reduced tapered-cylinder grid, real files on tmpfs):\n");
    let ds = tapered_dataset(small_spec(), 24);
    let dir = tempfile::tempdir().unwrap();
    flowfield::format::write_dataset(dir.path(), &ds).unwrap();
    let disk = DiskStore::open(dir.path()).unwrap();
    let step_bytes = ds.dims().timestep_bytes();

    // Scale the simulated bandwidth so the reduced grid exercises the
    // same *ratio* as the full 131k grid on the Convex: the full grid's
    // 1 572 864 B at 30 MB/s takes 52 ms → scale to our step size.
    let full_load = Duration::from_secs_f64(
        Dims::TAPERED_CYLINDER.timestep_bytes() as f64 / convex.bandwidth_bytes_per_sec,
    );
    let scaled_bw = step_bytes as f64 / full_load.as_secs_f64();
    let sim = Arc::new(SimulatedDisk::new(
        disk,
        DiskModel {
            bandwidth_bytes_per_sec: scaled_bw,
            seek: convex.seek,
        },
    ));

    let compute_budget = Duration::from_millis(40);
    let frames = 20usize;

    // Synchronous: load then compute, per frame.
    let start = Instant::now();
    for f in 0..frames {
        let _field = sim.fetch(f % sim.timestep_count()).unwrap();
        #[allow(clippy::disallowed_methods)]
        // stand-in for the solver's compute budget in the bench harness
        std::thread::sleep(compute_budget);
    }
    let sync_per_frame = start.elapsed() / frames as u32;

    // Prefetched (figure 8): next load overlaps the compute.
    let pf = Prefetcher::new(Arc::clone(&sim));
    pf.request(0);
    let start = Instant::now();
    for f in 0..frames {
        pf.request((f + 1) % sim.timestep_count());
        let _field = pf.wait(f % sim.timestep_count()).unwrap();
        #[allow(clippy::disallowed_methods)]
        // stand-in for the solver's compute budget in the bench harness
        std::thread::sleep(compute_budget);
    }
    let prefetch_per_frame = start.elapsed() / frames as u32;

    let mut m = TablePrinter::new(&["pipeline", "ms/frame", "fps"]);
    m.row(&[
        "synchronous load".to_string(),
        format!("{:.1}", sync_per_frame.as_secs_f64() * 1e3),
        format!("{:.1}", 1.0 / sync_per_frame.as_secs_f64()),
    ]);
    m.row(&[
        "prefetch (fig 8)".to_string(),
        format!("{:.1}", prefetch_per_frame.as_secs_f64() * 1e3),
        format!("{:.1}", 1.0 / prefetch_per_frame.as_secs_f64()),
    ]);

    // ------------------------------------------------------------------
    // Encoded: the chunk codec's lossless 3-D Lorenzo residuals. The disk
    // charges actual on-disk bytes, so the ratio converts directly into
    // effective bandwidth — the lever Table 2 says the paper lacked.
    println!("\nEncoded timesteps (chunk codec, lossless, bitwise-identical):\n");
    let v2_dir = tempfile::tempdir().unwrap();
    let full = tapered_dataset(paper_spec(), 1);
    let full_path = v2_dir.path().join("full.dvwq");
    flowfield::format::write_velocity_v2(&full_path, 0, 0.0, &full.timesteps()[0]).unwrap();
    let full_stored = std::fs::metadata(&full_path).unwrap().len();
    let full_raw = timestep_bytes(Dims::TAPERED_CYLINDER.point_count() as u64);
    let mut e = TablePrinter::new(&[
        "131072-pt timestep",
        "bytes on disk",
        "ratio",
        "fps @Convex 30MB/s",
    ]);
    for (name, bytes) in [("raw", full_raw), ("encoded", full_stored)] {
        e.row(&[
            name.to_string(),
            format!("{bytes}"),
            format!("{:.2}x", full_raw as f64 / bytes as f64),
            format!("{:.1}", convex.timesteps_per_sec(bytes)),
        ]);
    }

    println!("\nMeasured encoded streaming (reduced grid, same scaled disk model):\n");
    flowfield::format::write_dataset_v2(v2_dir.path(), &ds).unwrap();
    let v2_disk = DiskStore::open(v2_dir.path()).unwrap();
    let raw_total: u64 = (0..ds.timestep_count()).map(|t| sim.payload_bytes(t)).sum();
    let v2_total: u64 = (0..ds.timestep_count())
        .map(|t| v2_disk.payload_bytes(t))
        .sum();
    let v2_sim = SimulatedDisk::new(
        v2_disk,
        DiskModel {
            bandwidth_bytes_per_sec: scaled_bw,
            seek: convex.seek,
        },
    );
    let stream_rate = |store: &dyn TimestepStore| {
        let start = Instant::now();
        for t in 0..ds.timestep_count() {
            let f = store.fetch(t).unwrap();
            std::hint::black_box(f.as_slice().first());
        }
        ds.timestep_count() as f64 / start.elapsed().as_secs_f64()
    };
    let raw_tps = stream_rate(&*sim);
    let v2_tps = stream_rate(&v2_sim);

    let mut c = TablePrinter::new(&["container", "bytes on disk", "timesteps/s"]);
    c.row(&[
        "v1 raw".to_string(),
        format!("{raw_total}"),
        format!("{raw_tps:.1}"),
    ]);
    c.row(&[
        "chunked, encoded".to_string(),
        format!("{v2_total}"),
        format!("{v2_tps:.1}"),
    ]);
    println!(
        "\nreduced-grid ratio {:.2}x -> {:.2}x effective throughput",
        raw_total as f64 / v2_total as f64,
        v2_tps / raw_tps
    );

    println!();
    println!("paper row check: 131072 pts -> 1572864 B, 682/GiB, 15 MB/s; 10M pts needs ~1.1 GB/s");
    println!("(the paper's last row prints 360 MB/timestep = 36 B/pt; we keep 12 B/pt — see EXPERIMENTS.md).");
    println!("Shape to verify: Convex streams the tapered cylinder >10 fps; 3M+ points cannot;");
    println!("prefetch hides the ~52 ms scaled load behind the 40 ms compute.");
}
