//! The analytic constraint models behind Tables 1 and 2.
//!
//! The paper's capacity analysis is three small formulas; keeping them in
//! code (and testing them against the printed tables) lets the bench
//! harness print the paper's rows next to measured values.

use std::time::Duration;

/// Bytes per particle on the wire: a 3-D f32 position (§5.1's argument:
/// 12 B beats the 16 B of two stereo-projected screen points).
pub const BYTES_PER_PARTICLE: u64 = 12;

/// The target frame rate of the virtual environment (§1.2).
pub const TARGET_FPS: f64 = 10.0;

/// The hard reaction budget (§1.2): 1/8 s.
pub const REACTION_BUDGET: Duration = Duration::from_millis(125);

/// Table 1: bytes transferred per frame for a particle count.
pub fn frame_bytes(particles: u64) -> u64 {
    particles * BYTES_PER_PARTICLE
}

/// Table 1: required network bandwidth (bytes/s) for `particles` at `fps`.
pub fn required_network_bandwidth(particles: u64, fps: f64) -> f64 {
    frame_bytes(particles) as f64 * fps
}

/// Table 1 prints MB/s in the binary sense (1 MB = 2²⁰ B): 10 000
/// particles → 1.144 MB/s.
pub fn required_network_mbytes_per_sec(particles: u64, fps: f64) -> f64 {
    required_network_bandwidth(particles, fps) / (1024.0 * 1024.0)
}

/// Table 2: bytes in one velocity timestep for a grid size.
pub fn timestep_bytes(grid_points: u64) -> u64 {
    grid_points * BYTES_PER_PARTICLE
}

/// Table 2: timesteps that fit in a gigabyte (binary GB, matching the
/// paper's 682 for the tapered cylinder).
pub fn timesteps_per_gibibyte(grid_points: u64) -> u64 {
    (1u64 << 30) / timestep_bytes(grid_points).max(1)
}

/// Table 2: required disk bandwidth (bytes/s) to stream at `fps`.
pub fn required_disk_bandwidth(grid_points: u64, fps: f64) -> f64 {
    timestep_bytes(grid_points) as f64 * fps
}

/// Table 2's MB/s column (decimal MB as printed in the paper: the tapered
/// cylinder row reads 15 MB/s ≈ 1 572 864 × 10 / 10⁶).
pub fn required_disk_mbytes_per_sec(grid_points: u64, fps: f64) -> f64 {
    required_disk_bandwidth(grid_points, fps) / 1.0e6
}

/// Table 1's rows: particle counts the paper evaluates.
pub const TABLE1_PARTICLES: [u64; 3] = [10_000, 50_000, 100_000];

/// Table 2's rows: grid sizes the paper evaluates (tapered cylinder, the
/// then-current maximum, and three hypothetical larger grids).
pub const TABLE2_GRID_POINTS: [u64; 5] = [131_072, 436_906, 1_000_000, 3_000_000, 10_000_000];

/// The Table 3 benchmark-time rows (seconds).
pub const TABLE3_BENCH_TIMES: [f64; 5] = [0.25, 0.19, 0.13, 0.10, 0.05];

/// Largest timestep loadable within the reaction budget at a given disk
/// bandwidth — §5.1's "three and a quarter megabytes in 1/8th of a
/// second" observation.
#[expect(
    clippy::cast_possible_truncation,
    reason = "floors a rate to whole bytes; `as` saturates"
)]
pub fn max_timestep_bytes_within_budget(bandwidth_bytes_per_sec: f64, budget: Duration) -> u64 {
    (bandwidth_bytes_per_sec * budget.as_secs_f64()) as u64
}

/// Maximum grid points streamable at `fps` given a disk bandwidth.
#[expect(
    clippy::cast_possible_truncation,
    reason = "floors a rate to whole points; `as` saturates"
)]
pub fn max_grid_points(bandwidth_bytes_per_sec: f64, fps: f64) -> u64 {
    (bandwidth_bytes_per_sec / (fps * BYTES_PER_PARTICLE as f64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::Dims;

    #[test]
    fn table1_rows_match_paper() {
        // Table 1: 10 000 → 120 000 B, 1.144 MB/s; 50 000 → 600 000 B,
        // 5.722 MB/s. The printed 100 000-particle row (9.537 MB/s) does
        // not follow the formula of the first two rows (1 200 000 B ×
        // 10 fps = 11.444 MiB/s; 9.537 is what 1 000 000 B/frame would
        // give) — we reproduce the formula, and note the paper's
        // arithmetic slip in EXPERIMENTS.md.
        let expect = [
            (10_000u64, 120_000u64, 1.144),
            (50_000, 600_000, 5.722),
            (100_000, 1_200_000, 11.444),
        ];
        for (particles, bytes, mbps) in expect {
            assert_eq!(frame_bytes(particles), bytes);
            let got = required_network_mbytes_per_sec(particles, TARGET_FPS);
            assert!((got - mbps).abs() < 0.001, "{particles}: {got} vs {mbps}");
        }
    }

    #[test]
    fn table2_rows_match_paper() {
        // Table 2 columns: bytes/timestep, timesteps per GB, MB/s at 10fps.
        let rows: [(u64, u64, u64, f64); 5] = [
            (131_072, 1_572_864, 682, 15.0),
            (436_906, 5_242_872, 204, 50.0),
            (1_000_000, 12_000_000, 89, 114.4),
            (3_000_000, 36_000_000, 29, 343.32),
            (10_000_000, 120_000_000, 8, 1_144.4),
        ];
        for (points, bytes, per_gb, mbps) in rows {
            assert_eq!(timestep_bytes(points), bytes, "bytes for {points}");
            assert_eq!(
                timesteps_per_gibibyte(points),
                per_gb,
                "per-GB for {points}"
            );
            let got = required_disk_mbytes_per_sec(points, TARGET_FPS);
            // The paper's MB/s column uses decimal MB for the small rows
            // and is internally inconsistent for the largest (it prints
            // 360 MB/timestep and 3433 MB/s for the 10 M row, i.e. 36 B
            // per point — we follow the 12 B/point convention of every
            // other row and document the discrepancy in EXPERIMENTS.md).
            assert!(
                (got - mbps).abs() / mbps < 0.05,
                "{points}: {got} vs {mbps}"
            );
        }
    }

    #[test]
    fn paper_per_gb_of_436906_row() {
        // The paper prints 204 timesteps/GB for the 436 906-point grid
        // (5 242 880 B/timestep in the paper — it rounds the byte count
        // to the enclosing 5 242 880 = 0x500000; ours is the exact
        // 436 906 × 12 = 5 242 872). Both give 204 per binary GB.
        assert_eq!(timesteps_per_gibibyte(436_906), 204);
    }

    #[test]
    fn convex_budget_observation() {
        // §5.1: 30 MB/s loads ~3.25 MB in 1/8 s.
        let max = max_timestep_bytes_within_budget(30.0e6, REACTION_BUDGET);
        assert!((max as f64 - 3.75e6).abs() < 0.1e6); // 30e6 × 0.125
                                                      // (The paper says "about three and a quarter megabytes"; exact
                                                      // arithmetic gives 3.75 decimal MB = 3.58 binary MB.)
    }

    #[test]
    fn max_grid_points_inverts_bandwidth() {
        let pts = max_grid_points(15.0e6, TARGET_FPS);
        assert!((pts as i64 - 125_000).abs() < 1000);
    }

    #[test]
    fn tapered_cylinder_consistency_with_dims() {
        assert_eq!(
            timestep_bytes(Dims::TAPERED_CYLINDER.point_count() as u64),
            Dims::TAPERED_CYLINDER.timestep_bytes() as u64
        );
    }
}
