//! The metric names this benchmark emits — the single list `--list`
//! prints, `BENCHMARK.json` mirrors, and later issues refer to.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen before
    /// it counts as a regression. End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The 1/8-s budget `frame_ms_*` is printed against.
pub const BUDGET_MS: f64 = 125.0;

/// Percentile reported as the latency tail.
pub const TAIL_PERCENTILE: f64 = 95.0;

/// What a user of the system sees; the same names on every workload.
/// (`failed_frac` is not a metric here: the contract wants metrics that
/// are never 0, and carries failures as `failed` / `attempted` instead.)
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("fps", "1/s", Better::Higher, 0.25),
    e2e("frame_ms_p50", "ms", Better::Lower, 0.25),
    e2e("frame_ms_p95", "ms", Better::Lower, 0.25),
    e2e("wire_bytes_per_frame", "B", Better::Lower, 0.02),
    e2e("server_cpu_ms_per_frame", "ms", Better::Lower, 0.25),
    e2e("server_peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Single-layer measurements from the traced run. No bounds: they explain
/// a change in an end-to-end metric, they do not gate one.
pub const PER_LAYER: [MetricDef; 35] = [
    layer("storage.fetch_calls_per_frame", "count", Better::Lower),
    layer("storage.backend_reads_per_frame", "count", Better::Lower),
    layer("storage.fetch_wait_ms_per_frame", "ms", Better::Lower),
    layer("storage.fetch_wait_ms_p95", "ms", Better::Lower),
    layer("storage.backend_read_ms_mean", "ms", Better::Lower),
    layer("storage.prefetch_hit_ratio", "ratio", Better::Higher),
    layer("storage.io_wait_ms_per_frame", "ms", Better::Lower),
    layer("storage.decode_ms_per_frame", "ms", Better::Lower),
    layer("storage.retried_reads", "count", Better::Lower),
    layer("compute.fetch_ms", "ms", Better::Lower),
    layer("compute.integrate_ms", "ms", Better::Lower),
    layer("compute.map_ms", "ms", Better::Lower),
    layer("compute.geom_hit_ratio", "ratio", Better::Higher),
    layer("tracer.streak_advance_ms", "ms", Better::Lower),
    layer("tracer.streak_particles_per_s", "1/s", Better::Higher),
    layer("tracer.points_per_frame", "count", Better::Higher),
    layer("proto.server_encode_ms", "ms", Better::Lower),
    layer("server.keyframe_frac", "ratio", Better::Lower),
    layer("server.shed_calls", "count", Better::Lower),
    layer("client.send_cmd_ms", "ms", Better::Lower),
    layer("dlib.call_ms_p50", "ms", Better::Lower),
    layer("dlib.call_ms_p95", "ms", Better::Lower),
    layer("link.pace_ms_per_frame", "ms", Better::Lower),
    layer("link.bytes_per_frame", "B", Better::Lower),
    layer("server.turnaround_ms", "ms", Better::Lower),
    layer("dlib.residual_ms", "ms", Better::Lower),
    layer("proto.decode_ms", "ms", Better::Lower),
    layer("client.apply_ms", "ms", Better::Lower),
    layer("vr.render_ms", "ms", Better::Lower),
    layer("spectator.frame_ms_p50", "ms", Better::Lower),
    layer("spectator.late_frac", "ratio", Better::Lower),
    layer("trace.client_sum_frac", "ratio", Better::Higher),
    layer("trace.overhead_frac", "ratio", Better::Lower),
    layer("trace.frames", "count", Better::Higher),
    layer("trace.untraced_frame_ms_p50", "ms", Better::Lower),
];

/// Named values, in registry order.
pub type Values = Vec<(&'static str, f64)>;

/// Panic unless `values` carries exactly the names of `defs`, in order —
/// a metric added in one place and not the other is a bug in this program.
pub fn assert_matches(defs: &[MetricDef], values: &Values) {
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    let got: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    assert_eq!(want, got, "emitted metrics differ from the registry");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }
}
