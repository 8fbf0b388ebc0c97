//! Per-layer attribution from the traced pass: link the spans of both
//! processes into one tree per frame, then reduce spans, relay accounting
//! and `PROC_STATS` polls to the per-layer metrics.

use crate::metrics::{Values, TAIL_PERCENTILE};
use crate::relay::Burst;
use crate::serve::{SPAN_BACKEND_READ, SPAN_FETCH};
use crate::session::{
    FrameOutcome, SpectatorReport, SPAN_APPLY, SPAN_CALL, SPAN_DECODE, SPAN_FRAME, SPAN_RENDER,
    SPAN_SEND_CMD,
};
use crate::spans::{self_times, Span};
use crate::stats::{mean, median, percentile};
use std::collections::HashMap;
use storage::DiskModel;
use windtunnel::proto::FrameStats;

/// Span name of one busy period of the paced link.
pub const SPAN_LINK_PACE: &str = "link.pace";

/// Merge the driver's spans, the child's spans and the relay's busy
/// periods into one list with ids, frames and parents assigned.
///
/// * a client step's parent is its frame's `frame` span;
/// * a server or link span belongs to the timed frame during which it
///   started (spans from before the first timed frame or after the last
///   are warm-up and teardown, and are dropped);
/// * `link.pace` and `storage.fetch` hang under the `dlib.call` during
///   which they started, `storage.backend_read` under the `storage.fetch`
///   that contains it; one with no such parent (a prefetch nobody waited
///   for, a stats poll's reply) stays a root.
pub fn link_spans(client: Vec<Span>, server: Vec<Span>, bursts: &[Burst]) -> Vec<Span> {
    let mut out = client;
    out.sort_by_key(|s| (s.frame_id, s.name != SPAN_FRAME, s.start_ns));
    for (i, s) in out.iter_mut().enumerate() {
        s.id = i as u64 + 1;
    }
    let frames: Vec<Span> = out
        .iter()
        .filter(|s| s.name == SPAN_FRAME)
        .cloned()
        .collect();
    let frame_span_ids: HashMap<i64, u64> = frames.iter().map(|f| (f.frame_id, f.id)).collect();
    for s in out.iter_mut().filter(|s| s.name != SPAN_FRAME) {
        s.parent = frame_span_ids.get(&s.frame_id).copied().unwrap_or(0);
    }
    let (Some(first), Some(last)) = (frames.first(), frames.last()) else {
        return out;
    };
    let (timed_start, timed_end) = (first.start_ns, last.end_ns);
    let calls: HashMap<i64, Span> = out
        .iter()
        .filter(|s| s.name == SPAN_CALL)
        .map(|s| (s.frame_id, s.clone()))
        .collect();

    let mut outside: Vec<Span> = server;
    outside.extend(bursts.iter().map(|&(start_ns, end_ns)| Span {
        id: 0,
        frame_id: -1,
        name: SPAN_LINK_PACE.to_string(),
        start_ns,
        end_ns,
        parent: 0,
    }));
    outside.retain(|s| s.start_ns >= timed_start && s.start_ns <= timed_end);
    // Fetches before backend reads, so a read can find its fetch's id.
    outside.sort_by_key(|s| (s.name == SPAN_BACKEND_READ, s.start_ns));
    let mut fetches: Vec<Span> = Vec::new();
    for mut s in outside {
        s.id = out.len() as u64 + 1;
        let frame_idx = frames.partition_point(|f| f.start_ns <= s.start_ns) - 1;
        s.frame_id = frames[frame_idx].frame_id;
        let parent = if s.name == SPAN_BACKEND_READ {
            // Only a read the fetch sat through: a prefetch that merely
            // started during a fetch of another timestep outlives it.
            fetches.iter().rev().find(|p| p.contains(&s))
        } else {
            // By start alone: the client can return from the call a few
            // microseconds before the relay stamps its last slice.
            calls
                .get(&s.frame_id)
                .filter(|p| p.start_ns <= s.start_ns && s.start_ns <= p.end_ns)
        };
        s.parent = parent.map_or(0, |p| p.id);
        if s.name == SPAN_FETCH {
            fetches.push(s.clone());
        }
        out.push(s);
    }
    out
}

/// Everything the traced pass measured.
pub struct TracedPass<'a> {
    pub frames: &'a [FrameOutcome],
    /// `PROC_STATS` just before the first timed frame, then after each.
    pub stats_before: FrameStats,
    pub stats: &'a [FrameStats],
    /// Linked spans ([`link_spans`]).
    pub spans: &'a [Span],
    /// Bytes the relay forwarded server→client during the timed phase.
    pub relay_bytes: u64,
    /// The relay's rate, when the workload has one.
    pub link_bytes_per_sec: Option<f64>,
    pub spectator: Option<&'a SpectatorReport>,
    /// Median frame time of the untraced pass, the overhead's base.
    pub untraced_p50_ms: f64,
}

fn durations_ms<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(Span::duration_ms).collect()
}

/// Sum from +0.0 (an empty `Iterator::sum` is -0.0, which prints as `-0`).
fn total(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |acc, v| acc + v)
}

fn ratio(part: f64, whole: f64, when_empty: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        when_empty
    }
}

/// Reduce the traced pass to the `PER_LAYER` metrics, in registry order.
pub fn layer_metrics(t: &TracedPass) -> Values {
    let n = t.frames.len().max(1) as f64;
    let named = |name: &'static str| t.spans.iter().filter(move |s| s.name == name);
    let per_frame_ms = |name: &'static str| total(&durations_ms(named(name))) / n;
    let last = t.stats.last().copied().unwrap_or(t.stats_before);
    let delta = |f: fn(&FrameStats) -> u64| f(&last).saturating_sub(f(&t.stats_before)) as f64;
    let polled_ms = |f: fn(&FrameStats) -> u64| {
        mean(
            &t.stats
                .iter()
                .map(|s| f(s) as f64 / 1.0e3)
                .collect::<Vec<_>>(),
        )
    };

    let fetch_ms = durations_ms(named(SPAN_FETCH));
    let backend_ms = durations_ms(named(SPAN_BACKEND_READ));
    // A fetch that came back faster than one seek cannot have waited for
    // a whole backend read: it was resident or already in flight.
    let seek_ms = DiskModel::convex_c3240().seek.as_secs_f64() * 1.0e3;
    let quick_fetches = fetch_ms.iter().filter(|&&ms| ms < seek_ms).count();

    let call_ms = durations_ms(named(SPAN_CALL));
    // Link occupancy proper: every relayed byte holds the link 1/rate. The
    // `link.pace` spans in the trace are busy periods, which also contain
    // any time the link starved while the server was still delivering;
    // that time belongs to the server's turnaround, not to the link.
    let pace_ms = t
        .link_bytes_per_sec
        .map_or(0.0, |rate| t.relay_bytes as f64 / rate * 1.0e3 / n);
    let compute_fetch = polled_ms(|s| s.fetch_us);
    let compute_integrate = polled_ms(|s| s.integrate_us);
    let compute_map = polled_ms(|s| s.map_us);
    let streak_advance = polled_ms(|s| {
        s.streak_sample_us + s.streak_integrate_us + s.streak_compact_us + s.streak_inject_us
    });
    let server_encode = polled_ms(|s| s.chunk_encode_us + s.delta_encode_us);
    let turnaround = mean(&call_ms) - pace_ms;
    let stage_sum =
        compute_fetch + compute_integrate + compute_map + streak_advance + server_encode;

    let selfs = self_times(t.spans);
    let (frame_ns, frame_self_ns) = named(SPAN_FRAME).fold((0u64, 0u64), |(d, s), f| {
        (
            d + f.duration_ns(),
            s + selfs.get(&f.id).copied().unwrap_or(0),
        )
    });
    let traced_p50 = median(&t.frames.iter().map(|f| f.frame_ms).collect::<Vec<_>>());

    let spectator_ms = t.spectator.map(|s| s.frame_ms.as_slice()).unwrap_or(&[]);
    let spectator_polls = t.spectator.map_or(0, |s| s.frame_ms.len() + s.failed);

    vec![
        ("storage.fetch_calls_per_frame", fetch_ms.len() as f64 / n),
        (
            "storage.backend_reads_per_frame",
            backend_ms.len() as f64 / n,
        ),
        ("storage.fetch_wait_ms_per_frame", total(&fetch_ms) / n),
        (
            "storage.fetch_wait_ms_p95",
            percentile(&fetch_ms, TAIL_PERCENTILE).unwrap_or(0.0),
        ),
        ("storage.backend_read_ms_mean", mean(&backend_ms)),
        (
            "storage.prefetch_hit_ratio",
            ratio(quick_fetches as f64, fetch_ms.len() as f64, 1.0),
        ),
        (
            "storage.io_wait_ms_per_frame",
            delta(|s| s.cum_io_wait_us) / 1.0e3 / n,
        ),
        (
            "storage.decode_ms_per_frame",
            delta(|s| s.cum_decode_us) / 1.0e3 / n,
        ),
        ("storage.retried_reads", delta(|s| s.cum_store_retries)),
        ("compute.fetch_ms", compute_fetch),
        ("compute.integrate_ms", compute_integrate),
        ("compute.map_ms", compute_map),
        (
            "compute.geom_hit_ratio",
            ratio(
                delta(|s| s.cum_geom_hits),
                delta(|s| s.cum_geom_hits) + delta(|s| s.cum_geom_misses),
                1.0,
            ),
        ),
        ("tracer.streak_advance_ms", streak_advance),
        (
            "tracer.streak_particles_per_s",
            mean(
                &t.stats
                    .iter()
                    .map(|s| s.streak_particles_per_s as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "tracer.points_per_frame",
            mean(
                &t.frames
                    .iter()
                    .map(|f| f.particles as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("proto.server_encode_ms", server_encode),
        ("server.keyframe_frac", delta(|s| s.cum_keyframes) / n),
        ("server.shed_calls", delta(|s| s.cum_shed_calls)),
        ("client.send_cmd_ms", per_frame_ms(SPAN_SEND_CMD)),
        ("dlib.call_ms_p50", median(&call_ms).unwrap_or(0.0)),
        (
            "dlib.call_ms_p95",
            percentile(&call_ms, TAIL_PERCENTILE).unwrap_or(0.0),
        ),
        ("link.pace_ms_per_frame", pace_ms),
        ("link.bytes_per_frame", t.relay_bytes as f64 / n),
        ("server.turnaround_ms", turnaround),
        ("dlib.residual_ms", turnaround - stage_sum),
        ("proto.decode_ms", per_frame_ms(SPAN_DECODE)),
        ("client.apply_ms", per_frame_ms(SPAN_APPLY)),
        ("vr.render_ms", per_frame_ms(SPAN_RENDER)),
        (
            "spectator.frame_ms_p50",
            median(spectator_ms).unwrap_or(0.0),
        ),
        (
            "spectator.late_frac",
            ratio(
                t.spectator.map_or(0, |s| s.late) as f64,
                spectator_polls as f64,
                0.0,
            ),
        ),
        (
            "trace.client_sum_frac",
            ratio((frame_ns - frame_self_ns) as f64, frame_ns as f64, 0.0),
        ),
        (
            "trace.overhead_frac",
            ratio(
                traced_p50.unwrap_or(0.0) - t.untraced_p50_ms,
                t.untraced_p50_ms,
                0.0,
            ),
        ),
        ("trace.frames", t.frames.len() as f64),
        ("trace.untraced_frame_ms_p50", t.untraced_p50_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, frame_id: i64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            frame_id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: 0,
        }
    }

    #[test]
    fn links_both_processes_into_frame_trees() {
        let client = vec![
            span(SPAN_CALL, 0, 1_010, 1_500),
            span(SPAN_RENDER, 0, 1_600, 1_900),
            span(SPAN_FRAME, 0, 1_000, 2_000),
            span(SPAN_CALL, 1, 2_010, 2_500),
            span(SPAN_FRAME, 1, 2_000, 3_000),
        ];
        let server = vec![
            span(SPAN_FETCH, -1, 500, 600),            // warm-up: dropped
            span(SPAN_FETCH, -1, 1_100, 1_400),        // demand fetch, frame 0
            span(SPAN_BACKEND_READ, -1, 1_150, 1_350), // its read
            span(SPAN_BACKEND_READ, -1, 1_700, 2_200), // background prefetch
            span(SPAN_FETCH, -1, 2_100, 2_110),        // frame 1, prefetched
            span(SPAN_FETCH, -1, 9_000, 9_100),        // after the run: dropped
        ];
        let bursts = [(1_420, 1_490), (1_950, 1_960)];
        let linked = link_spans(client, server, &bursts);
        assert_eq!(linked.len(), 5 + 4 + 2);
        let find = |name: &str, start: u64| {
            linked
                .iter()
                .find(|s| s.name == name && s.start_ns == start)
                .unwrap()
        };
        let frame0 = find(SPAN_FRAME, 1_000);
        let call0 = find(SPAN_CALL, 1_010);
        assert_eq!(frame0.parent, 0);
        assert_eq!(call0.parent, frame0.id);
        assert_eq!(find(SPAN_RENDER, 1_600).parent, frame0.id);
        let fetch0 = find(SPAN_FETCH, 1_100);
        assert_eq!((fetch0.frame_id, fetch0.parent), (0, call0.id));
        assert_eq!(find(SPAN_BACKEND_READ, 1_150).parent, fetch0.id);
        let prefetch = find(SPAN_BACKEND_READ, 1_700);
        assert_eq!((prefetch.frame_id, prefetch.parent), (0, 0));
        let fetch1 = find(SPAN_FETCH, 2_100);
        assert_eq!(
            (fetch1.frame_id, fetch1.parent),
            (1, find(SPAN_CALL, 2_010).id)
        );
        assert_eq!(find(SPAN_LINK_PACE, 1_420).parent, call0.id);
        // The reply to a stats poll, after the render: a root.
        assert_eq!(find(SPAN_LINK_PACE, 1_950).parent, 0);
        // Ids are unique.
        let mut ids: Vec<u64> = linked.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), linked.len());
    }
}
