//! One workload, measured: set the rig up, warm it, run the closed loop
//! for the requested time with every output check on, tear it down.

use crate::layers::{layer_metrics, link_spans, TracedPass};
use crate::metrics::{Values, TAIL_PERCENTILE};
use crate::relay::{Burst, Relay};
use crate::rig::{self, Profile, ScratchDir, ServerChild, OUT_DIR};
use crate::session::{FrameOutcome, Session, Spectator, SpectatorReport};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, percentile};
use crate::workloads::{Script, Workload};
use crate::{BenchError, Result};
use std::path::Path;
use std::time::{Duration, Instant};
use windtunnel::proto::FrameStats;

/// Consecutive failed frames after which the run is abandoned: the
/// connection is gone and the remaining frames would all fail the same way.
const MAX_CONSECUTIVE_FAILURES: usize = 10;

/// A traced pass polls `PROC_STATS` after a timed frame, but no more often
/// than this. On every workload but the sub-2-ms one that is every frame.
/// There, a poll after each frame would wake the server's idle threads
/// just before the next frame starts and so shorten the very frames being
/// traced (the traced p50 came out 12 % *below* the untraced one).
const STATS_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Warm-up frames that also render (the rest only keep the scene in sync),
/// enough to fault the framebuffer in.
const RENDERED_WARMUP_FRAMES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub profile: Profile,
}

/// A rig with a warmed-up session on it, ready for its first timed frame.
struct Live {
    session: Session,
    script: Script,
    spectator: Option<Spectator>,
    relay: Option<Relay>,
    child: ServerChild,
    _scratch: ScratchDir,
}

fn set_up(cfg: &RunConfig, recorder: &Recorder) -> Result<Live> {
    let scratch = ScratchDir::create()?;
    rig::write_dataset(scratch.path(), &cfg.profile)?;
    let (child, server_addr) = ServerChild::spawn(scratch.path(), recorder.enabled())?;
    let relay = match cfg.workload.link_bytes_per_sec() {
        Some(rate) => Some(Relay::start(server_addr, rate, recorder.clock())?),
        None => None,
    };
    let client_addr = relay.as_ref().map_or(server_addr, Relay::addr);
    let mut session = Session::connect(client_addr)?;
    let mut script = Script::new(cfg.workload, cfg.seed, &cfg.profile);
    for cmd in script.scene() {
        session.send(&cmd)?;
    }
    let spectator = match cfg.workload.has_spectator() {
        true => Some(Spectator::start(server_addr)?),
        false => None,
    };
    let untraced = Recorder::new(false);
    let warmup = script.warmup_frames();
    for n in 0..warmup {
        let render = n + RENDERED_WARMUP_FRAMES >= warmup;
        session.frame(&script.next_frame(), &untraced, -1, render)?;
    }
    Ok(Live {
        session,
        script,
        spectator,
        relay,
        child,
        _scratch: scratch,
    })
}

struct TornDown {
    server_spans: Vec<Span>,
    bursts: Vec<Burst>,
}

fn tear_down(live: Live) -> Result<TornDown> {
    live.spectator.map(Spectator::finish).transpose()?;
    drop(live.session);
    let bursts = live
        .relay
        .map(Relay::finish)
        .transpose()?
        .unwrap_or_default();
    let server_spans = live.child.finish()?;
    Ok(TornDown {
        server_spans,
        bursts,
    })
}

/// One measured pass over a workload.
pub struct Pass {
    pub frames: Vec<FrameOutcome>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub timed_secs: f64,
    pub setup_secs: Vec<f64>,
    pub server_cpu_secs: f64,
    pub server_peak_rss_mib: f64,
    // Filled by a traced pass only.
    stats_before: FrameStats,
    stats: Vec<FrameStats>,
    spans: Vec<Span>,
    relay_bytes: u64,
    spectator: Option<SpectatorReport>,
}

impl Pass {
    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    fn frame_ms(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.frame_ms).collect()
    }

    pub fn frame_ms_p50(&self) -> f64 {
        median(&self.frame_ms()).unwrap_or(0.0)
    }

    /// The `END_TO_END` metrics, in registry order.
    pub fn end_to_end(&self) -> Values {
        let n = self.frames.len().max(1) as f64;
        let wire: usize = self.frames.iter().map(|f| f.wire_bytes).sum();
        vec![
            ("setup_s", median(&self.setup_secs).unwrap_or(0.0)),
            ("fps", self.frames.len() as f64 / self.timed_secs),
            ("frame_ms_p50", self.frame_ms_p50()),
            (
                "frame_ms_p95",
                percentile(&self.frame_ms(), TAIL_PERCENTILE).unwrap_or(0.0),
            ),
            ("wire_bytes_per_frame", wire as f64 / n),
            ("server_cpu_ms_per_frame", self.server_cpu_secs * 1.0e3 / n),
            ("server_peak_rss_mb", self.server_peak_rss_mib),
        ]
    }

    /// The `PER_LAYER` metrics of a traced pass, in registry order.
    pub fn per_layer(&self, workload: Workload, untraced_p50_ms: f64) -> Values {
        layer_metrics(&TracedPass {
            frames: &self.frames,
            stats_before: self.stats_before,
            stats: &self.stats,
            spans: &self.spans,
            relay_bytes: self.relay_bytes,
            link_bytes_per_sec: workload.link_bytes_per_sec(),
            spectator: self.spectator.as_ref(),
            untraced_p50_ms,
        })
    }
}

/// Check one timed frame's reply against the script.
fn check_frame(
    n: usize,
    got: &FrameOutcome,
    expect_timestep: u32,
    expect_particles: Option<usize>,
    last_revision: u64,
) -> std::result::Result<(), String> {
    if got.revision <= last_revision {
        return Err(format!(
            "frame {n}: revision {} does not exceed {last_revision}",
            got.revision
        ));
    }
    if got.timestep != expect_timestep {
        return Err(format!(
            "frame {n}: timestep {} but the script is at {expect_timestep}",
            got.timestep
        ));
    }
    match expect_particles {
        Some(want) if got.particles != want => Err(format!(
            "frame {n}: {} points but the scene has {want}",
            got.particles
        )),
        _ => Ok(()),
    }
}

/// Run one pass. `traced` turns the span recorders on in both processes,
/// polls `PROC_STATS` after timed frames and writes
/// `benchmark/out/<workload>.trace.jsonl`; an untraced pass does none of
/// that and repeats the set-up `profile.setups` times for `setup_s`.
pub fn run_pass(cfg: &RunConfig, traced: bool) -> Result<Pass> {
    let recorder = Recorder::new(traced);
    let setups = if traced { 1 } else { cfg.profile.setups };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut live = None;
    for _ in 0..setups {
        if let Some(rehearsal) = live.take() {
            tear_down(rehearsal)?;
        }
        let started = Instant::now();
        live = Some(set_up(cfg, &recorder)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let mut live = live.ok_or_else(|| BenchError::new("profile asks for zero set-ups"))?;

    let expect_particles = live.script.expected_particles();
    let stats_before = match traced {
        true => live.session.stats()?,
        false => FrameStats::default(),
    };
    let relay_bytes_before = live.relay.as_ref().map_or(0, Relay::bytes_down);
    let cpu_before = live.child.cpu_seconds()?;
    let budget = Duration::from_secs_f64(cfg.seconds);

    let mut frames = Vec::new();
    let mut stats = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    let mut consecutive = 0usize;
    let mut last_revision = 0u64;
    let started = Instant::now();
    let mut last_poll = started;
    while attempted < cfg.profile.max_frames
        && (started.elapsed() < budget || attempted < cfg.profile.min_frames)
    {
        let plan = live.script.next_frame();
        let n = attempted;
        attempted += 1;
        let verdict = match live.session.frame(&plan, &recorder, n as i64, true) {
            Ok(got) => {
                let verdict = check_frame(
                    n,
                    &got,
                    plan.expect_timestep,
                    expect_particles,
                    last_revision,
                );
                last_revision = got.revision;
                frames.push(got);
                verdict
            }
            Err(e) => Err(format!("frame {n}: {e}")),
        };
        match verdict {
            Ok(()) => consecutive = 0,
            Err(why) => {
                failures.push(why);
                consecutive += 1;
                if consecutive >= MAX_CONSECUTIVE_FAILURES {
                    return Err(BenchError::new(format!(
                        "{MAX_CONSECUTIVE_FAILURES} frames failed in a row; last: {}",
                        failures.last().map_or("", String::as_str)
                    )));
                }
            }
        }
        if traced && last_poll.elapsed() >= STATS_POLL_INTERVAL {
            stats.push(live.session.stats()?);
            last_poll = Instant::now();
        }
    }
    let timed_secs = started.elapsed().as_secs_f64();
    if traced {
        // Closing poll, so the cumulative counters cover every timed frame.
        stats.push(live.session.stats()?);
    }
    let server_cpu_secs = live.child.cpu_seconds()? - cpu_before;
    let relay_bytes = live.relay.as_ref().map_or(0, Relay::bytes_down) - relay_bytes_before;

    // The spectator may keep polling meanwhile (a poll moves no revision),
    // but it must not hang up first: that would change the user list.
    attempted += 1;
    if let Err(e) = live.session.check_delta_equals_full() {
        failures.push(format!("final check: {e}"));
    }
    let spectator = live.spectator.take().map(Spectator::finish).transpose()?;
    if let Some(report) = &spectator {
        attempted += report.failed;
        failures.extend((0..report.failed).map(|_| "spectator poll failed".to_string()));
    }
    let server_peak_rss_mib = live.child.peak_rss_mib()?;
    let torn = tear_down(live)?;

    let spans = link_spans(recorder.take(), torn.server_spans, &torn.bursts);
    if traced {
        std::fs::write(
            Path::new(OUT_DIR).join(format!("{}.trace.jsonl", cfg.workload.name())),
            spans::to_jsonl(&spans),
        )?;
    }
    Ok(Pass {
        frames,
        attempted,
        failures,
        timed_secs,
        setup_secs,
        server_cpu_secs,
        server_peak_rss_mib,
        stats_before,
        stats,
        spans,
        relay_bytes,
        spectator,
    })
}
