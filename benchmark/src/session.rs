//! The workstation side of the loop, composed from the windtunnel's public
//! pieces so that each step can be timed on its own: command, frame
//! request, decode, scene apply, render.

use crate::spans::Recorder;
use crate::workloads::FramePlan;
use crate::{BenchError, Result};
use dlib::DlibClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vecmath::{Mat4, Pose, Vec3};
use vr::{Framebuffer, Rgb, StereoCamera};
use windtunnel::client::Palette;
use windtunnel::proto::{
    FrameRequest, FrameStats, HelloReply, PROC_COMMAND, PROC_FRAME, PROC_FRAME_DELTA, PROC_HELLO,
    PROC_STATS,
};
use windtunnel::{
    Command, DeltaFrame, DeltaRequest, GeometryFrame, RetainedScene, WindtunnelClient,
};

pub const FRAME_WIDTH: usize = 640;
pub const FRAME_HEIGHT: usize = 480;

/// Span names of the client-side steps, in frame order.
pub const SPAN_FRAME: &str = "frame";
pub const SPAN_SEND_CMD: &str = "client.send_cmd";
pub const SPAN_CALL: &str = "dlib.call";
pub const SPAN_DECODE: &str = "proto.decode";
pub const SPAN_APPLY: &str = "client.apply";
pub const SPAN_RENDER: &str = "vr.render";

/// Period of the spectator's open-loop schedule.
const SPECTATOR_PERIOD: Duration = Duration::from_millis(100);

fn camera(head: Pose) -> StereoCamera {
    let mut cam = StereoCamera::new(head);
    cam.aspect = FRAME_WIDTH as f32 / FRAME_HEIGHT as f32;
    cam.fovy = 0.9;
    cam
}

/// A fixed three-quarter view framing the dataset bounds.
fn default_head(hello: &HelloReply) -> Pose {
    let bounds = hello.bounds();
    let center = bounds.center();
    let dist = bounds.diagonal().max(1.0);
    let eye = center + Vec3::new(-0.3 * dist, 0.5 * dist, 0.9 * dist);
    Pose::from_mat4(&Mat4::look_at(eye, center, Vec3::Y).inverse_rigid())
}

fn connect(addr: SocketAddr) -> Result<(DlibClient, HelloReply)> {
    let mut dlib = DlibClient::connect(addr)?;
    let hello = HelloReply::decode(&dlib.call(PROC_HELLO, b"")?)?;
    Ok((dlib, hello))
}

/// What one frame produced, for the checks and the metrics.
#[derive(Debug, Clone, Copy)]
pub struct FrameOutcome {
    pub frame_ms: f64,
    pub wire_bytes: usize,
    pub timestep: u32,
    pub revision: u64,
    pub particles: usize,
}

/// The driving client: one connection, one retained scene, one framebuffer.
pub struct Session {
    dlib: DlibClient,
    user_id: u64,
    /// Where frames are drawn from when the workload does not move the head.
    default_head: Pose,
    scene: RetainedScene,
    fb: Framebuffer,
    palette: Palette,
    /// The scene as the deltas reconstructed it, after the last frame.
    latest: Option<GeometryFrame>,
}

impl Session {
    pub fn connect(addr: SocketAddr) -> Result<Session> {
        let (dlib, hello) = connect(addr)?;
        Ok(Session {
            dlib,
            user_id: hello.user_id,
            default_head: default_head(&hello),
            scene: RetainedScene::new(),
            fb: Framebuffer::new(FRAME_WIDTH, FRAME_HEIGHT),
            palette: Palette::default(),
            latest: None,
        })
    }

    pub fn send(&mut self, cmd: &Command) -> Result<()> {
        self.dlib.call(PROC_COMMAND, &cmd.encode())?;
        Ok(())
    }

    /// One closed-loop frame: command → request → decode → apply → render.
    /// `frame_ms` runs from just before the command is encoded to the end
    /// of the render. Spans are recorded under `frame_id` when `rec` is on.
    pub fn frame(
        &mut self,
        plan: &FramePlan,
        rec: &Recorder,
        frame_id: i64,
        render: bool,
    ) -> Result<FrameOutcome> {
        let started = Instant::now();
        let start_ns = rec.now_ns();
        if let Some(cmd) = &plan.command {
            rec.time(SPAN_SEND_CMD, frame_id, || {
                self.dlib.call(PROC_COMMAND, &cmd.encode())
            })?;
        }
        let reply = rec.time(SPAN_CALL, frame_id, || {
            let req = DeltaRequest {
                advance: plan.advance,
                baseline: self.scene.revision(),
            };
            self.dlib.call(PROC_FRAME_DELTA, &req.encode())
        })?;
        let delta = rec.time(SPAN_DECODE, frame_id, || DeltaFrame::decode(&reply))?;
        let frame = rec.time(SPAN_APPLY, frame_id, || self.scene.apply(delta))?;
        if render {
            rec.time(SPAN_RENDER, frame_id, || {
                self.fb.clear(Rgb::BLACK);
                WindtunnelClient::render_stereo_for_user(
                    &frame,
                    &mut self.fb,
                    &camera(plan.head.unwrap_or(self.default_head)),
                    &self.palette,
                    self.user_id,
                );
            });
        }
        let frame_ms = started.elapsed().as_secs_f64() * 1.0e3;
        rec.push(SPAN_FRAME, frame_id, start_ns, rec.now_ns());
        let outcome = FrameOutcome {
            frame_ms,
            wire_bytes: reply.len(),
            timestep: frame.timestep,
            revision: frame.revision,
            particles: frame.particle_count(),
        };
        self.latest = Some(frame);
        Ok(outcome)
    }

    pub fn stats(&mut self) -> Result<FrameStats> {
        Ok(FrameStats::decode(&self.dlib.call(PROC_STATS, b"")?)?)
    }

    /// Delta ≡ full: the scene the deltas built must encode byte-identical
    /// to what the full-frame RPC returns at the same revision.
    pub fn check_delta_equals_full(&mut self) -> Result<()> {
        let full = self
            .dlib
            .call(PROC_FRAME, &FrameRequest { advance: false }.encode())?;
        let rebuilt = self
            .latest
            .as_ref()
            .ok_or_else(|| BenchError::new("no frame was fetched before the final check"))?
            .encode();
        if full[..] != rebuilt[..] {
            return Err(BenchError::new(format!(
                "delta-reconstructed scene ({} B) differs from PROC_FRAME ({} B)",
                rebuilt.len(),
                full.len()
            )));
        }
        Ok(())
    }
}

/// What the spectator saw.
#[derive(Debug, Default)]
pub struct SpectatorReport {
    /// Full-frame latency from the moment each poll was due, ms.
    pub frame_ms: Vec<f64>,
    /// Polls that could not start when due (the previous one still ran).
    pub late: usize,
    pub failed: usize,
}

/// A second workstation that polls full frames (`advance = false`) on a
/// fixed 10 Hz schedule and renders them — open loop, so a slow server
/// shows up as lateness rather than as a lower request rate.
pub struct Spectator {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<SpectatorReport>>,
}

impl Spectator {
    pub fn start(addr: SocketAddr) -> Result<Spectator> {
        let (mut dlib, hello) = connect(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("bench-spectator".into())
            .spawn(move || {
                let mut fb = Framebuffer::new(FRAME_WIDTH, FRAME_HEIGHT);
                let cam = camera(default_head(&hello));
                let request = FrameRequest { advance: false }.encode();
                let mut report = SpectatorReport::default();
                let began = Instant::now();
                let mut due = began;
                while !stopped.load(Ordering::SeqCst) {
                    match due.checked_duration_since(Instant::now()) {
                        // open-loop schedule: wait for the next poll to fall due
                        #[allow(clippy::disallowed_methods)]
                        Some(wait) => std::thread::sleep(wait),
                        None if due > began => report.late += 1,
                        None => {}
                    }
                    match dlib
                        .call(PROC_FRAME, &request)
                        .and_then(|bytes| GeometryFrame::decode(&bytes))
                    {
                        Ok(frame) => {
                            fb.clear(Rgb::BLACK);
                            WindtunnelClient::render_stereo(
                                &frame,
                                &mut fb,
                                &cam,
                                &Palette::default(),
                            );
                            report
                                .frame_ms
                                .push((Instant::now() - due).as_secs_f64() * 1.0e3);
                        }
                        Err(_) => {
                            report.failed += 1;
                            if dlib.is_poisoned() {
                                break;
                            }
                        }
                    }
                    due += SPECTATOR_PERIOD;
                }
                Ok(report)
            })?;
        Ok(Spectator { stop, thread })
    }

    pub fn finish(self) -> Result<SpectatorReport> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .unwrap_or_else(|_| Err(BenchError::new("spectator thread panicked")))
    }
}
