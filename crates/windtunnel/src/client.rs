//! The workstation side: commands out, geometry in, frames rendered.
//!
//! Figure 9: the workstation runs a network conversation (this module's
//! blocking calls, meant to live on a dedicated thread) and a renderer
//! (the `vr` substrate) that draws the last received environment state
//! from the head-tracked point of view at full rate.

use crate::env::RakeId;
use crate::proto::{
    Command, DeltaFrame, DeltaRequest, FrameRequest, FrameStats, GeometryFrame, HelloReply,
    Lattice, PathKind, PathMsg, PROC_COMMAND, PROC_FRAME, PROC_FRAME_DELTA, PROC_HELLO, PROC_STATS,
};
use dlib::{ClientConfig, DlibClient, DlibError, ReconnectingClient, Result, RetryPolicy};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use vecmath::Vec3;
use vr::render::Rgb;
use vr::stereo::{render_anaglyph, StereoCamera};
use vr::Framebuffer;

/// Per-kind line shades for the anaglyph display (applied to both eyes).
#[derive(Debug, Clone, Copy)]
pub struct Palette {
    pub streamline: u8,
    pub particle_path: u8,
    pub streak: u8,
    pub rake: u8,
}

impl Default for Palette {
    fn default() -> Self {
        Palette {
            streamline: 235,
            particle_path: 180,
            streak: 140,
            rake: 255,
        }
    }
}

/// The client's retained copy of the server's computed geometry, keyed
/// by rake id. FRAME_DELTA replies patch it — chunks upsert, tombstones
/// delete, keyframes replace wholesale — and a full [`GeometryFrame`]
/// is reassembled from it after every patch, byte-identical to what the
/// full-frame RPC would have returned at the same revision.
#[derive(Default)]
pub struct RetainedScene {
    /// Revision of the last applied delta — the baseline acknowledged
    /// back to the server. Zero means "no scene": the next reply must be
    /// a keyframe.
    revision: u64,
    /// Per-rake paths, ascending by rake id to match the server's frame
    /// assembly order.
    chunks: BTreeMap<RakeId, Vec<PathMsg>>,
    /// The lattice the retained paths were decoded on (`None`: no scene).
    lattice: Option<Lattice>,
}

impl RetainedScene {
    pub fn new() -> RetainedScene {
        RetainedScene::default()
    }

    /// The baseline to acknowledge in the next [`DeltaRequest`].
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Rakes currently retained.
    pub fn rake_count(&self) -> usize {
        self.chunks.len()
    }

    /// Apply one delta (or keyframe) and reassemble the resulting full
    /// frame.
    pub fn apply(&mut self, delta: DeltaFrame) -> Result<GeometryFrame> {
        if delta.keyframe {
            self.chunks.clear();
        } else {
            if delta.baseline != self.revision {
                return Err(DlibError::Protocol(format!(
                    "delta patches baseline {} but the scene is at {}",
                    delta.baseline, self.revision
                )));
            }
            if self.lattice != Some(delta.lattice) {
                return Err(DlibError::Protocol(format!(
                    "delta on {:?} patches a scene on {:?}",
                    delta.lattice, self.lattice
                )));
            }
            for id in &delta.tombstones {
                self.chunks.remove(id);
            }
        }
        for chunk in delta.chunks {
            self.chunks.insert(chunk.rake_id, chunk.paths);
        }
        self.revision = delta.revision;
        self.lattice = Some(delta.lattice);
        let paths: Vec<PathMsg> = self
            .chunks
            .values()
            .flat_map(|p| p.iter().cloned())
            .collect();
        Ok(GeometryFrame {
            timestep: delta.timestep,
            time: delta.time,
            revision: delta.revision,
            lattice: delta.lattice,
            rakes: delta.rakes,
            paths,
            users: delta.users,
        })
    }
}

/// A connected windtunnel client.
pub struct WindtunnelClient {
    dlib: DlibClient,
    hello: HelloReply,
    scene: RetainedScene,
    said_goodbye: bool,
}

impl WindtunnelClient {
    /// Connect and perform the session handshake.
    pub fn connect(addr: SocketAddr) -> Result<WindtunnelClient> {
        let mut dlib = DlibClient::connect(addr)?;
        let reply = dlib.call(PROC_HELLO, b"")?;
        let hello = HelloReply::decode(&reply)?;
        Ok(WindtunnelClient {
            dlib,
            hello,
            scene: RetainedScene::new(),
            said_goodbye: false,
        })
    }

    /// Session metadata learned at connect time.
    pub fn hello(&self) -> &HelloReply {
        &self.hello
    }

    /// This client's user id (for recognizing its own rake locks).
    pub fn user_id(&self) -> u64 {
        self.hello.user_id
    }

    /// Send one environment command.
    pub fn send(&mut self, cmd: &Command) -> Result<()> {
        self.dlib.call(PROC_COMMAND, &cmd.encode())?;
        if matches!(cmd, Command::Goodbye) {
            self.said_goodbye = true;
        }
        Ok(())
    }

    /// Request the current geometry frame; `advance` drives the shared
    /// clock (exactly one client per session should pass `true`).
    pub fn frame(&mut self, advance: bool) -> Result<GeometryFrame> {
        self.frame_measured(advance).map(|(f, _)| f)
    }

    /// [`WindtunnelClient::frame`], also reporting the reply's payload
    /// size in bytes (benchmark harnesses measure wire traffic with it).
    pub fn frame_measured(&mut self, advance: bool) -> Result<(GeometryFrame, usize)> {
        let bytes = self
            .dlib
            .call(PROC_FRAME, &FrameRequest { advance }.encode())?;
        Ok((GeometryFrame::decode(&bytes)?, bytes.len()))
    }

    /// Request the current frame incrementally: the server sends only the
    /// rakes whose geometry changed since this client's last delta (or a
    /// full keyframe when there is no usable baseline), and the retained
    /// scene reassembles the complete frame. Mixing [`Self::frame`] and
    /// this is safe — the full-frame RPC neither reads nor moves the
    /// baseline.
    pub fn frame_delta(&mut self, advance: bool) -> Result<GeometryFrame> {
        self.frame_delta_measured(advance).map(|(f, _)| f)
    }

    /// [`WindtunnelClient::frame_delta`], also reporting the reply's
    /// payload size in bytes.
    pub fn frame_delta_measured(&mut self, advance: bool) -> Result<(GeometryFrame, usize)> {
        let req = DeltaRequest {
            advance,
            baseline: self.scene.revision(),
        };
        let bytes = self.dlib.call(PROC_FRAME_DELTA, &req.encode())?;
        let delta = DeltaFrame::decode(&bytes)?;
        Ok((self.scene.apply(delta)?, bytes.len()))
    }

    /// Drop the retained scene: the next [`Self::frame_delta`] call
    /// acknowledges no baseline and resyncs via a full keyframe.
    pub fn reset_scene(&mut self) {
        self.scene = RetainedScene::new();
    }

    /// The retained scene the delta path patches (for inspection).
    pub fn scene(&self) -> &RetainedScene {
        &self.scene
    }

    /// Fetch the server's frame-pipeline stats (stage timings + cache
    /// counters). Purely observational: never advances time or touches
    /// the environment.
    pub fn stats(&mut self) -> Result<FrameStats> {
        let bytes = self.dlib.call(PROC_STATS, b"")?;
        FrameStats::decode(&bytes)
    }

    /// Convenience probe over [`Self::stats`]: true when the server's
    /// storage stack has reported any fault-tolerance activity (retries,
    /// chunk salvage, zero-fill, quarantine, neighbour substitution) —
    /// the cue to surface a data-health warning next to the clock.
    pub fn store_degraded(&mut self) -> Result<bool> {
        Ok(self.stats()?.store_degraded())
    }

    /// Render a frame into an anaglyph stereo framebuffer from the given
    /// head-tracked camera — the full client-side display path. Draws the
    /// other participants' heads too (§5.1: "indicating to participants
    /// in the environment where everyone is"); pass your own user id so
    /// your head is not drawn over your eyes.
    pub fn render_stereo_for_user(
        frame: &GeometryFrame,
        fb: &mut Framebuffer,
        camera: &StereoCamera,
        palette: &Palette,
        self_user: u64,
    ) {
        let shade = |kind| match kind {
            PathKind::Streamline => palette.streamline,
            PathKind::ParticlePath => palette.particle_path,
            PathKind::Streak => palette.streak,
        };
        let rakes: Vec<[Vec3; 2]> = frame.rakes.iter().map(|r| [r.a, r.b]).collect();
        let others = frame.users.iter().filter(|u| u.id != self_user);
        let heads: Vec<Vec<Vec3>> = others.flat_map(|u| head_glyph(&u.head)).collect();
        let paths = frame.paths.iter().map(|p| (&p.points[..], shade(p.kind)));
        let rest = rakes
            .iter()
            .map(|r| &r[..])
            .chain(heads.iter().map(|g| &g[..]));
        let lines: Vec<_> = paths.chain(rest.map(|l| (l, palette.rake))).collect();
        render_anaglyph(fb, camera, &lines);
    }

    /// [`WindtunnelClient::render_stereo_for_user`] drawing every user's
    /// head (suitable for spectator views).
    pub fn render_stereo(
        frame: &GeometryFrame,
        fb: &mut Framebuffer,
        camera: &StereoCamera,
        palette: &Palette,
    ) {
        Self::render_stereo_for_user(frame, fb, camera, palette, u64::MAX);
    }

    /// Render a frame in mono (the "conventional screen and mouse
    /// environment" §6 mentions as the other use of the architecture).
    pub fn render_mono(
        frame: &GeometryFrame,
        fb: &mut Framebuffer,
        mvp: &vecmath::Mat4,
        palette: &Palette,
    ) {
        for p in &frame.paths {
            let color = match p.kind {
                PathKind::Streamline => Rgb::new(80, 200, 255),
                PathKind::ParticlePath => Rgb::new(255, 180, 60),
                PathKind::Streak => Rgb::new(220, 220, 220),
            };
            fb.draw_polyline(mvp, &p.points, color);
        }
        for r in &frame.rakes {
            fb.draw_polyline(mvp, &[r.a, r.b], Rgb::new(palette.rake, 60, 60));
        }
    }
}

/// A self-healing windtunnel session: wraps [`dlib::ReconnectingClient`]
/// so a dropped or wedged connection re-dials with backoff, replays the
/// `HELLO` handshake, and resynchronizes the retained delta scene.
///
/// Resync needs no special protocol: a fresh server session has no
/// `last_sent` baseline for us, so our stale baseline is "unknown" to it
/// and the next `FRAME_DELTA` reply falls back to a full keyframe — the
/// retained scene is also reset locally whenever the connection
/// generation changes, keeping memory honest. The frame loop degrades to
/// skipped frames while the server is unreachable; it never panics or
/// wedges.
pub struct ResilientClient {
    rc: ReconnectingClient,
    /// Filled by the session hook on every (re-)dial. Invariant: `Some`
    /// after `connect` returns, since the first dial ran the hook.
    hello: Arc<Mutex<Option<HelloReply>>>,
    scene: RetainedScene,
    /// Connection generation the scene was last synced against.
    seen_generation: u64,
    said_goodbye: bool,
}

impl ResilientClient {
    /// Connect (performing the handshake) with default deadlines and
    /// retry policy.
    pub fn connect(addr: SocketAddr) -> Result<ResilientClient> {
        Self::connect_with(addr, ClientConfig::default(), RetryPolicy::default())
    }

    pub fn connect_with(
        addr: SocketAddr,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<ResilientClient> {
        let mut rc = ReconnectingClient::with_config(addr, config, policy);
        let hello: Arc<Mutex<Option<HelloReply>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&hello);
        rc.on_session(Box::new(move |client| {
            let reply = client.call(PROC_HELLO, b"")?;
            *slot.lock() = Some(HelloReply::decode(&reply)?);
            Ok(())
        }));
        rc.ensure_connected()?;
        let seen_generation = rc.generation();
        Ok(ResilientClient {
            rc,
            hello,
            scene: RetainedScene::new(),
            seen_generation,
            said_goodbye: false,
        })
    }

    /// Session metadata from the most recent handshake. Note the
    /// `user_id` changes across reconnects — each dial is a new dlib
    /// session.
    #[expect(
        clippy::expect_used,
        reason = "the HELLO hook populates this before connect() returns, on every dial"
    )]
    pub fn hello(&self) -> HelloReply {
        self.hello
            .lock()
            .clone()
            .expect("handshake ran during connect")
    }

    /// This client's *current* user id.
    pub fn user_id(&self) -> u64 {
        self.hello().user_id
    }

    /// How many connections have been established (1 = never reconnected).
    pub fn generation(&self) -> u64 {
        self.rc.generation()
    }

    /// The underlying reconnecting client — tests use this to install
    /// fault plans on the live connection.
    pub fn dlib_mut(&mut self) -> &mut ReconnectingClient {
        &mut self.rc
    }

    /// Heartbeat the server (reconnecting if needed).
    pub fn ping(&mut self) -> Result<()> {
        self.rc.ping()
    }

    /// Send one environment command, at most once: `Busy` is retried, but
    /// a transport failure mid-call surfaces (the command may or may not
    /// have applied — the caller decides whether to repeat it). The next
    /// call self-heals.
    pub fn send(&mut self, cmd: &Command) -> Result<()> {
        self.rc.call(PROC_COMMAND, &cmd.encode())?;
        if matches!(cmd, Command::Goodbye) {
            self.said_goodbye = true;
        }
        Ok(())
    }

    /// Drop the retained scene if the connection was rebuilt since the
    /// last frame — the new server session doesn't know our baseline, so
    /// the next reply is a keyframe either way; resetting keeps the local
    /// memory accounting honest too.
    fn sync_scene_generation(&mut self) {
        let gen = self.rc.generation();
        if gen != self.seen_generation {
            self.scene = RetainedScene::new();
            self.seen_generation = gen;
        }
    }

    /// Fetch the current frame incrementally, reconnecting and resyncing
    /// (keyframe fallback) as needed. With `advance = false` the request
    /// is idempotent and transport failures are retried transparently;
    /// with `advance = true` (the clock driver) a transport failure
    /// surfaces after one attempt so a retry cannot double-advance time —
    /// the driving loop just skips that frame.
    pub fn frame_delta(&mut self, advance: bool) -> Result<GeometryFrame> {
        self.sync_scene_generation();
        let req = DeltaRequest {
            advance,
            baseline: self.scene.revision(),
        };
        let bytes = if advance {
            self.rc.call(PROC_FRAME_DELTA, &req.encode())?
        } else {
            self.rc.call_idempotent(PROC_FRAME_DELTA, &req.encode())?
        };
        let delta = DeltaFrame::decode(&bytes)?;
        let frame = self.scene.apply(delta)?;
        // A reconnect during the call produced a keyframe reply; the
        // apply above rebuilt the scene from it, so the new generation is
        // now synced.
        self.seen_generation = self.rc.generation();
        Ok(frame)
    }

    /// Fetch a full frame (no delta state involved). Same advance/retry
    /// split as [`Self::frame_delta`].
    pub fn frame(&mut self, advance: bool) -> Result<GeometryFrame> {
        let req = FrameRequest { advance }.encode();
        let bytes = if advance {
            self.rc.call(PROC_FRAME, &req)?
        } else {
            self.rc.call_idempotent(PROC_FRAME, &req)?
        };
        GeometryFrame::decode(&bytes)
    }

    /// Server pipeline stats (idempotent read).
    pub fn stats(&mut self) -> Result<FrameStats> {
        let bytes = self.rc.call_idempotent(PROC_STATS, b"")?;
        FrameStats::decode(&bytes)
    }

    /// The retained scene (for inspection).
    pub fn scene(&self) -> &RetainedScene {
        &self.scene
    }
}

impl Drop for ResilientClient {
    fn drop(&mut self) {
        // Best-effort polite sign-off on the live connection only — a
        // drop must never dial.
        if !self.said_goodbye {
            if let Some(c) = self.rc.client_mut() {
                let _ = c.call(PROC_COMMAND, &Command::Goodbye.encode());
            }
        }
    }
}

/// A simple head marker: a diamond around the head position plus a gaze
/// tick along the head's forward (-Z) axis.
pub fn head_glyph(head: &vecmath::Pose) -> Vec<Vec<Vec3>> {
    let c = head.position;
    let r = 0.25;
    let x = Vec3::new(r, 0.0, 0.0);
    let y = Vec3::new(0.0, r, 0.0);
    let z = Vec3::new(0.0, 0.0, r);
    let diamond = vec![
        c + x,
        c + y,
        c - x,
        c - y,
        c + x,
        c + z,
        c - x,
        c - z,
        c + x,
    ];
    let gaze_dir = head.orientation.rotate(Vec3::new(0.0, 0.0, -1.0));
    let gaze = vec![c, c + gaze_dir * (3.0 * r)];
    vec![diamond, gaze]
}

impl Drop for WindtunnelClient {
    fn drop(&mut self) {
        if !self.said_goodbye {
            let _ = self.dlib.call(PROC_COMMAND, &Command::Goodbye.encode());
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests sleep to let real threads make progress"
)]
mod tests {
    use super::*;
    use crate::compute::ComputeConfig;
    use crate::proto::TimeCommand;
    use crate::server::{serve, ServerOptions};
    use flowfield::{
        dataset::VelocityCoords, CurvilinearGrid, Dataset, DatasetMeta, Dims, VectorField,
    };
    use std::sync::Arc;
    use storage::MemoryStore;
    use tracer::{ToolKind, TraceConfig};
    use vecmath::{Aabb, Pose};
    use vr::Gesture;

    /// Spin up a server over a unit-spacing Cartesian grid with uniform
    /// +x flow.
    fn test_server() -> (crate::server::WindtunnelHandle, SocketAddr) {
        let dims = Dims::new(16, 9, 9);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0)))
                .unwrap();
        let meta = DatasetMeta {
            name: "uniform".into(),
            dims,
            timestep_count: 8,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..8)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        let store = Arc::new(MemoryStore::from_dataset(ds));
        let opts = ServerOptions {
            compute: ComputeConfig {
                trace: TraceConfig {
                    dt: 1.0,
                    max_points: 6,
                    ..TraceConfig::default()
                },
                ..ComputeConfig::default()
            },
            ..ServerOptions::default()
        };
        let handle = serve(store, grid, opts, "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        (handle, addr)
    }

    #[test]
    fn handshake_reports_dataset() {
        let (handle, addr) = test_server();
        let client = WindtunnelClient::connect(addr).unwrap();
        assert_eq!(client.hello().dataset_name, "uniform");
        assert_eq!(client.hello().timestep_count, 8);
        assert!(client.user_id() > 0);
        handle.shutdown();
    }

    #[test]
    fn add_rake_and_receive_streamlines() {
        let (handle, addr) = test_server();
        let mut client = WindtunnelClient::connect(addr).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(2.0, 2.0, 4.0),
                b: Vec3::new(2.0, 6.0, 4.0),
                seed_count: 4,
                tool: ToolKind::Streamline,
            })
            .unwrap();
        let frame = client.frame(false).unwrap();
        assert_eq!(frame.rakes.len(), 1);
        assert_eq!(frame.paths.len(), 4);
        // Physical-space paths flow in +x on the unit grid.
        let p = &frame.paths[0].points;
        assert!(p.last().unwrap().x > p.first().unwrap().x);
        handle.shutdown();
    }

    #[test]
    fn rake_outside_grid_rejected() {
        let (handle, addr) = test_server();
        let mut client = WindtunnelClient::connect(addr).unwrap();
        let err = client.send(&Command::AddRake {
            a: Vec3::splat(1.0e5),
            b: Vec3::splat(1.0e5 + 1.0),
            seed_count: 2,
            tool: ToolKind::Streamline,
        });
        assert!(err.is_err());
        handle.shutdown();
    }

    #[test]
    fn shared_session_lock_over_the_wire() {
        // The §5.1 scenario end-to-end: two workstations, one rake.
        let (handle, addr) = test_server();
        let mut alice = WindtunnelClient::connect(addr).unwrap();
        let mut bob = WindtunnelClient::connect(addr).unwrap();
        alice
            .send(&Command::AddRake {
                a: Vec3::new(4.0, 4.0, 4.0),
                b: Vec3::new(6.0, 4.0, 4.0),
                seed_count: 2,
                tool: ToolKind::Streamline,
            })
            .unwrap();
        // Alice grabs the center (5, 4, 4).
        alice
            .send(&Command::Hand {
                position: Vec3::new(5.0, 4.0, 4.0),
                gesture: Gesture::Fist,
            })
            .unwrap();
        let f = alice.frame(false).unwrap();
        assert_eq!(f.rakes[0].owner, alice.user_id());
        // Bob tries the same handle: locked out.
        bob.send(&Command::Hand {
            position: Vec3::new(5.0, 4.0, 4.0),
            gesture: Gesture::Fist,
        })
        .unwrap();
        let f = bob.frame(false).unwrap();
        assert_eq!(f.rakes[0].owner, alice.user_id());
        // Bob's drag does nothing.
        bob.send(&Command::Hand {
            position: Vec3::new(5.0, 6.0, 4.0),
            gesture: Gesture::Fist,
        })
        .unwrap();
        let f = bob.frame(false).unwrap();
        assert!((f.rakes[0].a.y - 4.0).abs() < 1e-3);
        // Alice drags: the rake moves for everyone.
        alice
            .send(&Command::Hand {
                position: Vec3::new(5.0, 5.0, 4.0),
                gesture: Gesture::Fist,
            })
            .unwrap();
        let f = bob.frame(false).unwrap();
        assert!((f.rakes[0].a.y - 5.0).abs() < 1e-3);
        // Alice releases; Bob can now grab.
        alice
            .send(&Command::Hand {
                position: Vec3::new(5.0, 5.0, 4.0),
                gesture: Gesture::Open,
            })
            .unwrap();
        bob.send(&Command::Hand {
            position: Vec3::new(5.0, 5.0, 4.0),
            gesture: Gesture::Fist,
        })
        .unwrap();
        let f = bob.frame(false).unwrap();
        assert_eq!(f.rakes[0].owner, bob.user_id());
        handle.shutdown();
    }

    #[test]
    fn time_advances_only_for_driver() {
        let (handle, addr) = test_server();
        let mut driver = WindtunnelClient::connect(addr).unwrap();
        let mut passenger = WindtunnelClient::connect(addr).unwrap();
        driver.send(&Command::Time(TimeCommand::Play)).unwrap();
        let f0 = passenger.frame(false).unwrap();
        assert_eq!(f0.timestep, 0);
        driver.frame(true).unwrap();
        driver.frame(true).unwrap();
        let f = passenger.frame(false).unwrap();
        assert_eq!(f.timestep, 2);
        handle.shutdown();
    }

    #[test]
    fn frame_cache_consistent_between_clients() {
        let (handle, addr) = test_server();
        let mut a = WindtunnelClient::connect(addr).unwrap();
        let mut b = WindtunnelClient::connect(addr).unwrap();
        a.send(&Command::AddRake {
            a: Vec3::new(2.0, 4.0, 4.0),
            b: Vec3::new(2.0, 5.0, 4.0),
            seed_count: 2,
            tool: ToolKind::Streamline,
        })
        .unwrap();
        let fa = a.frame(false).unwrap();
        let fb = b.frame(false).unwrap();
        assert_eq!(fa, fb); // same revision, identical frame
        handle.shutdown();
    }

    #[test]
    fn goodbye_releases_locks() {
        let (handle, addr) = test_server();
        let mut a = WindtunnelClient::connect(addr).unwrap();
        let mut b = WindtunnelClient::connect(addr).unwrap();
        a.send(&Command::AddRake {
            a: Vec3::new(4.0, 4.0, 4.0),
            b: Vec3::new(6.0, 4.0, 4.0),
            seed_count: 2,
            tool: ToolKind::Streamline,
        })
        .unwrap();
        a.send(&Command::Hand {
            position: Vec3::new(5.0, 4.0, 4.0),
            gesture: Gesture::Fist,
        })
        .unwrap();
        drop(a); // sends Goodbye
        let f = b.frame(false).unwrap();
        assert_eq!(f.rakes[0].owner, 0, "lock must be released on goodbye");
        handle.shutdown();
    }

    #[test]
    fn head_poses_shared() {
        let (handle, addr) = test_server();
        let mut a = WindtunnelClient::connect(addr).unwrap();
        let mut b = WindtunnelClient::connect(addr).unwrap();
        let pose = Pose::new(Vec3::new(1.0, 1.7, 3.0), Default::default());
        a.send(&Command::HeadPose { pose }).unwrap();
        let f = b.frame(false).unwrap();
        let a_user = f.users.iter().find(|u| u.id == a.user_id()).unwrap();
        assert!(a_user.head.position.distance(pose.position) < 1e-5);
        handle.shutdown();
    }

    #[test]
    fn stereo_render_of_live_frame() {
        let (handle, addr) = test_server();
        let mut client = WindtunnelClient::connect(addr).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(2.0, 3.0, 4.0),
                b: Vec3::new(2.0, 5.0, 4.0),
                seed_count: 4,
                tool: ToolKind::Streamline,
            })
            .unwrap();
        let frame = client.frame(false).unwrap();
        let mut fb = Framebuffer::new(160, 160);
        let camera = StereoCamera::new(Pose::new(Vec3::new(7.5, 4.0, 20.0), Default::default()));
        WindtunnelClient::render_stereo(&frame, &mut fb, &camera, &Palette::default());
        assert!(fb.count_pixels(|c| c.r > 0) > 20);
        assert!(fb.count_pixels(|c| c.b > 0) > 20);
        handle.shutdown();
    }

    #[test]
    fn other_users_heads_are_drawn_but_not_own() {
        let (handle, addr) = test_server();
        let mut a = WindtunnelClient::connect(addr).unwrap();
        let mut b = WindtunnelClient::connect(addr).unwrap();
        // b announces a head pose in front of a's camera.
        b.send(&Command::HeadPose {
            pose: Pose::new(Vec3::new(7.5, 4.0, 4.0), Default::default()),
        })
        .unwrap();
        let frame = a.frame(false).unwrap();
        let camera = StereoCamera::new(Pose::new(Vec3::new(7.5, 4.0, 20.0), Default::default()));

        // Rendering for user a: b's head glyph appears.
        let mut fb = Framebuffer::new(160, 160);
        WindtunnelClient::render_stereo_for_user(
            &frame,
            &mut fb,
            &camera,
            &Palette::default(),
            a.user_id(),
        );
        let with_b = fb.count_pixels(|c| c.r > 0 || c.b > 0);
        assert!(with_b > 5, "b's head should be visible");

        // Rendering for user b: own head excluded, scene now empty.
        let mut fb2 = Framebuffer::new(160, 160);
        WindtunnelClient::render_stereo_for_user(
            &frame,
            &mut fb2,
            &camera,
            &Palette::default(),
            b.user_id(),
        );
        let without_b = fb2.count_pixels(|c| c.r > 0 || c.b > 0);
        // a's head pose is identity-at-origin (behind the camera's far
        // plane region) — only b's glyph differs between the two renders.
        assert!(
            without_b < with_b,
            "own head must not be drawn: {without_b} vs {with_b}"
        );
        handle.shutdown();
    }

    #[test]
    fn head_pose_only_mutation_skips_integration() {
        // The §5.1 shared scenario stress case: users nodding their
        // heads must not re-run the tracers. Observable through the
        // PROC_STATS cache counters.
        let (handle, addr) = test_server();
        let mut client = WindtunnelClient::connect(addr).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(2.0, 2.0, 4.0),
                b: Vec3::new(2.0, 6.0, 4.0),
                seed_count: 4,
                tool: ToolKind::Streamline,
            })
            .unwrap();
        let f0 = client.frame(false).unwrap();
        let s0 = client.stats().unwrap();
        assert_eq!(s0.geom_misses, 1, "first frame traces the rake");

        // Head-pose-only mutation: revision moves (the frame is
        // recomputed) but no geometry input changed.
        client
            .send(&Command::HeadPose {
                pose: Pose::new(Vec3::new(0.0, 1.7, 5.0), Default::default()),
            })
            .unwrap();
        let f1 = client.frame(false).unwrap();
        let s1 = client.stats().unwrap();
        assert_eq!(s1.geom_misses, 0, "head pose must not re-run integration");
        assert_eq!(s1.geom_hits, 1, "rake geometry served from cache");
        assert_eq!(s1.cum_geom_misses, s0.cum_geom_misses);
        assert!(f1.revision > f0.revision, "frame still reflects the update");
        assert_eq!(f1.paths, f0.paths, "identical geometry either way");

        // Identical request again: no recompute (counted as a frame
        // hit), stats otherwise untouched.
        let before = client.stats().unwrap();
        client.frame(false).unwrap();
        let after = client.stats().unwrap();
        assert_eq!(after.cum_frame_hits, before.cum_frame_hits + 1);
        assert_eq!(after.cum_geom_misses, before.cum_geom_misses);
        handle.shutdown();
    }

    #[test]
    fn delta_stream_reconstructs_full_frames_byte_identically() {
        let (handle, addr) = test_server();
        let mut full = WindtunnelClient::connect(addr).unwrap();
        let mut inc = WindtunnelClient::connect(addr).unwrap();
        inc.send(&Command::AddRake {
            a: Vec3::new(2.0, 2.0, 4.0),
            b: Vec3::new(2.0, 6.0, 4.0),
            seed_count: 4,
            tool: ToolKind::Streamline,
        })
        .unwrap();

        // First contact: keyframe (no baseline yet).
        let (f0, n0) = inc.frame_delta_measured(false).unwrap();
        assert_eq!(f0.encode(), full.frame(false).unwrap().encode());

        // Head-pose-only change: the delta must carry no path chunks, so
        // it is far smaller than the keyframe — yet reassemble the exact
        // frame.
        inc.send(&Command::HeadPose {
            pose: Pose::new(Vec3::new(0.0, 1.7, 5.0), Default::default()),
        })
        .unwrap();
        let (f1, n1) = inc.frame_delta_measured(false).unwrap();
        assert_eq!(f1.encode(), full.frame(false).unwrap().encode());
        assert!(
            n1 * 2 < n0,
            "head-pose delta ({n1} B) should be far smaller than the keyframe ({n0} B)"
        );

        // Geometry change: the chunk comes back, still byte-identical.
        inc.send(&Command::SetSeedCount { id: 1, n: 6 }).unwrap();
        let f2 = inc.frame_delta(false).unwrap();
        assert_eq!(f2.encode(), full.frame(false).unwrap().encode());

        // Deletion: tombstone erases the rake from the retained scene.
        inc.send(&Command::RemoveRake { id: 1 }).unwrap();
        let f3 = inc.frame_delta(false).unwrap();
        assert_eq!(f3.encode(), full.frame(false).unwrap().encode());
        assert_eq!(inc.scene().rake_count(), 0);

        // Forced resync rebuilds from a keyframe.
        inc.reset_scene();
        let f4 = inc.frame_delta(false).unwrap();
        assert_eq!(f4.encode(), full.frame(false).unwrap().encode());
        handle.shutdown();
    }

    #[test]
    fn chunks_encoded_once_across_clients() {
        let (handle, addr) = test_server();
        let mut a = WindtunnelClient::connect(addr).unwrap();
        let mut b = WindtunnelClient::connect(addr).unwrap();
        let mut c = WindtunnelClient::connect(addr).unwrap();
        a.send(&Command::AddRake {
            a: Vec3::new(2.0, 2.0, 4.0),
            b: Vec3::new(2.0, 6.0, 4.0),
            seed_count: 4,
            tool: ToolKind::Streamline,
        })
        .unwrap();
        a.frame_delta(false).unwrap();
        let after_first = a.stats().unwrap().cum_chunk_encodes;
        assert_eq!(after_first, 1, "one rake, one chunk encode");
        // Two more clients pull the same revision: served from the
        // broadcast cache, no further encodes.
        b.frame_delta(false).unwrap();
        c.frame_delta(false).unwrap();
        assert_eq!(
            a.stats().unwrap().cum_chunk_encodes,
            after_first,
            "same revision must not re-encode chunks per client"
        );
        // A geometry change re-encodes exactly once more, again shared.
        a.send(&Command::SetSeedCount { id: 1, n: 5 }).unwrap();
        a.frame_delta(false).unwrap();
        b.frame_delta(false).unwrap();
        c.frame_delta(false).unwrap();
        assert_eq!(a.stats().unwrap().cum_chunk_encodes, after_first + 1);
        handle.shutdown();
    }

    #[test]
    fn keyframe_interval_forces_periodic_keyframes() {
        let (handle, addr) = {
            let dims = Dims::new(16, 9, 9);
            let grid =
                CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0)))
                    .unwrap();
            let meta = DatasetMeta {
                name: "uniform".into(),
                dims,
                timestep_count: 8,
                dt: 0.1,
                coords: VelocityCoords::Grid,
            };
            let fields = (0..8)
                .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
                .collect();
            let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
            let store = Arc::new(MemoryStore::from_dataset(ds));
            let opts = ServerOptions {
                keyframe_interval: 2,
                ..ServerOptions::default()
            };
            let handle = serve(store, grid, opts, "127.0.0.1:0").unwrap();
            let addr = handle.addr();
            (handle, addr)
        };
        let mut client = WindtunnelClient::connect(addr).unwrap();
        for _ in 0..7 {
            // Mutate so every request sees a new revision.
            client
                .send(&Command::HeadPose {
                    pose: Pose::new(Vec3::new(0.0, 1.7, 5.0), Default::default()),
                })
                .unwrap();
            client.frame_delta(false).unwrap();
        }
        let stats = client.stats().unwrap();
        // 7 replies at interval 2: keyframes at frames 1, 4, 7.
        assert_eq!(stats.cum_keyframes, 3);
        assert_eq!(stats.cum_delta_frames, 4);
        handle.shutdown();
    }

    #[test]
    fn stats_track_bytes_and_delta_counts() {
        let (handle, addr) = test_server();
        let mut client = WindtunnelClient::connect(addr).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(2.0, 2.0, 4.0),
                b: Vec3::new(2.0, 6.0, 4.0),
                seed_count: 4,
                tool: ToolKind::Streamline,
            })
            .unwrap();
        let (_, nd) = client.frame_delta_measured(false).unwrap();
        let (_, nf) = client.frame_measured(false).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.cum_keyframes, 1);
        assert_eq!(stats.cum_delta_frames, 0);
        assert_eq!(stats.cum_bytes_sent, (nd + nf) as u64);
        handle.shutdown();
    }

    #[test]
    fn stats_report_storage_pipeline_from_live_ticks() {
        // End-to-end observability: a server over a compressed on-disk
        // dataset behind a simulated disk and read-ahead must surface
        // io-wait, decode time and prefetch hit/miss counts through
        // PROC_STATS after real playback ticks.
        use storage::{DiskModel, DiskStore, ReadAhead, SimulatedDisk};
        let dims = Dims::new(12, 8, 8);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(11.0, 7.0, 7.0)))
                .unwrap();
        let meta = DatasetMeta {
            name: "disk-v2".into(),
            dims,
            timestep_count: 6,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..6)
            .map(|t| {
                VectorField::from_fn(dims, move |i, _, _| {
                    Vec3::new(1.0 + 0.01 * (t + i) as f32, 0.0, 0.0)
                })
            })
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        let dir = tempfile::tempdir().unwrap();
        flowfield::format::write_dataset_v2(dir.path(), &ds).unwrap();
        let disk = DiskStore::open(dir.path()).unwrap();
        let model = DiskModel {
            bandwidth_bytes_per_sec: 30.0e6,
            seek: std::time::Duration::from_millis(1),
        };
        let store = Arc::new(ReadAhead::new(Arc::new(SimulatedDisk::new(disk, model)), 2));
        let opts = ServerOptions::default();
        let handle = serve(store, grid, opts, "127.0.0.1:0").unwrap();
        let mut client = WindtunnelClient::connect(handle.addr()).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(2.0, 2.0, 4.0),
                b: Vec3::new(2.0, 5.0, 4.0),
                seed_count: 3,
                tool: ToolKind::Streakline,
            })
            .unwrap();
        client.send(&Command::Time(TimeCommand::Play)).unwrap();
        for _ in 0..8 {
            client.frame(true).unwrap(); // advance: ticks fetch timesteps
        }
        let stats = client.stats().unwrap();
        assert!(stats.cum_io_wait_us > 0, "no io wait recorded: {stats:?}");
        assert!(stats.cum_decode_us > 0, "no decode time recorded");
        assert!(
            stats.cum_prefetch_hits + stats.cum_prefetch_misses > 0,
            "no fetches classified: {stats:?}"
        );
        handle.shutdown();
    }

    /// A fault plan that kills the connection on the next outgoing frame.
    fn kill_switch() -> dlib::FaultPlan {
        dlib::FaultPlan::new(
            7,
            dlib::FaultConfig {
                disconnect: 1.0,
                ..dlib::FaultConfig::quiet()
            },
        )
    }

    #[test]
    fn resilient_client_reconnects_and_resyncs_byte_identically() {
        let (handle, addr) = test_server();
        let mut full = WindtunnelClient::connect(addr).unwrap();
        let mut inc = ResilientClient::connect(addr).unwrap();
        inc.send(&Command::AddRake {
            a: Vec3::new(2.0, 2.0, 4.0),
            b: Vec3::new(2.0, 6.0, 4.0),
            seed_count: 4,
            tool: ToolKind::Streamline,
        })
        .unwrap();
        let f0 = inc.frame_delta(false).unwrap();
        assert_eq!(f0.encode(), full.frame(false).unwrap().encode());
        assert_eq!(inc.generation(), 1);
        let first_user = inc.user_id();

        // Kill the live connection mid-session. The delta request is
        // idempotent, so the client re-dials, re-handshakes, and the
        // stale baseline forces a keyframe — the reconstructed frame is
        // still byte-identical to a full fetch.
        inc.dlib_mut()
            .client_mut()
            .unwrap()
            .set_fault_plan(kill_switch());
        let f1 = inc.frame_delta(false).unwrap();
        assert_eq!(f1.encode(), full.frame(false).unwrap().encode());
        assert_eq!(inc.generation(), 2, "one reconnect");
        assert_ne!(inc.user_id(), first_user, "new dlib session after re-dial");

        // Delta flow resumes on the new baseline.
        inc.send(&Command::HeadPose {
            pose: Pose::new(Vec3::new(0.0, 1.7, 5.0), Default::default()),
        })
        .unwrap();
        let f2 = inc.frame_delta(false).unwrap();
        assert_eq!(f2.encode(), full.frame(false).unwrap().encode());
        assert_eq!(inc.generation(), 2, "no extra reconnects");

        // The server reaps the dead session (asynchronously — its reader
        // thread sees the EOF): only `full` + the current incarnation of
        // `inc` remain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let stats = inc.stats().unwrap();
            if stats.live_sessions == 2 && stats.cum_reaped_sessions >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "dead session never reaped: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        handle.shutdown();
    }

    #[test]
    fn resilient_advance_failure_skips_frame_then_heals() {
        let (handle, addr) = test_server();
        let mut driver = ResilientClient::connect(addr).unwrap();
        driver.send(&Command::Time(TimeCommand::Play)).unwrap();
        let t0 = driver.frame_delta(true).unwrap().timestep;

        // Clock-advancing calls are at-most-once: a transport fault
        // surfaces as an error (a skipped frame) rather than retrying and
        // double-stepping time.
        driver
            .dlib_mut()
            .client_mut()
            .unwrap()
            .set_fault_plan(kill_switch());
        assert!(driver.frame_delta(true).is_err(), "skipped frame surfaces");

        // The very next call heals: reconnect, keyframe resync, and the
        // clock advanced exactly once more in total.
        let f = driver.frame_delta(true).unwrap();
        assert_eq!(f.timestep, t0 + 1, "failed advance must not step time");
        assert_eq!(driver.generation(), 2);
        handle.shutdown();
    }

    #[test]
    fn streakline_session_accumulates_smoke() {
        let (handle, addr) = test_server();
        let mut client = WindtunnelClient::connect(addr).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(2.0, 3.0, 4.0),
                b: Vec3::new(2.0, 5.0, 4.0),
                seed_count: 3,
                tool: ToolKind::Streakline,
            })
            .unwrap();
        for _ in 0..5 {
            client.frame(true).unwrap();
        }
        let f = client.frame(false).unwrap();
        let streaks: Vec<_> = f
            .paths
            .iter()
            .filter(|p| p.kind == PathKind::Streak)
            .collect();
        assert_eq!(streaks.len(), 3);
        assert!(streaks.iter().all(|p| p.points.len() >= 4));
        handle.shutdown();
    }
}
