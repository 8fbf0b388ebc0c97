//! Golden frames: a digest of every *decoded* frame of three scripted
//! sessions, committed in `tests/golden/frames.digest`.
//!
//! Each stream serves the `small_spec` tapered cylinder in-process over
//! loopback and drives it with one scripted command stream:
//!
//! * `playback` — two streamline rakes played forward, then reversed;
//! * `drag` — a rake dragged by the glove over live streaks;
//! * `head_pose` — a head-pose client on deltas beside a full-frame
//!   spectator.
//!
//! A digest covers the timestep, time, revision, rakes, users and every
//! point's bit pattern, so a change in what a client *sees* churns it and
//! a change in how the bytes are laid out does not. A change that is meant
//! to alter output rewrites [`MARKER`] to say why and pastes the printed
//! digests over the fixture.
//!
//! Beside the digests, a twin of the server's state machine built from the
//! same public pieces (`compute`, `env`, `interaction`) replays every
//! command in-process: each decoded point must lie within half a lattice
//! quantum of the twin's, per coordinate, and everything else must match
//! exactly.

use bench_support::{small_spec, tapered_dataset};
use distributed_virtual_windtunnel as dvw;
use dvw::flowfield::CurvilinearGrid;
use dvw::storage::{MemoryStore, TimestepStore};
use dvw::tracer::{Domain, ToolKind, TraceConfig};
use dvw::vecmath::{Aabb, Mat4, Pose, Vec3};
use dvw::vr::Gesture;
use dvw::windtunnel::compute::{compute_frame_cached, ComputeConfig, GeometryCache, ToolEngines};
use dvw::windtunnel::interaction::{process_hand, HandStates};
use dvw::windtunnel::proto::{GeometryFrame, Lattice};
use dvw::windtunnel::{
    serve, Command, EnvironmentState, ServerOptions, TimeCommand, WindtunnelClient,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// Why the committed digests are what they are; rewritten, with the
/// fixture, by a change that alters decoded output on purpose.
const MARKER: &str =
    "protocol v4: decoded points are traced points rounded to the bounds lattice, q = 2^-14";

fn options() -> ServerOptions {
    ServerOptions {
        periodic_i: true,
        compute: ComputeConfig {
            trace: TraceConfig {
                dt: 0.02,
                max_points: 150,
                ..TraceConfig::default()
            },
            ..ComputeConfig::default()
        },
        ..ServerOptions::default()
    }
}

/// The wire lattice's quantum by the bounds rule: `2^(⌈log2 M⌉ − 18)`,
/// `M` the largest absolute bound coordinate.
fn quantum(bounds: &Aabb) -> f32 {
    let m = bounds
        .min
        .to_array()
        .into_iter()
        .chain(bounds.max.to_array());
    let m = m.map(f32::abs).fold(0.0, f32::max);
    2f32.powi(m.log2().ceil() as i32 - 18)
}

/// FNV-1a over a decoded frame's fields, in wire order.
fn digest(f: &GeometryFrame) -> u64 {
    let mut words: Vec<u64> = vec![f.timestep.into(), f.time.to_bits().into(), f.revision];
    let bits = |v: Vec3| v.to_array().map(|c| u64::from(c.to_bits()));
    for r in &f.rakes {
        words.extend([r.id.into(), r.seed_count.into(), r.tool as u64, r.owner]);
        words.extend(bits(r.a).into_iter().chain(bits(r.b)));
    }
    for p in &f.paths {
        words.extend([p.rake_id.into(), p.kind as u64, p.points.len() as u64]);
        words.extend(p.points.iter().flat_map(|&v| bits(v)));
    }
    for u in &f.users {
        let q = u.head.orientation;
        words.push(u.id);
        words.extend(bits(u.head.position));
        words.extend([q.w, q.x, q.y, q.z].map(|c| u64::from(c.to_bits())));
    }
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The server's state machine, replayed in-process from the same public
/// pieces: commands, clock ticks, streak advance, frame compute.
struct Twin {
    env: EnvironmentState,
    engines: ToolEngines,
    cache: GeometryCache,
    hands: HandStates,
    store: Arc<MemoryStore>,
    grid: CurvilinearGrid,
    domain: Domain,
    opts: ServerOptions,
    frame: Option<GeometryFrame>,
}

impl Twin {
    fn new(store: Arc<MemoryStore>, grid: CurvilinearGrid) -> Twin {
        Twin {
            env: EnvironmentState::new(store.timestep_count()),
            engines: ToolEngines::new(),
            cache: GeometryCache::new(),
            hands: HandStates::new(),
            domain: Domain::o_grid(grid.dims()),
            store,
            grid,
            opts: options(),
            frame: None,
        }
    }

    fn hello(&mut self, user: u64) {
        self.env.update_user(user, Pose::IDENTITY);
    }

    fn command(&mut self, user: u64, cmd: &Command) {
        match *cmd {
            Command::AddRake {
                a,
                b,
                seed_count,
                tool,
            } => {
                let (ga, gb) = (self.grid.locate(a).unwrap(), self.grid.locate(b).unwrap());
                self.env
                    .add_rake(dvw::tracer::Rake::new(ga, gb, seed_count, tool));
            }
            Command::Hand { position, gesture } => {
                process_hand(
                    &mut self.env,
                    &self.grid,
                    &mut self.hands,
                    user,
                    position,
                    gesture,
                    &self.opts.interaction,
                );
            }
            Command::HeadPose { pose } => self.env.update_user(user, pose),
            Command::Time(tc) => {
                match tc {
                    TimeCommand::Play => self.env.time.play(),
                    TimeCommand::Pause => self.env.time.pause(),
                    TimeCommand::Reverse => self.env.time.reverse(),
                    other => panic!("the scripts send no {other:?}"),
                }
                self.env.bump_revision();
            }
            ref other => panic!("the scripts send no {other:?}"),
        }
    }

    fn frame(&mut self, advance: bool) -> &GeometryFrame {
        if advance {
            self.env.time.advance();
            let store: &dyn TimestepStore = self.store.as_ref();
            self.engines
                .advance_streaks(&self.env, store, &self.domain, &self.opts.compute.streak)
                .unwrap();
            self.env.bump_revision();
        }
        if self.frame.as_ref().map(|f| f.revision) != Some(self.env.revision()) {
            let (frame, _) = compute_frame_cached(
                &self.env,
                &mut self.engines,
                &mut self.cache,
                self.store.as_ref(),
                &self.grid,
                &self.domain,
                &self.opts.compute,
            )
            .unwrap();
            self.frame = Some(frame);
        }
        self.frame.as_ref().unwrap()
    }
}

/// One scripted session: a server, its twin, and the digest lines so far.
struct Stream {
    name: &'static str,
    q: f32,
    server: Option<dvw::windtunnel::WindtunnelHandle>,
    twin: Twin,
    lines: String,
    frames: usize,
}

impl Stream {
    fn new(name: &'static str, store: &Arc<MemoryStore>, grid: &CurvilinearGrid) -> Stream {
        let served: Arc<dyn TimestepStore> = Arc::clone(store) as _;
        let server = serve(served, grid.clone(), options(), "127.0.0.1:0").unwrap();
        Stream {
            name,
            q: quantum(&grid.bounds()),
            server: Some(server),
            twin: Twin::new(Arc::clone(store), grid.clone()),
            lines: String::new(),
            frames: 0,
        }
    }

    fn connect(&mut self) -> WindtunnelClient {
        let addr = self.server.as_ref().unwrap().addr();
        let client = WindtunnelClient::connect(addr).unwrap();
        self.twin.hello(client.user_id());
        client
    }

    fn send(&mut self, client: &mut WindtunnelClient, cmd: Command) {
        client.send(&cmd).unwrap();
        self.twin.command(client.user_id(), &cmd);
    }

    /// One frame over `rpc` (`delta` or `full`): digest it, and hold it
    /// against the twin's geometry.
    fn frame(&mut self, client: &mut WindtunnelClient, advance: bool, delta: bool) {
        let got = if delta {
            client.frame_delta(advance).unwrap()
        } else {
            client.frame(advance).unwrap()
        };
        let want = self.twin.frame(advance);
        let at = format!("{} frame {}", self.name, self.frames);
        assert_eq!(
            (got.timestep, got.time, got.revision),
            (want.timestep, want.time, want.revision),
            "{at}"
        );
        assert_eq!((&got.rakes, &got.users), (&want.rakes, &want.users), "{at}");
        assert_eq!(got.paths.len(), want.paths.len(), "{at}");
        for (g, w) in got.paths.iter().zip(&want.paths) {
            assert_eq!((g.rake_id, g.kind), (w.rake_id, w.kind), "{at}");
            assert_eq!(g.points.len(), w.points.len(), "{at}");
            for (a, b) in g.points.iter().zip(&w.points) {
                let worst = (*a - *b)
                    .to_array()
                    .map(f32::abs)
                    .into_iter()
                    .fold(0.0, f32::max);
                assert!(
                    worst <= self.q / 2.0,
                    "{at}: decoded {a:?} is {worst:e} from the traced {b:?} (q/2 = {:e})",
                    self.q / 2.0
                );
            }
        }
        let rpc = if delta { "delta" } else { "full" };
        writeln!(
            self.lines,
            "{} {:03} {rpc} ts={} pts={} {:016x}",
            self.name,
            self.frames,
            got.timestep,
            got.particle_count(),
            digest(&got)
        )
        .unwrap();
        self.frames += 1;
    }

    fn finish(mut self) -> String {
        self.server.take().unwrap().shutdown();
        self.lines
    }
}

fn rake(a: Vec3, b: Vec3, seed_count: u32, tool: ToolKind) -> Command {
    Command::AddRake {
        a,
        b,
        seed_count,
        tool,
    }
}

fn playback(store: &Arc<MemoryStore>, grid: &CurvilinearGrid) -> String {
    let mut s = Stream::new("playback", store, grid);
    let mut c = s.connect();
    let (a, b) = (Vec3::new(-2.6, 0.7, 1.0), Vec3::new(-2.6, 0.7, 7.0));
    s.send(&mut c, rake(a, b, 6, ToolKind::Streamline));
    let (a, b) = (Vec3::new(-2.6, -1.2, 1.5), Vec3::new(-2.6, -1.2, 6.5));
    s.send(&mut c, rake(a, b, 4, ToolKind::Streamline));
    s.send(&mut c, Command::Time(TimeCommand::Play));
    for _ in 0..6 {
        s.frame(&mut c, true, true);
    }
    s.send(&mut c, Command::Time(TimeCommand::Reverse));
    for _ in 0..6 {
        s.frame(&mut c, true, true);
    }
    s.frame(&mut c, false, false);
    s.finish()
}

fn drag(store: &Arc<MemoryStore>, grid: &CurvilinearGrid) -> String {
    let mut s = Stream::new("drag", store, grid);
    let mut c = s.connect();
    let (a, b) = (Vec3::new(-1.8, 0.7, 1.0), Vec3::new(-1.8, 0.7, 7.0));
    s.send(&mut c, rake(a, b, 5, ToolKind::Streakline));
    let (a, b) = (Vec3::new(-2.6, -0.8, 2.0), Vec3::new(-2.6, -0.8, 6.0));
    s.send(&mut c, rake(a, b, 4, ToolKind::Streamline));
    // Smoke streams with the clock paused: every advance releases more.
    for _ in 0..4 {
        s.frame(&mut c, true, true);
    }
    let before = s.twin.frame.as_ref().unwrap().rakes.clone();
    let center = Vec3::new(-2.6, -0.8, 4.0);
    for n in 0..8 {
        let t = n as f32 * 0.3;
        let position = center + Vec3::new(0.3 * t.sin(), 0.2 * (1.3 * t).sin(), 0.0);
        let gesture = if n < 7 { Gesture::Fist } else { Gesture::Open };
        s.send(&mut c, Command::Hand { position, gesture });
        s.frame(&mut c, true, true);
    }
    assert_ne!(
        s.twin.frame.as_ref().unwrap().rakes,
        before,
        "the glove dragged a rake"
    );
    s.finish()
}

fn head_pose(store: &Arc<MemoryStore>, grid: &CurvilinearGrid) -> String {
    let mut s = Stream::new("head_pose", store, grid);
    let mut c = s.connect();
    let mut spectator = s.connect();
    let (a, b) = (Vec3::new(-2.6, 0.7, 1.0), Vec3::new(-2.6, 0.7, 7.0));
    s.send(&mut c, rake(a, b, 6, ToolKind::Streamline));
    let (a, b) = (Vec3::new(-1.8, -0.7, 2.0), Vec3::new(-1.8, -0.7, 6.0));
    s.send(&mut c, rake(a, b, 3, ToolKind::Streakline));
    s.frame(&mut c, true, true);
    let center = Vec3::new(2.0, 0.0, 4.0);
    for n in 0..10 {
        let angle = 0.9 + n as f32 * 0.05;
        let eye = center + Vec3::new(14.0 * angle.cos(), 5.0, 14.0 * angle.sin());
        let pose = Pose::from_mat4(&Mat4::look_at(eye, center, Vec3::Y).inverse_rigid());
        s.send(&mut c, Command::HeadPose { pose });
        s.frame(&mut c, false, true);
        if n % 3 == 0 {
            s.frame(&mut spectator, false, false);
        }
    }
    s.finish()
}

#[test]
fn decoded_frames_match_golden_digests() {
    let dataset = tapered_dataset(small_spec(), 8);
    let grid = dataset.grid().clone();
    let store = Arc::new(MemoryStore::from_dataset(dataset));
    assert_eq!(quantum(&grid.bounds()), 2f32.powi(-14), "far radius 12");
    assert_eq!(
        Lattice::for_bounds(&grid.bounds()).quantum(),
        2f32.powi(-14)
    );
    let mut got = format!("# {MARKER}\n");
    for stream in [playback, drag, head_pose] {
        got.push_str(&stream(&store, &grid));
    }
    let fixture = include_str!("golden/frames.digest");
    assert!(
        got == fixture,
        "tests/golden/frames.digest no longer matches the decoded frames; if the output \
         change is deliberate, say why in MARKER and replace the fixture with:\n{got}"
    );
}
