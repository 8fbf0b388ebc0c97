//! The remote system: a dlib server hosting the shared windtunnel.
//!
//! Figure 8's architecture: commands arrive from the network, a single
//! serial dispatcher (dlib's multi-client rule) updates the environment,
//! the visualization is computed against the timestep store (whose
//! prefetching/caching layers hide the disk), and geometry frames go back
//! out. One designated client "drives" the clock by passing
//! `advance = true` in its frame requests; every other client just reads
//! the latest state: the typed frame is computed once per environment
//! revision and every reply is assembled around the shared chunk cache.

// A per-frame service file: a debug print here is a latency spike for
// every client (stderr is a blocking global lock).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crate::compute::{update_geometry, ComputeConfig, GeometryCache, ToolEngines};
use crate::env::{EnvironmentState, RakeId, UserId};
use crate::governor::FrameGovernor;
use crate::interaction::{process_hand, HandStates, InteractionConfig};
use crate::proto::{
    splice_delta, splice_frame, Command, DeltaRequest, FrameRequest, FrameStats, GeometryFrame,
    HelloReply, PathMsg, RakeChunkMsg, TimeCommand, PROC_COMMAND, PROC_FRAME, PROC_FRAME_DELTA,
    PROC_HELLO, PROC_STATS,
};
use bytes::Bytes;
use dlib::server::{DlibServer, ServerConfig, ServerHandle, Session, SessionEvent};
use dlib::wire::len_u32;
use dlib::Payload;
use flowfield::CurvilinearGrid;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{elapsed_us, TimestepStore};
use tracer::Domain;
use vecmath::Pose;

/// Tombstones kept for delta patching before falling back to keyframes.
/// Once pruned, clients whose baseline predates the oldest retained
/// tombstone get a full keyframe instead — correct either way, so the cap
/// only bounds memory on delete-heavy sessions.
const MAX_TOMBSTONES: usize = 512;

/// Server configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    pub compute: ComputeConfig,
    pub interaction: InteractionConfig,
    /// Treat the grid as an O-grid (periodic in `i`).
    pub periodic_i: bool,
    /// Compute budget per frame; when set, the governor scales streamline
    /// detail to stay inside it (§1.2's rich-environment/frame-rate
    /// tradeoff, automated). `None` disables governing.
    pub frame_budget: Option<std::time::Duration>,
    /// Force a full keyframe on every Nth FRAME_DELTA reply per session
    /// (0 = only when a client actually needs one). A periodic keyframe
    /// bounds how long a corrupted client scene could persist.
    pub keyframe_interval: u32,
    /// Reap sessions that deliver no frame (not even a PING) for this
    /// long; their rake grabs and delta baselines are released. `None`
    /// reaps only on connection drop.
    pub heartbeat_timeout: Option<Duration>,
    /// Dispatch queue depth before calls are shed with `Busy`
    /// (0 = dlib's default).
    pub queue_capacity: usize,
}

/// One rake's paths, pre-encoded. Shared across every connected client
/// and both frame RPCs: encoded once per content change, and every reply
/// that needs them carries this very buffer (refcounted) to the socket.
struct ChunkEntry {
    /// Geometry-cache stamp the bytes were encoded from; a differing
    /// stamp means the rake's paths were re-traced since.
    stamp: u64,
    /// Revision at which this content first became visible — clients
    /// whose baseline is older get the chunk resent.
    content_rev: u64,
    bytes: Bytes,
}

/// Per-client delta bookkeeping.
#[derive(Default)]
struct DeltaSession {
    /// Revision of the last FRAME_DELTA reply this client received.
    last_sent: u64,
    /// Deltas since the last keyframe (drives `keyframe_interval`).
    frames_since_key: u32,
}

struct ServerState {
    env: EnvironmentState,
    engines: ToolEngines,
    hands: HandStates,
    store: Arc<dyn TimestepStore>,
    grid: CurvilinearGrid,
    domain: Domain,
    opts: ServerOptions,
    governor: Option<FrameGovernor>,
    /// The typed frame for the current revision — computed at most once
    /// per revision no matter how many clients or RPC kinds request it,
    /// so FRAME and FRAME_DELTA describe identical content. Its `paths`
    /// stay empty: replies splice them from `chunk_cache`.
    frame: Option<GeometryFrame>,
    /// Wall-clock of the last fresh compute (governor input).
    compute_elapsed: Duration,
    /// Per-rake geometry cache: when the revision moved but a rake's
    /// geometry inputs didn't (head pose, another rake dragged), its
    /// paths are reused instead of re-traced.
    geom_cache: GeometryCache,
    /// Broadcast cache of per-rake *encoded* chunks for both frame RPCs.
    chunk_cache: HashMap<RakeId, ChunkEntry>,
    /// Rakes deleted recently: (id, revision the deletion bumped to).
    tombstones: Vec<(RakeId, u64)>,
    /// Baselines below this can no longer be delta-patched (their
    /// tombstones were pruned) and are served a keyframe.
    delta_floor: u64,
    /// Per-client delta state, dropped on Goodbye.
    sessions: HashMap<UserId, DeltaSession>,
    /// Pipeline stats served by [`PROC_STATS`].
    stats: FrameStats,
    /// Lifetime frame fetches served by a substituted neighbouring
    /// timestep (the streak engine counts its own separately).
    cum_substituted: u64,
    /// Shared with the dlib transport: total calls shed with `Busy`.
    shed_counter: Arc<AtomicU64>,
    /// How much of `shed_counter` the governor has already reacted to.
    shed_seen: u64,
    /// The revision a compute-bound advancing frame just computed; idle
    /// time traces the next frame if nothing changed since (§6.11).
    ahead_armed: Option<u64>,
}

impl ServerState {
    fn new(
        store: Arc<dyn TimestepStore>,
        grid: CurvilinearGrid,
        opts: ServerOptions,
        shed_counter: Arc<AtomicU64>,
    ) -> ServerState {
        let domain = if opts.periodic_i {
            Domain::o_grid(grid.dims())
        } else {
            Domain::boxed(grid.dims())
        };
        ServerState {
            env: EnvironmentState::new(store.timestep_count()),
            engines: ToolEngines::new(),
            hands: HandStates::new(),
            store,
            grid,
            domain,
            governor: opts.frame_budget.map(FrameGovernor::new),
            opts,
            frame: None,
            compute_elapsed: Duration::ZERO,
            geom_cache: GeometryCache::new(),
            chunk_cache: HashMap::new(),
            tombstones: Vec::new(),
            delta_floor: 0,
            sessions: HashMap::new(),
            stats: FrameStats::default(),
            cum_substituted: 0,
            shed_counter,
            shed_seen: 0,
            ahead_armed: None,
        }
    }

    fn apply_command(&mut self, session: Session, cmd: Command) -> Result<(), String> {
        let user = session.client_id;
        match cmd {
            Command::AddRake {
                a,
                b,
                seed_count,
                tool,
            } => {
                let ga = self
                    .grid
                    .locate(a)
                    .ok_or_else(|| format!("rake endpoint {a:?} is outside the grid"))?;
                let gb = self
                    .grid
                    .locate(b)
                    .ok_or_else(|| format!("rake endpoint {b:?} is outside the grid"))?;
                self.env
                    .add_rake(tracer::Rake::new(ga, gb, seed_count, tool));
                Ok(())
            }
            Command::RemoveRake { id } => {
                self.env.remove_rake(user, id).map_err(|e| e.to_string())?;
                self.record_tombstone(id);
                Ok(())
            }
            Command::SetTool { id, tool } => self.env.set_tool(id, tool).map_err(|e| e.to_string()),
            Command::SetSeedCount { id, n } => {
                self.env.set_seed_count(id, n).map_err(|e| e.to_string())
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
                Ok(())
            }
            Command::HeadPose { pose } => {
                self.env.update_user(user, pose);
                Ok(())
            }
            Command::Time(tc) => {
                match tc {
                    TimeCommand::Play => self.env.time.play(),
                    TimeCommand::Pause => self.env.time.pause(),
                    TimeCommand::Reverse => self.env.time.reverse(),
                    TimeCommand::SetRate(r) => self.env.time.set_rate(r),
                    TimeCommand::Jump(t) => {
                        self.env.time.jump(t as usize);
                        // Discontinuous jump: existing smoke is no longer
                        // meaningful.
                        self.engines.clear();
                    }
                    TimeCommand::Step(d) => self.env.time.step(d),
                }
                self.env.bump_revision();
                Ok(())
            }
            Command::Goodbye => {
                self.env.disconnect_user(user);
                crate::interaction::forget_user(&mut self.hands, user);
                self.sessions.remove(&user);
                Ok(())
            }
        }
    }

    fn record_tombstone(&mut self, id: RakeId) {
        self.tombstones.push((id, self.env.revision()));
        if self.tombstones.len() > MAX_TOMBSTONES {
            let excess = self.tombstones.len() - MAX_TOMBSTONES;
            for (_, rev) in self.tombstones.drain(..excess) {
                self.delta_floor = self.delta_floor.max(rev);
            }
        }
    }

    /// Advance the clock (and the persistent smoke) for a driving client.
    fn tick(&mut self, advance: bool) -> Result<(), String> {
        if !advance {
            return Ok(());
        }
        // Tell the store which way the clock is running so a prefetching
        // backend aims its read-ahead before the stride is observable —
        // including the instant playback reverses.
        // A clock at rate 0 (either sign) is not moving: no hint.
        let rate = self.env.time.rate();
        if self.env.time.is_playing() && rate != 0.0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "signum is ±1, or 0 for NaN"
            )]
            self.store.hint_direction(rate.signum() as i64);
        }
        self.env.time.advance();
        // Streaklines advance once per clock tick, in the field at the
        // *fractional* current time (§2.1, blended between the two
        // bracketing timesteps), whether or not the integer timestep
        // moved — time can be paused with smoke still streaming.
        let adv = self
            .engines
            .advance_streaks(
                &self.env,
                self.store.as_ref(),
                &self.domain,
                &self.opts.compute.streak,
            )
            .map_err(|e| e.to_string())?;
        // Stage breakdown of the advance, surfaced via PROC_STATS. The
        // streak_* fields describe the latest tick and survive frame
        // refreshes through the `..self.stats` spread there.
        self.stats.streak_sample_us = adv.sample_ns / 1_000;
        self.stats.streak_integrate_us = adv.integrate_ns / 1_000;
        self.stats.streak_compact_us = adv.compact_ns / 1_000;
        self.stats.streak_inject_us = adv.inject_ns / 1_000;
        let step_ns = adv.sample_ns + adv.integrate_ns;
        self.stats.streak_particles_per_s = adv
            .stepped
            .saturating_mul(1_000_000_000)
            .checked_div(step_ns)
            .unwrap_or(0);
        self.env.bump_revision();
        Ok(())
    }

    /// Compute the typed frame for the current revision unless it is
    /// already computed. Both the full-frame and the delta paths go
    /// through here, so within one revision every client — whatever RPC
    /// it speaks — sees the same content. Returns whether a fresh compute
    /// happened.
    fn refresh_frame(&mut self) -> Result<bool, String> {
        let revision = self.env.revision();
        if self.frame.as_ref().map(|f| f.revision) == Some(revision) {
            return Ok(false);
        }
        let cfg = self.frame_config();
        let started = Instant::now();
        let (frame, cstats) = update_geometry(
            &self.env,
            &mut self.engines,
            &mut self.geom_cache,
            self.store.as_ref(),
            &self.grid,
            &self.domain,
            &cfg,
        )
        .map_err(|e| e.to_string())?;
        // Adopted paths were traced in idle time: the governor sees it.
        self.compute_elapsed = started.elapsed() + Duration::from_micros(cstats.ahead_us);
        self.cum_substituted += u64::from(cstats.substituted_fetches);
        self.stats.cum_ahead_adopted += u64::from(cstats.ahead_adopted);
        let (cum_geom_hits, cum_geom_misses) = self.geom_cache.cumulative();
        self.stats = FrameStats {
            revision,
            fetch_us: cstats.fetch_us,
            integrate_us: cstats.integrate_us,
            map_us: cstats.map_us,
            encode_us: 0,
            geom_hits: cstats.geom_hits,
            geom_misses: cstats.geom_misses,
            cum_geom_hits,
            cum_geom_misses,
            chunk_encode_us: 0,
            delta_encode_us: 0,
            ..self.stats
        };
        self.frame = Some(frame);
        Ok(true)
    }

    /// The frame's compute configuration: the governor scales the point
    /// budgets before the compute and observes the time after the encode.
    fn frame_config(&self) -> ComputeConfig {
        let mut cfg = self.opts.compute;
        if let Some(gov) = &self.governor {
            cfg.trace.max_points = gov.scaled_points(cfg.trace.max_points);
            cfg.pathline_window = gov.scaled_points(cfg.pathline_window);
        }
        cfg
    }

    /// Idle hook: after a compute-bound advancing frame, trace the next
    /// tick's streamlines (streaks advance *with* it; pathlines need a window).
    fn idle(&mut self, pending: &dyn Fn() -> bool) {
        if self.ahead_armed.take() == Some(self.env.revision()) {
            let cfg = self.frame_config();
            let (store, grid, domain) = (self.store.as_ref(), &self.grid, &self.domain);
            self.stats.cum_ahead_traced += self
                .geom_cache
                .trace_ahead(&self.env, store, grid, domain, &cfg, pending);
        }
    }

    /// The frame RPCs' common front: shedding, the clock, the frame and
    /// its chunks. Returns whether the frame was freshly computed.
    fn prepare(&mut self, advance: bool) -> Result<bool, String> {
        self.ahead_armed = None;
        self.note_shedding();
        self.tick(advance)?;
        self.stats.cum_frames += 1;
        let fresh = self.refresh_frame()?;
        self.refresh_chunks();
        // A frame that waited on the store longer than it traced is
        // store-bound: fetching ahead cannot shorten it (§6.11).
        if advance && fresh && self.stats.integrate_us > self.stats.fetch_us {
            self.ahead_armed = Some(self.env.revision());
        }
        Ok(fresh)
    }

    /// Bring the broadcast chunk cache up to date with the current frame:
    /// encode rakes whose paths changed (once, for all clients), evict
    /// deleted ones.
    fn refresh_chunks(&mut self) {
        // No frame computed yet means nothing to refresh.
        let Some(frame) = self.frame.as_ref() else {
            return;
        };
        let (revision, lattice) = (frame.revision, frame.lattice);
        let live: Vec<RakeId> = frame.rakes.iter().map(|r| r.id).collect();
        self.chunk_cache.retain(|id, _| live.contains(id));
        let started = Instant::now();
        let (stale, stamps): (Vec<(RakeId, &[PathMsg])>, Vec<u64>) = live
            .into_iter()
            .filter_map(|id| {
                let (paths, stamp) = self.geom_cache.rake_geometry(id)?;
                let fresh = self.chunk_cache.get(&id).map(|e| e.stamp) == Some(stamp);
                (!fresh).then_some(((id, paths), stamp))
            })
            .unzip();
        if stale.is_empty() {
            return;
        }
        let chunks = RakeChunkMsg::encode_many(lattice, revision, &stale);
        for ((&(id, _), stamp), bytes) in stale.iter().zip(stamps).zip(chunks) {
            let entry = ChunkEntry {
                stamp,
                content_rev: revision,
                bytes,
            };
            self.chunk_cache.insert(id, entry);
        }
        self.stats.chunk_encode_us = elapsed_us(started);
        self.stats.cum_chunk_encodes += stale.len() as u64;
    }

    /// React to transport-level load shedding since the last frame: each
    /// batch of `Busy` replies cuts frame detail once, so cheaper frames
    /// drain the queue (the governor's recovery path restores detail when
    /// shedding stops). Also mirrors the counter into PROC_STATS.
    fn note_shedding(&mut self) {
        let total = self.shed_counter.load(std::sync::atomic::Ordering::Relaxed);
        if total > self.shed_seen {
            self.shed_seen = total;
            self.stats.cum_shed_calls = total;
            if let Some(gov) = &mut self.governor {
                gov.shed();
            }
        }
    }

    /// Session-lifecycle bookkeeping, registered as the dlib event hook:
    /// a vanished client (connection drop, protocol violation, or missed
    /// heartbeats) must release everything it held — rake grabs, presence,
    /// and its delta baseline — exactly as a polite `Goodbye` would.
    fn session_event(&mut self, session: Session, event: SessionEvent) {
        match event {
            SessionEvent::Connected => {
                self.stats.live_sessions += 1;
            }
            SessionEvent::Disconnected(_reason) => {
                let user = session.client_id;
                self.env.disconnect_user(user);
                crate::interaction::forget_user(&mut self.hands, user);
                self.sessions.remove(&user);
                self.stats.live_sessions = self.stats.live_sessions.saturating_sub(1);
                self.stats.cum_reaped_sessions += 1;
            }
        }
    }

    /// The cached chunks of the current frame's rakes that pass `wanted`,
    /// ascending by id like `frame.rakes` — the order of `frame.paths`.
    fn chunk_blobs(&self, wanted: impl Fn(&ChunkEntry) -> bool) -> Vec<Bytes> {
        let rakes = self.frame.iter().flat_map(|f| &f.rakes);
        rakes
            .filter_map(|rk| self.chunk_cache.get(&rk.id))
            .filter(|e| wanted(e))
            .map(|e| e.bytes.clone())
            .collect()
    }

    fn frame_bytes(&mut self, advance: bool) -> Result<Payload, String> {
        let fresh = self.prepare(advance)?;
        let assemble_started = Instant::now();
        let Some(frame) = self.frame.as_ref() else {
            return Err("no frame computed yet".into());
        };
        let reply = splice_frame(frame, self.chunk_blobs(|_| true));
        self.stats.encode_us = elapsed_us(assemble_started);
        self.stats.cum_bytes_sent += reply.len() as u64;
        if !fresh {
            self.stats.cum_frame_hits += 1;
        } else if let Some(gov) = &mut self.governor {
            // Wall-clock over compute + encode: the budget governs
            // what a client actually waits for.
            gov.observe(self.compute_elapsed + assemble_started.elapsed());
        }
        Ok(reply)
    }

    fn delta_bytes(&mut self, client: UserId, req: DeltaRequest) -> Result<Payload, String> {
        let fresh = self.prepare(req.advance)?;
        let revision = self.env.revision();

        let assemble_started = Instant::now();
        let sess = self.sessions.entry(client).or_default();
        let interval = self.opts.keyframe_interval;
        let forced = interval > 0 && sess.frames_since_key >= interval;
        // A usable baseline is one this client actually received from us,
        // no newer than the current revision, and no older than the
        // tombstone horizon. Anything else resyncs with a keyframe.
        let keyframe = forced
            || req.baseline == 0
            || req.baseline > sess.last_sent
            || req.baseline > revision
            || req.baseline < self.delta_floor;
        let baseline = if keyframe { 0 } else { req.baseline };

        let Some(frame) = self.frame.as_ref() else {
            return Err("no frame computed yet".into());
        };
        let chunk_blobs = self.chunk_blobs(|e| keyframe || e.content_rev > baseline);
        let tombstones: Vec<RakeId> = if keyframe {
            Vec::new()
        } else {
            self.tombstones
                .iter()
                .filter(|(_, rev)| *rev > baseline)
                .map(|(id, _)| *id)
                .collect()
        };
        let reply = splice_delta(
            keyframe,
            frame.timestep,
            frame.time,
            revision,
            baseline,
            frame.lattice,
            &frame.rakes,
            chunk_blobs,
            &tombstones,
            &frame.users,
        );

        self.stats.delta_encode_us = elapsed_us(assemble_started);
        if keyframe {
            self.stats.cum_keyframes += 1;
        } else {
            self.stats.cum_delta_frames += 1;
        }
        self.stats.cum_bytes_sent += reply.len() as u64;
        if fresh {
            if let Some(gov) = &mut self.governor {
                gov.observe(self.compute_elapsed + assemble_started.elapsed());
            }
        }
        let sess = self.sessions.entry(client).or_default();
        sess.last_sent = revision;
        if keyframe {
            sess.frames_since_key = 0;
        } else {
            sess.frames_since_key += 1;
        }
        Ok(reply)
    }
}

/// A running windtunnel server.
pub struct WindtunnelHandle {
    inner: ServerHandle,
}

impl WindtunnelHandle {
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

/// Start a windtunnel server for one dataset. `addr` is typically
/// `"127.0.0.1:0"`.
pub fn serve(
    store: Arc<dyn TimestepStore>,
    grid: CurvilinearGrid,
    opts: ServerOptions,
    addr: &str,
) -> dlib::Result<WindtunnelHandle> {
    let meta = store.meta().clone();
    let bounds = grid.bounds();
    let mut transport = ServerConfig {
        heartbeat_timeout: opts.heartbeat_timeout,
        ..ServerConfig::default()
    };
    if opts.queue_capacity > 0 {
        transport.queue_capacity = opts.queue_capacity;
    }
    let state = ServerState::new(store, grid, opts, Arc::clone(&transport.shed_counter));

    let mut server = DlibServer::new(state);
    server.on_session_event(|state, session, event| state.session_event(session, event));
    server.on_idle(|state, pending| state.idle(pending));
    server.register(PROC_HELLO, move |state, session: Session, _args| {
        // Joining announces presence (head pose arrives later).
        state.env.update_user(session.client_id, Pose::IDENTITY);
        let reply = HelloReply {
            dataset_name: meta.name.clone(),
            dims: meta.dims,
            timestep_count: len_u32(meta.timestep_count),
            dt: meta.dt,
            bounds_min: bounds.min,
            bounds_max: bounds.max,
            user_id: session.client_id,
        };
        Ok(reply.encode())
    });
    server.register(PROC_COMMAND, |state, session, args| {
        let cmd = Command::decode(args).map_err(|e| e.to_string())?;
        state.apply_command(session, cmd)?;
        Ok(Bytes::new())
    });
    server.register(PROC_FRAME, |state, _session, args| {
        let req = FrameRequest::decode(args).map_err(|e| e.to_string())?;
        state.frame_bytes(req.advance)
    });
    server.register(PROC_FRAME_DELTA, |state, session, args| {
        let req = DeltaRequest::decode(args).map_err(|e| e.to_string())?;
        state.delta_bytes(session.client_id, req)
    });
    server.register(PROC_STATS, |state, _session, _args| {
        // Storage counters are polled at reply time so they are current
        // even when no frame has been recomputed since the last call.
        let io = state.store.io_stats();
        state.stats.cum_io_wait_us = io.io_wait_us;
        state.stats.cum_decode_us = io.decode_us;
        state.stats.cum_prefetch_hits = io.prefetch_hits;
        state.stats.cum_prefetch_misses = io.prefetch_misses;
        let health = state.store.health_stats();
        state.stats.cum_store_retries = health.retried_reads;
        state.stats.cum_salvaged_chunks = health.salvaged_chunks;
        state.stats.cum_zero_filled_chunks = health.zero_filled_chunks;
        state.stats.cum_quarantined_steps = health.quarantined_steps;
        state.stats.cum_substituted_fetches =
            state.cum_substituted + state.engines.substituted_fetches();
        Ok(state.stats.encode())
    });

    let inner = server.serve_with(addr, transport)?;
    Ok(WindtunnelHandle { inner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::{dataset::VelocityCoords, Dataset, DatasetMeta, Dims, FieldError, VectorField};
    use parking_lot::Mutex;
    use storage::MemoryStore;
    use tracer::ToolKind;
    use vecmath::{Aabb, Vec3};

    fn state_with_two_rakes() -> ServerState {
        let dims = Dims::new(16, 9, 9);
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0));
        let grid = CurvilinearGrid::cartesian(dims, bounds).unwrap();
        let meta = DatasetMeta {
            name: "uniform".into(),
            dims,
            timestep_count: 2,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..2)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        let store = Arc::new(MemoryStore::from_dataset(ds));
        let mut state = ServerState::new(store, grid, ServerOptions::default(), Arc::default());
        for y in [2.0, 5.0] {
            let add = Command::AddRake {
                a: Vec3::new(2.0, y, 4.0),
                b: Vec3::new(2.0, y + 1.0, 4.0),
                seed_count: 3,
                tool: ToolKind::Streamline,
            };
            state.apply_command(Session { client_id: 1 }, add).unwrap();
        }
        state
    }

    /// The acceptance test for "no copy proportional to chunk bytes":
    /// what a handler returns for the chunk part of a reply is the
    /// cached buffer itself — same address, for every client and for
    /// both frame RPCs — and the ropes still spell the typed encodings.
    #[test]
    fn replies_carry_the_cached_chunk_buffers_themselves() {
        let mut state = state_with_two_rakes();
        let keyframe = DeltaRequest {
            advance: false,
            baseline: 0,
        };
        let to_a = state.delta_bytes(1, keyframe).unwrap();
        let to_b = state.delta_bytes(2, keyframe).unwrap();
        let full = state.frame_bytes(false).unwrap();
        let cached: Vec<&Bytes> = [1, 2]
            .iter()
            .map(|id| &state.chunk_cache[id].bytes)
            .collect();
        assert!(cached.iter().all(|c| c.len() > 100), "rakes traced paths");
        for rope in [&to_a, &to_b] {
            assert_eq!(rope.segments.len(), 4, "head, two chunks, tail");
            for (seg, blob) in rope.segments[1..].iter().zip(&cached) {
                assert_eq!((seg.as_ptr(), seg.len()), (blob.as_ptr(), blob.len()));
            }
        }
        assert_eq!(full.segments.len(), 4);
        for (seg, blob) in full.segments[1..].iter().zip(&cached) {
            assert_eq!(seg.as_ptr(), blob[16..].as_ptr());
            assert_eq!(seg.len(), blob.len() - 16);
        }
        let mut frame = state.frame.clone().unwrap();
        assert!(frame.paths.is_empty(), "the server keeps no path copy");
        frame.paths = state.geom_cache.frame_paths(&state.env);
        assert_eq!(full.into_bytes(), frame.encode());
        let typed = crate::proto::DeltaFrame::decode(&to_a.clone().into_bytes()).unwrap();
        assert_eq!(typed.encode(), to_a.into_bytes());
        assert_eq!(typed.chunks.len(), 2);
    }

    // ---- the frame ahead (DESIGN.md §6.11) ------------------------------

    const STEPS: usize = 6;

    /// A memory store whose field changes with the timestep, logging
    /// every fetch and direction hint it receives.
    struct LoggingStore {
        inner: MemoryStore,
        fetches: Mutex<Vec<usize>>,
        hints: Mutex<Vec<i64>>,
        /// Simulated disk latency per fetch, milliseconds.
        latency_ms: AtomicU64,
    }

    impl TimestepStore for LoggingStore {
        fn meta(&self) -> &DatasetMeta {
            self.inner.meta()
        }
        fn fetch(&self, index: usize) -> Result<Arc<VectorField>, FieldError> {
            self.fetches.lock().push(index);
            let latency = self.latency_ms.load(std::sync::atomic::Ordering::Relaxed);
            #[allow(clippy::disallowed_methods, reason = "simulated disk latency")]
            std::thread::sleep(Duration::from_millis(latency));
            self.inner.fetch(index)
        }
        fn hint_direction(&self, direction: i64) {
            self.hints.lock().push(direction);
        }
    }

    fn unsteady_store() -> (Arc<LoggingStore>, CurvilinearGrid) {
        let dims = Dims::new(16, 9, 9);
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0));
        let grid = CurvilinearGrid::cartesian(dims, bounds).unwrap();
        let meta = DatasetMeta {
            name: "unsteady".into(),
            dims,
            timestep_count: STEPS,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..STEPS)
            .map(|t| {
                let t = t as f32;
                VectorField::from_fn(dims, move |i, j, _| {
                    let swirl = (0.7 * t + 0.4 * i as f32 + 0.2 * j as f32).sin();
                    Vec3::new(1.0, 0.3 * swirl, 0.05 * (t - 2.0))
                })
            })
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        let store = LoggingStore {
            inner: MemoryStore::from_dataset(ds),
            fetches: Mutex::default(),
            hints: Mutex::default(),
            latency_ms: AtomicU64::new(0),
        };
        (Arc::new(store), grid)
    }

    /// A server over `store`; `governed` sets a 1 ns budget, which pins
    /// the governor's detail at its floor after the first fresh frame.
    fn unsteady_state(
        store: Arc<LoggingStore>,
        grid: CurvilinearGrid,
        governed: bool,
    ) -> ServerState {
        let mut opts = ServerOptions::default();
        opts.compute.trace.dt = 0.05;
        opts.compute.trace.max_points = 400;
        opts.frame_budget = governed.then_some(Duration::from_nanos(1));
        ServerState::new(store, grid, opts, Arc::default())
    }

    /// One generated call against `state` as `client`; the reply bytes
    /// (empty for commands) or the error. `baseline` is the client's last
    /// delta revision.
    fn twin_call(
        state: &mut ServerState,
        client: u64,
        op: (u8, u8, u8),
        baseline: &mut u64,
    ) -> Result<Bytes, String> {
        let (code, a, b) = op;
        let session = Session { client_id: client };
        let time = |tc| Command::Time(tc);
        let cmd = match code {
            0 => time(TimeCommand::Play),
            1 => time(TimeCommand::Pause),
            2 => time(TimeCommand::Reverse),
            3 => time(TimeCommand::SetRate([0.0, 0.5, -1.0][usize::from(a % 3)])),
            4 => time(TimeCommand::Jump(u32::from(a) % STEPS as u32)),
            5 => time(TimeCommand::Step(if a % 2 == 0 { 1 } else { -1 })),
            6 => {
                let at = Vec3::new(1.0 + f32::from(a % 4), 1.0 + f32::from(b % 5), 3.0);
                Command::AddRake {
                    a: at,
                    b: at + Vec3::new(0.0, 1.5, 2.0),
                    seed_count: 2 + u32::from(a % 4),
                    tool: [
                        ToolKind::Streamline,
                        ToolKind::ParticlePath,
                        ToolKind::Streakline,
                    ][usize::from(b % 3)],
                }
            }
            7 => {
                let ids: Vec<RakeId> = state.env.rakes().map(|(id, _)| id).collect();
                let id = ids.get(usize::from(a) % ids.len().max(1)).copied();
                Command::RemoveRake {
                    id: id.unwrap_or(999),
                }
            }
            8 => {
                // Grab a rake by its centre handle, drag it, let go.
                let Some((_, entry)) = state
                    .env
                    .rakes()
                    .nth(usize::from(a) % state.env.rake_count().max(1))
                else {
                    return Ok(Bytes::new());
                };
                let centre = entry.rake.handle_position(tracer::Handle::Center);
                let from = state.grid.to_physical(centre).unwrap_or(centre);
                let to = from + Vec3::new(0.0, f32::from(b % 5) * 0.1 - 0.2, 0.3);
                for (position, gesture) in [(from, vr::Gesture::Fist), (to, vr::Gesture::Fist)] {
                    state.apply_command(session, Command::Hand { position, gesture })?;
                }
                Command::Hand {
                    position: to,
                    gesture: vr::Gesture::Open,
                }
            }
            9 => Command::HeadPose {
                pose: Pose::new(
                    Vec3::new(f32::from(a), f32::from(b), 1.0),
                    vecmath::Quat::IDENTITY,
                ),
            },
            10..=13 => return state.frame_bytes(code != 13).map(Payload::into_bytes),
            _ => {
                let req = DeltaRequest {
                    advance: code != 18,
                    baseline: if b % 4 == 0 { 0 } else { *baseline },
                };
                let reply = state.delta_bytes(client, req).map(Payload::into_bytes);
                *baseline = state.env.revision();
                return reply;
            }
        };
        state.apply_command(session, cmd).map(|()| Bytes::new())
    }

    mod twin {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The frame ahead changes no byte: two servers over one
            /// store take the same calls from two clients; one runs the
            /// idle hook after every call, the other never does.
            #[test]
            fn frame_ahead_twin_replies_byte_identical(
                governed in any::<bool>(),
                ops in proptest::collection::vec((0u8..19, any::<u8>(), any::<u8>(), any::<bool>()), 10..60),
            ) {
                let (store, grid) = unsteady_store();
                let mut ahead = unsteady_state(Arc::clone(&store), grid.clone(), governed);
                let mut plain = unsteady_state(store, grid, governed);
                let mut baselines = [[0u64; 2]; 2];
                // Start from a playing clock and one streamline rake.
                let setup = [(6, 0, 0, false), (0, 0, 0, false)];
                for (i, &(code, a, b, second)) in setup.iter().chain(&ops).enumerate() {
                    let c = usize::from(second);
                    let client = 1 + c as u64;
                    let got = twin_call(&mut ahead, client, (code, a, b), &mut baselines[0][c]);
                    ahead.idle(&|| false);
                    let want = twin_call(&mut plain, client, (code, a, b), &mut baselines[1][c]);
                    prop_assert!(got == want, "call {} {:?} from client {}: replies differ", i, (code, a, b), client);
                }
            }
        }
    }

    fn advancing_frame(state: &mut ServerState) -> Bytes {
        state.frame_bytes(true).unwrap().into_bytes()
    }

    /// An advancing frame that leaves the idle hook armed. The
    /// compute-bound gate compares two measured times, so these tests
    /// pin its outcome; `store_bound_frame_is_not_traced_ahead` tests it.
    fn armed_frame(state: &mut ServerState) -> Bytes {
        let reply = advancing_frame(state);
        state.ahead_armed = Some(state.env.revision());
        reply
    }

    /// A playing server with two streamline rakes, one frame in; and
    /// its twin, which never runs the idle hook.
    fn playing_twins(governed: bool) -> [(ServerState, Arc<LoggingStore>); 2] {
        [0, 1].map(|_| {
            let (store, grid) = unsteady_store();
            let mut state = unsteady_state(Arc::clone(&store), grid, governed);
            for y in [2.0, 5.0] {
                let add = Command::AddRake {
                    a: Vec3::new(2.0, y, 3.0),
                    b: Vec3::new(2.0, y + 1.0, 5.0),
                    seed_count: 4,
                    tool: ToolKind::Streamline,
                };
                state.apply_command(Session { client_id: 1 }, add).unwrap();
            }
            state
                .apply_command(Session { client_id: 1 }, Command::Time(TimeCommand::Play))
                .unwrap();
            advancing_frame(&mut state);
            (state, store)
        })
    }

    #[test]
    fn adopted_frame_issues_no_fetch() {
        for governed in [false, true] {
            let [(mut ahead, log), (mut plain, _)] = playing_twins(governed);
            assert_eq!(armed_frame(&mut ahead), advancing_frame(&mut plain));
            ahead.idle(&|| false);
            assert_eq!(ahead.stats.cum_ahead_traced, 2, "both rakes traced ahead");
            let fetched = log.fetches.lock().len();
            assert_eq!(advancing_frame(&mut ahead), advancing_frame(&mut plain));
            assert_eq!(
                log.fetches.lock().len(),
                fetched,
                "the frame took the slot's field"
            );
            assert_eq!(ahead.stats.cum_ahead_adopted, 2);
        }
    }

    #[test]
    fn pending_call_at_the_first_poll_traces_nothing() {
        let [(mut ahead, log), (mut plain, _)] = playing_twins(false);
        assert_eq!(armed_frame(&mut ahead), advancing_frame(&mut plain));
        let fetched = log.fetches.lock().len();
        ahead.idle(&|| true);
        assert_eq!(ahead.stats.cum_ahead_traced, 0);
        assert_eq!(log.fetches.lock().len(), fetched, "nothing fetched ahead");
        assert_eq!(advancing_frame(&mut ahead), advancing_frame(&mut plain));
        assert_eq!(ahead.stats.cum_ahead_adopted, 0);
    }

    #[test]
    fn reverse_before_the_frame_discards_the_slot_at_one_extra_fetch() {
        let [(mut ahead, log), (mut plain, plain_log)] = playing_twins(false);
        assert_eq!(armed_frame(&mut ahead), advancing_frame(&mut plain));
        ahead.idle(&|| false);
        let predicted = ahead.env.time.timestep() + 1;
        assert_eq!(ahead.stats.cum_ahead_traced, 2);
        for state in [&mut ahead, &mut plain] {
            let reverse = Command::Time(TimeCommand::Reverse);
            state
                .apply_command(Session { client_id: 1 }, reverse)
                .unwrap();
        }
        assert_eq!(advancing_frame(&mut ahead), advancing_frame(&mut plain));
        assert_eq!(ahead.stats.cum_ahead_adopted, 0);
        let mut expected = plain_log.fetches.lock().clone();
        expected.insert(expected.len() - 1, predicted);
        assert_eq!(*log.fetches.lock(), expected);
    }

    #[test]
    fn store_bound_frame_is_not_traced_ahead() {
        let [(mut state, log), _] = playing_twins(false);
        // Every fetch now waits far longer than this scene's trace.
        log.latency_ms
            .store(300, std::sync::atomic::Ordering::Relaxed);
        advancing_frame(&mut state);
        assert!(state.stats.fetch_us > state.stats.integrate_us);
        let fetched = log.fetches.lock().len();
        state.idle(&|| false);
        assert_eq!(state.stats.cum_ahead_traced, 0);
        assert_eq!(log.fetches.lock().len(), fetched, "nothing fetched ahead");
    }

    #[test]
    fn a_clock_at_rate_zero_sends_no_direction_hint() {
        let (store, grid) = unsteady_store();
        let mut state = unsteady_state(Arc::clone(&store), grid, false);
        let user = Session { client_id: 1 };
        for tc in [TimeCommand::SetRate(0.0), TimeCommand::Play] {
            state.apply_command(user, Command::Time(tc)).unwrap();
        }
        for _ in 0..3 {
            advancing_frame(&mut state);
        }
        assert!(store.hints.lock().is_empty(), "{:?}", store.hints.lock());
        state
            .apply_command(user, Command::Time(TimeCommand::SetRate(-0.0)))
            .unwrap();
        advancing_frame(&mut state);
        assert!(store.hints.lock().is_empty(), "{:?}", store.hints.lock());
        state
            .apply_command(user, Command::Time(TimeCommand::SetRate(-0.5)))
            .unwrap();
        for _ in 0..3 {
            advancing_frame(&mut state);
        }
        assert_eq!(*store.hints.lock(), [-1, -1, -1]);
    }
}
