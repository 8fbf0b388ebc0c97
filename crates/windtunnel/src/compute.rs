//! Per-frame visualization computation on the remote system.
//!
//! §5.2: "The remote system updates the virtual environment including if
//! necessary loading the data for the current timestep, computes the
//! current visualizations, and transfers the environment state back to
//! the workstations." This module is the "computes the current
//! visualizations" box of figure 8: for every rake, run its tool over the
//! current timestep (streamlines), the timestep window (particle paths),
//! or the persistent particle system (streaklines), then convert all
//! geometry to physical space for the wire.

// A per-frame service file: a debug print here is a latency spike for
// every client (stderr is a blocking global lock).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crate::env::{EnvironmentState, RakeId};
use crate::proto::{GeometryFrame, Lattice, PathKind, PathMsg, RakeMsg, UserMsg};
use flowfield::{BlendedPairSoA, CurvilinearGrid, FieldError, VectorField};
use rayon::IntoParallelIterator;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use storage::{elapsed_us, TimestepStore};
use tracer::{
    streamline_physical, AdvanceStats, Domain, Integrator, Streakline, StreaklineConfig, ToolKind,
    TraceConfig,
};
use vecmath::Vec3;

/// Compute-side configuration.
#[derive(Debug, Clone, Copy)]
pub struct ComputeConfig {
    /// Streamline tracing parameters.
    pub trace: TraceConfig,
    /// Streakline particle-system parameters.
    pub streak: StreaklineConfig,
    /// Maximum timesteps a particle path may span — bounded by the
    /// resident window (§5.1's particle-path length limit).
    pub pathline_window: usize,
}

impl Default for ComputeConfig {
    fn default() -> Self {
        ComputeConfig {
            trace: TraceConfig::default(),
            streak: StreaklineConfig::default(),
            pathline_window: 50,
        }
    }
}

/// Stateful per-rake engines (streaklines persist across frames).
#[derive(Default)]
pub struct ToolEngines {
    streaks: HashMap<RakeId, Streakline>,
    /// Cumulative count of streak-advance fetches served by a healthy
    /// *neighbouring* timestep because the requested one could not be
    /// read (quarantined or erroring store). Folded into the server's
    /// degraded-playback stats.
    substituted: u64,
    /// Bumped whenever the persistent particle systems mutate (advance
    /// or clear), so cached streak geometry invalidates precisely — a
    /// streak rake's smoke changes per clock tick even when the rake
    /// itself hasn't moved.
    epoch: u64,
    /// The node-interleaved blend pair for the bracketing timesteps.
    /// Interleaving copies the whole grid, so it is rebuilt only when
    /// the bracket moves; between timestep crossings a tick just resets
    /// the blend factor, keeping the per-tick path allocation-free. The
    /// endpoints themselves stay with the store, whose cache owns
    /// residency.
    pair_cache: Option<((usize, usize), BlendedPairSoA)>,
}

impl ToolEngines {
    pub fn new() -> ToolEngines {
        ToolEngines::default()
    }

    /// Drop engines whose rakes no longer exist or changed tool.
    fn prune(&mut self, env: &EnvironmentState) {
        self.streaks.retain(|id, _| {
            env.rake(*id)
                .map(|e| e.rake.tool == ToolKind::Streakline)
                .unwrap_or(false)
        });
    }

    /// Advance all streak systems one step — called exactly once per
    /// time advance, not per client frame request.
    ///
    /// The smoke is advected through the field at the *fractional*
    /// playback time: the two bracketing timesteps are blended at the
    /// interpolation factor, so mid-interpolation ticks no longer sample
    /// a single rounded timestep (the fidelity gap the scalar path had).
    /// Advancing runs the batched pair kernel; returns the per-stage
    /// timings summed across all streak rakes.
    pub fn advance_streaks(
        &mut self,
        env: &EnvironmentState,
        store: &dyn TimestepStore,
        domain: &Domain,
        cfg: &StreaklineConfig,
    ) -> Result<AdvanceStats, FieldError> {
        self.prune(env);
        self.epoch += 1;
        let mut total = AdvanceStats::default();
        let count = store.timestep_count();
        if count == 0 {
            return Ok(total);
        }
        // No streak rakes means nothing to advect: skip the bracket
        // fetches entirely (a tick must not touch — or trip over — the
        // store on behalf of tools nobody is using).
        if !env
            .rakes()
            .any(|(_, e)| e.rake.tool == ToolKind::Streakline)
        {
            return Ok(total);
        }
        // Bracketing pair and blend factor for the fractional time.
        let t = env.time.time().max(0.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "t is non-negative; `as` saturates and min() clamps to the last step"
        )]
        let t0 = (t.floor() as usize).min(count - 1);
        let t1 = (t0 + 1).min(count - 1);
        let alpha = if t1 == t0 { 0.0 } else { t - t0 as f32 };
        if !matches!(&self.pair_cache, Some((key, _)) if *key == (t0, t1)) {
            // Degraded playback: if the bracket cannot be read, advect
            // through the nearest healthy field instead of wedging the
            // tick loop. A substituted endpoint degenerates the pair to
            // (h, h) — blending across the gap would interpolate between
            // non-adjacent timesteps, so the blend collapses to a single
            // field (any alpha then samples exactly that field).
            let Ok((f0, s0)) = fetch_with_substitution(store, t0) else {
                // Nothing in the dataset loads: skip this advance and
                // leave the smoke where it is; the frame path reports
                // the underlying error.
                return Ok(total);
            };
            if s0 != t0 {
                self.substituted += 1;
            }
            let f1 = if t1 == t0 || s0 != t0 {
                f0.clone()
            } else {
                store.fetch(t1).unwrap_or_else(|_| {
                    self.substituted += 1;
                    f0.clone()
                })
            };
            self.pair_cache = Some(((t0, t1), BlendedPairSoA::new(&f0, &f1, alpha)?));
        }
        let Some((_, pair)) = &mut self.pair_cache else {
            return Ok(total); // just populated above
        };
        pair.set_alpha(alpha);
        let pair = &*pair;
        for (id, entry) in env.rakes() {
            if entry.rake.tool != ToolKind::Streakline {
                continue;
            }
            let seeds = entry.rake.seeds();
            let streak = self
                .streaks
                .entry(id)
                .or_insert_with(|| Streakline::new(seeds.clone(), *cfg));
            streak.set_seeds(seeds);
        }
        // One job per rake. A lone rake runs on this thread, so a pool
        // past the particle split threshold still splits.
        let streaks: Vec<&mut Streakline> = self.streaks.values_mut().collect();
        let advanced: Vec<AdvanceStats> = streaks
            .into_par_iter()
            .map(|streak| streak.advance_batch(pair, domain))
            .collect();
        for stats in advanced {
            total.accumulate(stats);
        }
        Ok(total)
    }

    /// Reset all particle systems (time jumped discontinuously).
    pub fn clear(&mut self) {
        for s in self.streaks.values_mut() {
            s.clear();
        }
        self.epoch += 1;
    }

    /// Mutation counter for the particle systems (cache-key component).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total live streak particles (diagnostics).
    pub fn streak_particles(&self) -> usize {
        self.streaks.values().map(|s| s.particle_count()).sum()
    }

    /// Cumulative streak-advance fetches served by a substituted
    /// neighbouring timestep (degraded playback).
    pub fn substituted_fetches(&self) -> u64 {
        self.substituted
    }
}

/// Candidate order for nearest-healthy substitution: the requested
/// timestep first, then spiralling outward (`ts−1, ts+1, ts−2, …`) so a
/// substitute is as visually close to the request as the dataset allows.
fn substitution_candidates(ts: usize, count: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(count);
    if ts < count {
        order.push(ts);
    }
    for d in 1..count.max(1) {
        if let Some(lo) = ts.checked_sub(d) {
            order.push(lo);
        }
        if ts + d < count {
            order.push(ts + d);
        }
    }
    order
}

/// Fetch the frame's field with nearest-healthy substitution: a
/// quarantined or unreadable timestep must degrade the picture, not kill
/// the frame. Returns the field and the timestep actually served; `Err`
/// only when *no* timestep in the dataset loads.
fn fetch_with_substitution(
    store: &dyn TimestepStore,
    ts: usize,
) -> Result<(Arc<VectorField>, usize), FieldError> {
    let mut last_err = FieldError::Format("dataset has no readable timesteps".into());
    for cand in substitution_candidates(ts, store.timestep_count()) {
        match store.fetch(cand) {
            Ok(field) => return Ok((field, cand)),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Integrate a particle path starting at `seed` (grid coords) from
/// timestep `start`, fetching fields from the store as it goes — the
/// windowed variant of §5.1's particle paths. One RK2 step per timestep.
fn pathline_over_store(
    store: &dyn TimestepStore,
    domain: &Domain,
    seed: Vec3,
    start: usize,
    window: usize,
    integrator: Integrator,
    dt: f32,
) -> Result<Vec<Vec3>, FieldError> {
    let Some(mut p) = domain.canonicalize(seed) else {
        return Ok(Vec::new());
    };
    let mut path = vec![p];
    let end = (start + window).min(store.timestep_count());
    for ts in start..end {
        // A path that reaches an unreadable timestep simply ends there —
        // the gap truncates the path rather than erroring the frame.
        let Ok(field) = store.fetch(ts) else {
            break;
        };
        let field: Arc<VectorField> = field;
        match integrator.step(field.as_ref(), domain, p, dt) {
            Some(next) => {
                p = next;
                path.push(p);
            }
            None => break,
        }
    }
    Ok(path)
}

/// Cache key for one rake's computed geometry: any field differing from
/// the cached entry means the rake's paths must be re-traced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GeomKey {
    /// The rake's own geometry revision (endpoints, seed count, tool).
    geom_rev: u64,
    /// Timestep whose field the paths were traced in.
    timestep: usize,
    tool: ToolKind,
    integrator: Integrator,
    dt_bits: u32,
    max_points: usize,
    min_speed_bits: u32,
    both_directions: bool,
    pathline_window: usize,
    /// Engines epoch for streak rakes (0 for stateless tools) — smoke
    /// geometry changes when the particle system advances, not when the
    /// rake moves.
    streak_epoch: u64,
}

fn geom_key(
    geom_rev: u64,
    timestep: usize,
    tool: ToolKind,
    cfg: &ComputeConfig,
    streak_epoch: u64,
) -> GeomKey {
    GeomKey {
        geom_rev,
        timestep,
        tool,
        integrator: cfg.trace.integrator,
        dt_bits: cfg.trace.dt.to_bits(),
        max_points: cfg.trace.max_points,
        min_speed_bits: cfg.trace.min_speed.to_bits(),
        both_directions: cfg.trace.both_directions,
        pathline_window: cfg.pathline_window,
        streak_epoch: if tool == ToolKind::Streakline {
            streak_epoch
        } else {
            0
        },
    }
}

struct CacheEntry {
    key: GeomKey,
    paths: Vec<PathMsg>,
    /// Monotone token bumped every time this rake's paths are replaced.
    /// The server's broadcast chunk cache compares stamps to decide
    /// whether its *encoded* copy of the rake is still current — a cheap
    /// content-change test that needs no knowledge of [`GeomKey`].
    stamp: u64,
}

/// Streamline paths traced ahead for the next playback frame
/// (DESIGN.md §6.11): the timestep asked for, the field and timestep
/// served, the fetch µs, and per rake its next-frame key, paths and µs.
struct AheadSlot {
    timestep: usize,
    fetched: (Arc<VectorField>, usize),
    fetch_us: u64,
    rakes: Vec<(RakeId, GeomKey, Vec<PathMsg>, u64)>,
}

/// Per-rake cache of computed wire geometry, layered beneath the
/// server's per-rake cache of encoded chunks. A mutation that touches one
/// rake — or none, like a head-pose update — re-traces only what
/// actually changed; everything else is served from here.
#[derive(Default)]
pub struct GeometryCache {
    entries: HashMap<RakeId, CacheEntry>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    /// Emptied by every [`update_geometry`], adopted or not.
    ahead: Option<AheadSlot>,
}

impl GeometryCache {
    pub fn new() -> GeometryCache {
        GeometryCache::default()
    }

    /// Lifetime (hits, misses) across every frame built with this cache.
    pub fn cumulative(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The cached paths and change stamp for one rake. The stamp changes
    /// exactly when the paths do, so callers can cache derived artifacts
    /// (e.g. encoded wire chunks) keyed on it.
    pub fn rake_geometry(&self, id: RakeId) -> Option<(&[PathMsg], u64)> {
        self.entries.get(&id).map(|e| (e.paths.as_slice(), e.stamp))
    }

    /// Drop all cached geometry (e.g. on dataset swap).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Every cached path of `env`'s rakes, in rake order.
    pub fn frame_paths(&self, env: &EnvironmentState) -> Vec<PathMsg> {
        env.rakes()
            .filter_map(|(id, _)| self.entries.get(&id))
            .flat_map(|cached| cached.paths.iter().cloned())
            .collect()
    }

    /// Trace `env`'s streamline rakes for the timestep its clock reaches
    /// at the next tick, keyed by the [`GeomKey`] that frame will compute
    /// under `cfg`. A clock that will not move, no streamline rake or a
    /// failed fetch leaves no slot; `pending` is polled before the fetch
    /// and each rake. Returns the rakes traced.
    pub fn trace_ahead(
        &mut self,
        env: &EnvironmentState,
        store: &dyn TimestepStore,
        grid: &CurvilinearGrid,
        domain: &Domain,
        cfg: &ComputeConfig,
        pending: &dyn Fn() -> bool,
    ) -> u64 {
        let mut clock = env.time;
        let timestep = clock.advance();
        let mut streamlines = env
            .rakes()
            .filter(|(_, e)| e.rake.tool == ToolKind::Streamline)
            .peekable();
        if timestep == env.time.timestep() || streamlines.peek().is_none() || pending() {
            return 0;
        }
        let fetch_started = Instant::now();
        let Ok(fetched) = fetch_with_substitution(store, timestep) else {
            return 0;
        };
        let fetch_us = elapsed_us(fetch_started);
        let mut rakes = Vec::new();
        for (id, entry) in streamlines {
            if pending() {
                break;
            }
            let key = geom_key(entry.geom_rev(), fetched.1, ToolKind::Streamline, cfg, 0);
            // Each rake is one flat stage of seed blocks, timed by its
            // wall clock (the governor adds it to the frame's). Traced
            // serially, 200 seeds outlast the link's wait and run into
            // the client's decode and render on the same cores.
            let t0 = Instant::now();
            let seeds = entry.rake.seeds();
            let blocks: Vec<&[Vec3]> = seeds.chunks(SEED_BLOCK).collect();
            let traced: Vec<(Vec<PathMsg>, u64)> = blocks
                .into_par_iter()
                .map(|b| trace_streamlines(&fetched.0, grid, domain, id, b, &cfg.trace))
                .collect();
            let paths = traced.into_iter().flat_map(|(paths, _)| paths).collect();
            rakes.push((id, key, paths, elapsed_us(t0)));
        }
        let traced = rakes.len() as u64;
        self.ahead = Some(AheadSlot {
            timestep,
            fetched,
            fetch_us,
            rakes,
        });
        traced
    }
}

/// Timings and cache counters from one [`compute_frame_cached`] call.
/// Stage times are CPU sums across the fan-out's jobs (seed blocks and
/// rakes), not wall clock: under two threads they read up to twice the
/// stage's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameComputeStats {
    /// Current-timestep field fetch, microseconds.
    pub fetch_us: u64,
    /// Path integration (streamlines, pathlines, streak snapshot), µs
    /// summed across jobs. Streamlines are mapped to physical space
    /// inside this sweep.
    pub integrate_us: u64,
    /// Grid→physical mapping of pathlines and streak filaments, µs
    /// summed across jobs.
    pub map_us: u64,
    /// Rakes served from the geometry cache.
    pub geom_hits: u32,
    /// Rakes re-traced this frame.
    pub geom_misses: u32,
    /// 1 when the frame's field was served by a substituted neighbouring
    /// timestep because the requested one could not be read.
    pub substituted_fetches: u32,
    /// Misses served by paths traced ahead; counted in `geom_misses` too,
    /// and their trace's wall time in `integrate_us`.
    pub ahead_adopted: u32,
    /// Fetch and trace wall microseconds the adopted ahead work took.
    pub ahead_us: u64,
}

/// Seeds per streamline job in [`update_geometry`]'s fan-out: a 100-seed
/// rake becomes 13 jobs that balance against the smoke rakes' jobs.
pub const SEED_BLOCK: usize = 8;

/// Streamlines from `seeds` traced one after another in `field` with the
/// production kernel: their wire paths and the trace's microseconds.
/// Seeds outside the domain yield no path.
fn trace_streamlines(
    field: &VectorField,
    grid: &CurvilinearGrid,
    domain: &Domain,
    id: RakeId,
    seeds: &[Vec3],
    trace: &TraceConfig,
) -> (Vec<PathMsg>, u64) {
    let t0 = Instant::now();
    let paths = seeds
        .iter()
        .filter_map(|&s| streamline_physical(field, grid, domain, s, trace))
        .map(|points| PathMsg {
            rake_id: id,
            kind: PathKind::Streamline,
            points,
        })
        .collect();
    (paths, elapsed_us(t0))
}

/// One job of [`update_geometry`]'s fan-out.
enum Job<'a> {
    /// A block of a streamline rake's seeds.
    Streamlines(&'a [Vec3]),
    /// A pathline rake's seeds.
    Pathlines(&'a [Vec3]),
    /// A streak rake's particle system, read out as filaments.
    Streak(&'a mut Streakline),
}

/// A traced rake: id, cache key, paths, integrate and map µs.
type Traced = (RakeId, GeomKey, Vec<PathMsg>, u64, u64);

/// Bring `cache` up to date with `env`, re-tracing only rakes whose cache
/// key changed. The misses become one flat job list — seed blocks of
/// streamline rakes, whole pathline and streak rakes — that the threads
/// claim one job at a time; blocks merge back in seed order. The returned
/// frame's `paths` are empty: the server splices them from its chunks.
///
/// `timestep` is the integer timestep to visualize (from the time
/// controller). Streak systems are *read*, not advanced — advancing
/// happens once per clock tick via [`ToolEngines::advance_streaks`].
pub fn update_geometry(
    env: &EnvironmentState,
    engines: &mut ToolEngines,
    cache: &mut GeometryCache,
    store: &dyn TimestepStore,
    grid: &CurvilinearGrid,
    domain: &Domain,
    cfg: &ComputeConfig,
) -> Result<(GeometryFrame, FrameComputeStats), FieldError> {
    let mut stats = FrameComputeStats::default();
    let timestep = env.time.timestep();
    // Paths traced ahead for this timestep bring their field: no refetch.
    let mut ahead = cache.ahead.take().filter(|a| a.timestep == timestep);
    let fetch_started = Instant::now();
    let (field, served) = match &ahead {
        Some(a) => a.fetched.clone(),
        None => fetch_with_substitution(store, timestep)?,
    };
    stats.fetch_us = elapsed_us(fetch_started);
    if let Some(a) = &ahead {
        (stats.fetch_us, stats.ahead_us) = (a.fetch_us, a.fetch_us);
    }
    if served != timestep {
        stats.substituted_fetches = 1;
    }

    // Forget geometry for rakes that no longer exist.
    cache.entries.retain(|id, _| env.rake(*id).is_some());

    let streak_epoch = engines.epoch;
    let mut rakes = Vec::new();
    let mut misses: Vec<(RakeId, GeomKey, ToolKind, Vec<Vec3>)> = Vec::new();
    let mut adopted: Vec<Traced> = Vec::new();
    for (id, entry) in env.rakes() {
        let rake = &entry.rake;
        // Rake state for client rendering (physical endpoints; endpoints
        // may sit outside the grid mid-drag — clamp to the grid domain
        // for display).
        let dims = grid.dims();
        let a_phys = grid
            .to_physical(dims.clamp_grid_coord(rake.a))
            .unwrap_or(Vec3::ZERO);
        let b_phys = grid
            .to_physical(dims.clamp_grid_coord(rake.b))
            .unwrap_or(Vec3::ZERO);
        rakes.push(RakeMsg {
            id,
            a: a_phys,
            b: b_phys,
            seed_count: rake.seed_count,
            tool: rake.tool,
            owner: entry.grab.map(|(u, _)| u).unwrap_or(0),
        });

        // Geometry is keyed on the timestep actually *served*: a frame
        // drawn from a substitute must not be mistaken for (or poison the
        // cache of) the real one.
        let key = geom_key(entry.geom_rev(), served, rake.tool, cfg, streak_epoch);
        match cache.entries.get(&id) {
            Some(cached) if cached.key == key => stats.geom_hits += 1,
            _ => {
                stats.geom_misses += 1;
                let traced_ahead = ahead.as_mut().and_then(|a| {
                    let i = a.rakes.iter().position(|r| r.0 == id && r.1 == key)?;
                    Some(a.rakes.swap_remove(i))
                });
                if let Some((_, _, paths, us)) = traced_ahead {
                    stats.ahead_adopted += 1;
                    stats.ahead_us += us;
                    adopted.push((id, key, paths, us, 0));
                    continue;
                }
                misses.push((id, key, rake.tool, rake.seeds()));
            }
        }
    }
    cache.hits += u64::from(stats.geom_hits);
    cache.misses += u64::from(stats.geom_misses);

    // The job list, each job tagged with its miss. Whole rakes go first:
    // they are the longest jobs, and the short seed blocks fill in
    // behind them.
    let mut streaks: HashMap<RakeId, &mut Streakline> =
        engines.streaks.iter_mut().map(|(id, s)| (*id, s)).collect();
    let mut jobs: Vec<(usize, Job)> = Vec::new();
    for (m, (id, _, tool, seeds)) in misses.iter().enumerate() {
        match tool {
            ToolKind::Streamline => {
                jobs.extend(seeds.chunks(SEED_BLOCK).map(|b| (m, Job::Streamlines(b))));
            }
            ToolKind::ParticlePath => jobs.push((m, Job::Pathlines(seeds))),
            ToolKind::Streakline => jobs.extend(streaks.remove(id).map(|s| (m, Job::Streak(s)))),
        }
    }
    jobs.sort_by_key(|(_, job)| matches!(job, Job::Streamlines(_)));
    let done: Vec<_> = jobs
        .into_par_iter()
        .map(|(m, job)| -> Result<_, FieldError> {
            let id = misses[m].0;
            let mut integrate_us = 0u64;
            let mut map_us = 0u64;
            let mut paths = Vec::new();
            match job {
                Job::Streamlines(seeds) => {
                    (paths, integrate_us) =
                        trace_streamlines(&field, grid, domain, id, seeds, &cfg.trace);
                }
                Job::Pathlines(seeds) => {
                    for &seed in seeds {
                        let t0 = Instant::now();
                        let line = pathline_over_store(
                            store,
                            domain,
                            seed,
                            timestep,
                            cfg.pathline_window,
                            cfg.trace.integrator,
                            cfg.trace.dt,
                        )?;
                        integrate_us += elapsed_us(t0);
                        if line.is_empty() {
                            continue;
                        }
                        let t1 = Instant::now();
                        paths.push(PathMsg {
                            rake_id: id,
                            kind: PathKind::ParticlePath,
                            points: grid.path_to_physical(&line),
                        });
                        map_us += elapsed_us(t1);
                    }
                }
                Job::Streak(streak) => {
                    // A sorted copy out of the particle pool, then each
                    // buffer is mapped to physical space in place and
                    // handed to its wire message: no intermediate vector.
                    let t0 = Instant::now();
                    let mut filaments = Vec::new();
                    streak.filaments_into(&mut filaments);
                    integrate_us = elapsed_us(t0);
                    let t1 = Instant::now();
                    for mut filament in filaments {
                        grid.path_to_physical_in_place(&mut filament);
                        if filament.is_empty() {
                            continue;
                        }
                        paths.push(PathMsg {
                            rake_id: id,
                            kind: PathKind::Streak,
                            points: filament,
                        });
                    }
                    map_us = elapsed_us(t1);
                }
            }
            Ok((m, paths, integrate_us, map_us))
        })
        .collect();
    let mut traced: Vec<Traced> = misses
        .into_iter()
        .map(|(id, key, _, _)| (id, key, Vec::new(), 0, 0))
        .collect();
    for job in done {
        let (m, mut paths, integrate_us, map_us) = job?;
        let rake = &mut traced[m];
        rake.2.append(&mut paths);
        rake.3 += integrate_us;
        rake.4 += map_us;
    }
    for (id, key, paths, integrate_us, map_us) in adopted.into_iter().chain(traced) {
        stats.integrate_us += integrate_us;
        stats.map_us += map_us;
        cache.next_stamp += 1;
        let stamp = cache.next_stamp;
        cache.entries.insert(id, CacheEntry { key, paths, stamp });
    }

    let users = env
        .users()
        .map(|(id, pose)| UserMsg { id, head: *pose })
        .collect();

    #[expect(
        clippy::cast_possible_truncation,
        reason = "timestep indexes the store; HELLO advertises the count as u32"
    )]
    let frame = GeometryFrame {
        timestep: timestep as u32,
        time: env.time.time(),
        revision: env.revision(),
        lattice: Lattice::for_bounds(&grid.bounds()),
        rakes,
        paths: Vec::new(),
        users,
    };
    Ok((frame, stats))
}

/// Compute a full [`GeometryFrame`]: [`update_geometry`], then the paths
/// from the warm cache, so hit and miss frames are byte-identical.
pub fn compute_frame_cached(
    env: &EnvironmentState,
    engines: &mut ToolEngines,
    cache: &mut GeometryCache,
    store: &dyn TimestepStore,
    grid: &CurvilinearGrid,
    domain: &Domain,
    cfg: &ComputeConfig,
) -> Result<(GeometryFrame, FrameComputeStats), FieldError> {
    let (mut frame, stats) = update_geometry(env, engines, cache, store, grid, domain, cfg)?;
    frame.paths = cache.frame_paths(env);
    Ok((frame, stats))
}

/// Compute a full [`GeometryFrame`] without cross-frame caching — every
/// rake is traced fresh. Wrapper over [`compute_frame_cached`] with a
/// throwaway cache.
pub fn compute_frame(
    env: &EnvironmentState,
    engines: &mut ToolEngines,
    store: &dyn TimestepStore,
    grid: &CurvilinearGrid,
    domain: &Domain,
    cfg: &ComputeConfig,
) -> Result<GeometryFrame, FieldError> {
    let mut cache = GeometryCache::new();
    compute_frame_cached(env, engines, &mut cache, store, grid, domain, cfg).map(|(frame, _)| frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::{dataset::VelocityCoords, Dataset, DatasetMeta, Dims};
    use storage::MemoryStore;
    use tracer::Rake;
    use vecmath::Aabb;

    /// Unit Cartesian grid with uniform +i grid velocity.
    fn test_store() -> (MemoryStore, CurvilinearGrid, Domain) {
        let dims = Dims::new(16, 9, 9);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0)))
                .unwrap();
        let meta = DatasetMeta {
            name: "test".into(),
            dims,
            timestep_count: 6,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..6)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        (MemoryStore::from_dataset(ds), grid, Domain::boxed(dims))
    }

    fn rake(tool: ToolKind) -> Rake {
        Rake::new(Vec3::new(2.0, 2.0, 4.0), Vec3::new(2.0, 6.0, 4.0), 3, tool)
    }

    #[test]
    fn streamline_frame_has_paths_in_physical_space() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::Streamline));
        let mut engines = ToolEngines::new();
        let cfg = ComputeConfig {
            trace: TraceConfig {
                dt: 1.0,
                max_points: 5,
                ..TraceConfig::default()
            },
            ..ComputeConfig::default()
        };
        let frame = compute_frame(&env, &mut engines, &store, &grid, &domain, &cfg).unwrap();
        assert_eq!(frame.rakes.len(), 1);
        assert_eq!(frame.paths.len(), 3); // one per seed
        for p in &frame.paths {
            assert_eq!(p.kind, PathKind::Streamline);
            assert_eq!(p.points.len(), 6); // seed + 5 steps
                                           // Unit grid: physical x advances 1 per step from x=2.
            assert!((p.points[1].x - 3.0).abs() < 1e-4);
        }
    }

    #[test]
    fn pathline_respects_window() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::ParticlePath));
        let mut engines = ToolEngines::new();
        let cfg = ComputeConfig {
            pathline_window: 3,
            trace: TraceConfig {
                dt: 1.0,
                ..TraceConfig::default()
            },
            ..ComputeConfig::default()
        };
        let frame = compute_frame(&env, &mut engines, &store, &grid, &domain, &cfg).unwrap();
        for p in &frame.paths {
            assert_eq!(p.kind, PathKind::ParticlePath);
            assert_eq!(p.points.len(), 4); // seed + window of 3
        }
    }

    #[test]
    fn pathline_window_clipped_by_dataset_end() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::ParticlePath));
        env.time.jump(4); // two timesteps left (4, 5)
        let mut engines = ToolEngines::new();
        let cfg = ComputeConfig {
            pathline_window: 50,
            trace: TraceConfig {
                dt: 1.0,
                ..TraceConfig::default()
            },
            ..ComputeConfig::default()
        };
        let frame = compute_frame(&env, &mut engines, &store, &grid, &domain, &cfg).unwrap();
        for p in &frame.paths {
            assert_eq!(p.points.len(), 3); // seed + 2
        }
    }

    #[test]
    fn streaklines_accumulate_only_on_advance() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::Streakline));
        let mut engines = ToolEngines::new();
        let cfg = ComputeConfig::default();

        // No advance yet: no smoke.
        let f0 = compute_frame(&env, &mut engines, &store, &grid, &domain, &cfg).unwrap();
        assert_eq!(f0.paths.len(), 0);

        // Three clock ticks.
        for _ in 0..3 {
            engines
                .advance_streaks(&env, &store, &domain, &cfg.streak)
                .unwrap();
        }
        let f1 = compute_frame(&env, &mut engines, &store, &grid, &domain, &cfg).unwrap();
        assert_eq!(f1.paths.len(), 3); // one filament per seed
        for p in &f1.paths {
            assert_eq!(p.kind, PathKind::Streak);
            assert_eq!(p.points.len(), 3); // one particle per tick
        }
        // Reading a frame twice does not advance anything.
        let f2 = compute_frame(&env, &mut engines, &store, &grid, &domain, &cfg).unwrap();
        assert_eq!(f2.particle_count(), f1.particle_count());
    }

    #[test]
    fn engines_prune_deleted_rakes() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        let id = env.add_rake(rake(ToolKind::Streakline));
        let mut engines = ToolEngines::new();
        engines
            .advance_streaks(&env, &store, &domain, &StreaklineConfig::default())
            .unwrap();
        assert!(engines.streak_particles() > 0);
        env.remove_rake(0, id).unwrap();
        engines
            .advance_streaks(&env, &store, &domain, &StreaklineConfig::default())
            .unwrap();
        assert_eq!(engines.streak_particles(), 0);
        let frame = compute_frame(
            &env,
            &mut engines,
            &store,
            &grid,
            &domain,
            &ComputeConfig::default(),
        )
        .unwrap();
        assert_eq!(frame.paths.len(), 0);
    }

    #[test]
    fn users_appear_in_frame() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.update_user(9, vecmath::Pose::IDENTITY);
        let mut engines = ToolEngines::new();
        let frame = compute_frame(
            &env,
            &mut engines,
            &store,
            &grid,
            &domain,
            &ComputeConfig::default(),
        )
        .unwrap();
        assert_eq!(frame.users.len(), 1);
        assert_eq!(frame.users[0].id, 9);
    }

    #[test]
    fn geometry_cache_hits_when_nothing_changed() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::Streamline));
        env.add_rake(Rake::new(
            Vec3::new(3.0, 2.0, 4.0),
            Vec3::new(3.0, 6.0, 4.0),
            2,
            ToolKind::Streamline,
        ));
        let mut engines = ToolEngines::new();
        let mut cache = GeometryCache::new();
        let cfg = ComputeConfig::default();
        let (f0, s0) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(s0.geom_misses, 2);
        assert_eq!(s0.geom_hits, 0);
        let (f1, s1) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(s1.geom_hits, 2);
        assert_eq!(s1.geom_misses, 0);
        assert_eq!(f0, f1, "cached frame must equal the computed one");
        assert_eq!(cache.cumulative(), (2, 2));
    }

    #[test]
    fn mutating_one_rake_retraces_only_that_rake() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        let a = env.add_rake(rake(ToolKind::Streamline));
        env.add_rake(Rake::new(
            Vec3::new(3.0, 2.0, 4.0),
            Vec3::new(3.0, 6.0, 4.0),
            2,
            ToolKind::Streamline,
        ));
        let mut engines = ToolEngines::new();
        let mut cache = GeometryCache::new();
        let cfg = ComputeConfig::default();
        compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg).unwrap();
        env.set_seed_count(a, 5).unwrap();
        let (frame, stats) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(
            stats.geom_hits, 1,
            "untouched rake must be served from cache"
        );
        assert_eq!(stats.geom_misses, 1, "mutated rake must be re-traced");
        assert_eq!(
            frame.paths.iter().filter(|p| p.rake_id == a).count(),
            5,
            "re-trace must see the new seed count"
        );
    }

    #[test]
    fn head_pose_update_is_all_cache_hits() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::Streamline));
        let mut engines = ToolEngines::new();
        let mut cache = GeometryCache::new();
        let cfg = ComputeConfig::default();
        compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg).unwrap();
        env.update_user(9, vecmath::Pose::IDENTITY);
        let (frame, stats) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(stats.geom_misses, 0, "a head pose is not a geometry change");
        assert_eq!(stats.geom_hits, 1);
        assert_eq!(frame.users.len(), 1);
        assert_eq!(
            frame.revision,
            env.revision(),
            "frame still reflects new state"
        );
    }

    #[test]
    fn streak_advance_invalidates_smoke_but_not_streamlines() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        let smoke = env.add_rake(rake(ToolKind::Streakline));
        env.add_rake(Rake::new(
            Vec3::new(3.0, 2.0, 4.0),
            Vec3::new(3.0, 6.0, 4.0),
            2,
            ToolKind::Streamline,
        ));
        let mut engines = ToolEngines::new();
        let mut cache = GeometryCache::new();
        let cfg = ComputeConfig::default();
        engines
            .advance_streaks(&env, &store, &domain, &cfg.streak)
            .unwrap();
        compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg).unwrap();
        engines
            .advance_streaks(&env, &store, &domain, &cfg.streak)
            .unwrap();
        let (frame, stats) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(stats.geom_misses, 1, "only the streak rake re-traces");
        assert_eq!(stats.geom_hits, 1);
        assert_eq!(
            frame
                .paths
                .iter()
                .filter(|p| p.rake_id == smoke)
                .map(|p| p.points.len())
                .max()
                .unwrap(),
            2,
            "smoke must reflect the second advance"
        );
    }

    #[test]
    fn removed_rake_evicted_from_cache() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        let id = env.add_rake(rake(ToolKind::Streamline));
        let mut engines = ToolEngines::new();
        let mut cache = GeometryCache::new();
        let cfg = ComputeConfig::default();
        compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg).unwrap();
        env.remove_rake(0, id).unwrap();
        let (frame, _) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert!(frame.paths.is_empty());
        assert!(cache.entries.is_empty());
    }

    /// A store that refuses a fixed set of timesteps, as a quarantining
    /// fault-tolerant store would.
    struct FailingStore<S> {
        inner: S,
        bad: Vec<usize>,
    }

    impl<S: TimestepStore> TimestepStore for FailingStore<S> {
        fn meta(&self) -> &flowfield::DatasetMeta {
            self.inner.meta()
        }
        fn fetch(&self, index: usize) -> Result<Arc<VectorField>, FieldError> {
            if self.bad.contains(&index) {
                return Err(FieldError::Quarantined { index });
            }
            self.inner.fetch(index)
        }
    }

    #[test]
    fn quarantined_timestep_substituted_with_nearest_healthy() {
        let (inner, grid, domain) = test_store();
        let store = FailingStore {
            inner,
            bad: vec![3],
        };
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::Streamline));
        env.time.jump(3);
        let mut engines = ToolEngines::new();
        let mut cache = GeometryCache::new();
        let cfg = ComputeConfig::default();
        let (frame, stats) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(stats.substituted_fetches, 1);
        assert_eq!(
            frame.timestep, 3,
            "the frame still reports the requested timestep"
        );
        assert_eq!(frame.paths.len(), 3, "paths drawn from the substitute");
        // A healthy request is not counted as substituted.
        env.time.jump(1);
        let (_, s2) =
            compute_frame_cached(&env, &mut engines, &mut cache, &store, &grid, &domain, &cfg)
                .unwrap();
        assert_eq!(s2.substituted_fetches, 0);
    }

    #[test]
    fn streak_advance_survives_unreadable_bracket() {
        let (inner, _grid, domain) = test_store();
        let store = FailingStore {
            inner,
            bad: vec![0, 1],
        };
        let mut env = EnvironmentState::new(store.timestep_count());
        env.add_rake(rake(ToolKind::Streakline));
        let mut engines = ToolEngines::new();
        // Bracket (0, 1) is entirely unreadable: the advance substitutes
        // the nearest healthy field instead of failing the tick.
        engines
            .advance_streaks(&env, &store, &domain, &StreaklineConfig::default())
            .unwrap();
        assert!(engines.streak_particles() > 0, "smoke still advected");
        assert!(engines.substituted_fetches() >= 1);
    }

    #[test]
    fn fully_unreadable_dataset_is_an_error_not_a_panic() {
        let (inner, grid, domain) = test_store();
        let store = FailingStore {
            inner,
            bad: (0..6).collect(),
        };
        let env = EnvironmentState::new(store.timestep_count());
        let mut engines = ToolEngines::new();
        assert!(compute_frame(
            &env,
            &mut engines,
            &store,
            &grid,
            &domain,
            &ComputeConfig::default(),
        )
        .is_err());
        // Streak advance skips (leaves smoke in place) rather than erring.
        engines
            .advance_streaks(&env, &store, &domain, &StreaklineConfig::default())
            .unwrap();
        assert_eq!(engines.streak_particles(), 0, "nothing advected");
    }

    /// Streak smoke advected through a dataset served from memory and
    /// from disk (v3 files behind the LRU) is the same smoke, bit for
    /// bit, with the same substitution count — across bracket crossings,
    /// a mid-bracket blend factor, and a refused timestep.
    #[test]
    fn streak_smoke_bit_identical_from_memory_and_disk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use storage::{CachedStore, DiskStore};

        let (_, grid, domain) = test_store();
        let dims = grid.dims();
        let mut rng = StdRng::seed_from_u64(33);
        let fields = (0..6)
            .map(|_| {
                VectorField::from_fn(dims, |_, _, _| {
                    Vec3::new(
                        rng.random_range(0.5..1.5),
                        rng.random_range(-0.3..0.3),
                        rng.random_range(-0.3..0.3),
                    )
                })
            })
            .collect();
        let meta = DatasetMeta {
            name: "pin".into(),
            dims,
            timestep_count: 6,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let ds = Dataset::new(meta, grid, fields).unwrap();
        let tmp = tempfile::tempdir().unwrap();
        flowfield::format::write_dataset_v2(tmp.path(), &ds).unwrap();

        let smoke = |store: &dyn TimestepStore| {
            let mut env = EnvironmentState::new(store.timestep_count());
            let id = env.add_rake(rake(ToolKind::Streakline));
            env.time.set_rate(0.5);
            env.time.play();
            let mut engines = ToolEngines::new();
            let cfg = StreaklineConfig::default();
            // Times 0, 0.5, …, 4.5: brackets (0,1) … (4,5), each entered
            // at alpha 0 and re-blended at alpha 0.5.
            for _ in 0..10 {
                engines.advance_streaks(&env, store, &domain, &cfg).unwrap();
                env.time.advance();
            }
            let bits: Vec<Vec<[u32; 3]>> = engines.streaks[&id]
                .filaments()
                .iter()
                .map(|f| {
                    f.iter()
                        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                        .collect()
                })
                .collect();
            (bits, engines.substituted_fetches())
        };
        for bad in [vec![], vec![4]] {
            let memory = FailingStore {
                inner: MemoryStore::from_dataset(ds.clone()),
                bad: bad.clone(),
            };
            let disk = FailingStore {
                inner: CachedStore::new(DiskStore::open(tmp.path()).unwrap(), 4),
                bad: bad.clone(),
            };
            let (a, sub_a) = smoke(&memory);
            let (b, sub_b) = smoke(&disk);
            assert!(a.iter().map(Vec::len).sum::<usize>() > 0, "smoke advected");
            assert_eq!(a, b, "filament bits differ (bad {bad:?})");
            assert_eq!(sub_a, sub_b, "substitution counts differ (bad {bad:?})");
            assert_eq!(sub_a > 0, !bad.is_empty());
        }
    }

    #[test]
    fn frame_reports_revision_and_timestep() {
        let (store, grid, domain) = test_store();
        let mut env = EnvironmentState::new(store.timestep_count());
        env.time.jump(3);
        let mut engines = ToolEngines::new();
        let frame = compute_frame(
            &env,
            &mut engines,
            &store,
            &grid,
            &domain,
            &ComputeConfig::default(),
        )
        .unwrap();
        assert_eq!(frame.timestep, 3);
        assert_eq!(frame.revision, env.revision());
    }
}
