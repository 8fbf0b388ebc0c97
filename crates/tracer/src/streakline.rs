//! Streaklines: smoke injection.
//!
//! §2.1: "The streaklines take as input the current positions of all the
//! particles, including those recently added at the seed points. All of
//! the particles are 'moved' by integrating each one once using the data
//! in the current time step. The particles may be rendered as individual
//! points or connected in a way to simulate smoke."
//!
//! [`Streakline`] is a persistent particle system: every frame, an
//! advance moves all live particles one step through the current field
//! and injects fresh particles at the seed points. Particles die when
//! they leave the domain or exceed the age limit. For smoke rendering,
//! particles injected from the same seed are chained newest-to-oldest.
//!
//! # The two advance paths
//!
//! * [`Streakline::advance`] — the scalar reference: one particle at a
//!   time through [`Integrator`]-style stepping. Simple, obviously
//!   correct, and the semantic baseline the batch path is tested
//!   against.
//! * [`Streakline::advance_batch`] — the §5.3 fast path: the whole pool
//!   is RK2-stepped in lockstep through the fused
//!   [`BlendedPairSoA::sample_batch_blended`] kernel, chunked across
//!   rayon once the pool is large enough to amortize fan-out. All
//!   scratch lives on the struct, so after warm-up a frame advance
//!   performs no heap allocation.
//!
//! Both paths produce *bitwise identical* pools: the same particles die
//! (deadness is intrinsic to a particle, not to its position in the
//! pool), the survivors land at the same bits (the fused kernel is
//! bit-equal to scalar sampling, and each arithmetic stage mirrors
//! [`Integrator::step`] op for op), and both compact with the same
//! swap-remove sweep. `tests/streak_equiv.rs` holds this equality under
//! proptest, down to the bit pattern of every `f32`.
//!
//! # Pool layout
//!
//! Particles live in structure-of-arrays form (`pos_x/pos_y/pos_z`,
//! `age`, `seed_id`) so the batch sampler reads contiguous `f32` lanes.
//! Compaction is swap-remove, which scrambles injection order; filament
//! extraction restores it by sorting on `(seed_id, age)` — particles
//! that tie (same seed, same injection frame) are identical in every
//! coordinate bit, so the order within a tie is immaterial.

use crate::domain::Domain;
use crate::integrate::Integrator;
use crate::Polyline;
use flowfield::{BlendedPairSoA, FieldSample};
use rayon::prelude::*;
use std::time::Instant;
use vecmath::Vec3;

/// What to do with a particle whose sampled velocity is below
/// `min_speed` — the stagnation policy.
///
/// The steady streamline batch kernels always *retire* stagnant
/// particles: a streamline integration that stops moving would otherwise
/// never terminate. Streaklines are different — `max_age` already bounds
/// every particle's lifetime, and real smoke *pools* at stagnation
/// points rather than vanishing — so the default here is [`Keep`].
/// Whichever policy is configured applies identically to the scalar and
/// batch advance paths.
///
/// [`Keep`]: StagnationPolicy::Keep
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagnationPolicy {
    /// Let stagnant particles linger until `max_age` retires them (the
    /// default: smoke accumulates at stagnation points, which is
    /// physically what smoke does).
    #[default]
    Keep,
    /// Retire a particle as soon as its sampled velocity magnitude drops
    /// below `min_speed`, matching the streamline batch kernels.
    Retire,
}

/// Configuration of a streakline particle system.
#[derive(Debug, Clone, Copy)]
pub struct StreaklineConfig {
    pub integrator: Integrator,
    /// Time step per frame advance.
    pub dt: f32,
    /// Maximum particle age in frames (0 = immortal); bounds memory.
    pub max_age: u32,
    /// Particles injected per seed per advance.
    pub inject_per_frame: u32,
    /// What happens to particles slower than `min_speed`.
    pub stagnation: StagnationPolicy,
    /// Speed threshold for [`StagnationPolicy::Retire`]; ignored under
    /// [`StagnationPolicy::Keep`].
    pub min_speed: f32,
}

impl Default for StreaklineConfig {
    fn default() -> Self {
        StreaklineConfig {
            integrator: Integrator::Rk2,
            dt: 0.1,
            max_age: 400,
            inject_per_frame: 1,
            stagnation: StagnationPolicy::Keep,
            min_speed: 1.0e-6,
        }
    }
}

/// Per-advance stage timings (summed CPU work across rayon chunks, not
/// wall clock) and throughput inputs, reported by
/// [`Streakline::advance_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvanceStats {
    /// Time in the fused field-sampling kernel (k1 + k2 gathers).
    pub sample_ns: u64,
    /// Time in the arithmetic stages: canonicalize, midpoint, final
    /// position, stagnation checks.
    pub integrate_ns: u64,
    /// Time compacting the pool (swap-remove sweep).
    pub compact_ns: u64,
    /// Time injecting fresh particles at the seeds.
    pub inject_ns: u64,
    /// Particles that entered the integration step this advance.
    pub stepped: u64,
}

impl AdvanceStats {
    /// Merge another advance's stats into this one (per-frame totals
    /// across many rakes).
    /// `other` is destructured without `..`, so a new field that is not
    /// folded here fails to build or to pass the `-D warnings` gate.
    pub fn accumulate(&mut self, other: AdvanceStats) {
        let AdvanceStats {
            sample_ns,
            integrate_ns,
            compact_ns,
            inject_ns,
            stepped,
        } = other;
        self.sample_ns += sample_ns;
        self.integrate_ns += integrate_ns;
        self.compact_ns += compact_ns;
        self.inject_ns += inject_ns;
        self.stepped += stepped;
    }
}

/// The particle pool in structure-of-arrays layout.
#[derive(Debug, Clone, Default)]
struct Pool {
    px: Vec<f32>,
    py: Vec<f32>,
    pz: Vec<f32>,
    age: Vec<u32>,
    seed: Vec<u32>,
}

impl Pool {
    fn len(&self) -> usize {
        self.px.len()
    }

    fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.px[i], self.py[i], self.pz[i])
    }

    fn set(&mut self, i: usize, p: Vec3) {
        self.px[i] = p.x;
        self.py[i] = p.y;
        self.pz[i] = p.z;
    }

    fn push(&mut self, p: Vec3, age: u32, seed: u32) {
        self.px.push(p.x);
        self.py.push(p.y);
        self.pz.push(p.z);
        self.age.push(age);
        self.seed.push(seed);
    }

    fn swap_remove(&mut self, i: usize) {
        self.px.swap_remove(i);
        self.py.swap_remove(i);
        self.pz.swap_remove(i);
        self.age.swap_remove(i);
        self.seed.swap_remove(i);
    }

    fn clear(&mut self) {
        self.px.clear();
        self.py.clear();
        self.pz.clear();
        self.age.clear();
        self.seed.clear();
    }
}

/// Pools below this size advance sequentially: rayon fan-out (thread
/// spawn + join in the shim) costs more than stepping a few thousand
/// particles.
const PAR_THRESHOLD: usize = 8192;

/// A streakline particle system fed by a set of seed points.
#[derive(Debug, Clone)]
pub struct Streakline {
    seeds: Vec<Vec3>,
    cfg: StreaklineConfig,
    pool: Pool,
    frames: u64,
    // Scratch for the batch path — resized, never shrunk, so a frame
    // advance allocates nothing once the pool size plateaus.
    alive: Vec<bool>,
    k1x: Vec<f32>,
    k1y: Vec<f32>,
    k1z: Vec<f32>,
    k2x: Vec<f32>,
    k2y: Vec<f32>,
    k2z: Vec<f32>,
    fil_keys: Vec<(u64, usize)>,
}

impl Streakline {
    /// Create an empty system for the given seed points.
    pub fn new(seeds: Vec<Vec3>, cfg: StreaklineConfig) -> Streakline {
        Streakline {
            seeds,
            cfg,
            pool: Pool::default(),
            frames: 0,
            alive: Vec::new(),
            k1x: Vec::new(),
            k1y: Vec::new(),
            k1z: Vec::new(),
            k2x: Vec::new(),
            k2y: Vec::new(),
            k2z: Vec::new(),
            fil_keys: Vec::new(),
        }
    }

    /// Number of live particles.
    pub fn particle_count(&self) -> usize {
        self.pool.len()
    }

    /// Frames advanced so far.
    pub fn frame_count(&self) -> u64 {
        self.frames
    }

    /// Replace the seed points (the user dragged the rake). Existing
    /// smoke keeps advecting from where it is — exactly what real smoke
    /// does when the probe moves — *except* particles whose seed no
    /// longer exists (the seed count shrank): those are retired here,
    /// immediately and deterministically, so every live particle always
    /// has a filament to belong to and `positions()` / `filaments()`
    /// agree on the particle count.
    pub fn set_seeds(&mut self, seeds: Vec<Vec3>) {
        self.seeds = seeds;
        let limit = self.seeds.len();
        let mut i = 0;
        while i < self.pool.len() {
            if (self.pool.seed[i] as usize) >= limit {
                self.pool.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Drop all particles (e.g. when time is rewound).
    pub fn clear(&mut self) {
        self.pool.clear();
    }

    /// One frame, scalar reference path: move every particle one step
    /// through `field`, retire the dead, inject fresh particles at the
    /// seeds. Produces a pool bitwise identical to
    /// [`Streakline::advance_batch`] over the same field.
    pub fn advance<F: FieldSample>(&mut self, field: &F, domain: &Domain) {
        let cfg = self.cfg;
        let mut i = 0;
        while i < self.pool.len() {
            self.pool.age[i] += 1;
            let keep = if cfg.max_age > 0 && self.pool.age[i] > cfg.max_age {
                false
            } else {
                match policy_step(&cfg, field, domain, self.pool.get(i)) {
                    Some(next) => {
                        self.pool.set(i, next);
                        true
                    }
                    None => false,
                }
            };
            if keep {
                i += 1;
            } else {
                // Swap-remove: the particle pulled in from the end has
                // not been stepped yet, so do not advance `i`.
                self.pool.swap_remove(i);
            }
        }
        self.inject(domain);
        self.frames += 1;
    }

    /// One frame, batch fast path: RK2-step the whole pool in lockstep
    /// through the fused time-blended kernel, chunked across rayon above
    /// [`PAR_THRESHOLD`] particles. Integrators other than RK2 fall back
    /// to per-particle stepping (still allocation-free and compacted
    /// identically).
    pub fn advance_batch(&mut self, pair: &BlendedPairSoA, domain: &Domain) -> AdvanceStats {
        let cfg = self.cfg;
        let n = self.pool.len();
        let mut stats = AdvanceStats::default();

        // Age pass: mark the age-expired dead before any sampling.
        let t0 = Instant::now();
        self.alive.clear();
        self.alive.resize(n, true);
        for i in 0..n {
            self.pool.age[i] += 1;
            if cfg.max_age > 0 && self.pool.age[i] > cfg.max_age {
                self.alive[i] = false;
            }
        }
        stats.stepped = self.alive.iter().filter(|a| **a).count() as u64;
        stats.integrate_ns += elapsed_ns(t0);

        if cfg.integrator == Integrator::Rk2 {
            self.k1x.resize(n, 0.0);
            self.k1y.resize(n, 0.0);
            self.k1z.resize(n, 0.0);
            self.k2x.resize(n, 0.0);
            self.k2y.resize(n, 0.0);
            self.k2z.resize(n, 0.0);
            let threads = rayon::current_num_threads();
            if n >= PAR_THRESHOLD && threads > 1 {
                let chunk = n.div_ceil(threads);
                let mut px = &mut self.pool.px[..];
                let mut py = &mut self.pool.py[..];
                let mut pz = &mut self.pool.pz[..];
                let mut alive = &mut self.alive[..];
                let mut k1x = &mut self.k1x[..];
                let mut k1y = &mut self.k1y[..];
                let mut k1z = &mut self.k1z[..];
                let mut k2x = &mut self.k2x[..];
                let mut k2y = &mut self.k2y[..];
                let mut k2z = &mut self.k2z[..];
                let mut jobs = Vec::with_capacity(threads);
                while !px.is_empty() {
                    jobs.push(Rk2Chunk {
                        px: take_chunk(&mut px, chunk),
                        py: take_chunk(&mut py, chunk),
                        pz: take_chunk(&mut pz, chunk),
                        alive: take_chunk(&mut alive, chunk),
                        k1x: take_chunk(&mut k1x, chunk),
                        k1y: take_chunk(&mut k1y, chunk),
                        k1z: take_chunk(&mut k1z, chunk),
                        k2x: take_chunk(&mut k2x, chunk),
                        k2y: take_chunk(&mut k2y, chunk),
                        k2z: take_chunk(&mut k2z, chunk),
                    });
                }
                // Per-chunk timings are summed: CPU work, not wall clock
                // (the same convention FrameComputeStats uses for rakes).
                let timings: Vec<(u64, u64)> = jobs
                    .into_par_iter()
                    .map(|c| rk2_chunk(pair, domain, &cfg, c))
                    .collect();
                for (sample, integrate) in timings {
                    stats.sample_ns += sample;
                    stats.integrate_ns += integrate;
                }
            } else {
                let (sample, integrate) = rk2_chunk(
                    pair,
                    domain,
                    &cfg,
                    Rk2Chunk {
                        px: &mut self.pool.px,
                        py: &mut self.pool.py,
                        pz: &mut self.pool.pz,
                        alive: &mut self.alive,
                        k1x: &mut self.k1x,
                        k1y: &mut self.k1y,
                        k1z: &mut self.k1z,
                        k2x: &mut self.k2x,
                        k2y: &mut self.k2y,
                        k2z: &mut self.k2z,
                    },
                );
                stats.sample_ns += sample;
                stats.integrate_ns += integrate;
            }
        } else {
            // Non-RK2 fallback: per-particle stepping over the SoA
            // arrays through the same policy helper as the scalar path
            // (sampling time is folded into integrate here).
            let t = Instant::now();
            for i in 0..n {
                if !self.alive[i] {
                    continue;
                }
                match policy_step(&cfg, pair, domain, self.pool.get(i)) {
                    Some(next) => self.pool.set(i, next),
                    None => self.alive[i] = false,
                }
            }
            stats.integrate_ns += elapsed_ns(t);
        }

        // Compact: the same swap-remove sweep as the scalar path — the
        // mask travels with the arrays so swapped-in elements are
        // re-examined before `i` advances.
        let t = Instant::now();
        let mut i = 0;
        while i < self.pool.len() {
            if self.alive[i] {
                i += 1;
            } else {
                self.pool.swap_remove(i);
                self.alive.swap_remove(i);
            }
        }
        stats.compact_ns += elapsed_ns(t);

        let t = Instant::now();
        self.inject(domain);
        stats.inject_ns += elapsed_ns(t);
        self.frames += 1;
        stats
    }

    /// Inject fresh particles at the seeds (skipping seeds outside the
    /// domain) — shared tail of both advance paths.
    fn inject(&mut self, domain: &Domain) {
        for (sid, &seed) in self.seeds.iter().enumerate() {
            if let Some(p) = domain.canonicalize(seed) {
                for _ in 0..self.cfg.inject_per_frame {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "seed counts are set via a u32 wire field"
                    )]
                    self.pool.push(p, 0, sid as u32);
                }
            }
        }
    }

    /// All particle positions (point-cloud rendering), written into a
    /// caller-owned buffer. Pool order (not injection order).
    pub fn positions_into(&self, out: &mut Vec<Vec3>) {
        out.clear();
        out.reserve(self.pool.len());
        for i in 0..self.pool.len() {
            out.push(self.pool.get(i));
        }
    }

    /// All particle positions (point-cloud rendering).
    pub fn positions(&self) -> Vec<Vec3> {
        let mut out = Vec::new();
        self.positions_into(&mut out);
        out
    }

    /// Smoke filaments written into a caller-owned buffer: one polyline
    /// per seed, particles ordered from the most recently injected (at
    /// the seed) to the oldest (downstream) — the connected rendering of
    /// §2.1. Inner vectors are reused; with a warm `out` this performs
    /// no allocation beyond capacity growth.
    pub fn filaments_into(&mut self, out: &mut Vec<Polyline>) {
        let mut keys = std::mem::take(&mut self.fil_keys);
        filaments_core(&self.pool, self.seeds.len(), &mut keys, out);
        self.fil_keys = keys;
    }

    /// Smoke filaments as a fresh vector (compatibility wrapper around
    /// [`Streakline::filaments_into`]).
    pub fn filaments(&self) -> Vec<Polyline> {
        let mut keys = Vec::new();
        let mut out = Vec::new();
        filaments_core(&self.pool, self.seeds.len(), &mut keys, &mut out);
        out
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Carve the leading `n`-element chunk off a mutable slice.
fn take_chunk<'a, T>(s: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let take = n.min(s.len());
    let (head, tail) = std::mem::take(s).split_at_mut(take);
    *s = tail;
    head
}

/// One integration step under the configured stagnation policy. With
/// [`StagnationPolicy::Keep`] this is exactly [`Integrator::step`]
/// (same operation sequence, bit for bit); with `Retire` the particle
/// dies when its first velocity sample is slower than `min_speed` —
/// the same `length() < min_speed` test the streamline batch kernels
/// apply.
fn policy_step<F: FieldSample>(
    cfg: &StreaklineConfig,
    field: &F,
    domain: &Domain,
    p: Vec3,
) -> Option<Vec3> {
    let p = domain.canonicalize(p)?;
    let dt = cfg.dt;
    let retire = cfg.stagnation == StagnationPolicy::Retire;
    match cfg.integrator {
        Integrator::Euler => {
            let k1 = field.sample(p)?;
            if retire && k1.length() < cfg.min_speed {
                return None;
            }
            domain.canonicalize(p + k1 * dt)
        }
        Integrator::Rk2 => {
            let k1 = field.sample(p)?;
            if retire && k1.length() < cfg.min_speed {
                return None;
            }
            let mid = domain.canonicalize(p + k1 * (dt * 0.5))?;
            let k2 = field.sample(mid)?;
            domain.canonicalize(p + k2 * dt)
        }
        Integrator::Rk4 => {
            let k1 = field.sample(p)?;
            if retire && k1.length() < cfg.min_speed {
                return None;
            }
            let p2 = domain.canonicalize(p + k1 * (dt * 0.5))?;
            let k2 = field.sample(p2)?;
            let p3 = domain.canonicalize(p + k2 * (dt * 0.5))?;
            let k3 = field.sample(p3)?;
            let p4 = domain.canonicalize(p + k3 * dt)?;
            let k4 = field.sample(p4)?;
            let avg = (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (1.0 / 6.0);
            domain.canonicalize(p + avg * dt)
        }
    }
}

/// Mutable slice views for one rayon chunk of the RK2 lockstep.
struct Rk2Chunk<'a> {
    px: &'a mut [f32],
    py: &'a mut [f32],
    pz: &'a mut [f32],
    alive: &'a mut [bool],
    /// k1 on entry to the midpoint sweep, overwritten in place with
    /// the midpoint coordinates (k1 is dead after the midpoint is
    /// formed, so RK2 needs only two scratch triples, not three).
    k1x: &'a mut [f32],
    k1y: &'a mut [f32],
    k1z: &'a mut [f32],
    k2x: &'a mut [f32],
    k2y: &'a mut [f32],
    k2z: &'a mut [f32],
}

/// Cache block for the RK2 lockstep: all stages of one block complete
/// before the next block starts, so a block's ten lanes (~150 KB at
/// 4096 particles) stay resident across the whole stage sequence
/// instead of streaming the full pool through cache once per stage.
/// Blocking only regroups *independent* per-particle work, so the
/// results are bitwise unchanged.
const RK2_BLOCK: usize = 2048;

/// RK2 lockstep over one chunk: canonicalize → k1 (fused batch sample)
/// → stagnation policy → midpoint → k2 (fused batch sample) → final
/// position, cache-blocked in runs of [`RK2_BLOCK`] particles. Every
/// arithmetic stage mirrors the RK2 arm of [`policy_step`] op for op,
/// so the surviving positions are bitwise identical to scalar
/// stepping. Returns `(sample_ns, integrate_ns)`.
fn rk2_chunk(
    pair: &BlendedPairSoA,
    domain: &Domain,
    cfg: &StreaklineConfig,
    c: Rk2Chunk<'_>,
) -> (u64, u64) {
    let n = c.px.len();
    let retire = cfg.stagnation == StagnationPolicy::Retire;
    let dt = cfg.dt;
    let half = dt * 0.5;
    let t_all = Instant::now();
    let mut sample_ns = 0u64;

    let mut start = 0;
    while start < n {
        let end = (start + RK2_BLOCK).min(n);
        let px = &mut c.px[start..end];
        let py = &mut c.py[start..end];
        let pz = &mut c.pz[start..end];
        let alive = &mut c.alive[start..end];
        let k1x = &mut c.k1x[start..end];
        let k1y = &mut c.k1y[start..end];
        let k1z = &mut c.k1z[start..end];
        let k2x = &mut c.k2x[start..end];
        let k2y = &mut c.k2y[start..end];
        let k2z = &mut c.k2z[start..end];
        let m = px.len();

        // No entry canonicalize sweep: pool positions are invariantly
        // canonical — every position was produced by this function's
        // final `canonicalize` or by `inject` (which canonicalizes the
        // seed), and `Domain::wrap` returns in-range coordinates
        // unchanged, so the sweep the scalar path performs at the top
        // of `policy_step` is a bitwise no-op here and is skipped.

        // k1 = field(p): the fused blended gather.
        let t = Instant::now();
        pair.sample_batch_blended(px, py, pz, k1x, k1y, k1z, alive);
        sample_ns += elapsed_ns(t);

        // Stagnation policy (on the first sample, as in the scalar
        // path) and mid = canonicalize(p + k1 * (dt/2)) in one sweep.
        // k1 is consumed here, so the midpoint overwrites it in place.
        for i in 0..m {
            if !alive[i] {
                continue;
            }
            let k1 = Vec3::new(k1x[i], k1y[i], k1z[i]);
            if retire && k1.length() < cfg.min_speed {
                alive[i] = false;
                continue;
            }
            let p = Vec3::new(px[i], py[i], pz[i]);
            match domain.canonicalize(p + k1 * half) {
                Some(mid) => {
                    k1x[i] = mid.x;
                    k1y[i] = mid.y;
                    k1z[i] = mid.z;
                }
                None => alive[i] = false,
            }
        }

        // k2 = field(mid) — the midpoint now lives in the k1 arrays.
        let t = Instant::now();
        pair.sample_batch_blended(k1x, k1y, k1z, k2x, k2y, k2z, alive);
        sample_ns += elapsed_ns(t);

        // p' = canonicalize(p + k2 * dt), written back into the pool.
        for i in 0..m {
            if !alive[i] {
                continue;
            }
            let p = Vec3::new(px[i], py[i], pz[i]);
            let k2 = Vec3::new(k2x[i], k2y[i], k2z[i]);
            match domain.canonicalize(p + k2 * dt) {
                Some(next) => {
                    px[i] = next.x;
                    py[i] = next.y;
                    pz[i] = next.z;
                }
                None => alive[i] = false,
            }
        }

        start = end;
    }

    let integrate_ns = elapsed_ns(t_all).saturating_sub(sample_ns);
    (sample_ns, integrate_ns)
}

/// Rebuild per-seed filaments from a swap-remove-scrambled pool: sort
/// particle indices by `(seed_id, age)` ascending, then slice the sorted
/// run into per-seed polylines (age ascending = newest first). Ties —
/// same seed, same age — are particles injected by the same seed in the
/// same frame, identical in every coordinate bit, so the index
/// tie-break only makes the order deterministic, never different.
fn filaments_core(
    pool: &Pool,
    seeds_len: usize,
    keys: &mut Vec<(u64, usize)>,
    out: &mut Vec<Polyline>,
) {
    out.truncate(seeds_len);
    for line in out.iter_mut() {
        line.clear();
    }
    while out.len() < seeds_len {
        out.push(Vec::new());
    }
    keys.clear();
    keys.reserve(pool.len());
    for i in 0..pool.len() {
        keys.push((((pool.seed[i] as u64) << 32) | (pool.age[i] as u64), i));
    }
    keys.sort_unstable();
    for &(key, i) in keys.iter() {
        let sid = (key >> 32) as usize;
        if let Some(line) = out.get_mut(sid) {
            line.push(Vec3::new(pool.px[i], pool.py[i], pool.pz[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::FieldSample;
    use flowfield::{Dims, VectorField};

    fn uniform_x() -> VectorField {
        VectorField::from_fn(Dims::new(32, 8, 8), |_, _, _| Vec3::X)
    }

    fn cfg(dt: f32) -> StreaklineConfig {
        StreaklineConfig {
            dt,
            ..StreaklineConfig::default()
        }
    }

    #[test]
    fn particles_accumulate_one_per_frame() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(vec![Vec3::new(1.0, 4.0, 4.0)], cfg(0.5));
        for _ in 0..5 {
            s.advance(&f, &d);
        }
        assert_eq!(s.particle_count(), 5);
        assert_eq!(s.frame_count(), 5);
    }

    #[test]
    fn streak_trails_downstream_of_seed() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let seed = Vec3::new(1.0, 4.0, 4.0);
        let mut s = Streakline::new(vec![seed], cfg(0.5));
        for _ in 0..4 {
            s.advance(&f, &d);
        }
        let fil = s.filaments();
        assert_eq!(fil.len(), 1);
        let line = &fil[0];
        assert_eq!(line.len(), 4);
        // Head is freshest (injected this frame, not yet moved), tail
        // farthest downstream.
        assert!(line[0].x < line[line.len() - 1].x);
        assert!((line[0].x - 1.0).abs() < 1e-4); // just injected
        assert!((line[3].x - 2.5).abs() < 1e-4); // oldest: moved 3 times
    }

    #[test]
    fn particles_die_at_domain_exit() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(vec![Vec3::new(29.0, 4.0, 4.0)], cfg(1.0));
        for _ in 0..10 {
            s.advance(&f, &d);
        }
        // Each particle survives only ~2 steps (29 → 31), so the
        // population saturates instead of growing.
        assert!(s.particle_count() <= 3);
    }

    #[test]
    fn max_age_retires_particles() {
        let f = VectorField::zeros(Dims::new(8, 8, 8));
        let d = Domain::boxed(Dims::new(8, 8, 8));
        let mut s = Streakline::new(
            vec![Vec3::splat(4.0)],
            StreaklineConfig {
                max_age: 3,
                dt: 0.1,
                ..StreaklineConfig::default()
            },
        );
        for _ in 0..10 {
            s.advance(&f, &d);
        }
        // Steady state holds ages 0..=max_age: max_age + 1 particles.
        assert_eq!(s.particle_count(), 4);
    }

    #[test]
    fn out_of_domain_seed_injects_nothing() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(vec![Vec3::splat(-10.0)], cfg(0.5));
        s.advance(&f, &d);
        assert_eq!(s.particle_count(), 0);
    }

    #[test]
    fn moving_seed_leaves_old_smoke_behind() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(vec![Vec3::new(1.0, 2.0, 4.0)], cfg(0.25));
        for _ in 0..3 {
            s.advance(&f, &d);
        }
        s.set_seeds(vec![Vec3::new(1.0, 6.0, 4.0)]);
        for _ in 0..3 {
            s.advance(&f, &d);
        }
        let pos = s.positions();
        // Both y-levels are populated: old smoke persists.
        assert!(pos.iter().any(|p| (p.y - 2.0).abs() < 0.1));
        assert!(pos.iter().any(|p| (p.y - 6.0).abs() < 0.1));
    }

    #[test]
    fn multiple_seeds_make_separate_filaments() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(
            vec![Vec3::new(1.0, 2.0, 4.0), Vec3::new(1.0, 6.0, 4.0)],
            cfg(0.5),
        );
        for _ in 0..4 {
            s.advance(&f, &d);
        }
        let fil = s.filaments();
        assert_eq!(fil.len(), 2);
        assert!(fil.iter().all(|l| l.len() == 4));
        assert!(fil[0].iter().all(|p| (p.y - 2.0).abs() < 1e-4));
        assert!(fil[1].iter().all(|p| (p.y - 6.0).abs() < 1e-4));
    }

    #[test]
    fn clear_empties_system() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(vec![Vec3::new(1.0, 4.0, 4.0)], cfg(0.5));
        for _ in 0..5 {
            s.advance(&f, &d);
        }
        s.clear();
        assert_eq!(s.particle_count(), 0);
    }

    #[test]
    fn inject_per_frame_multiplies_particles() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(
            vec![Vec3::new(1.0, 4.0, 4.0)],
            StreaklineConfig {
                inject_per_frame: 3,
                dt: 0.1,
                ..StreaklineConfig::default()
            },
        );
        for _ in 0..4 {
            s.advance(&f, &d);
        }
        assert_eq!(s.particle_count(), 12);
    }

    #[test]
    fn shrinking_seeds_retires_stale_particles() {
        // The satellite-fix regression: shrink the rake mid-flight and
        // both renderings must agree on the particle count (previously
        // stale seed_ids were shipped in positions() but silently
        // dropped from filaments()).
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(
            vec![Vec3::new(1.0, 2.0, 4.0), Vec3::new(1.0, 6.0, 4.0)],
            cfg(0.25),
        );
        for _ in 0..4 {
            s.advance(&f, &d);
        }
        s.set_seeds(vec![Vec3::new(1.0, 2.0, 4.0)]);
        let fil_points: usize = s.filaments().iter().map(|l| l.len()).sum();
        assert_eq!(s.positions().len(), fil_points);
        assert_eq!(fil_points, 4, "only the surviving seed's smoke remains");
        // And the invariant holds after further advances too.
        for _ in 0..3 {
            s.advance(&f, &d);
        }
        let fil_points: usize = s.filaments().iter().map(|l| l.len()).sum();
        assert_eq!(s.positions().len(), fil_points);
        assert!(s.positions().iter().all(|p| (p.y - 2.0).abs() < 0.1));
    }

    #[test]
    fn stagnation_default_keeps_particles() {
        // Zero field, default policy: smoke pools at the seed until
        // max_age retires it — identical to the historical behavior.
        let f = VectorField::zeros(Dims::new(8, 8, 8));
        let d = Domain::boxed(Dims::new(8, 8, 8));
        let mut s = Streakline::new(vec![Vec3::splat(4.0)], cfg(0.1));
        for _ in 0..5 {
            s.advance(&f, &d);
        }
        assert_eq!(s.particle_count(), 5);
    }

    #[test]
    fn stagnation_retire_matches_in_scalar_and_batch() {
        // Zero field + Retire: every particle dies on its first step, so
        // only this frame's injection survives — in both paths.
        let f = VectorField::zeros(Dims::new(8, 8, 8));
        let d = Domain::boxed(Dims::new(8, 8, 8));
        let cfg = StreaklineConfig {
            stagnation: StagnationPolicy::Retire,
            ..StreaklineConfig::default()
        };
        let mut scalar = Streakline::new(vec![Vec3::splat(4.0)], cfg);
        let mut batch = Streakline::new(vec![Vec3::splat(4.0)], cfg);
        let pair = flowfield::BlendedPairSoA::steady(&f);
        for _ in 0..5 {
            scalar.advance(&f, &d);
            batch.advance_batch(&pair, &d);
        }
        assert_eq!(scalar.particle_count(), 1);
        assert_eq!(batch.particle_count(), 1);
    }

    #[test]
    fn batch_advance_matches_scalar_bitwise() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let seeds = vec![Vec3::new(1.0, 2.0, 4.0), Vec3::new(1.0, 6.0, 4.0)];
        let mut scalar = Streakline::new(seeds.clone(), cfg(0.5));
        let mut batch = Streakline::new(seeds, cfg(0.5));
        let pair = flowfield::BlendedPairSoA::steady(&f);
        for _ in 0..6 {
            scalar.advance(&f, &d);
            let stats = batch.advance_batch(&pair, &d);
            assert!(stats.stepped <= scalar.particle_count() as u64 + 2);
        }
        let (sp, bp) = (scalar.positions(), batch.positions());
        assert_eq!(sp.len(), bp.len());
        for (a, b) in sp.iter().zip(&bp) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(scalar.filaments(), batch.filaments());
    }

    #[test]
    fn batch_advance_parallel_path_matches_sequential() {
        // Push the pool over PAR_THRESHOLD so the rayon-chunked path
        // runs, and check it against the scalar reference.
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let seeds: Vec<Vec3> = (0..40)
            .map(|i| Vec3::new(1.0, 1.0 + (i as f32) * 0.12, 4.0))
            .collect();
        let cfg = StreaklineConfig {
            dt: 0.05,
            inject_per_frame: 64,
            ..StreaklineConfig::default()
        };
        let mut scalar = Streakline::new(seeds.clone(), cfg);
        let mut batch = Streakline::new(seeds, cfg);
        let pair = flowfield::BlendedPairSoA::steady(&f);
        for _ in 0..5 {
            scalar.advance(&f, &d);
            batch.advance_batch(&pair, &d);
        }
        assert!(
            batch.particle_count() > PAR_THRESHOLD,
            "test must exercise the parallel path"
        );
        let (sp, bp) = (scalar.positions(), batch.positions());
        assert_eq!(sp.len(), bp.len());
        for (a, b) in sp.iter().zip(&bp) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
        }
    }

    #[test]
    fn filaments_into_reuses_buffers() {
        let f = uniform_x();
        let d = Domain::boxed(f.dims());
        let mut s = Streakline::new(vec![Vec3::new(1.0, 4.0, 4.0)], cfg(0.5));
        for _ in 0..3 {
            s.advance(&f, &d);
        }
        let mut out = Vec::new();
        s.filaments_into(&mut out);
        assert_eq!(out, s.filaments());
        s.advance(&f, &d);
        s.filaments_into(&mut out);
        assert_eq!(out, s.filaments());
    }
}
