//! The windtunnel wire protocol on top of dlib.
//!
//! §5.1 defines both directions precisely. Upstream (workstation →
//! remote): "the information that is sent to the remote system are those
//! user commands which effect the virtual environment. These include hand
//! position, hand gestures, keyboard and mouse commands… In the shared
//! scenario, the position of the users' heads would also be sent."
//! Downstream (remote → workstation): "the resulting paths … as arrays of
//! floating point vectors in three dimensions… the transfer of 12 bytes
//! per point in each array", plus "the information about the virtual
//! control devices such as rakes … so that the current state of these
//! devices may be correctly rendered." (Those 12 bytes are the paper's
//! wire; here a path goes as integers on a per-dataset lattice through a
//! predictive codec at ≈ 1.3 bytes a point — see [`Lattice`] and
//! [`PROTOCOL_VERSION`].)
//!
//! All protocol geometry is in **physical** coordinates; grid coordinates
//! never cross the wire.

use bytes::{Bytes, BytesMut};
use dlib::wire::{put_point_path, WireReader, WireWrite};
use dlib::{DlibError, Payload, Result};
use flowfield::Dims;
use std::ops::RangeInclusive;
use tracer::ToolKind;
use vecmath::{Aabb, Pose, Quat, Vec3};
use vr::Gesture;

/// Wire-protocol version, checked during the hello handshake: a client
/// and server that disagree fail fast with a clear error instead of
/// mis-decoding geometry. v4 sends path points as integers on the frame
/// header's [`Lattice`] (v3: f32 bit patterns through the same bit-packed
/// predictor; v2: 1–4 bytes a residual; v1: the 12 B/point slab),
/// DESIGN.md §6.8; an older peer cannot read a path. Every message's
/// layout is pinned, with this number, by the golden bytes in
/// `tests/golden_bytes.rs`: a non-additive change regenerates them and
/// bumps this.
pub const PROTOCOL_VERSION: u32 = 4;

/// Procedure ids registered on the windtunnel's dlib server.
pub const PROC_HELLO: u32 = 0x0057_0001;
pub const PROC_COMMAND: u32 = 0x0057_0002;
pub const PROC_FRAME: u32 = 0x0057_0003;
/// Pipeline instrumentation (additive — a peer that never calls it is
/// unaffected, so it did not bump `PROTOCOL_VERSION`).
pub const PROC_STATS: u32 = 0x0057_0004;
/// Incremental frame transfer (additive, like [`PROC_STATS`]): the client
/// sends the revision it last applied, the server replies with only the
/// per-rake chunks that changed since — or a full keyframe when the
/// client has no baseline / is too far behind. [`PROC_FRAME`] remains the
/// always-works resync path, so this did not bump `PROTOCOL_VERSION`.
pub const PROC_FRAME_DELTA: u32 = 0x0057_0005;

/// Identifies a rake (mirrors `env::RakeId`).
pub type RakeId = u32;

// ---------------------------------------------------------------------
// Primitive helpers

fn put_vec3(b: &mut BytesMut, v: Vec3) {
    b.put_f32_le_(v.x);
    b.put_f32_le_(v.y);
    b.put_f32_le_(v.z);
}

fn get_vec3(r: &mut WireReader) -> Result<Vec3> {
    Ok(Vec3::new(r.f32_le()?, r.f32_le()?, r.f32_le()?))
}

fn put_pose(b: &mut BytesMut, p: &Pose) {
    put_vec3(b, p.position);
    b.put_f32_le_(p.orientation.w);
    b.put_f32_le_(p.orientation.x);
    b.put_f32_le_(p.orientation.y);
    b.put_f32_le_(p.orientation.z);
}

fn get_pose(r: &mut WireReader) -> Result<Pose> {
    let position = get_vec3(r)?;
    let orientation = Quat::new(r.f32_le()?, r.f32_le()?, r.f32_le()?, r.f32_le()?);
    Ok(Pose {
        position,
        orientation,
    })
}

fn put_tool(b: &mut BytesMut, t: ToolKind) {
    b.put_u32_le_(match t {
        ToolKind::Streamline => 0,
        ToolKind::ParticlePath => 1,
        ToolKind::Streakline => 2,
    });
}

/// A `u32` flag: 0 or 1, the only values the encoders write (anything
/// else would decode to a value that re-encodes differently).
fn get_flag(r: &mut WireReader, what: &str) -> Result<bool> {
    match r.u32_le()? {
        0 => Ok(false),
        1 => Ok(true),
        n => Err(DlibError::Protocol(format!("bad {what} flag {n}"))),
    }
}

fn get_tool(r: &mut WireReader) -> Result<ToolKind> {
    match r.u32_le()? {
        0 => Ok(ToolKind::Streamline),
        1 => Ok(ToolKind::ParticlePath),
        2 => Ok(ToolKind::Streakline),
        n => Err(DlibError::Protocol(format!("bad tool {n}"))),
    }
}

fn put_gesture(b: &mut BytesMut, g: Gesture) {
    b.put_u32_le_(match g {
        Gesture::Open => 0,
        Gesture::Fist => 1,
        Gesture::Point => 2,
        Gesture::Pinch => 3,
    });
}

fn get_gesture(r: &mut WireReader) -> Result<Gesture> {
    match r.u32_le()? {
        0 => Ok(Gesture::Open),
        1 => Ok(Gesture::Fist),
        2 => Ok(Gesture::Point),
        3 => Ok(Gesture::Pinch),
        n => Err(DlibError::Protocol(format!("bad gesture {n}"))),
    }
}

/// Points one decoded frame may hold in all its paths, spent path by path
/// before allocating (eight points can take two bytes, so the bytes alone
/// would let a 64 MiB frame ask for 3 GiB). Well above Table 1's frames.
const MAX_FRAME_POINTS: usize = 16_000_000;

/// The power-of-two lattice path points cross the wire on (DESIGN.md
/// §6.8): a coordinate `p` is sent as the integer `k = round(p / q)`,
/// ties to even, saturated to `|k| < 2^24` (NaN sends 0), and decodes to
/// `k · q`. Both scalings are exact, so a decoded point re-encodes to
/// the same `k`: encode ∘ decode ∘ encode = encode, byte for byte, and
/// every byte-identity the delta protocol rests on holds for decoded
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lattice {
    exp: i32,
}

impl Lattice {
    /// Exponents whose `q` and `1/q` are normal f32 and whose largest
    /// `k · q` stays finite.
    pub const EXP_RANGE: RangeInclusive<i32> = -126..=103;
    /// `|k| < 2^24`: every lattice value is an exact f32.
    const K_MAX: i32 = (1 << 24) - 1;

    /// The lattice for a dataset whose bounds reach `m` (the largest
    /// absolute bound coordinate): `q = 2^(⌈log2 m⌉ − 18)`, so `2^18`
    /// steps span the bounds and the rounding error `q/2` is below RK2's
    /// truncation error on the benchmark's tapered cylinder (`m` = 12, `q`
    /// = 2^-14). Clamped to [`Self::EXP_RANGE`].
    pub fn for_extent(m: f32) -> Lattice {
        let bits = m.abs().to_bits();
        let floor = (bits >> 23).cast_signed() - 127;
        let exp = floor + i32::from(bits & 0x7f_ffff != 0) - 18;
        Lattice {
            exp: exp.clamp(*Self::EXP_RANGE.start(), *Self::EXP_RANGE.end()),
        }
    }

    /// [`Self::for_extent`] of the largest absolute coordinate of `b`.
    pub fn for_bounds(b: &Aabb) -> Lattice {
        let corners = b.min.to_array().into_iter().chain(b.max.to_array());
        Lattice::for_extent(corners.map(f32::abs).fold(0.0, f32::max))
    }

    /// A lattice from its wire exponent, rejected by name outside
    /// [`Self::EXP_RANGE`].
    pub fn new(exp: i32) -> Result<Lattice> {
        if Self::EXP_RANGE.contains(&exp) {
            Ok(Lattice { exp })
        } else {
            Err(DlibError::Protocol(format!(
                "lattice exponent {exp} outside {:?}",
                Self::EXP_RANGE
            )))
        }
    }

    /// The quantum `q = 2^exp`; a decoded coordinate is a multiple of it.
    pub fn quantum(self) -> f32 {
        pow2(self.exp)
    }

    /// `round(v / q)`, ties to even, as the wire's `u32` (two's
    /// complement). Rounds in f64, where `v / q` is exact, by adding
    /// 1.5 · 2^52: the sum's low bits are then the rounded integer. No
    /// float-to-int conversion, so a pass over many coordinates
    /// vectorizes.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the low 32 bits of a wrapping difference in ±2^24 are the i32"
    )]
    fn encode(self, v: f32) -> u32 {
        const ROUND: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
        let k_max = f64::from(Self::K_MAX);
        let x = f64::from(v) * f64::from(pow2(-self.exp));
        let x = if x.is_nan() {
            0.0
        } else {
            x.clamp(-k_max, k_max)
        };
        (x + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as u32
    }

    /// `k · q` per coordinate, or a named error for a `k` no encoder
    /// writes. Check and scaling are separate passes that vectorize.
    fn decode(self, ks: &[[u32; 3]]) -> Result<Vec<Vec3>> {
        let abs = |k: u32| k.cast_signed().unsigned_abs();
        let widest = ks.iter().flatten().fold(0, |w, &k| w.max(abs(k)));
        if widest > Self::K_MAX.cast_unsigned() {
            return Err(DlibError::Protocol(format!(
                "lattice value ±{widest} outside ±2^24"
            )));
        }
        let q = self.quantum();
        let point = |k: &[u32; 3]| k.map(|k| k.cast_signed() as f32 * q);
        Ok(ks.iter().map(|k| Vec3::from_array(point(k))).collect())
    }
}

/// `2^e` for `e` in ±126: the exponent field alone.
fn pow2(e: i32) -> f32 {
    f32::from_bits((e + 127).cast_unsigned() << 23)
}

/// Path points go through `dlib::wire`'s predictive point codec (DESIGN.md
/// §6.8) as integers on `lattice`.
fn put_points(b: &mut BytesMut, lattice: Lattice, pts: &[Vec3]) {
    let k: Vec<u32> = Vec3::as_f32_slice(pts)
        .iter()
        .map(|&c| lattice.encode(c))
        .collect();
    put_point_path(b, k.chunks_exact(3).map(|k| [k[0], k[1], k[2]]));
}

fn get_points(r: &mut WireReader, lattice: Lattice, budget: &mut usize) -> Result<Vec<Vec3>> {
    let points = lattice.decode(&r.point_path(*budget)?)?;
    *budget -= points.len();
    Ok(points)
}

// ---------------------------------------------------------------------
// Commands (workstation → remote)

/// Time-control commands (§2's "sped up, slowed down, run backwards, or
/// stopped completely").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeCommand {
    Play,
    Pause,
    Reverse,
    SetRate(f32),
    Jump(u32),
    Step(i32),
}

/// Commands that affect the shared environment.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Create a rake between two physical-space endpoints.
    AddRake {
        a: Vec3,
        b: Vec3,
        seed_count: u32,
        tool: ToolKind,
    },
    RemoveRake {
        id: RakeId,
    },
    SetTool {
        id: RakeId,
        tool: ToolKind,
    },
    SetSeedCount {
        id: RakeId,
        n: u32,
    },
    /// The glove sample: hand position (physical) + current gesture.
    Hand {
        position: Vec3,
        gesture: Gesture,
    },
    /// The BOOM sample, for the shared-participants display.
    HeadPose {
        pose: Pose,
    },
    Time(TimeCommand),
    /// Clean sign-off: releases the user's locks and presence.
    Goodbye,
}

impl Command {
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Command::AddRake {
                a,
                b: bb,
                seed_count,
                tool,
            } => {
                b.put_u32_le_(0);
                put_vec3(&mut b, *a);
                put_vec3(&mut b, *bb);
                b.put_u32_le_(*seed_count);
                put_tool(&mut b, *tool);
            }
            Command::RemoveRake { id } => {
                b.put_u32_le_(1);
                b.put_u32_le_(*id);
            }
            Command::SetTool { id, tool } => {
                b.put_u32_le_(2);
                b.put_u32_le_(*id);
                put_tool(&mut b, *tool);
            }
            Command::SetSeedCount { id, n } => {
                b.put_u32_le_(3);
                b.put_u32_le_(*id);
                b.put_u32_le_(*n);
            }
            Command::Hand { position, gesture } => {
                b.put_u32_le_(4);
                put_vec3(&mut b, *position);
                put_gesture(&mut b, *gesture);
            }
            Command::HeadPose { pose } => {
                b.put_u32_le_(5);
                put_pose(&mut b, pose);
            }
            Command::Goodbye => {
                b.put_u32_le_(7);
            }
            Command::Time(tc) => {
                b.put_u32_le_(6);
                match tc {
                    TimeCommand::Play => b.put_u32_le_(0),
                    TimeCommand::Pause => b.put_u32_le_(1),
                    TimeCommand::Reverse => b.put_u32_le_(2),
                    TimeCommand::SetRate(r) => {
                        b.put_u32_le_(3);
                        b.put_f32_le_(*r);
                    }
                    TimeCommand::Jump(t) => {
                        b.put_u32_le_(4);
                        b.put_u32_le_(*t);
                    }
                    TimeCommand::Step(d) => {
                        b.put_u32_le_(5);
                        b.put_u32_le_(d.cast_unsigned());
                    }
                }
            }
        }
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<Command> {
        let mut r = WireReader::new(buf);
        let tag = r.u32_le()?;
        let cmd = match tag {
            0 => Command::AddRake {
                a: get_vec3(&mut r)?,
                b: get_vec3(&mut r)?,
                seed_count: r.u32_le()?,
                tool: get_tool(&mut r)?,
            },
            1 => Command::RemoveRake { id: r.u32_le()? },
            2 => Command::SetTool {
                id: r.u32_le()?,
                tool: get_tool(&mut r)?,
            },
            3 => Command::SetSeedCount {
                id: r.u32_le()?,
                n: r.u32_le()?,
            },
            4 => Command::Hand {
                position: get_vec3(&mut r)?,
                gesture: get_gesture(&mut r)?,
            },
            5 => Command::HeadPose {
                pose: get_pose(&mut r)?,
            },
            6 => {
                let sub = r.u32_le()?;
                Command::Time(match sub {
                    0 => TimeCommand::Play,
                    1 => TimeCommand::Pause,
                    2 => TimeCommand::Reverse,
                    3 => TimeCommand::SetRate(r.f32_le()?),
                    4 => TimeCommand::Jump(r.u32_le()?),
                    5 => TimeCommand::Step(r.u32_le()?.cast_signed()),
                    n => return Err(DlibError::Protocol(format!("bad time cmd {n}"))),
                })
            }
            7 => Command::Goodbye,
            n => return Err(DlibError::Protocol(format!("bad command tag {n}"))),
        };
        if r.remaining() != 0 {
            return Err(DlibError::Protocol("trailing bytes after command".into()));
        }
        Ok(cmd)
    }
}

// ---------------------------------------------------------------------
// Hello (session setup)

/// What a client learns when it joins a session.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloReply {
    pub dataset_name: String,
    pub dims: Dims,
    pub timestep_count: u32,
    pub dt: f32,
    /// Physical bounds of the grid, for scene framing.
    pub bounds_min: Vec3,
    pub bounds_max: Vec3,
    /// The caller's user id (dlib client id) — lets the client recognize
    /// its own locks in the rake state.
    pub user_id: u64,
}

impl HelloReply {
    pub fn bounds(&self) -> Aabb {
        Aabb::new(self.bounds_min, self.bounds_max)
    }

    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u32_le_(PROTOCOL_VERSION);
        b.put_str_(&self.dataset_name);
        b.put_u32_le_(self.dims.ni);
        b.put_u32_le_(self.dims.nj);
        b.put_u32_le_(self.dims.nk);
        b.put_u32_le_(self.timestep_count);
        b.put_f32_le_(self.dt);
        put_vec3(&mut b, self.bounds_min);
        put_vec3(&mut b, self.bounds_max);
        b.put_u64_le_(self.user_id);
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<HelloReply> {
        let mut r = WireReader::new(buf);
        let version = r.u32_le()?;
        if version != PROTOCOL_VERSION {
            return Err(DlibError::Protocol(format!(
                "protocol version mismatch: server speaks v{version}, this client v{PROTOCOL_VERSION}"
            )));
        }
        let hello = HelloReply {
            dataset_name: r.string()?,
            dims: Dims::new(r.u32_le()?, r.u32_le()?, r.u32_le()?),
            timestep_count: r.u32_le()?,
            dt: r.f32_le()?,
            bounds_min: get_vec3(&mut r)?,
            bounds_max: get_vec3(&mut r)?,
            user_id: r.u64_le()?,
        };
        if r.remaining() != 0 {
            return Err(DlibError::Protocol("trailing bytes after hello".into()));
        }
        Ok(hello)
    }
}

// ---------------------------------------------------------------------
// Geometry frame (remote → workstation)

/// What kind of geometry a path carries (drives color/style on the
/// client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    Streamline,
    ParticlePath,
    /// A connected streak filament ("smoke").
    Streak,
}

impl PathKind {
    fn to_u32(self) -> u32 {
        match self {
            PathKind::Streamline => 0,
            PathKind::ParticlePath => 1,
            PathKind::Streak => 2,
        }
    }

    fn from_u32(v: u32) -> Result<PathKind> {
        match v {
            0 => Ok(PathKind::Streamline),
            1 => Ok(PathKind::ParticlePath),
            2 => Ok(PathKind::Streak),
            n => Err(DlibError::Protocol(format!("bad path kind {n}"))),
        }
    }
}

/// One computed path: §5.1's array of 3-D points (12 bytes each in
/// memory and in the paper; ≈ 1.3 on this wire, DESIGN.md §6.8).
#[derive(Debug, Clone, PartialEq)]
pub struct PathMsg {
    pub rake_id: RakeId,
    pub kind: PathKind,
    pub points: Vec<Vec3>,
}

/// Rake state for client-side rendering (physical endpoints).
#[derive(Debug, Clone, PartialEq)]
pub struct RakeMsg {
    pub id: RakeId,
    pub a: Vec3,
    pub b: Vec3,
    pub seed_count: u32,
    pub tool: ToolKind,
    /// Holder, if grabbed (0 = free).
    pub owner: u64,
}

/// Another participant's head pose.
#[derive(Debug, Clone, PartialEq)]
pub struct UserMsg {
    pub id: u64,
    pub head: Pose,
}

/// One full environment frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryFrame {
    pub timestep: u32,
    pub time: f32,
    /// Environment revision this frame was computed at.
    pub revision: u64,
    /// The dataset's lattice, which `paths` cross the wire on.
    pub lattice: Lattice,
    pub rakes: Vec<RakeMsg>,
    pub paths: Vec<PathMsg>,
    pub users: Vec<UserMsg>,
}

// Shared section codecs: the full frame and the delta frame are built
// from the same per-element encoders, so a frame reassembled from delta
// chunks is byte-identical to the directly encoded one by construction.

/// Encoded sizes of one rake and one user, and the least a path can take
/// (ids, kind and an empty point run) — what a decoder divides the bytes
/// left by to bound an element count before allocating for it.
const RAKE_BYTES: usize = 44;
const USER_BYTES: usize = 36;
const MIN_PATH_BYTES: usize = 12;

fn put_rake(b: &mut BytesMut, rk: &RakeMsg) {
    b.put_u32_le_(rk.id);
    put_vec3(b, rk.a);
    put_vec3(b, rk.b);
    b.put_u32_le_(rk.seed_count);
    put_tool(b, rk.tool);
    b.put_u64_le_(rk.owner);
}

fn get_rake(r: &mut WireReader) -> Result<RakeMsg> {
    Ok(RakeMsg {
        id: r.u32_le()?,
        a: get_vec3(r)?,
        b: get_vec3(r)?,
        seed_count: r.u32_le()?,
        tool: get_tool(r)?,
        owner: r.u64_le()?,
    })
}

fn put_rakes_section(b: &mut BytesMut, rakes: &[RakeMsg]) {
    b.put_len_(rakes.len());
    for rk in rakes {
        put_rake(b, rk);
    }
}

fn get_rakes_section(r: &mut WireReader) -> Result<Vec<RakeMsg>> {
    let n_rakes = r.count("rake", RAKE_BYTES)?;
    let mut rakes = Vec::with_capacity(n_rakes);
    for _ in 0..n_rakes {
        rakes.push(get_rake(r)?);
    }
    Ok(rakes)
}

fn put_path(b: &mut BytesMut, lattice: Lattice, p: &PathMsg) {
    b.put_u32_le_(p.rake_id);
    b.put_u32_le_(p.kind.to_u32());
    put_points(b, lattice, &p.points);
}

fn get_path(r: &mut WireReader, lattice: Lattice, budget: &mut usize) -> Result<PathMsg> {
    Ok(PathMsg {
        rake_id: r.u32_le()?,
        kind: PathKind::from_u32(r.u32_le()?)?,
        points: get_points(r, lattice, budget)?,
    })
}

fn put_users_section(b: &mut BytesMut, users: &[UserMsg]) {
    b.put_len_(users.len());
    for u in users {
        b.put_u64_le_(u.id);
        put_pose(b, &u.head);
    }
}

fn get_users_section(r: &mut WireReader) -> Result<Vec<UserMsg>> {
    let n_users = r.count("user", USER_BYTES)?;
    let mut users = Vec::with_capacity(n_users);
    for _ in 0..n_users {
        users.push(UserMsg {
            id: r.u64_le()?,
            head: get_pose(r)?,
        });
    }
    Ok(users)
}

impl GeometryFrame {
    /// Total path points — the "particles" of Table 1.
    pub fn particle_count(&self) -> usize {
        self.paths.iter().map(|p| p.points.len()).sum()
    }

    /// Table 1's accounting of the path payload: 12 B/point, the paper's
    /// raw wire. Not what [`encode`](Self::encode) produces (the point
    /// codec sends about a third of it) — used as a paper figure and as the
    /// encoder's reserve hint.
    pub fn path_payload_bytes(&self) -> usize {
        self.particle_count() * 12
    }

    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64 + self.path_payload_bytes());
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Encode into a caller-owned buffer, so a server pumping frames can
    /// reuse one scratch `BytesMut` instead of allocating per frame.
    pub fn encode_into(&self, b: &mut BytesMut) {
        b.reserve(64 + self.path_payload_bytes());
        self.put_head(b, self.paths.len());
        for p in &self.paths {
            put_path(b, self.lattice, p);
        }
        put_users_section(b, &self.users);
    }

    /// Everything before the first path, path count included.
    fn put_head(&self, b: &mut BytesMut, n_paths: usize) {
        b.put_u32_le_(self.timestep);
        b.put_f32_le_(self.time);
        b.put_u64_le_(self.revision);
        b.put_u32_le_(self.lattice.exp.cast_unsigned());
        put_rakes_section(b, &self.rakes);
        b.put_len_(n_paths);
    }

    pub fn decode(buf: &[u8]) -> Result<GeometryFrame> {
        let mut r = WireReader::new(buf);
        let timestep = r.u32_le()?;
        let time = r.f32_le()?;
        let revision = r.u64_le()?;
        let lattice = Lattice::new(r.u32_le()?.cast_signed())?;
        let rakes = get_rakes_section(&mut r)?;
        let n_paths = r.count("path", MIN_PATH_BYTES)?;
        let mut paths = Vec::with_capacity(n_paths);
        let mut budget = MAX_FRAME_POINTS;
        for _ in 0..n_paths {
            paths.push(get_path(&mut r, lattice, &mut budget)?);
        }
        let users = get_users_section(&mut r)?;
        if r.remaining() != 0 {
            return Err(DlibError::Protocol("trailing bytes after frame".into()));
        }
        Ok(GeometryFrame {
            timestep,
            time,
            revision,
            lattice,
            rakes,
            paths,
            users,
        })
    }
}

/// The FRAME request: whether this call should advance the clock (one
/// designated client drives time; the rest just read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRequest {
    pub advance: bool,
}

impl FrameRequest {
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u32_le_(u32::from(self.advance));
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<FrameRequest> {
        let mut r = WireReader::new(buf);
        let req = FrameRequest {
            advance: get_flag(&mut r, "advance")?,
        };
        if r.remaining() != 0 {
            return Err(DlibError::Protocol(
                "trailing bytes after frame request".into(),
            ));
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Delta frames (remote → workstation, PROC_FRAME_DELTA)

/// The FRAME_DELTA request: like [`FrameRequest`], plus the revision the
/// client last applied to its retained scene (its acknowledged
/// baseline). `baseline == 0` means "no scene yet — send a keyframe".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRequest {
    pub advance: bool,
    pub baseline: u64,
}

impl DeltaRequest {
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u32_le_(u32::from(self.advance));
        b.put_u64_le_(self.baseline);
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<DeltaRequest> {
        let mut r = WireReader::new(buf);
        let req = DeltaRequest {
            advance: get_flag(&mut r, "advance")?,
            baseline: r.u64_le()?,
        };
        if r.remaining() != 0 {
            return Err(DlibError::Protocol(
                "trailing bytes after delta request".into(),
            ));
        }
        Ok(req)
    }
}

/// One rake's worth of computed paths, stamped with the environment
/// revision its content last changed at. The path encoding inside a
/// chunk is exactly the full-frame path encoding, so the server can
/// cache chunks as encoded bytes and splice them into replies, and the
/// client can reassemble a byte-identical [`GeometryFrame`].
#[derive(Debug, Clone, PartialEq)]
pub struct RakeChunkMsg {
    pub rake_id: RakeId,
    /// Revision at which this chunk's content last changed — the server
    /// resends a chunk only to clients whose baseline is older.
    pub content_rev: u64,
    pub paths: Vec<PathMsg>,
}

impl RakeChunkMsg {
    /// Encoded bytes before the first path: id, content rev, path count.
    const HEADER_LEN: usize = 16;

    /// The path count in an encoded chunk's header.
    fn path_count(blob: &[u8]) -> usize {
        blob.get(12..Self::HEADER_LEN)
            .and_then(|n| n.try_into().ok())
            .map_or(0, |n| u32::from_le_bytes(n) as usize)
    }

    pub fn encode_into(&self, lattice: Lattice, b: &mut BytesMut) {
        Self::encode_parts(b, lattice, self.rake_id, self.content_rev, &self.paths);
    }

    /// Encode straight from borrowed parts — the server's broadcast cache
    /// encodes each rake once per revision from its cached paths without
    /// building an owned message first.
    pub fn encode_parts(
        b: &mut BytesMut,
        lattice: Lattice,
        rake_id: RakeId,
        content_rev: u64,
        paths: &[PathMsg],
    ) {
        b.put_u32_le_(rake_id);
        b.put_u64_le_(content_rev);
        b.put_len_(paths.len());
        for p in paths {
            put_path(b, lattice, p);
        }
    }

    fn decode_from(
        r: &mut WireReader,
        lattice: Lattice,
        budget: &mut usize,
    ) -> Result<RakeChunkMsg> {
        let rake_id = r.u32_le()?;
        let content_rev = r.u64_le()?;
        let n_paths = r.count("chunk path", MIN_PATH_BYTES)?;
        let mut paths = Vec::with_capacity(n_paths);
        for _ in 0..n_paths {
            let p = get_path(r, lattice, budget)?;
            if p.rake_id != rake_id {
                return Err(DlibError::Protocol(format!(
                    "chunk for rake {rake_id} carries a path of rake {}",
                    p.rake_id
                )));
            }
            paths.push(p);
        }
        Ok(RakeChunkMsg {
            rake_id,
            content_rev,
            paths,
        })
    }
}

/// One incremental frame: header + full (cheap) rake/user state + path
/// chunks only for rakes whose content advanced past the client's
/// baseline + tombstones for rakes deleted since. A keyframe carries
/// every chunk and resets the client's scene wholesale.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFrame {
    /// True when this is a full keyframe (fresh client, client too far
    /// behind, or a forced periodic resync).
    pub keyframe: bool,
    pub timestep: u32,
    pub time: f32,
    /// Environment revision this frame describes; becomes the client's
    /// next baseline.
    pub revision: u64,
    /// The baseline this delta patches (0 on keyframes). A client whose
    /// scene revision differs must resync with a keyframe.
    pub baseline: u64,
    /// The dataset's lattice, which the chunks' paths cross the wire on.
    pub lattice: Lattice,
    /// The complete rake list (44 B each — owner/lock state does not
    /// bump geometry revisions, so it rides along in full every frame).
    pub rakes: Vec<RakeMsg>,
    /// Path chunks for rakes with `content_rev > baseline` (all rakes on
    /// a keyframe), in ascending rake-id order.
    pub chunks: Vec<RakeChunkMsg>,
    /// Rakes deleted since the baseline (empty on keyframes).
    pub tombstones: Vec<RakeId>,
    /// The complete user/head-pose list.
    pub users: Vec<UserMsg>,
}

/// A delta's first word: byte 0 is the keyframe flag (0 or 1), byte 1 the
/// lattice exponent as an `i8`, so a head-pose delta pays no byte for it.
fn delta_flags(keyframe: bool, lattice: Lattice) -> u32 {
    let [exp, ..] = lattice.exp.to_le_bytes();
    u32::from_le_bytes([u8::from(keyframe), exp, 0, 0])
}

impl DeltaFrame {
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        self.encode_into(&mut b);
        b.freeze()
    }

    pub fn encode_into(&self, b: &mut BytesMut) {
        b.put_u32_le_(delta_flags(self.keyframe, self.lattice));
        b.put_u32_le_(self.timestep);
        b.put_f32_le_(self.time);
        b.put_u64_le_(self.revision);
        b.put_u64_le_(self.baseline);
        put_rakes_section(b, &self.rakes);
        b.put_len_(self.chunks.len());
        for c in &self.chunks {
            c.encode_into(self.lattice, b);
        }
        put_delta_tail(b, &self.tombstones, &self.users);
    }

    pub fn decode(buf: &[u8]) -> Result<DeltaFrame> {
        let mut r = WireReader::new(buf);
        let flags = r.u32_le()?;
        let [keyframe @ (0 | 1), exp, 0, 0] = flags.to_le_bytes() else {
            return Err(DlibError::Protocol(format!(
                "unknown delta flags {flags:#x}"
            )));
        };
        let lattice = Lattice::new(exp.cast_signed().into())?;
        let timestep = r.u32_le()?;
        let time = r.f32_le()?;
        let revision = r.u64_le()?;
        let baseline = r.u64_le()?;
        let rakes = get_rakes_section(&mut r)?;
        let n_chunks = r.count("chunk", RakeChunkMsg::HEADER_LEN)?;
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut budget = MAX_FRAME_POINTS;
        for _ in 0..n_chunks {
            chunks.push(RakeChunkMsg::decode_from(&mut r, lattice, &mut budget)?);
        }
        let n_tombstones = r.count("tombstone", 4)?;
        let mut tombstones = Vec::with_capacity(n_tombstones);
        for _ in 0..n_tombstones {
            tombstones.push(r.u32_le()?);
        }
        let users = get_users_section(&mut r)?;
        if r.remaining() != 0 {
            return Err(DlibError::Protocol(
                "trailing bytes after delta frame".into(),
            ));
        }
        Ok(DeltaFrame {
            keyframe: keyframe == 1,
            timestep,
            time,
            revision,
            baseline,
            lattice,
            rakes,
            chunks,
            tombstones,
            users,
        })
    }
}

fn put_delta_tail(b: &mut BytesMut, tombstones: &[RakeId], users: &[UserMsg]) {
    b.put_len_(tombstones.len());
    for id in tombstones {
        b.put_u32_le_(*id);
    }
    put_users_section(b, users);
}

/// A reply as a rope: the fresh bytes of `b` before and after `split`,
/// the cached blobs between them by refcount, never copied.
fn rope(b: BytesMut, split: usize, blobs: impl Iterator<Item = Bytes>) -> Payload {
    let b = b.freeze();
    let mut segments = vec![b.slice(..split)];
    segments.extend(blobs);
    segments.push(b.slice(split..));
    Payload { segments }
}

/// Assemble a [`DeltaFrame`] reply around *pre-encoded* chunk blobs (each
/// produced by [`RakeChunkMsg::encode_parts`] on `lattice`): the server
/// encodes a chunk once per content change and every reply that needs it
/// carries the cached bytes themselves. Concatenated, the rope is byte-identical to
/// `DeltaFrame::encode` on the equivalent typed value.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per wire field of the reply header"
)]
pub fn splice_delta(
    keyframe: bool,
    timestep: u32,
    time: f32,
    revision: u64,
    baseline: u64,
    lattice: Lattice,
    rakes: &[RakeMsg],
    chunk_blobs: Vec<Bytes>,
    tombstones: &[RakeId],
    users: &[UserMsg],
) -> Payload {
    let mut b = BytesMut::with_capacity(64 + rakes.len() * 44 + users.len() * 36);
    b.put_u32_le_(delta_flags(keyframe, lattice));
    b.put_u32_le_(timestep);
    b.put_f32_le_(time);
    b.put_u64_le_(revision);
    b.put_u64_le_(baseline);
    put_rakes_section(&mut b, rakes);
    b.put_len_(chunk_blobs.len());
    let split = b.len();
    put_delta_tail(&mut b, tombstones, users);
    rope(b, split, chunk_blobs.into_iter())
}

/// Assemble a full [`GeometryFrame`] reply around the same blobs: past
/// its header a chunk is the full-frame encoding of its rake's paths, and
/// `chunk_blobs` (every rake of `frame`, ascending id) follows
/// `frame.paths` order. The rope is byte-identical to `frame.encode()`;
/// `frame.paths` is never read, so the server's frame carries none.
pub fn splice_frame(frame: &GeometryFrame, chunk_blobs: Vec<Bytes>) -> Payload {
    let mut b = BytesMut::with_capacity(64 + frame.rakes.len() * 44 + frame.users.len() * 36);
    let n_paths = chunk_blobs
        .iter()
        .map(|c| RakeChunkMsg::path_count(c))
        .sum();
    frame.put_head(&mut b, n_paths);
    let split = b.len();
    put_users_section(&mut b, &frame.users);
    let paths = |c: Bytes| c.slice(RakeChunkMsg::HEADER_LEN.min(c.len())..);
    rope(b, split, chunk_blobs.into_iter().map(paths))
}

// ---------------------------------------------------------------------
// Pipeline stats (remote → workstation, PROC_STATS)

/// Stage timings and cache counters for the frame pipeline. Returned by
/// [`PROC_STATS`]; the per-frame fields describe the most recently
/// *computed* frame, the `cum_*` fields accumulate over the server's
/// lifetime (so a client can observe, e.g., that a head-pose-only update
/// produced geometry-cache hits rather than fresh integrations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameStats {
    /// Environment revision the per-frame numbers below were measured at.
    pub revision: u64,
    /// Timestep fetch / interpolation setup, microseconds.
    pub fetch_us: u64,
    /// Streamline / particle-path integration, microseconds.
    pub integrate_us: u64,
    /// Grid→physical mapping of computed paths, microseconds.
    pub map_us: u64,
    /// Wire encoding of the frame, microseconds.
    pub encode_us: u64,
    /// Per-rake geometry cache hits while assembling the last frame.
    pub geom_hits: u32,
    /// Per-rake geometry cache misses (rakes whose paths were re-traced).
    pub geom_misses: u32,
    /// Lifetime per-rake geometry cache hits.
    pub cum_geom_hits: u64,
    /// Lifetime per-rake geometry cache misses.
    pub cum_geom_misses: u64,
    /// Lifetime FRAME requests that found their revision already computed.
    pub cum_frame_hits: u64,
    /// Lifetime frames served.
    pub cum_frames: u64,
    /// Per-rake chunk encoding for the last frame, microseconds (zero
    /// when every chunk came from the broadcast cache).
    pub chunk_encode_us: u64,
    /// Delta reply assembly (header + cached-chunk splicing), µs.
    pub delta_encode_us: u64,
    /// Lifetime per-rake chunks encoded — stays flat across extra
    /// clients at the same revision, proving encode-once broadcast.
    pub cum_chunk_encodes: u64,
    /// Lifetime keyframes served over FRAME_DELTA.
    pub cum_keyframes: u64,
    /// Lifetime true deltas served over FRAME_DELTA.
    pub cum_delta_frames: u64,
    /// Lifetime payload bytes sent over FRAME / FRAME_DELTA replies.
    pub cum_bytes_sent: u64,
    /// Sessions currently connected (as seen by the session-event hook).
    pub live_sessions: u32,
    /// Lifetime sessions reaped by disconnect or heartbeat expiry; their
    /// rake grabs and delta baselines were released.
    pub cum_reaped_sessions: u64,
    /// Lifetime calls shed with `Busy` by the bounded dispatch queue.
    pub cum_shed_calls: u64,
    /// Streak advance, fused field-sampling stage (k1+k2 gathers) for
    /// the last clock tick, microseconds (summed CPU work across rakes).
    pub streak_sample_us: u64,
    /// Streak advance, integration arithmetic stage, microseconds.
    pub streak_integrate_us: u64,
    /// Streak advance, pool compaction (swap-remove sweep), µs.
    pub streak_compact_us: u64,
    /// Streak advance, seed injection, microseconds.
    pub streak_inject_us: u64,
    /// Streak advance throughput: particles stepped per second over the
    /// sample+integrate stages of the last tick (0 when no particles).
    pub streak_particles_per_s: u64,
    /// Lifetime microseconds the storage stack spent blocked on I/O
    /// (real reads plus simulated-disk budgets).
    pub cum_io_wait_us: u64,
    /// Lifetime microseconds spent decoding timestep payloads.
    pub cum_decode_us: u64,
    /// Lifetime fetches served without blocking on the backend
    /// (prefetched-and-ready or cache-resident timesteps).
    pub cum_prefetch_hits: u64,
    /// Lifetime fetches that had to go to the backend and wait.
    pub cum_prefetch_misses: u64,
    /// Lifetime storage reads retried after a transient I/O error or a
    /// corrupt payload. Zero on a healthy disk.
    pub cum_store_retries: u64,
    /// Lifetime v2 chunks recovered bit-exact from a salvage re-read
    /// after failing their checksum.
    pub cum_salvaged_chunks: u64,
    /// Lifetime v2 chunks served zero-filled under a health mask after
    /// salvage was exhausted.
    pub cum_zero_filled_chunks: u64,
    /// Timesteps currently quarantined (unreadable after retries); the
    /// server substitutes neighbours for them during playback.
    pub cum_quarantined_steps: u64,
    /// Lifetime frame/streak fetches served by a substituted neighbouring
    /// timestep instead of the requested (unreadable) one.
    pub cum_substituted_fetches: u64,
    /// Lifetime streamline rakes traced ahead in the dispatcher's idle
    /// time for the next playback frame.
    pub cum_ahead_traced: u64,
    /// Lifetime rakes traced ahead that the next frame adopted; the rest
    /// of `cum_ahead_traced` was wasted speculation.
    pub cum_ahead_adopted: u64,
}

impl FrameStats {
    /// Encoded size: 33 `u64` and 3 `u32` fields, little-endian, in
    /// declaration order.
    pub const WIRE_LEN: usize = 276;

    /// Encode in declaration order. `self` is destructured without `..`,
    /// so a field added to the struct and not written here fails to
    /// build, or leaves an unused binding that the `-D warnings` clippy
    /// gate rejects; the order itself is pinned by the golden bytes in
    /// `tests/golden_bytes.rs`. An encode that drops a field does not
    /// build:
    ///
    /// ```compile_fail
    /// #![deny(warnings, unused)]
    /// struct Wire { a: u64, b: u64, c: u64 }
    /// fn encode(w: &Wire, out: &mut Vec<u8>) {
    ///     let Wire { a, b, c } = *w;
    ///     out.extend_from_slice(&a.to_le_bytes());
    ///     out.extend_from_slice(&b.to_le_bytes()); // `c` is never written
    /// }
    /// let mut out = Vec::new();
    /// encode(&Wire { a: 1, b: 2, c: 3 }, &mut out);
    /// assert_eq!(out.len(), 16);
    /// ```
    pub fn encode(&self) -> Bytes {
        let FrameStats {
            revision,
            fetch_us,
            integrate_us,
            map_us,
            encode_us,
            geom_hits,
            geom_misses,
            cum_geom_hits,
            cum_geom_misses,
            cum_frame_hits,
            cum_frames,
            chunk_encode_us,
            delta_encode_us,
            cum_chunk_encodes,
            cum_keyframes,
            cum_delta_frames,
            cum_bytes_sent,
            live_sessions,
            cum_reaped_sessions,
            cum_shed_calls,
            streak_sample_us,
            streak_integrate_us,
            streak_compact_us,
            streak_inject_us,
            streak_particles_per_s,
            cum_io_wait_us,
            cum_decode_us,
            cum_prefetch_hits,
            cum_prefetch_misses,
            cum_store_retries,
            cum_salvaged_chunks,
            cum_zero_filled_chunks,
            cum_quarantined_steps,
            cum_substituted_fetches,
            cum_ahead_traced,
            cum_ahead_adopted,
        } = *self;
        let mut b = BytesMut::with_capacity(Self::WIRE_LEN);
        b.put_u64_le_(revision);
        b.put_u64_le_(fetch_us);
        b.put_u64_le_(integrate_us);
        b.put_u64_le_(map_us);
        b.put_u64_le_(encode_us);
        b.put_u32_le_(geom_hits);
        b.put_u32_le_(geom_misses);
        b.put_u64_le_(cum_geom_hits);
        b.put_u64_le_(cum_geom_misses);
        b.put_u64_le_(cum_frame_hits);
        b.put_u64_le_(cum_frames);
        b.put_u64_le_(chunk_encode_us);
        b.put_u64_le_(delta_encode_us);
        b.put_u64_le_(cum_chunk_encodes);
        b.put_u64_le_(cum_keyframes);
        b.put_u64_le_(cum_delta_frames);
        b.put_u64_le_(cum_bytes_sent);
        b.put_u32_le_(live_sessions);
        b.put_u64_le_(cum_reaped_sessions);
        b.put_u64_le_(cum_shed_calls);
        b.put_u64_le_(streak_sample_us);
        b.put_u64_le_(streak_integrate_us);
        b.put_u64_le_(streak_compact_us);
        b.put_u64_le_(streak_inject_us);
        b.put_u64_le_(streak_particles_per_s);
        b.put_u64_le_(cum_io_wait_us);
        b.put_u64_le_(cum_decode_us);
        b.put_u64_le_(cum_prefetch_hits);
        b.put_u64_le_(cum_prefetch_misses);
        b.put_u64_le_(cum_store_retries);
        b.put_u64_le_(cum_salvaged_chunks);
        b.put_u64_le_(cum_zero_filled_chunks);
        b.put_u64_le_(cum_quarantined_steps);
        b.put_u64_le_(cum_substituted_fetches);
        b.put_u64_le_(cum_ahead_traced);
        b.put_u64_le_(cum_ahead_adopted);
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<FrameStats> {
        let mut r = WireReader::new(buf);
        let stats = FrameStats {
            revision: r.u64_le()?,
            fetch_us: r.u64_le()?,
            integrate_us: r.u64_le()?,
            map_us: r.u64_le()?,
            encode_us: r.u64_le()?,
            geom_hits: r.u32_le()?,
            geom_misses: r.u32_le()?,
            cum_geom_hits: r.u64_le()?,
            cum_geom_misses: r.u64_le()?,
            cum_frame_hits: r.u64_le()?,
            cum_frames: r.u64_le()?,
            chunk_encode_us: r.u64_le()?,
            delta_encode_us: r.u64_le()?,
            cum_chunk_encodes: r.u64_le()?,
            cum_keyframes: r.u64_le()?,
            cum_delta_frames: r.u64_le()?,
            cum_bytes_sent: r.u64_le()?,
            live_sessions: r.u32_le()?,
            cum_reaped_sessions: r.u64_le()?,
            cum_shed_calls: r.u64_le()?,
            streak_sample_us: r.u64_le()?,
            streak_integrate_us: r.u64_le()?,
            streak_compact_us: r.u64_le()?,
            streak_inject_us: r.u64_le()?,
            streak_particles_per_s: r.u64_le()?,
            cum_io_wait_us: r.u64_le()?,
            cum_decode_us: r.u64_le()?,
            cum_prefetch_hits: r.u64_le()?,
            cum_prefetch_misses: r.u64_le()?,
            cum_store_retries: r.u64_le()?,
            cum_salvaged_chunks: r.u64_le()?,
            cum_zero_filled_chunks: r.u64_le()?,
            cum_quarantined_steps: r.u64_le()?,
            cum_substituted_fetches: r.u64_le()?,
            cum_ahead_traced: r.u64_le()?,
            cum_ahead_adopted: r.u64_le()?,
        };
        if r.remaining() != 0 {
            return Err(DlibError::Protocol("trailing bytes after stats".into()));
        }
        Ok(stats)
    }

    /// Total pipeline time for the last computed frame, microseconds.
    pub fn total_us(&self) -> u64 {
        self.fetch_us + self.integrate_us + self.map_us + self.encode_us
    }

    /// True when the storage stack has reported any fault-tolerance
    /// activity — retries, salvage, zero-fill, quarantine or neighbour
    /// substitution. A client should surface a data-health indicator:
    /// playback is live but no longer backed entirely by clean reads.
    pub fn store_degraded(&self) -> bool {
        self.cum_store_retries != 0
            || self.cum_salvaged_chunks != 0
            || self.cum_zero_filled_chunks != 0
            || self.cum_quarantined_steps != 0
            || self.cum_substituted_fetches != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    /// The benchmark dataset's lattice (far radius 12).
    const Q14: Lattice = Lattice { exp: -14 };

    #[test]
    fn lattice_follows_the_bounds_rule() {
        let exp = |m: f32| Lattice::for_extent(m).exp;
        assert_eq!(exp(12.0), -14);
        assert_eq!(
            (exp(16.0), exp(f32::from_bits(16f32.to_bits() + 1))),
            (-14, -13)
        );
        assert_eq!((exp(-0.75), exp(1.0)), (-18, -18));
        let bounds = Aabb::new(Vec3::new(-12.0, -12.0, 0.0), Vec3::new(12.0, 12.0, 8.0));
        assert_eq!(Lattice::for_bounds(&bounds), Q14);
        assert_eq!(Q14.quantum(), 2f32.powi(-14));
        // Degenerate extents clamp into the accepted range.
        assert_eq!((exp(0.0), exp(f32::INFINITY), exp(1e38)), (-126, 103, 103));
        assert_eq!(exp(f32::NAN), 103);
    }

    /// What `DlibServer::register` checks at startup, without a server:
    /// every application proc id is unique and stays out of the
    /// `0xFFFF_0000..` range that dlib reserves for built-ins such as
    /// `PROC_PING`.
    #[test]
    fn proc_ids_unique_and_unreserved() {
        let procs = [
            ("PROC_HELLO", PROC_HELLO),
            ("PROC_COMMAND", PROC_COMMAND),
            ("PROC_FRAME", PROC_FRAME),
            ("PROC_STATS", PROC_STATS),
            ("PROC_FRAME_DELTA", PROC_FRAME_DELTA),
        ];
        for (i, (name_a, id_a)) in procs.iter().enumerate() {
            assert!(
                *id_a < 0xFFFF_0000,
                "{name_a} ({id_a:#010x}) lands in the reserved built-in range"
            );
            assert_ne!(
                *id_a,
                dlib::server::PROC_PING,
                "{name_a} collides with the built-in ping proc"
            );
            for (name_b, id_b) in &procs[i + 1..] {
                assert_ne!(id_a, id_b, "{name_a} and {name_b} share id {id_a:#010x}");
            }
        }
    }

    #[test]
    fn command_roundtrips() {
        let cmds = vec![
            Command::AddRake {
                a: Vec3::new(1.0, 2.0, 3.0),
                b: Vec3::new(4.0, 5.0, 6.0),
                seed_count: 16,
                tool: ToolKind::Streakline,
            },
            Command::RemoveRake { id: 7 },
            Command::SetTool {
                id: 3,
                tool: ToolKind::ParticlePath,
            },
            Command::SetSeedCount { id: 3, n: 25 },
            Command::Hand {
                position: Vec3::new(-1.0, 0.5, 2.0),
                gesture: Gesture::Fist,
            },
            Command::HeadPose {
                pose: Pose::new(Vec3::ONE, Quat::from_axis_angle(Vec3::Y, 0.3)),
            },
            Command::Time(TimeCommand::Play),
            Command::Time(TimeCommand::SetRate(-2.5)),
            Command::Time(TimeCommand::Jump(120)),
            Command::Time(TimeCommand::Step(-1)),
            Command::Goodbye,
        ];
        for c in cmds {
            let back = Command::decode(&c.encode()).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn bad_command_rejected() {
        let mut b = BytesMut::new();
        b.put_u32_le_(99);
        assert!(Command::decode(&b.freeze()).is_err());
        // Trailing garbage.
        let mut bytes = Command::RemoveRake { id: 1 }.encode().to_vec();
        bytes.push(0);
        assert!(Command::decode(&bytes).is_err());
    }

    #[test]
    fn hello_roundtrip() {
        let h = HelloReply {
            dataset_name: "tapered-cylinder".into(),
            dims: Dims::TAPERED_CYLINDER,
            timestep_count: 800,
            dt: 0.05,
            bounds_min: Vec3::splat(-12.0),
            bounds_max: Vec3::new(12.0, 12.0, 8.0),
            user_id: 42,
        };
        let back = HelloReply::decode(&h.encode()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.bounds().max.z, 8.0);
    }

    #[test]
    fn hello_version_mismatch_rejected() {
        let h = HelloReply {
            dataset_name: "x".into(),
            dims: Dims::new(2, 2, 2),
            timestep_count: 1,
            dt: 0.1,
            bounds_min: Vec3::ZERO,
            bounds_max: Vec3::ONE,
            user_id: 1,
        };
        // A v1 server (12 B/point slabs), a v2 one (per-point control
        // bytes) or a v3 one (f32 bit patterns) must be refused by name,
        // with both versions in the message, before any geometry is
        // decoded.
        for theirs in [1u32, 2, 3, 99] {
            let mut bytes = h.encode().to_vec();
            bytes[..4].copy_from_slice(&theirs.to_le_bytes());
            let Err(DlibError::Protocol(m)) = HelloReply::decode(&bytes) else {
                panic!("v{theirs} hello accepted");
            };
            assert!(m.contains("version mismatch"), "{m}");
            assert!(m.contains(&format!("server speaks v{theirs}")), "{m}");
            assert!(m.contains(&format!("client v{PROTOCOL_VERSION}")), "{m}");
        }
        assert_eq!(PROTOCOL_VERSION, 4);
    }

    #[test]
    fn frame_roundtrip() {
        let frame = GeometryFrame {
            timestep: 17,
            time: 0.85,
            revision: 99,
            lattice: Q14,
            rakes: vec![RakeMsg {
                id: 1,
                a: Vec3::ZERO,
                b: Vec3::ONE,
                seed_count: 8,
                tool: ToolKind::Streamline,
                owner: 2,
            }],
            paths: vec![
                PathMsg {
                    rake_id: 1,
                    kind: PathKind::Streamline,
                    points: vec![Vec3::X, Vec3::Y, Vec3::Z],
                },
                PathMsg {
                    rake_id: 1,
                    kind: PathKind::Streak,
                    points: vec![],
                },
            ],
            users: vec![UserMsg {
                id: 5,
                head: Pose::new(Vec3::new(0.0, 1.7, 2.0), Quat::IDENTITY),
            }],
        };
        let back = GeometryFrame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.particle_count(), 3);
        assert_eq!(back.path_payload_bytes(), 36);
    }

    #[test]
    fn table1_payload_accounting() {
        // Table 1 row 1 counts a 10 000-particle frame as 120 000 bytes;
        // the encoded frame is smaller: a constant path is the codec's
        // floor, one 2-byte header per eight points, and the frame
        // around it is 44 bytes.
        let frame = GeometryFrame {
            timestep: 0,
            time: 0.0,
            revision: 0,
            lattice: Q14,
            rakes: vec![],
            paths: vec![PathMsg {
                rake_id: 1,
                kind: PathKind::Streamline,
                points: vec![Vec3::ZERO; 10_000],
            }],
            users: vec![],
        };
        assert_eq!(frame.path_payload_bytes(), 120_000);
        assert_eq!(frame.encode().len(), 2_500 + 44);
    }

    #[test]
    fn frame_request_roundtrip() {
        for advance in [true, false] {
            let fr = FrameRequest { advance };
            assert_eq!(FrameRequest::decode(&fr.encode()).unwrap(), fr);
        }
        let mut bytes = FrameRequest { advance: true }.encode().to_vec();
        bytes.push(0);
        assert!(FrameRequest::decode(&bytes).is_err());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Decoders are a network boundary: arbitrary bytes must
            /// produce `Err`, never a panic.
            #[test]
            fn prop_command_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = Command::decode(&bytes);
            }

            #[test]
            fn prop_frame_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
                let _ = GeometryFrame::decode(&bytes);
            }

            #[test]
            fn prop_hello_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = HelloReply::decode(&bytes);
            }

            #[test]
            fn prop_stats_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..FrameStats::WIRE_LEN + 8)) {
                let _ = FrameStats::decode(&bytes);
            }

            #[test]
            fn prop_delta_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
                let _ = DeltaFrame::decode(&bytes);
            }

            /// Bit-flipping a valid frame must decode to Err or to a
            /// *valid* different frame — never panic.
            #[test]
            fn prop_frame_bitflip_safe(flip_at in 0usize..200, flip_bit in 0u8..8) {
                let frame = GeometryFrame {
                    timestep: 3,
                    time: 1.5,
                    revision: 9,
                    lattice: Q14,
                    rakes: vec![RakeMsg {
                        id: 1,
                        a: Vec3::ZERO,
                        b: Vec3::ONE,
                        seed_count: 4,
                        tool: ToolKind::Streamline,
                        owner: 7,
                    }],
                    paths: vec![PathMsg {
                        rake_id: 1,
                        kind: PathKind::Streak,
                        points: vec![Vec3::X; 8],
                    }],
                    users: vec![],
                };
                let mut bytes = frame.encode().to_vec();
                let idx = flip_at % bytes.len();
                bytes[idx] ^= 1 << flip_bit;
                let _ = GeometryFrame::decode(&bytes);
            }
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = GeometryFrame {
            timestep: 1,
            time: 0.0,
            revision: 1,
            lattice: Q14,
            rakes: vec![],
            paths: vec![PathMsg {
                rake_id: 1,
                kind: PathKind::Streamline,
                points: vec![Vec3::X; 10],
            }],
            users: vec![],
        };
        let bytes = frame.encode();
        assert!(GeometryFrame::decode(&bytes[..bytes.len() - 5]).is_err());
    }

    /// A count the rest of the message cannot hold is rejected by name
    /// before anything is allocated for it — 30 bytes must not be able to
    /// demand a million `PathMsg`s.
    #[test]
    fn hostile_counts_rejected_by_name_before_allocating() {
        let named = |res: Result<()>, what: &str| {
            let Err(DlibError::Protocol(m)) = res else {
                panic!("hostile {what} count accepted");
            };
            assert!(m.starts_with(&format!("{what} count")), "{m}");
        };
        let frame_with = |rakes: u32, paths: u32| {
            let mut b = BytesMut::new();
            b.put_slice(&[0u8; 20]); // timestep, time, revision, lattice
            b.put_u32_le_(rakes);
            b.put_u32_le_(paths);
            b.put_slice(&[0u8; 6]);
            GeometryFrame::decode(&b).map(|_| ())
        };
        named(frame_with(0, 1_000_000), "path");
        named(frame_with(100_000, 0), "rake");
        // Delta frame: flags (lattice exponent 0), timestep, time,
        // revision, baseline, 0 rakes.
        let delta_with = |tail: &[u32]| {
            let mut b = BytesMut::new();
            b.put_slice(&[0u8; 32]);
            for v in tail {
                b.put_u32_le_(*v);
            }
            DeltaFrame::decode(&b).map(|_| ())
        };
        named(delta_with(&[100_000]), "chunk");
        named(delta_with(&[1, 7, 0, 0, 1_000_000]), "chunk path");
        named(delta_with(&[0, 100_000]), "tombstone");
        named(delta_with(&[0, 0, 100_000]), "user");
        // Path: rake id, kind, then a point count with nothing behind it.
        let mut b = BytesMut::new();
        b.put_slice(&[0u8; 8]);
        b.put_u32_le_(80);
        b.put_slice(&[0u8; 19]); // 80 points need at least ten 2-byte headers
        named(
            get_path(&mut WireReader::new(&b), Q14, &mut MAX_FRAME_POINTS.clone()).map(|_| ()),
            "point",
        );
    }

    /// A zero-width block is two bytes for eight points, so only the
    /// frame's point budget stops a small frame from decoding to
    /// gigabytes: paths spend it as they decode, and the one that would
    /// overdraw it is refused by name before its points are allocated.
    #[test]
    fn point_budget_spans_the_whole_frame() {
        let path = |b: &mut BytesMut, rake: u32, n: usize| {
            b.put_u32_le_(rake);
            b.put_u32_le_(0);
            b.put_len_(n);
            b.put_slice(&vec![0u8; 2 * n.div_ceil(8)]);
        };
        let (small, many) = (1_000, 100);
        let last = MAX_FRAME_POINTS - small * many + 1;
        let over = |m: &str| m.starts_with(&format!("point count {last} exceeds"));

        let mut b = BytesMut::new();
        b.put_slice(&[0u8; 20]); // timestep, time, revision, lattice
        b.put_u32_le_(0); // rakes
        b.put_len_(many + 1);
        for _ in 0..many {
            path(&mut b, 1, small);
        }
        path(&mut b, 1, last);
        b.put_u32_le_(0); // users
        let Err(DlibError::Protocol(m)) = GeometryFrame::decode(&b) else {
            panic!("over-budget frame accepted");
        };
        assert!(over(&m), "{m}");

        let mut b = BytesMut::new();
        b.put_slice(&[0u8; 28]); // flags, timestep, time, revision, baseline
        b.put_u32_le_(0); // rakes
        b.put_u32_le_(2); // chunks
        for (rake, paths) in [(1, many), (2, 1)] {
            b.put_u32_le_(rake);
            b.put_u64_le_(1);
            b.put_len_(paths);
            for _ in 0..paths {
                path(&mut b, rake, if rake == 1 { small } else { last });
            }
        }
        b.put_slice(&[0u8; 8]); // tombstones, users
        let Err(DlibError::Protocol(m)) = DeltaFrame::decode(&b) else {
            panic!("over-budget delta accepted");
        };
        assert!(over(&m), "{m}");

        // A path that fits spends exactly its points; the next is refused.
        let mut budget = 10;
        let mut b = BytesMut::new();
        path(&mut b, 1, 10);
        path(&mut b, 1, 1);
        let mut r = WireReader::new(&b);
        assert_eq!(get_path(&mut r, Q14, &mut budget).unwrap().points.len(), 10);
        assert_eq!(budget, 0);
        assert!(get_path(&mut r, Q14, &mut budget).is_err());
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let frame = GeometryFrame {
            timestep: 4,
            time: 0.2,
            revision: 11,
            lattice: Q14,
            rakes: vec![],
            paths: vec![PathMsg {
                rake_id: 2,
                kind: PathKind::ParticlePath,
                points: vec![Vec3::X, Vec3::Y],
            }],
            users: vec![],
        };
        // Reusing a scratch buffer with prior garbage: encode_into must
        // append exactly the canonical encoding after it.
        let mut scratch = BytesMut::new();
        scratch.put_slice(b"junk");
        frame.encode_into(&mut scratch);
        assert_eq!(&scratch[4..], &frame.encode()[..]);
    }

    fn sample_delta() -> DeltaFrame {
        DeltaFrame {
            keyframe: false,
            timestep: 12,
            time: 0.6,
            revision: 40,
            baseline: 37,
            lattice: Q14,
            rakes: vec![
                RakeMsg {
                    id: 1,
                    a: Vec3::ZERO,
                    b: Vec3::ONE,
                    seed_count: 8,
                    tool: ToolKind::Streamline,
                    owner: 2,
                },
                RakeMsg {
                    id: 3,
                    a: Vec3::X,
                    b: Vec3::Y,
                    seed_count: 4,
                    tool: ToolKind::Streakline,
                    owner: 0,
                },
            ],
            chunks: vec![RakeChunkMsg {
                rake_id: 3,
                content_rev: 39,
                paths: vec![
                    PathMsg {
                        rake_id: 3,
                        kind: PathKind::Streak,
                        points: vec![Vec3::X, Vec3::Z],
                    },
                    PathMsg {
                        rake_id: 3,
                        kind: PathKind::Streak,
                        points: vec![],
                    },
                ],
            }],
            tombstones: vec![2],
            users: vec![UserMsg {
                id: 5,
                head: Pose::new(Vec3::new(0.0, 1.7, 2.0), Quat::IDENTITY),
            }],
        }
    }

    #[test]
    fn delta_request_roundtrip() {
        for (advance, baseline) in [(true, 0u64), (false, 41), (true, u64::MAX)] {
            let req = DeltaRequest { advance, baseline };
            assert_eq!(DeltaRequest::decode(&req.encode()).unwrap(), req);
        }
        // Trailing garbage rejected.
        let mut bytes = DeltaRequest {
            advance: true,
            baseline: 3,
        }
        .encode()
        .to_vec();
        bytes.push(0);
        assert!(DeltaRequest::decode(&bytes).is_err());
    }

    #[test]
    fn non_canonical_advance_flag_and_hello_tail_rejected_by_name() {
        let named = |e: DlibError, what: &str| {
            assert!(
                matches!(&e, DlibError::Protocol(m) if m.contains(what)),
                "{e:?}"
            );
        };
        // `advance` is written as 0 or 1; a 2 would decode to `true` and
        // re-encode as 1.
        let mut frame = FrameRequest { advance: true }.encode().to_vec();
        frame[0] = 2;
        named(
            FrameRequest::decode(&frame).unwrap_err(),
            "bad advance flag 2",
        );
        let mut delta = DeltaRequest {
            advance: false,
            baseline: 9,
        }
        .encode()
        .to_vec();
        delta[3] = 0x80;
        named(
            DeltaRequest::decode(&delta).unwrap_err(),
            "bad advance flag",
        );
        let mut hello = HelloReply {
            dataset_name: "x".into(),
            dims: Dims::new(2, 2, 2),
            timestep_count: 1,
            dt: 0.1,
            bounds_min: Vec3::ZERO,
            bounds_max: Vec3::ONE,
            user_id: 1,
        }
        .encode()
        .to_vec();
        hello.push(0);
        named(
            HelloReply::decode(&hello).unwrap_err(),
            "trailing bytes after hello",
        );
    }

    #[test]
    fn delta_frame_roundtrip() {
        let delta = sample_delta();
        assert_eq!(DeltaFrame::decode(&delta.encode()).unwrap(), delta);
        let key = DeltaFrame {
            keyframe: true,
            baseline: 0,
            tombstones: vec![],
            ..delta
        };
        assert_eq!(DeltaFrame::decode(&key.encode()).unwrap(), key);
    }

    #[test]
    fn delta_frame_rejects_garbage() {
        let delta = sample_delta();
        // Trailing bytes.
        let mut bytes = delta.encode().to_vec();
        bytes.push(0);
        assert!(DeltaFrame::decode(&bytes).is_err());
        // Truncation.
        let bytes = delta.encode();
        assert!(DeltaFrame::decode(&bytes[..bytes.len() - 3]).is_err());
        // Unknown flag bits.
        let mut bytes = delta.encode().to_vec();
        bytes[0] |= 0x80;
        assert!(DeltaFrame::decode(&bytes).is_err());
    }

    #[test]
    fn chunk_path_rake_mismatch_rejected() {
        let mut delta = sample_delta();
        delta.chunks[0].paths[0].rake_id = 99;
        assert!(DeltaFrame::decode(&delta.encode()).is_err());
    }

    /// The server's broadcast cache stores *encoded* chunks and splices
    /// them into replies — the splice must be indistinguishable from
    /// encoding the typed [`DeltaFrame`] directly.
    #[test]
    fn spliced_chunks_match_typed_encode() {
        let delta = sample_delta();
        // Pre-encode each chunk separately, as the broadcast cache does.
        let blobs: Vec<Bytes> = delta
            .chunks
            .iter()
            .map(|c| {
                let mut b = BytesMut::new();
                c.encode_into(delta.lattice, &mut b);
                b.freeze()
            })
            .collect();
        // Assemble the reply by splicing the cached blobs.
        let spliced = splice_delta(
            delta.keyframe,
            delta.timestep,
            delta.time,
            delta.revision,
            delta.baseline,
            delta.lattice,
            &delta.rakes,
            blobs.clone(),
            &delta.tombstones,
            &delta.users,
        );
        assert_eq!(spliced.clone().into_bytes(), delta.encode());
        // The blobs ride in the rope by refcount: same bytes, same address.
        assert_eq!(spliced.segments.len(), blobs.len() + 2);
        for (seg, blob) in spliced.segments[1..].iter().zip(&blobs) {
            assert_eq!(seg.as_ptr(), blob.as_ptr());
            assert_eq!(seg.len(), blob.len());
        }

        // The same blobs, headers skipped, make the full frame.
        let frame = GeometryFrame {
            timestep: delta.timestep,
            time: delta.time,
            revision: delta.revision,
            lattice: delta.lattice,
            rakes: delta.rakes.clone(),
            paths: delta.chunks.iter().flat_map(|c| c.paths.clone()).collect(),
            users: delta.users.clone(),
        };
        let full = splice_frame(&frame, blobs.clone());
        assert_eq!(full.clone().into_bytes(), frame.encode());
        for (seg, blob) in full.segments[1..].iter().zip(&blobs) {
            assert_eq!(seg.as_ptr(), blob[RakeChunkMsg::HEADER_LEN..].as_ptr());
        }
    }

    #[test]
    fn frame_stats_roundtrip() {
        let s = FrameStats {
            revision: 9,
            fetch_us: 120,
            integrate_us: 4_500,
            map_us: 310,
            encode_us: 95,
            geom_hits: 3,
            geom_misses: 1,
            cum_geom_hits: 40,
            cum_geom_misses: 12,
            cum_frame_hits: 7,
            cum_frames: 52,
            chunk_encode_us: 61,
            delta_encode_us: 8,
            cum_chunk_encodes: 19,
            cum_keyframes: 4,
            cum_delta_frames: 44,
            cum_bytes_sent: 1_234_567,
            live_sessions: 3,
            cum_reaped_sessions: 6,
            cum_shed_calls: 17,
            streak_sample_us: 210,
            streak_integrate_us: 340,
            streak_compact_us: 12,
            streak_inject_us: 5,
            streak_particles_per_s: 2_500_000,
            cum_io_wait_us: 54_400,
            cum_decode_us: 1_030,
            cum_prefetch_hits: 31,
            cum_prefetch_misses: 21,
            cum_store_retries: 5,
            cum_salvaged_chunks: 2,
            cum_zero_filled_chunks: 1,
            cum_quarantined_steps: 1,
            cum_substituted_fetches: 9,
            cum_ahead_traced: 14,
            cum_ahead_adopted: 13,
        };
        assert_eq!(s.encode().len(), FrameStats::WIRE_LEN);
        assert_eq!(FrameStats::decode(&s.encode()).unwrap(), s);
        assert_eq!(s.total_us(), 5_025);
        assert!(s.store_degraded());
        assert!(!FrameStats::default().store_degraded());
        // Trailing garbage rejected.
        let mut bytes = s.encode().to_vec();
        bytes.push(0);
        assert!(FrameStats::decode(&bytes).is_err());
    }
}
