//! The on-disk dataset format (PLOT3D-flavoured).
//!
//! The NAS datasets of the era were PLOT3D grid/solution pairs: a grid file
//! holding the physical node positions and one "q" file per timestep. We
//! keep that shape — it is exactly what the disk-streaming architecture of
//! §5.1 needs, because each timestep must be loadable independently with
//! one big sequential read:
//!
//! * `grid.dvwg` — magic `DVWG`, dims, then X-plane, Y-plane, Z-plane of
//!   node positions (component-planar f32 LE, like PLOT3D),
//! * `q.NNNNN.dvwq` — magic `DVWQ`, dims, timestep index and physical
//!   time, then U, V, W planes of velocity,
//! * `meta.dvwm` — magic `DVWM`, dataset name, dims, timestep count, dt,
//!   coordinate system.
//!
//! All integers and floats are little-endian. Readers scatter the
//! component planes into the AoS [`VectorField`] the whole server samples.

use crate::codec;
use crate::dataset::{DatasetMeta, VelocityCoords};
use crate::field::FieldSample;
use crate::{CurvilinearGrid, Dataset, Dims, FieldError, Result, VectorField};
use rayon::prelude::*;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use vecmath::Vec3;

const MAGIC_GRID: &[u8; 4] = b"DVWG";
const MAGIC_VELOCITY: &[u8; 4] = b"DVWQ";
const MAGIC_META: &[u8; 4] = b"DVWM";
const FORMAT_VERSION: u32 = 1;

/// Current velocity *container* version, written by [`write_velocity_v2`]:
/// the payload is split into independently decodable compressed chunks
/// (see [`codec`]). Version 1, the raw component-planar layout, stays
/// readable; version 2 (the retired LZ chunk codec) is refused at the
/// header by name. Grid and meta files stay at version 1 — their layout
/// is unchanged.
///
/// Version 3 stores chunks as 3-D Lorenzo residuals bit-packed per
/// 8-value block (method 2) in place of XOR-delta → byte transpose → LZ
/// (method 1, retired). This constant must change iff the container
/// layout changes, and never with `PROTOCOL_VERSION`: a small v3
/// container's bytes are pinned, with both numbers, by
/// `tests/golden_bytes.rs`.
pub const DATASET_FORMAT_VERSION: u32 = 3;

/// Chunking granularity in values (64 KiB of raw f32 per chunk; four
/// k-planes of the tapered cylinder, so each chunk restarts on a plane).
pub const V2_CHUNK_VALUES: usize = codec::MAX_CHUNK_VALUES;

/// Sanity bound when reading a chunked header: chunk granularity this
/// large would defeat independent decode and is certainly corruption.
const V2_MAX_CHUNK_VALUES: usize = 1 << 20;

/// A count as the format's `u32`, refused (never truncated) if it does
/// not fit.
fn u32_of(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| FieldError::Format(format!("{what} {n} exceeds u32::MAX")))
}

fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_f32(w: &mut impl Write, v: f32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f32(r: &mut impl Read) -> Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn expect_magic(r: &mut impl Read, magic: &[u8; 4]) -> Result<()> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    if &b != magic {
        return Err(FieldError::Format(format!(
            "bad magic: expected {:?}, found {:?}",
            std::str::from_utf8(magic).unwrap_or("?"),
            String::from_utf8_lossy(&b)
        )));
    }
    Ok(())
}

fn check_version(r: &mut impl Read) -> Result<()> {
    let v = read_u32(r)?;
    if v != FORMAT_VERSION {
        return Err(FieldError::Format(format!(
            "unsupported format version {v} (expected {FORMAT_VERSION})"
        )));
    }
    Ok(())
}

fn write_dims(w: &mut impl Write, d: Dims) -> Result<()> {
    write_u32(w, d.ni)?;
    write_u32(w, d.nj)?;
    write_u32(w, d.nk)
}

fn read_dims(r: &mut impl Read) -> Result<Dims> {
    Ok(Dims::new(read_u32(r)?, read_u32(r)?, read_u32(r)?))
}

/// Write one f32 component plane for every point, extracting `get`.
fn write_plane(w: &mut impl Write, field: &[Vec3], get: impl Fn(&Vec3) -> f32) -> Result<()> {
    // Serialize in 64 KiB chunks to keep syscalls and allocations bounded.
    let mut buf = Vec::with_capacity(64 * 1024);
    for v in field {
        buf.extend_from_slice(&get(v).to_le_bytes());
        if buf.len() >= 64 * 1024 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Read one component plane of `n` f32s into `set` per element.
fn read_plane(r: &mut impl Read, field: &mut [Vec3], set: impl Fn(&mut Vec3, f32)) -> Result<()> {
    let mut bytes = vec![0u8; field.len() * 4];
    r.read_exact(&mut bytes)?;
    for (v, chunk) in field.iter_mut().zip(bytes.as_chunks::<4>().0) {
        set(v, f32::from_le_bytes(*chunk));
    }
    Ok(())
}

/// Write a grid file.
pub fn write_grid(path: &Path, grid: &CurvilinearGrid) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC_GRID)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    write_dims(&mut w, grid.dims())?;
    let pts = grid.positions().as_slice();
    write_plane(&mut w, pts, |v| v.x)?;
    write_plane(&mut w, pts, |v| v.y)?;
    write_plane(&mut w, pts, |v| v.z)?;
    w.flush()?;
    Ok(())
}

/// Read a grid file. Its dims must describe exactly the bytes present,
/// which is checked before the grid is allocated.
pub fn read_grid(path: &Path) -> Result<CurvilinearGrid> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    expect_magic(&mut r, MAGIC_GRID)?;
    check_version(&mut r)?;
    let dims = read_dims(&mut r)?;
    planes_fit(dims, len.saturating_sub(20))?;
    let mut field = VectorField::zeros(dims);
    read_plane(&mut r, field.as_mut_slice(), |v, f| v.x = f)?;
    read_plane(&mut r, field.as_mut_slice(), |v, f| v.y = f)?;
    read_plane(&mut r, field.as_mut_slice(), |v, f| v.z = f)?;
    CurvilinearGrid::new(field)
}

/// Write one velocity timestep.
pub fn write_velocity(path: &Path, index: u32, time: f32, field: &VectorField) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC_VELOCITY)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    write_dims(&mut w, field.dims())?;
    write_u32(&mut w, index)?;
    write_f32(&mut w, time)?;
    let data = field.as_slice();
    write_plane(&mut w, data, |v| v.x)?;
    write_plane(&mut w, data, |v| v.y)?;
    write_plane(&mut w, data, |v| v.z)?;
    w.flush()?;
    Ok(())
}

/// Header of a velocity file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityHeader {
    pub dims: Dims,
    pub index: u32,
    pub time: f32,
}

/// Per-timestep decode health, produced by the salvage decoder
/// ([`decode_velocity_salvage_into`]): which chunks failed their
/// checksum (or would not decompress) and were zero-filled instead.
///
/// `chunk_count == 0` marks a v1 payload — v1 has no chunk framing, so
/// v1 decodes are all-or-nothing and a successful one is always clean.
/// The mask bounds the damage of a degraded decode: every value outside
/// the ranges named by `bad_chunks` is bit-exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldHealth {
    /// Total chunks in the container (3 × per-component count).
    pub chunk_count: usize,
    /// Component-major indices of chunks that were zero-filled.
    pub bad_chunks: Vec<usize>,
}

impl FieldHealth {
    /// True when every chunk decoded bit-exact.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.bad_chunks.is_empty()
    }
}

/// Bounds-checked little-endian cursor over an in-memory velocity file.
/// Velocity reads slurp the whole file in one syscall (the streaming loop
/// of §5.2 wants exactly one big sequential read per timestep) and parse
/// from the slice; truncation surfaces as a typed error, never a panic.
struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(data: &'a [u8]) -> Cur<'a> {
        Cur { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| FieldError::Format("velocity file offset overflows".into()))?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| FieldError::Corrupt("velocity file truncated".into()))?;
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn rest(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or(&[])
    }
}

/// Check that `have` payload bytes hold exactly the three raw f32 planes
/// of `dims` — before anything is allocated for them.
fn planes_fit(dims: Dims, have: u64) -> Result<()> {
    dims.checked_point_count()
        .filter(|&n| (n as u64).checked_mul(12) == Some(have))
        .map(drop)
        .ok_or_else(|| {
            FieldError::Format(format!(
                "{dims:?} needs 12 B a point, the payload holds {have} B"
            ))
        })
}

/// One chunk: a contiguous run of values of one component.
struct ChunkDesc<'a> {
    method: u32,
    checksum: u32,
    comp: usize,
    shape: codec::ChunkShape,
    values: usize,
    bytes: &'a [u8],
}

/// A velocity file's payload, checked against the bytes present.
enum Payload<'a> {
    /// Version 1: the U, V and W planes, exactly 12 B a point.
    Planes(&'a [u8]),
    /// The chunked container, component-major: all U chunks, then V, W.
    Chunks(Vec<ChunkDesc<'a>>),
}

// Per-worker decode plane for the AoS scatter, reused across fetches so
// the steady-state decode path allocates nothing.
thread_local! {
    static DECODE_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

impl ChunkDesc<'_> {
    fn range(&self) -> std::ops::Range<usize> {
        self.shape.start..self.shape.start + self.values
    }

    /// Decode, checksum-verified, into `out` (the chunk's plane slice).
    fn decode(&self, out: &mut [f32]) -> Result<()> {
        if codec::checksum(self.bytes) != self.checksum {
            return Err(FieldError::Corrupt("chunk checksum mismatch".into()));
        }
        codec::decompress_chunk(self.method, self.bytes, self.shape, out)
    }

    /// Decode and scatter into this chunk's component of `dst`, its
    /// point range. A chunk that fails leaves that component zero — the
    /// salvage decoder's bounded stand-in — and returns the error.
    fn decode_aos(&self, dst: &mut [Vec3]) -> Result<()> {
        DECODE_SCRATCH.with(|cell| {
            let mut plane = cell.borrow_mut();
            plane.clear();
            plane.resize(dst.len(), 0.0);
            let res = self.decode(&mut plane);
            if res.is_err() {
                plane.fill(0.0);
            }
            scatter_component(self.comp, plane.iter().copied(), dst);
            res
        })
    }
}

fn scatter_component(comp: usize, plane: impl Iterator<Item = f32>, dst: &mut [Vec3]) {
    let pairs = dst.iter_mut().zip(plane);
    match comp {
        0 => pairs.for_each(|(v, f)| v.x = f),
        1 => pairs.for_each(|(v, f)| v.y = f),
        _ => pairs.for_each(|(v, f)| v.z = f),
    }
}

/// Parse the chunk table that follows the common header. Every count is
/// bounded by the bytes present before anything is allocated for it: a
/// descriptor takes 16 B and a chunk's payload at least a byte per eight
/// values, so a header cannot claim more points than 8 per file byte.
fn parse_chunks<'a>(c: &mut Cur<'a>, dims: Dims, n: usize) -> Result<Vec<ChunkDesc<'a>>> {
    let chunk_values = c.u32()? as usize;
    if chunk_values == 0 || chunk_values > V2_MAX_CHUNK_VALUES {
        return Err(FieldError::Format(format!(
            "bad chunk granularity {chunk_values}"
        )));
    }
    let chunk_count = c.u32()? as usize;
    let per_comp = n.div_ceil(chunk_values);
    if chunk_count != per_comp * 3 || chunk_count > c.rest().len() / 16 {
        return Err(FieldError::Format(format!(
            "chunk count {chunk_count} does not match {per_comp} per component or the {} bytes left",
            c.rest().len()
        )));
    }
    let mut chunks = Vec::with_capacity(chunk_count);
    for ci in 0..chunk_count {
        let (method, values) = (c.u32()?, c.u32()? as usize);
        let (comp_len, checksum) = (c.u32()? as usize, c.u32()?);
        let start = ci % per_comp * chunk_values;
        let expected = chunk_values.min(n - start);
        if values != expected || comp_len < values.div_ceil(8) {
            return Err(FieldError::Format(format!(
                "chunk {ci} declares {values} values in {comp_len} bytes, expected {expected} values"
            )));
        }
        chunks.push(ChunkDesc {
            method,
            checksum,
            comp: ci / per_comp,
            shape: codec::ChunkShape {
                ni: dims.ni as usize,
                nj: dims.nj as usize,
                start,
            },
            values,
            bytes: c.take(comp_len)?,
        });
    }
    if !c.rest().is_empty() {
        return Err(FieldError::Format(
            "trailing bytes after chunk table".into(),
        ));
    }
    Ok(chunks)
}

/// Parse a velocity file: magic, version, dims, index, time, then the
/// payload, whose size is checked against the dims before anyone
/// allocates a field for them.
fn parse_velocity(data: &[u8]) -> Result<(VelocityHeader, Payload<'_>)> {
    let mut c = Cur::new(data);
    let magic = c.take(4)?;
    if magic != MAGIC_VELOCITY {
        return Err(FieldError::Format(format!(
            "bad magic: expected \"DVWQ\", found {:?}",
            String::from_utf8_lossy(magic)
        )));
    }
    let version = c.u32()?;
    if version != FORMAT_VERSION && version != DATASET_FORMAT_VERSION {
        return Err(FieldError::Format(format!(
            "unsupported velocity format version {version} (expected {FORMAT_VERSION} or {DATASET_FORMAT_VERSION})"
        )));
    }
    let dims = Dims::new(c.u32()?, c.u32()?, c.u32()?);
    let header = VelocityHeader {
        dims,
        index: c.u32()?,
        time: c.f32()?,
    };
    let payload = if version == FORMAT_VERSION {
        planes_fit(dims, c.rest().len() as u64)?;
        Payload::Planes(c.rest())
    } else {
        let n = dims
            .checked_point_count()
            .ok_or_else(|| FieldError::Format(format!("{dims:?} overflows a point count")))?;
        Payload::Chunks(parse_chunks(&mut c, dims, n)?)
    };
    Ok((header, payload))
}

/// [`parse_velocity`], for a destination whose dims must match.
fn parse_velocity_for(data: &[u8], dims: Dims) -> Result<(VelocityHeader, Payload<'_>)> {
    let (header, payload) = parse_velocity(data)?;
    if header.dims != dims {
        return Err(FieldError::LengthMismatch {
            expected: dims.point_count(),
            actual: header.dims.checked_point_count().unwrap_or(usize::MAX),
        });
    }
    Ok((header, payload))
}

/// The `comp`th raw f32 plane of a version 1 payload.
fn raw_plane(planes: &[u8], comp: usize) -> impl Iterator<Item = f32> + '_ {
    let n = planes.len() / 12;
    planes[comp * n * 4..(comp + 1) * n * 4]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Decode a parsed payload into an AoS field of the same dims. Chunked
/// point ranges decode in parallel via rayon: each range scatters its
/// three component chunks into a disjoint slice of the field.
fn decode_payload(payload: &Payload<'_>, into: &mut VectorField) -> Result<()> {
    let chunks = match payload {
        Payload::Planes(planes) => {
            for comp in 0..3 {
                scatter_component(comp, raw_plane(planes, comp), into.as_mut_slice());
            }
            return Ok(());
        }
        Payload::Chunks(chunks) => chunks,
    };
    let per_comp = chunks.len() / 3;
    let chunk_values = chunks.first().map_or(1, |d| d.values);
    let ranges: Vec<(usize, &mut [Vec3])> = into
        .as_mut_slice()
        .chunks_mut(chunk_values)
        .enumerate()
        .collect();
    let results: Vec<Result<()>> = ranges
        .into_par_iter()
        .map(|(ri, dst)| {
            (0..3).try_for_each(|comp| match chunks.get(comp * per_comp + ri) {
                Some(d) => d.decode_aos(dst),
                None => Err(FieldError::Format("chunk table shorter than ranges".into())),
            })
        })
        .collect();
    results.into_iter().collect()
}

/// Decode an in-memory velocity file (either container version) into
/// `into` (must match dims). Split from [`read_velocity_into`] so callers
/// that account I/O and decode time separately — the storage fast path —
/// can do the file read themselves.
pub fn decode_velocity_into(data: &[u8], into: &mut VectorField) -> Result<VelocityHeader> {
    let (header, payload) = parse_velocity_for(data, into.dims())?;
    decode_payload(&payload, into)?;
    Ok(header)
}

/// Read one velocity timestep, reusing `into` (must match dims) to avoid
/// per-frame allocation — the disk-streaming loop of §5.2 reads a timestep
/// every frame, so the buffer is recycled. Handles both container
/// versions: v1 raw planes and compressed chunks. Returns the header.
pub fn read_velocity_into(path: &Path, into: &mut VectorField) -> Result<VelocityHeader> {
    let data = std::fs::read(path)?;
    decode_velocity_into(&data, into)
}

/// Read one velocity timestep (either container version) into a fresh
/// field, allocated only once the payload is known to hold its dims.
pub fn read_velocity(path: &Path) -> Result<(VelocityHeader, VectorField)> {
    let data = std::fs::read(path)?;
    let (header, payload) = parse_velocity(&data)?;
    let mut field = VectorField::zeros(header.dims);
    decode_payload(&payload, &mut field)?;
    Ok((header, field))
}

/// Decode the chunks of `payload` at component-major indices `which`
/// into `into`, zero-filling each that fails; returns those indices.
fn decode_chunks(
    payload: &Payload<'_>,
    into: &mut VectorField,
    which: &[usize],
) -> Result<Vec<usize>> {
    let Payload::Chunks(chunks) = payload else {
        return Err(FieldError::Format(
            "chunk-level decode needs a chunked container".into(),
        ));
    };
    let mut bad = Vec::new();
    for &ci in which {
        let d = chunks
            .get(ci)
            .ok_or_else(|| FieldError::Format(format!("chunk index {ci} out of range")))?;
        let dst = into
            .as_mut_slice()
            .get_mut(d.range())
            .ok_or_else(|| FieldError::Format("chunk table shorter than ranges".into()))?;
        if d.decode_aos(dst).is_err() {
            bad.push(ci);
        }
    }
    Ok(bad)
}

/// Salvage-decode an in-memory velocity file into `into` (must match
/// dims): every chunk that passes its checksum and decompresses is
/// decoded bit-exact; every chunk that does not is zero-filled and
/// recorded in the returned [`FieldHealth`] mask. Structural damage —
/// a torn header, a chunk table that does not describe the dims,
/// trailing bytes — is not salvageable at this granularity and still
/// returns `Err` (the caller's move is a whole-file re-read).
///
/// v1 payloads have no chunk framing: they decode all-or-nothing and a
/// success reports a clean health with `chunk_count == 0`.
pub fn decode_velocity_salvage_into(
    data: &[u8],
    into: &mut VectorField,
) -> Result<(VelocityHeader, FieldHealth)> {
    let (header, payload) = parse_velocity_for(data, into.dims())?;
    let chunk_count = match &payload {
        Payload::Planes(_) => {
            return decode_payload(&payload, into).map(|()| (header, FieldHealth::default()))
        }
        Payload::Chunks(chunks) => chunks.len(),
    };
    let all: Vec<usize> = (0..chunk_count).collect();
    let bad_chunks = decode_chunks(&payload, into, &all)?;
    Ok((
        header,
        FieldHealth {
            chunk_count,
            bad_chunks,
        },
    ))
}

/// Decode only the chunks named by `which` (component-major indices, as
/// reported in [`FieldHealth::bad_chunks`]) from a fresh copy of the
/// file, scattering the recovered values into `into`. Chunks that fail
/// again are re-zeroed; the returned list holds exactly those still-bad
/// indices. This is the re-read half of chunk salvage: a resilient store
/// re-reads the file and pays decode cost only for the ranges that were
/// bad the first time.
pub fn decode_velocity_chunks_into(
    data: &[u8],
    into: &mut VectorField,
    which: &[usize],
) -> Result<Vec<usize>> {
    let (_, payload) = parse_velocity_for(data, into.dims())?;
    decode_chunks(&payload, into, which)
}

/// Byte ranges of every chunk's compressed payload inside `data`
/// (component-major chunk order). Fault-injection harnesses use this to
/// aim bit flips at payload bytes — never at chunk framing — so an
/// injected flip deterministically surfaces as a checksum failure on a
/// known chunk index rather than an unparseable file.
pub fn v2_chunk_payload_ranges(data: &[u8]) -> Result<Vec<std::ops::Range<usize>>> {
    let Payload::Chunks(chunks) = parse_velocity(data)?.1 else {
        return Err(FieldError::Format(
            "chunk payload ranges need a chunked container".into(),
        ));
    };
    // The 28-byte header, granularity and count, then each descriptor's
    // 16 bytes ahead of its payload.
    let mut at = 36;
    Ok(chunks
        .iter()
        .map(|d| {
            at += 16 + d.bytes.len();
            at - d.bytes.len()..at
        })
        .collect())
}

/// Write one velocity timestep in the chunked compressed container
/// (version [`DATASET_FORMAT_VERSION`]): the common header, then
/// `chunk_values`/`chunk_count`, then component-major chunks each tagged
/// `(method, raw_values, comp_len, checksum)`. Chunks are independently
/// decodable (prediction reads nothing before a chunk's first value), so
/// readers can decompress them in parallel.
pub fn write_velocity_v2(path: &Path, index: u32, time: f32, field: &VectorField) -> Result<()> {
    let mut w = BufWriter::with_capacity(256 * 1024, File::create(path)?);
    w.write_all(MAGIC_VELOCITY)?;
    write_u32(&mut w, DATASET_FORMAT_VERSION)?;
    let dims = field.dims();
    write_dims(&mut w, dims)?;
    write_u32(&mut w, index)?;
    write_f32(&mut w, time)?;
    let n = dims.point_count();
    let cv = V2_CHUNK_VALUES;
    let per_comp = n.div_ceil(cv);
    write_u32(&mut w, u32_of(cv, "chunk granularity")?)?;
    write_u32(&mut w, u32_of(per_comp * 3, "chunk count")?)?;
    let pts = field.as_slice();
    let mut values: Vec<f32> = Vec::with_capacity(cv.min(n.max(1)));
    let mut comp_buf = Vec::new();
    for comp in 0..3u32 {
        for start in (0..n).step_by(cv) {
            let end = (start + cv).min(n);
            values.clear();
            values.extend(pts[start..end].iter().map(|v| match comp {
                0 => v.x,
                1 => v.y,
                _ => v.z,
            }));
            let shape = codec::ChunkShape {
                ni: dims.ni as usize,
                nj: dims.nj as usize,
                start,
            };
            let method = codec::compress_chunk(&values, shape, &mut comp_buf);
            write_u32(&mut w, method)?;
            write_u32(&mut w, u32_of(values.len(), "chunk value count")?)?;
            write_u32(&mut w, u32_of(comp_buf.len(), "compressed chunk length")?)?;
            write_u32(&mut w, codec::checksum(&comp_buf))?;
            w.write_all(&comp_buf)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Write dataset metadata.
pub fn write_meta(path: &Path, meta: &DatasetMeta) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC_META)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    let name = meta.name.as_bytes();
    write_u32(&mut w, u32_of(name.len(), "dataset name length")?)?;
    w.write_all(name)?;
    write_dims(&mut w, meta.dims)?;
    write_u32(&mut w, u32_of(meta.timestep_count, "timestep count")?)?;
    write_f32(&mut w, meta.dt)?;
    let coords = match meta.coords {
        VelocityCoords::Physical => 0u32,
        VelocityCoords::Grid => 1u32,
    };
    write_u32(&mut w, coords)?;
    w.flush()?;
    Ok(())
}

/// Read dataset metadata.
pub fn read_meta(path: &Path) -> Result<DatasetMeta> {
    let mut r = BufReader::new(File::open(path)?);
    expect_magic(&mut r, MAGIC_META)?;
    check_version(&mut r)?;
    let name_len = read_u32(&mut r)? as usize;
    if name_len > 4096 {
        return Err(FieldError::Format(format!(
            "unreasonable name length {name_len}"
        )));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name)
        .map_err(|_| FieldError::Format("dataset name is not UTF-8".into()))?;
    let dims = read_dims(&mut r)?;
    let timestep_count = read_u32(&mut r)? as usize;
    let dt = read_f32(&mut r)?;
    let coords = match read_u32(&mut r)? {
        0 => VelocityCoords::Physical,
        1 => VelocityCoords::Grid,
        n => return Err(FieldError::Format(format!("bad coords tag {n}"))),
    };
    Ok(DatasetMeta {
        name,
        dims,
        timestep_count,
        dt,
        coords,
    })
}

/// Standard file names inside a dataset directory.
pub fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.dvwm")
}

pub fn grid_path(dir: &Path) -> PathBuf {
    dir.join("grid.dvwg")
}

pub fn velocity_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("q.{index:05}.dvwq"))
}

/// Write a whole in-memory dataset as a dataset directory.
pub fn write_dataset(dir: &Path, dataset: &Dataset) -> Result<()> {
    write_dataset_with(dir, dataset, write_velocity)
}

/// Write a whole in-memory dataset as a dataset directory using the
/// chunked compressed velocity container (meta and grid keep their v1
/// layout — they are read once at open, not streamed).
pub fn write_dataset_v2(dir: &Path, dataset: &Dataset) -> Result<()> {
    write_dataset_with(dir, dataset, write_velocity_v2)
}

type VelocityWriter = fn(&Path, u32, f32, &VectorField) -> Result<()>;

fn write_dataset_with(dir: &Path, dataset: &Dataset, write: VelocityWriter) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    write_meta(&meta_path(dir), dataset.meta())?;
    write_grid(&grid_path(dir), dataset.grid())?;
    for (idx, field) in dataset.timesteps().iter().enumerate() {
        let time = idx as f32 * dataset.meta().dt;
        write(
            &velocity_path(dir, idx),
            u32_of(idx, "timestep index")?,
            time,
            field,
        )?;
    }
    Ok(())
}

/// Migrate a dataset directory to the chunked compressed container: meta
/// and grid are copied verbatim, every timestep is re-encoded (v1 inputs
/// are decoded first; chunked inputs re-encode to the same bytes).
/// One reusable field buffer bounds memory at a single timestep. Returns
/// the number of timesteps migrated.
pub fn migrate_dataset_to_v2(src: &Path, dst: &Path) -> Result<usize> {
    if src == dst {
        return Err(FieldError::Format(
            "migration target must differ from source".into(),
        ));
    }
    std::fs::create_dir_all(dst)?;
    let meta = read_meta(&meta_path(src))?;
    std::fs::copy(meta_path(src), meta_path(dst))?;
    std::fs::copy(grid_path(src), grid_path(dst))?;
    let mut buf = VectorField::zeros(meta.dims);
    for idx in 0..meta.timestep_count {
        let header = read_velocity_into(&velocity_path(src, idx), &mut buf)?;
        write_velocity_v2(&velocity_path(dst, idx), header.index, header.time, &buf)?;
    }
    Ok(meta.timestep_count)
}

/// Read a whole dataset directory into memory (only sensible when it fits;
/// the streaming store reads timesteps on demand instead).
pub fn read_dataset(dir: &Path) -> Result<Dataset> {
    let meta = read_meta(&meta_path(dir))?;
    let grid = read_grid(&grid_path(dir))?;
    // Not reserved up front: the count is the meta file's word, and each
    // timestep must exist before it is kept.
    let mut timesteps = Vec::new();
    for idx in 0..meta.timestep_count {
        let (header, field) = read_velocity(&velocity_path(dir, idx))?;
        if header.index as usize != idx {
            return Err(FieldError::Format(format!(
                "timestep file {idx} has index {}",
                header.index
            )));
        }
        timesteps.push(field);
    }
    Dataset::new(meta, grid, timesteps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    fn sample_grid() -> CurvilinearGrid {
        CurvilinearGrid::from_fn(Dims::new(4, 3, 2), |i, j, k| {
            Vec3::new(i as f32 * 1.5, j as f32 - 0.5 * i as f32, k as f32 * 2.0)
        })
        .unwrap()
    }

    fn sample_field(seed: f32) -> VectorField {
        VectorField::from_fn(Dims::new(4, 3, 2), |i, j, k| {
            Vec3::new(seed + i as f32, seed - j as f32 * 0.25, seed * k as f32)
        })
    }

    #[test]
    fn grid_roundtrip() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("g.dvwg");
        let g = sample_grid();
        write_grid(&path, &g).unwrap();
        let g2 = read_grid(&path).unwrap();
        assert_eq!(g2.dims(), g.dims());
        for (i, j, k) in g.dims().iter_nodes() {
            assert_eq!(g2.node(i, j, k), g.node(i, j, k));
        }
    }

    #[test]
    fn velocity_roundtrip() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = sample_field(3.5);
        write_velocity(&path, 7, 0.35, &f).unwrap();
        let (h, f2) = read_velocity(&path).unwrap();
        assert_eq!(h.index, 7);
        assert!((h.time - 0.35).abs() < 1e-6);
        assert_eq!(f2, f);
    }

    #[test]
    fn velocity_read_into_reuses_buffer() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = sample_field(-1.0);
        write_velocity(&path, 0, 0.0, &f).unwrap();
        let mut buf = VectorField::zeros(Dims::new(4, 3, 2));
        let h = read_velocity_into(&path, &mut buf).unwrap();
        assert_eq!(h.index, 0);
        assert_eq!(buf, f);
    }

    #[test]
    fn velocity_read_into_checks_dims() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        write_velocity(&path, 0, 0.0, &sample_field(0.0)).unwrap();
        let mut wrong = VectorField::zeros(Dims::new(2, 2, 2));
        assert!(read_velocity_into(&path, &mut wrong).is_err());
    }

    #[test]
    fn meta_roundtrip() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("m.dvwm");
        let meta = DatasetMeta {
            name: "tapered-cylinder".into(),
            dims: Dims::TAPERED_CYLINDER,
            timestep_count: 800,
            dt: 0.05,
            coords: VelocityCoords::Grid,
        };
        write_meta(&path, &meta).unwrap();
        assert_eq!(read_meta(&path).unwrap(), meta);
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("junk");
        std::fs::write(&path, b"NOPE12345678").unwrap();
        assert!(matches!(read_grid(&path), Err(FieldError::Format(_))));
        assert!(matches!(read_meta(&path), Err(FieldError::Format(_))));
        assert!(read_velocity(&path).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("trunc.dvwq");
        let f = sample_field(1.0);
        write_velocity(&path, 0, 0.0, &f).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(read_velocity(&path).is_err());
    }

    #[test]
    fn dataset_directory_roundtrip() {
        let dir = tempdir().unwrap();
        let grid = sample_grid();
        let meta = DatasetMeta {
            name: "round".into(),
            dims: grid.dims(),
            timestep_count: 3,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let ds = Dataset::new(
            meta,
            grid,
            vec![sample_field(0.0), sample_field(1.0), sample_field(2.0)],
        )
        .unwrap();
        write_dataset(dir.path(), &ds).unwrap();
        let back = read_dataset(dir.path()).unwrap();
        assert_eq!(back.meta(), ds.meta());
        assert_eq!(back.timesteps(), ds.timesteps());
    }

    #[test]
    fn velocity_paths_are_sorted_and_stable() {
        let dir = Path::new("/data/ds");
        assert_eq!(velocity_path(dir, 0).file_name().unwrap(), "q.00000.dvwq");
        assert_eq!(velocity_path(dir, 799).file_name().unwrap(), "q.00799.dvwq");
        // Lexicographic order == numeric order, so `ls` shows play order.
        assert!(velocity_path(dir, 9) < velocity_path(dir, 10));
    }

    #[test]
    fn v2_velocity_roundtrip_bitwise() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = sample_field(3.5);
        write_velocity_v2(&path, 7, 0.35, &f).unwrap();
        let (h, f2) = read_velocity(&path).unwrap();
        assert_eq!(h.index, 7);
        assert_eq!(h.dims, f.dims());
        for (a, b) in f.as_slice().iter().zip(f2.as_slice()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn v2_spans_multiple_chunks() {
        // > MAX_CHUNK_VALUES points so every component needs 2+ chunks.
        let dims = Dims::new(66, 33, 9); // 19 602 points
        let f = VectorField::from_fn(dims, |i, j, k| {
            Vec3::new(
                (i as f32 * 0.37).sin(),
                (j as f32 * 0.21).cos() * 0.01,
                k as f32 * -1.5,
            )
        });
        assert!(dims.point_count() > crate::codec::MAX_CHUNK_VALUES);
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        write_velocity_v2(&path, 0, 0.0, &f).unwrap();
        let (_, f2) = read_velocity(&path).unwrap();
        for (a, b) in f.as_slice().iter().zip(f2.as_slice()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn v2_truncated_and_corrupt_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = sample_field(1.25);
        write_velocity_v2(&path, 0, 0.0, &f).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncation anywhere in the chunk region fails loudly.
        for cut in [full.len() - 1, full.len() / 2, 30] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(read_velocity(&path).is_err(), "cut={cut}");
        }

        // A flipped payload byte trips the per-chunk checksum.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        let err = read_velocity(&path).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "expected checksum error, got: {err}"
        );

        // Trailing garbage after the chunk table is rejected too.
        let mut padded = full.clone();
        padded.push(0);
        std::fs::write(&path, &padded).unwrap();
        assert!(read_velocity(&path).is_err());
    }

    /// A deterministic field big enough that every component spans two
    /// chunks (6 chunks total), for chunk-granular salvage tests.
    fn multi_chunk_field() -> VectorField {
        let dims = Dims::new(66, 33, 9); // 19 602 points, 2 chunks/component
        VectorField::from_fn(dims, |i, j, k| {
            Vec3::new(
                (i as f32 * 0.37).sin(),
                (j as f32 * 0.21).cos() * 0.01,
                k as f32 * -1.5 + i as f32,
            )
        })
    }

    #[test]
    fn chunk_payload_ranges_cover_exact_chunks() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = multi_chunk_field();
        write_velocity_v2(&path, 0, 0.0, &f).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let ranges = v2_chunk_payload_ranges(&bytes).unwrap();
        assert_eq!(ranges.len(), 6);
        // Ascending, disjoint, inside the file, and the last payload ends
        // exactly at EOF (no trailing bytes in the container).
        let mut prev_end = 0;
        for r in &ranges {
            assert!(r.start >= prev_end && r.end <= bytes.len());
            prev_end = r.end;
        }
        assert_eq!(prev_end, bytes.len());
        // v1 containers have no chunk table.
        write_velocity(&path, 0, 0.0, &sample_field(0.0)).unwrap();
        let v1 = std::fs::read(&path).unwrap();
        assert!(v2_chunk_payload_ranges(&v1).is_err());
    }

    #[test]
    fn salvage_decodes_around_corrupt_chunk() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = multi_chunk_field();
        write_velocity_v2(&path, 4, 0.2, &f).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let ranges = v2_chunk_payload_ranges(&bytes).unwrap();

        // Flip a payload byte of chunk 1 (= U component, second range).
        bytes[ranges[1].start + 3] ^= 0x10;

        // Start from a dirty buffer to prove zero-fill overwrites stale
        // recycled data, not just freshly-zeroed allocations.
        let mut out = VectorField::from_fn(f.dims(), |_, _, _| Vec3::new(9.0, 9.0, 9.0));
        let (h, health) = decode_velocity_salvage_into(&bytes, &mut out).unwrap();
        assert_eq!(h.index, 4);
        assert_eq!(health.chunk_count, 6);
        assert_eq!(health.bad_chunks, vec![1]);
        assert!(!health.is_clean());

        let cv = V2_CHUNK_VALUES;
        for (i, (a, b)) in out.as_slice().iter().zip(f.as_slice()).enumerate() {
            if i < cv {
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "clean U chunk at {i}");
            } else {
                assert_eq!(a.x, 0.0, "zero-filled U range at {i}");
            }
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }

        // The whole-file decoder still rejects the same bytes outright.
        let mut strict = VectorField::zeros(f.dims());
        let err = decode_velocity_into(&bytes, &mut strict).unwrap_err();
        assert!(matches!(err, FieldError::Corrupt(_)), "got: {err}");
    }

    #[test]
    fn chunk_retry_decode_recovers_bad_ranges() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = multi_chunk_field();
        write_velocity_v2(&path, 0, 0.0, &f).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let ranges = v2_chunk_payload_ranges(&clean).unwrap();

        let mut torn = clean.clone();
        torn[ranges[2].start] ^= 0x01; // chunk 2: V component, first range
        torn[ranges[5].start] ^= 0x01; // chunk 5: W component, last range

        let mut out = VectorField::zeros(f.dims());
        let (_, health) = decode_velocity_salvage_into(&torn, &mut out).unwrap();
        assert_eq!(health.bad_chunks, vec![2, 5]);

        // Re-read returned clean bytes: decode only the bad chunks.
        let still_bad = decode_velocity_chunks_into(&clean, &mut out, &health.bad_chunks).unwrap();
        assert!(still_bad.is_empty());
        for (a, b) in out.as_slice().iter().zip(f.as_slice()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }

        // A re-read that is corrupt in the same place reports it still bad.
        let still = decode_velocity_chunks_into(&torn, &mut out, &[2]).unwrap();
        assert_eq!(still, vec![2]);
        // Out-of-range chunk indices are a structural error, not a panic.
        assert!(decode_velocity_chunks_into(&clean, &mut out, &[99]).is_err());
    }

    #[test]
    fn salvage_is_all_or_nothing_for_v1_and_structural_damage() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = sample_field(2.0);
        write_velocity(&path, 1, 0.1, &f).unwrap();
        let v1 = std::fs::read(&path).unwrap();
        let mut out = VectorField::zeros(f.dims());
        let (h, health) = decode_velocity_salvage_into(&v1, &mut out).unwrap();
        assert_eq!(h.index, 1);
        assert_eq!(health.chunk_count, 0);
        assert!(health.is_clean());
        assert_eq!(out, f);
        // Chunk-level decode is meaningless on v1.
        assert!(decode_velocity_chunks_into(&v1, &mut out, &[0]).is_err());

        // Structural damage (truncation into the chunk table) is not
        // salvageable: the salvage decoder refuses rather than guessing.
        write_velocity_v2(&path, 1, 0.1, &f).unwrap();
        let v2 = std::fs::read(&path).unwrap();
        let cut = &v2[..30];
        assert!(decode_velocity_salvage_into(cut, &mut out).is_err());
    }

    #[test]
    fn wrong_version_header_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        write_velocity(&path, 0, 0.0, &sample_field(0.0)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_velocity(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
    }

    #[test]
    fn v2_dataset_directory_roundtrip_and_migration() {
        let dir = tempdir().unwrap();
        let v1_dir = dir.path().join("v1");
        let v2_dir = dir.path().join("v2");
        let migrated_dir = dir.path().join("migrated");
        let grid = sample_grid();
        let meta = DatasetMeta {
            name: "round".into(),
            dims: grid.dims(),
            timestep_count: 3,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let ds = Dataset::new(
            meta,
            grid,
            vec![sample_field(0.0), sample_field(1.0), sample_field(2.0)],
        )
        .unwrap();

        write_dataset(&v1_dir, &ds).unwrap();
        write_dataset_v2(&v2_dir, &ds).unwrap();
        let back_v2 = read_dataset(&v2_dir).unwrap();
        assert_eq!(back_v2.meta(), ds.meta());
        assert_eq!(back_v2.timesteps(), ds.timesteps());

        let n = migrate_dataset_to_v2(&v1_dir, &migrated_dir).unwrap();
        assert_eq!(n, 3);
        let back_migrated = read_dataset(&migrated_dir).unwrap();
        assert_eq!(back_migrated.timesteps(), ds.timesteps());

        // Migrated files really are v2 containers.
        let bytes = std::fs::read(velocity_path(&migrated_dir, 0)).unwrap();
        assert_eq!(&bytes[4..8], &DATASET_FORMAT_VERSION.to_le_bytes());
    }

    #[test]
    fn migration_rejects_in_place() {
        let dir = tempdir().unwrap();
        assert!(migrate_dataset_to_v2(dir.path(), dir.path()).is_err());
    }

    /// Size fields come from untrusted headers: each count is bounded by
    /// the bytes present before anything is allocated for it, so a torn
    /// or hostile file is a named error, never an allocation abort.
    #[test]
    fn hostile_size_fields_are_refused_before_allocating() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let file = |path: &Path, magic: &[u8], words: &[u32]| {
            let mut bytes = magic.to_vec();
            words
                .iter()
                .for_each(|w| bytes.extend_from_slice(&w.to_le_bytes()));
            std::fs::write(path, &bytes).unwrap();
        };
        // 28 bytes claiming 4096³ points (6.9e10 points, 824 GB as a
        // field): a v1 payload that is not 12 B a point, a refused version,
        // and a chunked file torn before its chunk table.
        for version in [1, 2, 3] {
            file(&path, b"DVWQ", &[version, 4096, 4096, 4096, 0, 0]);
            match read_velocity(&path).unwrap_err() {
                FieldError::Format(_) if version < 3 => {}
                FieldError::Corrupt(m) if version == 3 => assert!(m.contains("truncated")),
                err => panic!("v{version}: {err}"),
            }
        }
        // Dims whose point count overflows, and a chunk table that claims
        // more descriptors than the file holds.
        file(&path, b"DVWQ", &[3, u32::MAX, u32::MAX, u32::MAX, 0, 0]);
        let err = read_velocity(&path).unwrap_err().to_string();
        assert!(err.contains("overflows a point count"), "{err}");
        file(
            &path,
            b"DVWQ",
            &[3, 4096, 4096, 4096, 0, 0, 16384, 12_582_912],
        );
        let err = read_velocity(&path).unwrap_err().to_string();
        assert!(err.contains("chunk count 12582912"), "{err}");
        // A grid file whose dims the file cannot hold.
        let grid = dir.path().join("g.dvwg");
        file(&grid, b"DVWG", &[1, 4096, 4096, 4096]);
        let err = read_grid(&grid).unwrap_err();
        assert!(matches!(err, FieldError::Format(_)), "{err}");
        // A meta file claiming u32::MAX timesteps: nothing is reserved
        // for them, and the first missing timestep file is the error.
        write_grid(&grid_path(dir.path()), &sample_grid()).unwrap();
        let meta = DatasetMeta {
            name: "huge".into(),
            dims: Dims::new(4, 3, 2),
            timestep_count: u32::MAX as usize,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        write_meta(&meta_path(dir.path()), &meta).unwrap();
        write_velocity(&velocity_path(dir.path(), 0), 0, 0.0, &sample_field(0.0)).unwrap();
        assert!(matches!(read_dataset(dir.path()), Err(FieldError::Io(_))));
    }

    #[test]
    fn file_size_matches_table2_accounting() {
        // Table 2's "bytes in a timestep" is 12 B per grid point; our file
        // adds only a fixed 28-byte header.
        let dir = tempdir().unwrap();
        let path = dir.path().join("q.dvwq");
        let f = sample_field(0.0);
        write_velocity(&path, 0, 0.0, &f).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let payload = f.dims().timestep_bytes() as u64;
        assert_eq!(len, payload + 28);
    }
}
