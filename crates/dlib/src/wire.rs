//! Length-prefixed binary framing.
//!
//! Every dlib message is `[u32 length (LE)] [payload]`. The length counts
//! the payload only and is capped to keep a corrupt or hostile peer from
//! asking us to allocate gigabytes.

use crate::{DlibError, Result};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{IoSlice, Read, Write};
use vecmath::bitpack::{
    code_width, is_narrowest, pack_run, unpack_run, unzigzag, width_code, zigzag, BLOCK, WINDOW,
};

/// Maximum frame payload: comfortably above the largest geometry frame
/// the windtunnel ships (Table 1's 100 000 particles are 1.2 MB).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Encode a collection length as the wire's `u32` prefix. Saturates
/// instead of truncating: a saturated prefix fails the peer's bounds
/// check outright, whereas a wrapped one silently drops data. Lengths
/// this large can't occur in practice — [`MAX_FRAME`] caps every frame
/// far below 4 GiB.
#[inline]
pub fn len_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `Write::write_all_vectored` is unstable; this is the same loop — one
/// `writev` in the common case.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one frame whose payload is `head` followed by the `body`
/// segments — the only framing implementation. The stack-built prefix
/// leaves in the same vectored write as the payload: no whole-message
/// buffer, no flush (the sink is the socket), and never a tiny segment
/// ahead of the rest, which Nagle and the peer's delayed ACK turn into a
/// 40 ms stall (DESIGN.md §6.7). `keep` caps the payload bytes sent while
/// the prefix still announces them all — the chaos transport's torn
/// frame; real senders pass `usize::MAX`.
pub fn write_frame_parts<B: AsRef<[u8]>>(
    w: &mut impl Write,
    head: &[u8],
    body: &[B],
    keep: usize,
) -> Result<()> {
    let total = head.len() + body.iter().map(|b| b.as_ref().len()).sum::<usize>();
    if total as u64 > MAX_FRAME as u64 {
        return Err(DlibError::Protocol(format!(
            "frame of {total} bytes exceeds cap {MAX_FRAME}"
        )));
    }
    let prefix = len_u32(total).to_le_bytes();
    let mut slices = Vec::with_capacity(2 + body.len());
    slices.push(IoSlice::new(&prefix));
    let mut left = keep;
    for seg in std::iter::once(head).chain(body.iter().map(AsRef::as_ref)) {
        let part = seg.get(..left).unwrap_or(seg);
        left -= part.len();
        // An empty slice at the front would read as a closed peer.
        if !part.is_empty() {
            slices.push(IoSlice::new(part));
        }
    }
    Ok(write_all_vectored(w, &mut slices)?)
}

/// Write one frame from a single contiguous payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    write_frame_parts::<&[u8]>(w, payload, &[], usize::MAX)
}

/// Read one frame; `Err(Disconnected)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Bytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(DlibError::Protocol(format!(
            "peer announced a {len}-byte frame (cap {MAX_FRAME})"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Bytes::from(payload))
}

/// Incremental frame reader that survives read deadlines.
///
/// [`read_frame`] uses `read_exact`, which on a socket with a read
/// timeout can consume *part* of a frame, fail with `WouldBlock`, and
/// discard what it already read — the next attempt then starts mid-frame
/// and the stream desynchronizes. The accumulator instead remembers how
/// far into the current frame it got: on [`DlibError::Timeout`] the
/// caller may do housekeeping (shutdown flags, heartbeat expiry) and call
/// [`FrameAccumulator::read_from`] again to resume byte-exactly.
#[derive(Default)]
pub struct FrameAccumulator {
    len_buf: [u8; 4],
    len_got: usize,
    payload: Vec<u8>,
    payload_got: usize,
}

impl FrameAccumulator {
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// True when some bytes of an incomplete frame have been consumed —
    /// the peer is mid-send, so it is not idle.
    pub fn mid_frame(&self) -> bool {
        self.len_got > 0 || self.payload_got > 0
    }

    fn fill(r: &mut impl Read, buf: &mut [u8], got: &mut usize) -> Result<bool> {
        while *got < buf.len() {
            match r.read(&mut buf[*got..]) {
                Ok(0) => {
                    return if *got == 0 && buf.is_empty() {
                        Ok(true)
                    } else {
                        Err(DlibError::Disconnected)
                    }
                }
                Ok(n) => *got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Read one frame, resuming any partial progress. Returns the payload
    /// once complete; `Err(Timeout)` means "no full frame yet, call
    /// again"; `Err(Disconnected)` on EOF (clean only at a frame
    /// boundary); `Err(Protocol)` on an oversized announcement.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Bytes> {
        if self.payload.is_empty() && self.payload_got == 0 {
            if self.len_got < 4 {
                let mut got = self.len_got;
                // EOF before any length byte is a clean disconnect.
                while got < 4 {
                    match r.read(&mut self.len_buf[got..]) {
                        Ok(0) => {
                            self.len_got = got;
                            return Err(DlibError::Disconnected);
                        }
                        Ok(n) => got += n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            self.len_got = got;
                            return Err(e.into());
                        }
                    }
                }
                self.len_got = got;
            }
            let len = u32::from_le_bytes(self.len_buf);
            if len > MAX_FRAME {
                return Err(DlibError::Protocol(format!(
                    "peer announced a {len}-byte frame (cap {MAX_FRAME})"
                )));
            }
            self.payload = vec![0u8; len as usize];
            self.payload_got = 0;
        }
        let mut got = self.payload_got;
        let res = Self::fill(r, &mut self.payload, &mut got);
        self.payload_got = got;
        res?;
        let payload = std::mem::take(&mut self.payload);
        self.len_got = 0;
        self.payload_got = 0;
        Ok(Bytes::from(payload))
    }
}

/// Primitive encoders shared by the message layer. All little-endian.
pub trait WireWrite {
    fn put_u32_le_(&mut self, v: u32);
    fn put_u64_le_(&mut self, v: u64);
    fn put_f32_le_(&mut self, v: f32);
    fn put_bytes_(&mut self, b: &[u8]);
    fn put_str_(&mut self, s: &str);
    /// Length prefix via [`len_u32`] (saturating, never truncating).
    fn put_len_(&mut self, n: usize) {
        self.put_u32_le_(len_u32(n));
    }
}

impl WireWrite for BytesMut {
    fn put_u32_le_(&mut self, v: u32) {
        self.put_u32_le(v);
    }
    fn put_u64_le_(&mut self, v: u64) {
        self.put_u64_le(v);
    }
    fn put_f32_le_(&mut self, v: f32) {
        self.put_f32_le(v);
    }
    fn put_bytes_(&mut self, b: &[u8]) {
        self.put_u32_le(len_u32(b.len()));
        self.put_slice(b);
    }
    fn put_str_(&mut self, s: &str) {
        self.put_bytes_(s.as_bytes());
    }
}

/// Primitive decoders with bounds checking.
///
/// Borrows the message rather than owning it, so decoders can run
/// directly over a `&[u8]` (e.g. the argument slice a server procedure
/// receives) without first copying into an owned buffer. `Bytes` derefs
/// to `[u8]`, so `WireReader::new(&bytes)` works unchanged.
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.len() < n {
            Err(DlibError::Protocol(format!(
                "truncated message: needed {n} bytes, have {}",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// Consume exactly `n` bytes after a single bounds check.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn u32_le(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64_le(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn f32_le(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Length-prefixed byte run, borrowed from the message.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32_le()? as usize;
        self.take(len)
    }

    pub fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DlibError::Protocol("string is not UTF-8".into()))
    }

    /// Read a `u32` element count and bound it by what the rest of the
    /// message can hold at `min_bytes` per element, so a hostile count is
    /// rejected by name before anything is allocated for it.
    pub fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize> {
        let n = self.u32_le()? as usize;
        if n > self.buf.len() / min_bytes.max(1) {
            return Err(DlibError::Protocol(format!(
                "{what} count {n} exceeds what the remaining {} bytes can hold",
                self.buf.len()
            )));
        }
        Ok(n)
    }

    /// Decode one path written by [`put_point_path`], at most `max_points`
    /// long. Every window read is a checked slice of the message: short,
    /// over-long, non-canonical and malformed input is a `Protocol` error
    /// naming the block, never a panic, and the output allocation is
    /// bounded by the bytes actually present.
    pub fn point_path(&mut self, max_points: usize) -> Result<Vec<[u32; 3]>> {
        let (n, have) = (self.u32_le()? as usize, self.buf.len());
        if n.div_ceil(BLOCK) * 2 > have || n > max_points {
            return Err(DlibError::Protocol(format!(
                "point count {n} exceeds the {have} bytes left or the budget of {max_points}"
            )));
        }
        let mut points = Vec::with_capacity(n);
        let (mut last, mut step, mut z) = ([0u32; 3], [0u32; 3], [[0u32; BLOCK]; 3]);
        for blk in 0..n.div_ceil(BLOCK) {
            let m = (n - blk * BLOCK).min(BLOCK);
            let flaw = |what: String| Err(DlibError::Protocol(format!("block {blk}: {what}")));
            let h = self.take(2)?;
            let header = u32::from(h[0]) | u32::from(h[1]) << 8;
            if header >> 15 != 0 {
                return flaw(format!("unused header bit set ({header:#06x})"));
            }
            for (c, run) in z.iter_mut().enumerate() {
                let code = header >> (5 * c) & 31;
                let w = code_width(code);
                let (bits, left) = (m * w as usize, self.buf.len());
                let len = bits.div_ceil(8);
                if len > left {
                    return flaw(format!("truncated, needs {len} bytes, have {left}"));
                }
                // Read in place, or at the message's end from a zero-padded
                // copy; a full block's constant `m` drops per-value selects.
                let zz = match self.buf.first_chunk::<WINDOW>() {
                    Some(window) if m == BLOCK => unpack_run(window, w, BLOCK),
                    Some(window) => unpack_run(window, w, m),
                    None => {
                        let mut padded = [0u8; WINDOW];
                        padded[..left].copy_from_slice(self.buf);
                        unpack_run(&padded, w, m)
                    }
                };
                // Masked to `w` bits: narrowest iff a value uses bit w − 1.
                if !is_narrowest(code, zz.iter().fold(0, |a, &v| a | v)) {
                    return flaw(format!("component {c} width code {code} is not canonical"));
                }
                if !bits.is_multiple_of(8) && self.buf[len - 1] >> (bits % 8) != 0 {
                    return flaw(format!("component {c} has padding bits set"));
                }
                self.buf = &self.buf[len..];
                *run = zz;
            }
            // [`predict`] as a running step: a residual adds to the step,
            // the step to the last point. The first point (predicted from
            // zero) leaves the step at zero: the second repeats the first.
            let mut block = [[0u32; 3]; BLOCK];
            for (k, out) in block.iter_mut().enumerate() {
                for c in 0..3 {
                    step[c] = step[c].wrapping_add(unzigzag(z[c][k]));
                    last[c] = last[c].wrapping_add(step[c]);
                }
                *out = last;
                step = if blk + k == 0 { [0; 3] } else { step };
            }
            points.extend_from_slice(&block[..m]);
        }
        Ok(points)
    }
}

/// The largest block is its 2-byte header and three 32-bit runs.
const MAX_BLOCK_BYTES: usize = 2 + 3 * 4 * BLOCK;

/// Order-2 linear prediction: the next value continues the step between
/// the last two. Wrapping integer arithmetic, so the residual round-trips
/// every `u32` exactly.
#[inline]
fn predict(p1: u32, p2: u32) -> u32 {
    p1.wrapping_mul(2).wrapping_sub(p2)
}

/// Encode one path of `u32` triples (DESIGN.md §6.8): `[u32 count]`, then
/// per block of eight points a `u16` of three 5-bit width codes (x lowest,
/// top bit zero, 31 meaning 32 bits) and each component's zig-zagged
/// residuals — value minus [`predict`]; the first point predicts from
/// zero, the second from the first — packed LSB-first at that width,
/// zero-padded to a byte. Lossless on every `u32`; a smooth path of
/// lattice integers (the windtunnel's points) costs ≈ 1.3 B/point, any
/// path at most 12.25.
pub fn put_point_path<I>(b: &mut BytesMut, points: I)
where
    I: ExactSizeIterator<Item = [u32; 3]>,
{
    const PER_FLUSH: usize = 8; // blocks staged in a 784-byte stack scratch
    let n = points.len();
    b.reserve(4 + n.div_ceil(BLOCK) * MAX_BLOCK_BYTES);
    b.put_u32_le(len_u32(n));
    let mut scratch = [0u8; PER_FLUSH * MAX_BLOCK_BYTES];
    let (mut off, mut z, mut any) = (0, [[0u32; BLOCK]; 3], [0u32; 3]);
    let (mut p1, mut p2) = ([0u32; 3], [0u32; 3]);
    for (i, cur) in points.enumerate() {
        for c in 0..3 {
            z[c][i % BLOCK] = zigzag(cur[c].wrapping_sub(predict(p1[c], p2[c])));
            any[c] |= z[c][i % BLOCK];
        }
        p2 = if i == 0 { cur } else { p1 };
        p1 = cur;
        let m = i % BLOCK + 1;
        if m < BLOCK && i + 1 < n {
            continue;
        }
        if m < BLOCK {
            // A partial last block's unused slots pack as zero bits.
            z.iter_mut().for_each(|run| run[m..].fill(0));
        }
        let (mut header, mut at) = (0u32, off + 2);
        for (c, run) in z.iter().enumerate() {
            let (code, w) = width_code(any[c]);
            header |= code << (5 * c);
            pack_run(&mut scratch[at..], run, w);
            at += (m * w as usize).div_ceil(8);
        }
        scratch[off..off + 2].copy_from_slice(&header.to_le_bytes()[..2]);
        (off, any) = (at, [0; 3]);
        if off > scratch.len() - MAX_BLOCK_BYTES {
            b.put_slice(&scratch[..off]);
            off = 0;
        }
    }
    b.put_slice(&scratch[..off]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello dlib").unwrap();
        let mut cur = Cursor::new(buf);
        let frame = read_frame(&mut cur).unwrap();
        assert_eq!(&frame[..], b"hello dlib");
    }

    #[test]
    fn empty_frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().len(), 0);
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(&read_frame(&mut cur).unwrap()[..], b"one");
        assert_eq!(&read_frame(&mut cur).unwrap()[..], b"two");
        assert!(matches!(read_frame(&mut cur), Err(DlibError::Disconnected)));
    }

    #[test]
    fn oversized_announcement_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(DlibError::Protocol(_))));
    }

    #[test]
    fn truncated_payload_is_disconnect() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(DlibError::Disconnected)));
    }

    #[test]
    fn primitive_roundtrip() {
        let mut b = BytesMut::new();
        b.put_u32_le_(42);
        b.put_u64_le_(1 << 40);
        b.put_f32_le_(2.5);
        b.put_str_("windtunnel");
        b.put_bytes_(&[1, 2, 3]);
        let buf = b.freeze();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u32_le().unwrap(), 42);
        assert_eq!(r.u64_le().unwrap(), 1 << 40);
        assert_eq!(r.f32_le().unwrap(), 2.5);
        assert_eq!(r.string().unwrap(), "windtunnel");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_primitives_error() {
        let mut b = BytesMut::new();
        b.put_u32_le_(7);
        let buf = b.freeze();
        let mut r = WireReader::new(&buf);
        assert!(r.u64_le().is_err());
        // Bad embedded length.
        let mut b = BytesMut::new();
        b.put_u32_le(1000); // claims 1000 bytes follow
        b.put_slice(b"xy");
        let buf = b.freeze();
        let mut r = WireReader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut b = BytesMut::new();
        b.put_bytes_(&[0xff, 0xfe, 0x00]);
        let buf = b.freeze();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.string(), Err(DlibError::Protocol(_))));
    }

    /// Feeds one byte per read and a `WouldBlock` between bytes — the
    /// worst case a socket read deadline can produce.
    struct Drip {
        data: Vec<u8>,
        pos: usize,
        starve: bool,
    }

    impl Drip {
        fn new(data: Vec<u8>) -> Drip {
            Drip {
                data,
                pos: 0,
                starve: false,
            }
        }
    }

    impl std::io::Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn accumulator_resumes_across_timeouts_byte_exactly() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"persist").unwrap();
        write_frame(&mut wire, b"ence").unwrap();
        let mut drip = Drip::new(wire);
        let mut acc = FrameAccumulator::new();
        let mut frames = Vec::new();
        let mut timeouts = 0;
        while frames.len() < 2 {
            match acc.read_from(&mut drip) {
                Ok(f) => frames.push(f),
                Err(DlibError::Timeout) => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(timeouts < 10_000, "no forward progress");
        }
        assert_eq!(&frames[0][..], b"persist");
        assert_eq!(&frames[1][..], b"ence");
        assert!(timeouts > 0, "the drip must have starved us at least once");
        assert!(!acc.mid_frame());
        // The stream is drained: the next read is a clean disconnect.
        loop {
            match acc.read_from(&mut drip) {
                Err(DlibError::Timeout) => continue,
                Err(DlibError::Disconnected) => break,
                other => panic!("expected clean disconnect, got {other:?}"),
            }
        }
    }

    #[test]
    fn accumulator_eof_before_length_is_clean_disconnect() {
        let mut acc = FrameAccumulator::new();
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            acc.read_from(&mut cur),
            Err(DlibError::Disconnected)
        ));
        assert!(!acc.mid_frame());
    }

    #[test]
    fn accumulator_eof_mid_frame_reports_partial_progress() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"lost in transit").unwrap();
        wire.truncate(wire.len() - 4); // peer died mid-payload
        let mut cur = Cursor::new(wire);
        let mut acc = FrameAccumulator::new();
        assert!(matches!(
            acc.read_from(&mut cur),
            Err(DlibError::Disconnected)
        ));
        assert!(acc.mid_frame(), "partial frame consumed — peer was active");
    }

    #[test]
    fn accumulator_rejects_oversized_announcement() {
        let mut cur = Cursor::new(u32::MAX.to_le_bytes().to_vec());
        let mut acc = FrameAccumulator::new();
        assert!(matches!(
            acc.read_from(&mut cur),
            Err(DlibError::Protocol(_))
        ));
    }

    #[test]
    fn take_advances_exactly() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = WireReader::new(&data);
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 3);
        assert!(r.take(4).is_err());
        assert_eq!(r.take(3).unwrap(), &[3, 4, 5]);
    }
}
