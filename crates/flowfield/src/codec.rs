//! Lossless f32 chunk codec for the chunked dataset container
//! (DESIGN.md §6.5).
//!
//! A chunk is a run of one velocity component's values in the grid's
//! flat order (i fastest). Each value's bit pattern is predicted, as a
//! wrapping `u32`, by the 3-D Lorenzo predictor (Ibarria, Lindstrom,
//! Rossignac & Szymczak, 2003) — the corner sum of its seven lower
//! neighbours:
//!
//! ```text
//! v(i−1) + v(j−1) + v(k−1) − v(i−1,j−1) − v(i−1,k−1) − v(j−1,k−1) + v(i−1,j−1,k−1)
//! ```
//!
//! A neighbour off the grid, or before the chunk's first value, reads as
//! zero, so every chunk decodes on its own. Residuals are zig-zagged and
//! packed eight to a block (`vecmath::bitpack`): a 1-byte header holding
//! the width code in bits 0–4 (31 standing for 32 bits; bits 5–7 zero),
//! then the eight residuals LSB-first at that width — exactly `w` bytes,
//! or `⌈m·w/8⌉` zero-padded bytes for a last block of `m < 8`.
//!
//! Wrapping arithmetic makes the round trip exact on every bit pattern —
//! NaN payloads, `-0.0` and denormals included. The worst case is
//! 4.125 B a value, so a chunk that does not shrink is stored raw and no
//! chunk exceeds its raw size. The decoder is canonical: it accepts a
//! payload only if it is the encoding of what it decodes to, and reports
//! anything else as [`FieldError::Corrupt`] naming the block — the class
//! the resilient storage layer keys its re-read/salvage policy on.

use crate::{FieldError, Result};
use vecmath::bitpack::{
    code_width, is_narrowest, pack_run, unpack_run, unzigzag, width_code, zigzag, BLOCK, WINDOW,
};

/// Maximum values per chunk (64 KiB of raw f32 payload): four k-planes of
/// the 64×64×32 tapered cylinder.
pub const MAX_CHUNK_VALUES: usize = 16 * 1024;

/// Chunk stored as raw little-endian f32s (incompressible fallback).
pub const METHOD_RAW: u32 = 0;
/// Chunk stored as Lorenzo residuals packed per 8-value block. (Tag 1,
/// the retired LZ pipeline, is not reused.)
pub const METHOD_LORENZO: u32 = 2;

/// FNV-1a 32-bit checksum of a byte slice (over the *compressed* bytes,
/// so corruption is caught before the decoder runs).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn corrupt(what: &str) -> FieldError {
    FieldError::Corrupt(format!("compressed chunk corrupt: {what}"))
}

/// Where a chunk sits in its component plane: the grid's `ni` and `nj`,
/// and the flat index of the chunk's first value.
#[derive(Debug, Clone, Copy)]
pub struct ChunkShape {
    pub ni: usize,
    pub nj: usize,
    pub start: usize,
}

impl ChunkShape {
    /// The row segments of an `n`-value chunk as `(at, len, backs)`: each
    /// runs to the end of its grid row or of the chunk, and `backs` says how
    /// far behind its neighbour rows (j−1), (k−1) and (j−1, k−1) lie —
    /// `None` for a row off the grid.
    fn rows(self, n: usize) -> impl Iterator<Item = (usize, usize, [Option<usize>; 3])> {
        let (ni, nj, p, mut at) = (self.ni.max(1), self.nj.max(1), self.start, 0);
        let (mut i, mut j, mut k) = (p % ni, p / ni % nj, p / (ni * nj));
        std::iter::from_fn(move || {
            let len = (ni - i).min(n.checked_sub(at).filter(|&l| l > 0)?);
            let on = |on_grid: bool, back: usize| on_grid.then_some(back);
            let backs = [
                on(j > 0, ni),
                on(k > 0, ni * nj),
                on(j > 0 && k > 0, ni + ni * nj),
            ];
            at += len;
            (i, j) = (0, (j + 1) % nj);
            k += usize::from(j == 0);
            Some((at - len, len, backs))
        })
    }
}

/// Add to the segment `cur`, at chunk offset `at`, its corner terms
/// `up + back − up_back` read from `src` — or subtract them, if `negate`.
/// A neighbour before the chunk's first value reads as zero.
fn corners(src: &[f32], cur: &mut [f32], at: usize, backs: [Option<usize>; 3], negate: bool) {
    for (back, minus) in backs.into_iter().zip([false, false, true]) {
        let Some(back) = back else { continue };
        let skip = back.saturating_sub(at);
        if skip >= cur.len() {
            continue;
        }
        // Two's-complement negation as `(u ^ m) − m`: branch-free, SIMD-able.
        let m = 0u32.wrapping_sub(u32::from(minus != negate));
        for (v, u) in cur[skip..].iter_mut().zip(&src[at + skip - back..]) {
            let u = (u.to_bits() ^ m).wrapping_sub(m);
            *v = f32::from_bits(v.to_bits().wrapping_add(u));
        }
    }
}

/// Compress one chunk of component values at `shape`. Appends the payload
/// to `out` (cleared first) and returns the method tag: [`METHOD_LORENZO`],
/// or [`METHOD_RAW`] when packing does not shrink the chunk.
///
/// Per row segment the Lorenzo residual is `r = Δᵢ(v − d)`, with
/// `d = up + back − up_back` and the difference restarting at the
/// segment's first value: the seven-term sum, regrouped.
pub fn compress_chunk(values: &[f32], shape: ChunkShape, out: &mut Vec<u8>) -> u32 {
    let mut res = values.to_vec();
    for (at, len, backs) in shape.rows(values.len()) {
        let cur = &mut res[at..at + len];
        corners(values, cur, at, backs, true);
        let mut prev = 0u32;
        for t in cur.iter_mut() {
            let bits = t.to_bits();
            (*t, prev) = (f32::from_bits(bits.wrapping_sub(prev)), bits);
        }
    }
    out.clear();
    for run in res.chunks(BLOCK) {
        let mut z = [0u32; BLOCK];
        for (z, r) in z.iter_mut().zip(run) {
            *z = zigzag(r.to_bits());
        }
        let (code, w) = width_code(z.iter().fold(0, |a, &v| a | v));
        let at = out.len();
        out.resize(at + 1 + 4 * BLOCK, 0);
        out[at] = code.to_le_bytes()[0];
        pack_run(&mut out[at + 1..], &z, w);
        out.truncate(at + 1 + (run.len() * w as usize).div_ceil(8));
    }
    if out.len() < values.len() * 4 {
        return METHOD_LORENZO;
    }
    out.clear();
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    METHOD_RAW
}

/// Decompress one chunk at `shape` into `out` (its length selects the
/// expected value count). The compressed bytes are untrusted: anything
/// but the unique encoding of some chunk is an error, never a panic.
pub fn decompress_chunk(
    method: u32,
    comp: &[u8],
    shape: ChunkShape,
    out: &mut [f32],
) -> Result<()> {
    match method {
        METHOD_RAW => {
            if comp.len() != out.len() * 4 {
                return Err(corrupt("raw chunk has wrong length"));
            }
            for (v, b) in out.iter_mut().zip(comp.chunks_exact(4)) {
                *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
            Ok(())
        }
        METHOD_LORENZO => {
            if comp.len() >= out.len() * 4 {
                return Err(corrupt("packed chunk is no smaller than raw"));
            }
            unpack_residuals(comp, out)?;
            unpredict(shape, out);
            Ok(())
        }
        m => Err(corrupt(&format!("unknown method tag {m}"))),
    }
}

/// Unpack every block's zig-zagged residuals into `out` as bit patterns,
/// checking that the payload is canonical and exactly consumed. Full
/// blocks take a loop of their own: a constant run length drops the
/// per-value selects.
fn unpack_residuals(comp: &[u8], out: &mut [f32]) -> Result<()> {
    let (full, last) = out.as_chunks_mut::<BLOCK>();
    let mut rest = comp;
    for (blk, run) in full.iter_mut().enumerate() {
        rest = unpack_block(blk, rest, run)?;
    }
    if !last.is_empty() {
        rest = unpack_block(full.len(), rest, last)?;
    }
    match rest.len() {
        0 => Ok(()),
        n => Err(corrupt(&format!("{n} bytes past the last block"))),
    }
}

/// Unpack block `blk` — its header and run — from the front of `rest`
/// into `run`, and return the bytes after it.
#[inline(always)]
fn unpack_block<'a>(blk: usize, rest: &'a [u8], run: &mut [f32]) -> Result<&'a [u8]> {
    let flaw = |what: String| Err(corrupt(&format!("block {blk}: {what}")));
    let Some((&h, tail)) = rest.split_first() else {
        return flaw("truncated before its header".into());
    };
    if h >> 5 != 0 {
        return flaw(format!("unused header bit set ({h:#04x})"));
    }
    let (code, m) = (u32::from(h), run.len());
    let w = code_width(code);
    let bits = m * w as usize;
    let len = bits.div_ceil(8);
    if len > tail.len() {
        return flaw(format!("truncated, needs {len} bytes, have {}", tail.len()));
    }
    // Read in place, or at the payload's end from a zero-padded copy.
    let z = match tail.first_chunk::<WINDOW>() {
        Some(window) => unpack_run(window, w, m),
        None => {
            let mut padded = [0u8; WINDOW];
            padded[..tail.len()].copy_from_slice(tail);
            unpack_run(&padded, w, m)
        }
    };
    if !is_narrowest(code, z.iter().fold(0, |a, &v| a | v)) {
        return flaw(format!("width code {code} is not the narrowest"));
    }
    if !bits.is_multiple_of(8) && tail[len - 1] >> (bits % 8) != 0 {
        return flaw("padding bits set".into());
    }
    for (v, z) in run.iter_mut().zip(z) {
        *v = f32::from_bits(unzigzag(z));
    }
    Ok(&tail[len..])
}

/// Invert [`compress_chunk`]'s residuals in place, in flat order, so each
/// segment's corner terms read decoded values: `v = Σᵢr + d`, a running
/// sum along the segment, then the corner rows added across it.
fn unpredict(shape: ChunkShape, out: &mut [f32]) {
    for (at, len, backs) in shape.rows(out.len()) {
        let (done, cur) = out.split_at_mut(at);
        let cur = &mut cur[..len];
        let mut left = 0u32;
        for v in cur.iter_mut() {
            left = left.wrapping_add(v.to_bits());
            *v = f32::from_bits(left);
        }
        corners(done, cur, at, backs, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ChunkShape = ChunkShape {
        ni: 64,
        nj: 64,
        start: 0,
    };

    fn roundtrip(values: &[f32]) -> (u32, usize) {
        let mut comp = Vec::new();
        let method = compress_chunk(values, SHAPE, &mut comp);
        let mut back = vec![0.0f32; values.len()];
        decompress_chunk(method, &comp, SHAPE, &mut back).expect("decode");
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise roundtrip");
        }
        (method, comp.len())
    }

    #[test]
    fn smooth_data_compresses() {
        let values: Vec<f32> = (0..MAX_CHUNK_VALUES)
            .map(|i| 1.0 + (i as f32) * 1e-4)
            .collect();
        let (method, len) = roundtrip(&values);
        assert_eq!(method, METHOD_LORENZO);
        assert!(
            len < values.len() * 4 / 2,
            "smooth ramp should compress >2x, got {len} of {}",
            values.len() * 4
        );
    }

    #[test]
    fn constant_data_collapses() {
        // Only the first value has a residual (its whole bit pattern, so
        // its block is 32 bits wide); every block pays its header byte.
        let values = vec![3.25f32; 4096];
        let (method, len) = roundtrip(&values);
        assert_eq!(method, METHOD_LORENZO);
        assert_eq!(len, 4096 / BLOCK + 4 * BLOCK);
    }

    #[test]
    fn zeros_collapse() {
        // The floor is one zero header byte per block: 32x.
        let (_, len) = roundtrip(&vec![0.0f32; MAX_CHUNK_VALUES]);
        assert_eq!(len, MAX_CHUNK_VALUES / BLOCK);
    }

    #[test]
    fn random_noise_falls_back_to_raw() {
        // Deterministic xorshift noise — full-entropy mantissas and
        // exponents do not compress, so the raw fallback must kick in
        // and the payload must not expand.
        let mut state = 0x1234_5678_9abc_def0u64;
        let values: Vec<f32> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits((state as u32) | 0x0040_0000)
            })
            .collect();
        let (method, len) = roundtrip(&values);
        assert_eq!(method, METHOD_RAW);
        assert_eq!(len, values.len() * 4);
    }

    #[test]
    fn special_bit_patterns_roundtrip() {
        let values = [
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN with payload
            f32::from_bits(0xffc0_0001), // negative quiet NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            f32::MAX,
            -f32::MAX,
        ];
        roundtrip(&values);
    }

    #[test]
    fn empty_and_tiny_chunks_roundtrip() {
        roundtrip(&[]);
        roundtrip(&[1.5]);
        roundtrip(&[1.5, -2.5, 3.5]);
    }

    #[test]
    fn truncated_stream_rejected() {
        let values: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut comp = Vec::new();
        let method = compress_chunk(&values, SHAPE, &mut comp);
        assert_eq!(method, METHOD_LORENZO);
        let mut back = vec![0.0f32; values.len()];
        for cut in [0, 1, comp.len() / 2, comp.len() - 1] {
            assert!(
                decompress_chunk(method, &comp[..cut], SHAPE, &mut back).is_err(),
                "cut={cut} must be rejected"
            );
        }
    }

    #[test]
    fn wrong_expected_len_rejected() {
        let values: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let mut comp = Vec::new();
        let method = compress_chunk(&values, SHAPE, &mut comp);
        assert_eq!(method, METHOD_LORENZO);
        for n in [96, 99, 101, 104] {
            let mut back = vec![0.0f32; n];
            assert!(
                decompress_chunk(method, &comp, SHAPE, &mut back).is_err(),
                "n={n}"
            );
        }
    }

    #[test]
    fn unknown_method_rejected() {
        let mut out = vec![0.0f32; 4];
        for retired_or_unknown in [1, 3, 99] {
            assert!(decompress_chunk(retired_or_unknown, &[0u8; 16], SHAPE, &mut out).is_err());
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b""), 0x811c_9dc5);
        let a = checksum(b"dvw");
        let mut flipped = b"dvw".to_vec();
        flipped[0] ^= 1;
        assert_ne!(a, checksum(&flipped));
    }
}
