//! Width-packed runs of eight integers, shared by the two predictive
//! codecs: the wire's point codec (DESIGN.md §6.8) and the dataset's
//! field codec (§6.5). Both predict on bit patterns as wrapping `u32`s,
//! zig-zag the residuals, and pack each run of [`BLOCK`] at the narrowest
//! width that holds it. Eight `w`-bit values are exactly `w` bytes, so
//! every full run is byte-aligned.

/// Values per run.
pub const BLOCK: usize = 8;

/// Bytes an unpack reads: a 32-bit run's last 8-byte load ends at byte 36.
pub const WINDOW: usize = 40;

/// Fold a signed residual into an unsigned one, small magnitudes first.
#[inline]
pub fn zigzag(r: u32) -> u32 {
    (r << 1) ^ 0u32.wrapping_sub(r >> 31)
}

/// Invert [`zigzag`].
#[inline]
pub fn unzigzag(z: u32) -> u32 {
    (z >> 1) ^ 0u32.wrapping_sub(z & 1)
}

/// The narrowest width code for a run whose values OR to `any`, and its
/// width in bits. Codes 0–30 are that many bits; code 31 stands for 32,
/// so a 31-bit run costs 32 (only arbitrary bits ever reach it).
#[inline]
pub fn width_code(any: u32) -> (u32, u32) {
    let code = (32 - any.leading_zeros()).min(31);
    (code, code_width(code))
}

/// The width in bits that a 5-bit width code stands for.
#[inline]
pub fn code_width(code: u32) -> u32 {
    code + u32::from(code == 31)
}

/// Whether `code` is the narrowest for an unpacked run whose values OR
/// to `any`: some value must use bit `code − 1` (code 31: bit 30 or 31).
#[inline]
pub fn is_narrowest(code: u32, any: u32) -> bool {
    any >= (1u32 << code) >> 1
}

/// Unpack the first `m` of eight `w`-bit values stored LSB-first at the
/// front of `window`; the rest read as zero (ORed from registers).
#[inline]
pub fn unpack_run(window: &[u8; WINDOW], w: u32, m: usize) -> [u32; BLOCK] {
    std::array::from_fn(|k| {
        let at = k * w as usize;
        let mut le = [0u8; 8];
        le.copy_from_slice(&window[at / 8..at / 8 + 8]);
        let b = (u64::from_le_bytes(le) >> (at % 8) & ((1 << w) - 1)).to_le_bytes();
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]) * u32::from(k < m)
    })
}

/// Pack eight values of at most `w` bits LSB-first into `out[..w]`, four
/// to a u64 while they fit, else as two 128-bit halves. Stores reach at
/// most 32 bytes into `out` and leave zeros past the run.
#[inline]
pub fn pack_run(out: &mut [u8], v: &[u32; BLOCK], w: u32) {
    let pair = |a: u32, b: u32| u64::from(a) | u64::from(b) << w;
    if w <= 16 {
        let half = |q: &[u32]| pair(q[0], q[1]) | pair(q[2], q[3]) << (2 * w);
        let run = u128::from(half(&v[..4])) | u128::from(half(&v[4..])) << (4 * w);
        return out[..16].copy_from_slice(&run.to_le_bytes());
    }
    let half = |q: &[u32]| u128::from(pair(q[0], q[1])) | u128::from(pair(q[2], q[3])) << (2 * w);
    let (lo, hi, h) = (half(&v[..4]), half(&v[4..]), w / 2);
    // The high half starts at bit 4w: byte w/2, plus four bits if w is
    // odd, which it shares with the low half's last bits.
    let shared = lo.checked_shr(8 * h).unwrap_or(0);
    out[..16].copy_from_slice(&lo.to_le_bytes());
    let at = h as usize;
    out[at..at + 16].copy_from_slice(&(hi << (4 * (w & 1)) | shared).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_round_trip_at_every_width() {
        for w in 0..=32u32 {
            let mask = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
            let v: [u32; BLOCK] =
                std::array::from_fn(|k| 0x9e37_79b9u32.wrapping_mul(k as u32 + 1) & mask);
            let mut out = [0u8; WINDOW];
            pack_run(&mut out, &v, w);
            assert!(out[w as usize..].iter().all(|&b| b == 0), "w={w}");
            assert_eq!(unpack_run(&out, w, BLOCK), v, "w={w}");
        }
    }

    #[test]
    fn zigzag_orders_by_magnitude_and_inverts() {
        for (r, z) in [(0u32, 0u32), (u32::MAX, 1), (1, 2), (u32::MAX - 1, 3)] {
            assert_eq!(zigzag(r), z);
            assert_eq!(unzigzag(z), r);
        }
        assert_eq!(width_code(0), (0, 0));
        assert_eq!(width_code(1 << 30), (31, 32));
        assert!(is_narrowest(31, 1 << 30) && !is_narrowest(31, (1 << 30) - 1));
    }
}
