//! Property tests for the predictive point codec (`dlib::wire::
//! put_point_path` / `WireReader::point_path`, DESIGN.md §6.8): lossless
//! on every `u32` triple, equal to a straight-line reference encoder,
//! inside its size bounds, canonical (a decoded byte string is the
//! encoding of what it decodes to), and a typed error — never a panic —
//! on anything malformed.
//!
//! Case count honors `PROPTEST_CASES` (check.sh runs these at 64, in
//! release mode: the wrapping arithmetic must hold without debug
//! overflow checks to lean on).

use bytes::BytesMut;
use dlib::wire::{put_point_path, WireReader};
use dlib::DlibError;
use proptest::prelude::*;

type Bits = [u32; 3];

/// The 1992 wire cost of a path, for the ratio bound.
const SLAB_BYTES_PER_POINT: usize = 12;

fn encode(points: &[Bits]) -> Vec<u8> {
    let mut b = BytesMut::new();
    put_point_path(&mut b, points.iter().copied());
    b.to_vec()
}

fn decode(bytes: &[u8], max_points: usize) -> Result<(Vec<Bits>, usize), DlibError> {
    let mut r = WireReader::new(bytes);
    let points = r.point_path(max_points)?;
    Ok((points, r.remaining()))
}

fn protocol_error(res: Result<(Vec<Bits>, usize), DlibError>) -> String {
    match res {
        Err(DlibError::Protocol(m)) => m,
        other => panic!("expected a Protocol error, got {other:?}"),
    }
}

/// The codec restated without scratch, accumulators or overlapping
/// stores: explicit order 0 / 1 / 2 prediction, signed zig-zag, each
/// block's widths from an explicit maximum, and every run packed bit by
/// bit.
mod reference_points {
    pub fn encode(points: &[super::Bits]) -> Vec<u8> {
        let mut zigzags = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let mut z = [0u32; 3];
            for c in 0..3 {
                let predicted = match i {
                    0 => 0,
                    1 => points[0][c],
                    _ => (points[i - 1][c].wrapping_mul(2)).wrapping_sub(points[i - 2][c]),
                };
                let residual = p[c].wrapping_sub(predicted) as i32;
                z[c] = ((residual << 1) ^ (residual >> 31)) as u32;
            }
            zigzags.push(z);
        }
        let mut out = (points.len() as u32).to_le_bytes().to_vec();
        for block in zigzags.chunks(8) {
            let mut codes = [0u16; 3];
            let mut widths = [0usize; 3];
            for c in 0..3 {
                let max = block.iter().map(|z| z[c]).max().unwrap();
                let mut bits = 0;
                while bits < 32 && max >> bits != 0 {
                    bits += 1;
                }
                // Code 31 stands for 32 bits.
                (codes[c], widths[c]) = if bits >= 31 {
                    (31, 32)
                } else {
                    (bits as u16, bits)
                };
            }
            out.extend_from_slice(&(codes[0] | codes[1] << 5 | codes[2] << 10).to_le_bytes());
            for c in 0..3 {
                let mut stream = Vec::new();
                for z in block {
                    for bit in 0..widths[c] {
                        stream.push((z[c] >> bit) & 1 == 1);
                    }
                }
                for byte in stream.chunks(8) {
                    let mut v = 0u8;
                    for (k, &set) in byte.iter().enumerate() {
                        v |= u8::from(set) << k;
                    }
                    out.push(v);
                }
            }
        }
        out
    }
}

/// Bit patterns with the adversarial ones over-represented: NaN payloads
/// (quiet and signaling), ±0.0, ±inf, denormals, the extremes of `u32`.
fn hostile_bits() -> impl Strategy<Value = u32> {
    (0u32..12, any::<u32>()).prop_map(|(pick, raw)| match pick {
        0 => 0x7fc0_0000 | (raw & 0x003f_ffff), // quiet NaN, any payload
        1 => 0x7f80_0001 | (raw & 0x003f_ffff), // signaling NaN
        2 => 0x8000_0000,                       // -0.0
        3 => 0,
        4 => f32::INFINITY.to_bits(),
        5 => f32::NEG_INFINITY.to_bits(),
        6 => raw & 0x007f_ffff, // denormal (or zero)
        7 => u32::MAX,
        _ => raw,
    })
}

fn hostile_path(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Bits>> {
    let point = (hostile_bits(), hostile_bits(), hostile_bits()).prop_map(|(x, y, z)| [x, y, z]);
    proptest::collection::vec(point, len)
}

/// 501 points of a helix, as an RK2 streamline round a cylinder looks.
fn helix(scale: f32) -> Vec<Bits> {
    (0..501)
        .map(|i| {
            let t = i as f32 * 0.02;
            [scale * t.cos(), scale * t.sin(), scale * 0.1 * t].map(f32::to_bits)
        })
        .collect()
}

/// Byte offsets of each block header in an encoded path.
fn block_headers(bytes: &[u8]) -> Vec<usize> {
    let n = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    (0..n.div_ceil(8))
        .map(|blk| {
            let at = pos;
            let header = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            let m = (n - 8 * blk).min(8);
            pos += 2;
            for c in 0..3 {
                let code = usize::from(header >> (5 * c) & 31);
                pos += (m * if code == 31 { 32 } else { code }).div_ceil(8);
            }
            at
        })
        .collect()
}

proptest! {
    #[test]
    fn prop_round_trip_is_bit_exact(points in hostile_path(0..400)) {
        let bytes = encode(&points);
        let (back, left) = decode(&bytes, points.len()).unwrap();
        prop_assert_eq!(back, points);
        prop_assert_eq!(left, 0);
    }

    /// Lengths 0–3 each take a different predictor order; 7–9 and 15–17
    /// sit on either side of a block boundary.
    #[test]
    fn prop_short_paths_round_trip(points in hostile_path(0..18)) {
        let bytes = encode(&points);
        let (back, left) = decode(&bytes, points.len()).unwrap();
        prop_assert_eq!(back, points);
        prop_assert_eq!(left, 0);
    }

    #[test]
    fn prop_encoder_matches_reference(points in hostile_path(0..300)) {
        prop_assert_eq!(encode(&points), reference_points::encode(&points));
    }

    /// Smooth input through the same comparison: narrow runs, partial
    /// last blocks and the encoder's flushes are what it exercises.
    #[test]
    fn prop_encoder_matches_reference_on_smooth_paths(scale in 1e-3f32..1e3, len in 0usize..501) {
        let points = &helix(scale)[..len];
        prop_assert_eq!(encode(points), reference_points::encode(points));
    }

    #[test]
    fn prop_size_within_bounds_on_random_bits(points in hostile_path(0..300)) {
        let len = encode(&points).len();
        let blocks = points.len().div_ceil(8);
        prop_assert!(len <= 4 + 98 * blocks);
        prop_assert!(len >= 4 + 2 * blocks);
    }

    /// Cut anywhere, the decoder says which block ran out (or that the
    /// count cannot fit) and consumes nothing it can trust.
    #[test]
    fn prop_truncation_at_every_offset_is_a_named_error(points in hostile_path(1..40)) {
        let bytes = encode(&points);
        for cut in 0..bytes.len() {
            let m = protocol_error(decode(&bytes[..cut], points.len()));
            prop_assert!(
                m.contains("truncated") || m.contains("point count"),
                "cut at {cut}: {m}"
            );
        }
    }

    #[test]
    fn prop_unused_header_bit_rejected(points in hostile_path(1..40), at in 0usize..5) {
        let mut bytes = encode(&points);
        let headers = block_headers(&bytes);
        let at = at % headers.len();
        bytes[headers[at] + 1] |= 0x80;
        let m = protocol_error(decode(&bytes, points.len()));
        prop_assert!(m.contains(&format!("block {at}: unused header bit")), "{m}");
    }

    /// Flip one to three bits anywhere: the decoder either names the
    /// damage or returns points whose encoding is exactly the damaged
    /// bytes — one byte string per path, so byte equality stays value
    /// equality.
    #[test]
    fn prop_bit_flips_are_rejected_or_canonical(
        points in hostile_path(1..40),
        flips in proptest::collection::vec(any::<u32>(), 1..4),
    ) {
        let mut bytes = encode(&points);
        for f in flips {
            let bit = f as usize % (8 * bytes.len());
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let mut r = WireReader::new(&bytes);
        match r.point_path(64) {
            Ok(back) => {
                let used = bytes.len() - r.remaining();
                prop_assert_eq!(encode(&back), bytes[..used].to_vec());
            }
            Err(DlibError::Protocol(_)) => {}
            Err(e) => prop_assert!(false, "untyped error {e:?}"),
        }
    }
}

/// One path of `n` points, one block, whose x run is `x_run` at width
/// code `x_code` and whose y and z residuals are zero.
fn one_block(n: u32, x_code: u16, x_run: &[u8]) -> Vec<u8> {
    let mut bytes = n.to_le_bytes().to_vec();
    bytes.extend_from_slice(&x_code.to_le_bytes());
    bytes.extend_from_slice(x_run);
    bytes
}

#[test]
fn only_the_narrowest_width_code_is_accepted() {
    // Two points with x residuals 3 and 5 (zig-zag 6, 10): four bits.
    let canonical = one_block(2, 4, &[0xa6]);
    assert_eq!(canonical, encode(&[[3, 0, 0], [8, 0, 0]]));
    assert!(decode(&canonical, 2).is_ok());
    // The same values at five bits, and at code 31 (32 bits).
    let wide = one_block(2, 5, &[0x46, 0x01]);
    let m = protocol_error(decode(&wide, 2));
    assert!(
        m.contains("block 0: component 0 width code 5 is not canonical"),
        "{m}"
    );
    let widest = one_block(2, 31, &[6, 0, 0, 0, 10, 0, 0, 0]);
    let m = protocol_error(decode(&widest, 2));
    assert!(m.contains("width code 31 is not canonical"), "{m}");
    // Code 31 is right for a value that uses bit 30 (31 bits cost 32).
    let bit30 = encode(&[[1 << 30, 0, 0]]);
    assert_eq!(bit30, one_block(1, 31, &(1u32 << 31).to_le_bytes()));
    assert_eq!(decode(&bit30, 1).unwrap().0, vec![[1 << 30, 0, 0]]);
}

#[test]
fn padding_bits_must_be_zero() {
    // One point, x residual 3 (zig-zag 6) at three bits: five pad bits.
    assert_eq!(encode(&[[3, 0, 0]]), one_block(1, 3, &[0x06]));
    for pad in 3..8 {
        let m = protocol_error(decode(&one_block(1, 3, &[0x06 | 1 << pad]), 1));
        assert!(
            m.contains("block 0: component 0 has padding bits set"),
            "{m}"
        );
    }
}

#[test]
fn smooth_paths_cost_under_forty_five_percent_of_the_slab() {
    for scale in [0.05f32, 1.0, 40.0] {
        let points = helix(scale);
        let len = encode(&points).len();
        let slab = SLAB_BYTES_PER_POINT * points.len();
        assert!(
            len * 20 <= slab * 9,
            "helix ×{scale}: {len} B is {:.3} of the {slab} B slab",
            len as f64 / slab as f64
        );
        assert_eq!(decode(&encode(&points), 501).unwrap().0, points);
    }
}

#[test]
fn counts_are_checked_against_the_bytes_present_before_allocating() {
    // A count the rest of the message cannot hold: 2 B (one header) is
    // the least a block of eight points takes, so 80 points need 20.
    let mut bytes = 80u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 19]);
    let m = protocol_error(decode(&bytes, 1000));
    assert!(m.starts_with("point count 80 exceeds"), "{m}");
    bytes.push(0);
    assert_eq!(decode(&bytes, 1000).unwrap().0, vec![[0; 3]; 80]);
    // The largest claim there is, with nothing behind it.
    let m = protocol_error(decode(&u32::MAX.to_le_bytes(), usize::MAX));
    assert!(m.starts_with("point count 4294967295 exceeds"), "{m}");
    // A count that fits the bytes but not the caller's budget.
    let three = encode(&[[1, 2, 3]; 3]);
    let m = protocol_error(decode(&three, 2));
    assert!(
        m.starts_with("point count 3 exceeds") && m.ends_with("budget of 2"),
        "{m}"
    );
    assert!(decode(&three, 3).is_ok());
}

#[test]
fn decoding_stops_at_the_end_of_the_path() {
    // Two paths back to back, then a trailer: each decode consumes
    // exactly its own bytes, as a frame with many paths needs.
    let (a, b) = (helix(1.0), vec![[7u32, 8, 9]]);
    let mut bytes = encode(&a);
    bytes.extend(encode(&b));
    bytes.extend_from_slice(b"tail");
    let mut r = WireReader::new(&bytes);
    let first = r.point_path(501).unwrap();
    let second = r.point_path(501).unwrap();
    assert_eq!(first.len(), 501);
    assert_eq!(second, vec![[7u32, 8, 9]]);
    assert_eq!(r.take(4).unwrap(), b"tail");
}
