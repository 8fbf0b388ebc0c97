//! Property tests for the predictive point codec (`dlib::wire::
//! put_point_path` / `WireReader::point_path`, DESIGN.md §6.8): lossless
//! on every bit pattern, equal to a straight-line reference encoder,
//! inside its size bounds, and a typed error — never a panic — on
//! anything malformed.
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
    put_point_path(&mut b, points.iter().map(|p| p.map(f32::from_bits)));
    b.to_vec()
}

fn decode(bytes: &[u8], max_points: usize) -> Result<(Vec<Bits>, usize), DlibError> {
    let mut r = WireReader::new(bytes);
    let points: Vec<[f32; 3]> = r.point_path(max_points)?;
    let bits = points.into_iter().map(|p| p.map(f32::to_bits)).collect();
    Ok((bits, r.remaining()))
}

fn protocol_error(res: Result<(Vec<Bits>, usize), DlibError>) -> String {
    match res {
        Err(DlibError::Protocol(m)) => m,
        other => panic!("expected a Protocol error, got {other:?}"),
    }
}

/// The codec restated without blocks, scratch or overlapping stores:
/// explicit order 0 / 1 / 2 prediction, signed zig-zag, lengths by range.
mod reference_points {
    pub fn encode(points: &[super::Bits]) -> Vec<u8> {
        let mut out = (points.len() as u32).to_le_bytes().to_vec();
        for (i, p) in points.iter().enumerate() {
            let mut ctrl = 0u8;
            let mut body = Vec::new();
            for c in 0..3 {
                let predicted = match i {
                    0 => 0,
                    1 => points[0][c],
                    _ => (points[i - 1][c].wrapping_mul(2)).wrapping_sub(points[i - 2][c]),
                };
                let residual = p[c].wrapping_sub(predicted) as i32;
                let zigzag = ((residual << 1) ^ (residual >> 31)) as u32;
                let len = match zigzag {
                    0..=0xff => 1,
                    0x100..=0xffff => 2,
                    0x1_0000..=0xff_ffff => 3,
                    _ => 4,
                };
                ctrl |= (len as u8 - 1) << (2 * c);
                body.extend_from_slice(&zigzag.to_le_bytes()[..len]);
            }
            out.push(ctrl);
            out.extend(body);
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

proptest! {
    #[test]
    fn prop_round_trip_is_bit_exact(points in hostile_path(0..400)) {
        let bytes = encode(&points);
        let (back, left) = decode(&bytes, points.len()).unwrap();
        prop_assert_eq!(back, points);
        prop_assert_eq!(left, 0);
    }

    /// Lengths 0–3 each take a different predictor order.
    #[test]
    fn prop_short_paths_round_trip(points in hostile_path(0..4)) {
        let bytes = encode(&points);
        let (back, left) = decode(&bytes, 3).unwrap();
        prop_assert_eq!(back, points);
        prop_assert_eq!(left, 0);
    }

    #[test]
    fn prop_encoder_matches_reference(points in hostile_path(0..300)) {
        prop_assert_eq!(encode(&points), reference_points::encode(&points));
    }

    /// Smooth input through the same comparison: short residuals and
    /// block boundaries (64 points a block) are what it exercises.
    #[test]
    fn prop_encoder_matches_reference_on_smooth_paths(scale in 1e-3f32..1e3) {
        let points = helix(scale);
        prop_assert_eq!(encode(&points), reference_points::encode(&points));
    }

    #[test]
    fn prop_size_within_bounds_on_random_bits(points in hostile_path(0..300)) {
        let len = encode(&points).len();
        prop_assert!(len <= 4 + 13 * points.len());
        prop_assert!(len >= 4 + 4 * points.len());
    }

    /// Cut anywhere, the decoder says which point ran out (or that the
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
    fn prop_unused_control_bits_rejected(points in hostile_path(1..40), at in 0usize..40, bit in 6u8..8) {
        let at = at % points.len();
        let mut bytes = encode(&points);
        // Walk the control bytes to point `at`.
        let mut pos = 4;
        for _ in 0..at {
            let ctrl = bytes[pos];
            pos += 4 + usize::from(ctrl & 3) + usize::from(ctrl >> 2 & 3) + usize::from(ctrl >> 4 & 3);
        }
        bytes[pos] |= 1 << bit;
        let m = protocol_error(decode(&bytes, points.len()));
        prop_assert!(m.contains(&format!("point {at}: unused control bits")), "{m}");
    }
}

#[test]
fn smooth_paths_cost_under_sixty_percent_of_the_slab() {
    for scale in [0.05f32, 1.0, 40.0] {
        let points = helix(scale);
        let len = encode(&points).len();
        let slab = SLAB_BYTES_PER_POINT * points.len();
        assert!(
            len * 10 <= slab * 6,
            "helix ×{scale}: {len} B is {:.3} of the {slab} B slab",
            len as f64 / slab as f64
        );
        assert_eq!(decode(&encode(&points), 501).unwrap().0, points);
    }
}

#[test]
fn counts_are_checked_against_the_bytes_present_before_allocating() {
    // A count the rest of the message cannot hold: 4 B is the least a
    // point takes, so ten points need forty bytes.
    let mut bytes = 10u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 39]);
    let m = protocol_error(decode(&bytes, 1000));
    assert!(m.starts_with("point count 10 exceeds"), "{m}");
    // The largest claim there is, with nothing behind it.
    let m = protocol_error(decode(&u32::MAX.to_le_bytes(), usize::MAX));
    assert!(m.starts_with("point count 4294967295 exceeds"), "{m}");
    // A count that fits the bytes but not the caller's cap.
    let three = encode(&[[1, 2, 3]; 3]);
    let m = protocol_error(decode(&three, 2));
    assert!(m.contains("absurd point count 3"), "{m}");
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
    let first: Vec<[f32; 3]> = r.point_path(501).unwrap();
    let second: Vec<[f32; 3]> = r.point_path(501).unwrap();
    assert_eq!(first.len(), 501);
    assert_eq!(second, vec![[7u32, 8, 9].map(f32::from_bits)]);
    assert_eq!(r.take(4).unwrap(), b"tail");
}
