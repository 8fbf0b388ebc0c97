//! Property test of the path lattice (`proto::Lattice`, DESIGN.md §6.8)
//! through the frame codec, on arbitrary f32 coordinates — NaN payloads,
//! ±∞, −0.0, denormals, points far outside the bounds — at every accepted
//! lattice exponent:
//!
//! * encoding is idempotent: a decoded frame re-encodes to exactly the
//!   bytes it came from;
//! * a finite coordinate within `2^18 · q` of zero decodes within `q/2` of
//!   itself, NaN decodes to 0, and anything else saturates to the lattice
//!   value of its sign.
//!
//! Case count honors `PROPTEST_CASES` and the inputs `PROPTEST_SEED`
//! (check.sh runs this at the default seed and at a fresh one).

use proptest::prelude::*;
use vecmath::Vec3;
use windtunnel::proto::{GeometryFrame, Lattice, PathKind, PathMsg};

/// One coordinate, the adversarial kinds over-represented, scaled to the
/// lattice's quantum `q` where the kind has a scale.
fn coordinate(q: f32, (pick, raw, u): (u32, u32, f32)) -> f32 {
    match pick {
        0 => f32::from_bits(raw),
        1 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0][raw as usize % 5],
        2 => f32::from_bits(raw & 0x807f_ffff), // denormal (or ±0)
        3 => u * q * 2f32.powi(30),             // out of bounds
        4 => (u * 4.0).round() * q * 0.125,     // on and between half-quanta
        _ => u * q * 2f32.powi(18),             // within the exact span
    }
}

proptest! {
    #[test]
    fn prop_lattice_is_idempotent_and_within_half_a_quantum(
        exp in Lattice::EXP_RANGE,
        picks in proptest::collection::vec((0u32..8, any::<u32>(), -1.0f32..1.0), 0..90),
    ) {
        let lattice = Lattice::new(exp).unwrap();
        let q = lattice.quantum();
        let coords: Vec<f32> = picks.into_iter().map(|p| coordinate(q, p)).collect();
        let points: Vec<Vec3> = coords.chunks_exact(3).map(|c| Vec3::new(c[0], c[1], c[2])).collect();
        let frame = GeometryFrame {
            timestep: 0,
            time: 0.0,
            revision: 1,
            lattice,
            rakes: vec![],
            paths: vec![PathMsg { rake_id: 1, kind: PathKind::Streak, points: points.clone() }],
            users: vec![],
        };
        let bytes = frame.encode();
        let back = GeometryFrame::decode(&bytes).unwrap();
        prop_assert!(back.encode() == bytes, "decode then encode changed the bytes");
        let limit = ((1 << 24) - 1) as f32 * q;
        let got = back.paths[0].points.iter().flat_map(|p| p.to_array());
        for (x, y) in points.iter().flat_map(|p| p.to_array()).zip(got) {
            if x.is_finite() && x.abs() <= q * 2f32.powi(18) {
                prop_assert!((x - y).abs() <= q / 2.0, "{x:e} decoded to {y:e}, q = {q:e}");
            } else if x.is_nan() {
                prop_assert_eq!(y, 0.0);
            } else {
                prop_assert!(y.abs() <= limit && (y == 0.0 || y.signum() == x.signum()));
                prop_assert!(x.is_finite() || y.abs() == limit, "{x} decoded to {y:e}");
            }
        }
    }
}
