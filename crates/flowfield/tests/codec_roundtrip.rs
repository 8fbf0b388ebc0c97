//! Property tests for the chunk codec (`flowfield::codec`, DESIGN.md
//! §6.5) and the chunked timestep container around it: lossless on every
//! bit pattern (NaNs, negative zero, infinities, denormals), equal to a
//! straight-line reference encoder at every chunk shape, canonical (a
//! payload decodes only if it is the encoding of what it decodes to), and
//! malformed input is rejected by name, never mis-decoded or a panic.
//!
//! Case count honors `PROPTEST_CASES` (check.sh runs these at 64, in
//! release mode, at the default seed and at a fresh `PROPTEST_SEED`).

use flowfield::codec::{self, ChunkShape, METHOD_LORENZO, METHOD_RAW};
use flowfield::format::{self, DATASET_FORMAT_VERSION};
use flowfield::{Dims, FieldError, VectorField};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use vecmath::Vec3;

/// An f32 with adversarial bit patterns mixed in: quiet/signaling NaNs,
/// ±0.0, ±inf, denormals, plus ordinary turbulent-looking magnitudes.
fn hostile_f32(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..10u32) {
        0 => f32::NAN,
        1 => f32::from_bits(0x7f80_0001), // signaling NaN payload
        2 => -0.0,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::from_bits(rng.random_range(1..0x0080_0000)), // denormal
        6 => 0.0,
        _ => (rng.random::<f32>() - 0.5) * 10f32.powi(rng.random_range(-6..6)),
    }
}

fn hostile_field(dims: Dims, seed: u64) -> VectorField {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<Vec3> = (0..dims.point_count())
        .map(|_| {
            Vec3::new(
                hostile_f32(&mut rng),
                hostile_f32(&mut rng),
                hostile_f32(&mut rng),
            )
        })
        .collect();
    let mut field = VectorField::zeros(dims);
    field.as_mut_slice().copy_from_slice(&values);
    field
}

fn assert_bitwise_eq(a: &VectorField, b: &VectorField) {
    for (i, (va, vb)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        for (ca, cb) in [(va.x, vb.x), (va.y, vb.y), (va.z, vb.z)] {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "component differs at point {i}: {ca:?} vs {cb:?}"
            );
        }
    }
}

/// `len` values of a chunk starting at flat index `start` of an
/// `ni × nj × …` grid: a smooth field of the coordinates, with a
/// `hostile` share (0–10) of adversarial bit patterns sprinkled in.
fn chunk_values(shape: ChunkShape, len: usize, hostile: u32, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (shape.start..shape.start + len)
        .map(|p| {
            let (i, j, k) = (
                p % shape.ni,
                p / shape.ni % shape.nj,
                p / (shape.ni * shape.nj),
            );
            if rng.random_range(0..10u32) < hostile {
                return hostile_f32(&mut rng);
            }
            (i as f32 * 0.3).sin() * (1.0 + j as f32 * 0.1) + (k as f32 * 0.7).cos()
        })
        .collect()
}

fn compress(values: &[f32], shape: ChunkShape) -> (u32, Vec<u8>) {
    let mut out = Vec::new();
    (codec::compress_chunk(values, shape, &mut out), out)
}

fn decompress(
    method: u32,
    comp: &[u8],
    shape: ChunkShape,
    n: usize,
) -> Result<Vec<u32>, FieldError> {
    let mut out = vec![0.0f32; n];
    codec::decompress_chunk(method, comp, shape, &mut out)?;
    Ok(out.iter().map(|v| v.to_bits()).collect())
}

fn corrupt_message(res: Result<Vec<u32>, FieldError>) -> String {
    match res {
        Err(FieldError::Corrupt(m)) => m,
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
}

/// The codec restated without rows, masks or word-wide stores: the seven
/// Lorenzo terms written out, the zero rule checked per term, signed
/// zig-zag, each block's width from an explicit maximum, and every run
/// packed bit by bit.
mod reference_chunk {
    use super::ChunkShape;

    pub fn encode(values: &[f32], s: ChunkShape) -> (u32, Vec<u8>) {
        let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        // Off the grid (a negative coordinate) or before the chunk: zero.
        let at = |i: isize, j: isize, k: isize| -> u32 {
            if i < 0 || j < 0 || k < 0 {
                return 0;
            }
            let q = i as usize + s.ni * (j as usize + s.nj * k as usize);
            if q < s.start {
                0
            } else {
                bits[q - s.start]
            }
        };
        let mut zigzags = Vec::new();
        for (n, v) in bits.iter().enumerate() {
            let p = s.start + n;
            let (i, j, k) = (
                (p % s.ni) as isize,
                (p / s.ni % s.nj) as isize,
                (p / (s.ni * s.nj)) as isize,
            );
            let predicted = at(i - 1, j, k)
                .wrapping_add(at(i, j - 1, k))
                .wrapping_add(at(i, j, k - 1))
                .wrapping_sub(at(i - 1, j - 1, k))
                .wrapping_sub(at(i - 1, j, k - 1))
                .wrapping_sub(at(i, j - 1, k - 1))
                .wrapping_add(at(i - 1, j - 1, k - 1));
            let residual = v.wrapping_sub(predicted) as i32;
            zigzags.push(((residual << 1) ^ (residual >> 31)) as u32);
        }
        let mut out = Vec::new();
        for block in zigzags.chunks(8) {
            let max = *block.iter().max().unwrap();
            let mut width = 0;
            while width < 32 && max >> width != 0 {
                width += 1;
            }
            // Code 31 stands for 32 bits.
            let (code, width) = if width >= 31 {
                (31u8, 32)
            } else {
                (width as u8, width)
            };
            out.push(code);
            let mut stream = Vec::new();
            for z in block {
                for bit in 0..width {
                    stream.push((z >> bit) & 1 == 1);
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
        if out.len() < 4 * values.len() {
            return (super::METHOD_LORENZO, out);
        }
        let raw = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        (super::METHOD_RAW, raw)
    }
}

/// A grid of `ni × nj × nk`, a chunk start inside it, and a length.
fn chunk_shape() -> impl Strategy<Value = (ChunkShape, usize)> {
    (1usize..12, 1usize..9, 1usize..6, any::<u32>(), any::<u32>()).prop_map(|(ni, nj, nk, a, b)| {
        let n = ni * nj * nk;
        let start = a as usize % n;
        let len = 1 + b as usize % (n - start);
        (ChunkShape { ni, nj, start }, len)
    })
}

proptest! {
    #[test]
    fn prop_v2_roundtrip_bitwise_identical(
        nx in 2u32..24, ny in 2u32..20, nz in 2u32..16, seed in 0u64..1_000_000,
    ) {
        let dims = Dims::new(nx, ny, nz);
        let field = hostile_field(dims, seed);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("ts.v3");
        format::write_velocity_v2(&path, 7, 0.35, &field).unwrap();
        let (header, decoded) = format::read_velocity(&path).unwrap();
        prop_assert_eq!(header.index, 7);
        prop_assert_eq!(header.dims, dims);
        assert_bitwise_eq(&field, &decoded);
    }

    #[test]
    fn prop_chunk_codec_roundtrip((shape, len) in chunk_shape(), hostile in 0u32..11, seed in 0u64..1_000_000) {
        let values = chunk_values(shape, len, hostile, seed);
        let (method, comp) = compress(&values, shape);
        let back = decompress(method, &comp, shape, len).unwrap();
        let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back, bits);
    }

    /// Random grids and chunk starts — aligned, cutting a plane, cutting
    /// a row — with hostile bits at every density from none to all.
    #[test]
    fn prop_encoder_matches_reference((shape, len) in chunk_shape(), hostile in 0u32..11, seed in 0u64..1_000_000) {
        let values = chunk_values(shape, len, hostile, seed);
        prop_assert_eq!(compress(&values, shape), reference_chunk::encode(&values, shape));
    }

    /// Cut anywhere, the decoder names the block that ran out.
    #[test]
    fn prop_truncation_at_every_offset_is_a_named_error((shape, len) in chunk_shape(), seed in 0u64..1_000_000) {
        let values = chunk_values(shape, len, 1, seed);
        let (method, comp) = compress(&values, shape);
        prop_assume!(method == METHOD_LORENZO);
        for cut in 0..comp.len() {
            let m = corrupt_message(decompress(method, &comp[..cut], shape, len));
            prop_assert!(m.contains("block ") && m.contains("truncated"), "cut at {}: {}", cut, m);
        }
    }

    #[test]
    fn prop_unused_header_bit_rejected((shape, len) in chunk_shape(), bit in 5u32..8, seed in 0u64..1_000_000) {
        let values = chunk_values(shape, len, 0, seed);
        let (method, mut comp) = compress(&values, shape);
        prop_assume!(method == METHOD_LORENZO);
        comp[0] |= 1 << bit;
        let m = corrupt_message(decompress(method, &comp, shape, len));
        prop_assert!(m.contains("block 0: unused header bit"), "{}", m);
    }

    /// Flip one to three bits of a packed payload, past the container's
    /// checksum: the decoder either names the damage or returns values
    /// whose encoding is exactly the damaged bytes.
    #[test]
    fn prop_bit_flips_are_rejected_or_canonical(
        (shape, len) in chunk_shape(),
        hostile in 0u32..3,
        seed in 0u64..1_000_000,
        flips in proptest::collection::vec(any::<u32>(), 1..4),
    ) {
        let values = chunk_values(shape, len, hostile, seed);
        let (method, mut comp) = compress(&values, shape);
        prop_assume!(method == METHOD_LORENZO);
        for f in flips {
            let bit = f as usize % (8 * comp.len());
            comp[bit / 8] ^= 1 << (bit % 8);
        }
        match decompress(method, &comp, shape, len) {
            Ok(back) => {
                let back: Vec<f32> = back.into_iter().map(f32::from_bits).collect();
                prop_assert_eq!(compress(&back, shape), (method, comp));
            }
            Err(FieldError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "untyped error {:?}", e),
        }
    }

    #[test]
    fn prop_truncated_v2_rejected(seed in 0u64..10_000, cut in 1usize..200) {
        let dims = Dims::new(6, 5, 4);
        let field = hostile_field(dims, seed);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("ts.v3");
        format::write_velocity_v2(&path, 0, 0.0, &field).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = cut.min(bytes.len() - 1);
        let truncated = &bytes[..bytes.len() - cut];
        let mut into = VectorField::zeros(dims);
        prop_assert!(format::decode_velocity_into(truncated, &mut into).is_err());
    }

    #[test]
    fn prop_corrupt_v2_never_silently_wrong(seed in 0u64..10_000, victim in 28usize..400) {
        // Flip one byte past the common header: decode must either error
        // (framing checks, checksum, canonical decoder) or return the
        // original bits — never different bits without an error.
        let dims = Dims::new(6, 5, 4);
        let field = hostile_field(dims, seed);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("ts.v3");
        format::write_velocity_v2(&path, 0, 0.0, &field).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = victim.min(bytes.len() - 1);
        bytes[victim] ^= 0xa5;
        let mut into = VectorField::zeros(dims);
        if format::decode_velocity_into(&bytes, &mut into).is_ok() {
            assert_bitwise_eq(&field, &into);
        }
    }
}

/// Every chunk-start class on one small grid (5 × 4 × 4): aligned,
/// on a plane, on a row that cuts the plane, and mid-row; each at
/// lengths whose last block holds 1–8 values, smooth and hostile.
#[test]
fn encoder_matches_reference_at_every_start_class_and_last_block_length() {
    for start in [0, 20, 25, 7, 33] {
        let shape = ChunkShape {
            ni: 5,
            nj: 4,
            start,
        };
        for len in (8..=16).chain([80 - start]) {
            for hostile in [0, 2, 10] {
                let values = chunk_values(shape, len, hostile, (start * 100 + len) as u64);
                let (method, comp) = compress(&values, shape);
                assert_eq!(
                    (method, comp.clone()),
                    reference_chunk::encode(&values, shape),
                    "start {start}, len {len}, hostile {hostile}"
                );
                let back = decompress(method, &comp, shape, len).unwrap();
                assert!(back.iter().zip(&values).all(|(b, v)| *b == v.to_bits()));
            }
        }
    }
}

#[test]
fn only_the_narrowest_width_code_is_accepted() {
    let shape = ChunkShape {
        ni: 16,
        nj: 1,
        start: 0,
    };
    // Sixteen zeros: two blocks at width code 0, one header byte each.
    assert_eq!(compress(&[0.0; 16], shape), (METHOD_LORENZO, vec![0, 0]));
    // The same zeros at one bit wide, and at code 31 (32 bits).
    let m = corrupt_message(decompress(METHOD_LORENZO, &[1, 0, 0], shape, 16));
    assert!(
        m.contains("block 0: width code 1 is not the narrowest"),
        "{m}"
    );
    let mut widest = vec![31u8];
    widest.extend([0u8; 32]);
    widest.push(0);
    let m = corrupt_message(decompress(METHOD_LORENZO, &widest, shape, 16));
    assert!(
        m.contains("block 0: width code 31 is not the narrowest"),
        "{m}"
    );
    // Code 31 is right for a residual that uses bit 30 (31 bits cost 32):
    // a first value of 2^29 zig-zags to 2^30.
    let mut values = [0.0f32; 16];
    values[0] = f32::from_bits(1 << 29);
    let (method, comp) = compress(&values, shape);
    assert_eq!((method, comp[0], comp.len()), (METHOD_LORENZO, 31, 34));
    assert_eq!(decompress(method, &comp, shape, 16).unwrap()[0], 1 << 29);
}

#[test]
fn padding_bits_must_be_zero() {
    // Nine values: the second block holds one residual, 3 (zig-zag 6),
    // at three bits, so its byte has five pad bits.
    let shape = ChunkShape {
        ni: 9,
        nj: 1,
        start: 0,
    };
    let mut values = [0.0f32; 9];
    values[8] = f32::from_bits(3);
    let (method, comp) = compress(&values, shape);
    assert_eq!((method, comp.clone()), (METHOD_LORENZO, vec![0, 3, 0x06]));
    for pad in 3..8 {
        let mut bad = comp.clone();
        bad[2] |= 1 << pad;
        let m = corrupt_message(decompress(method, &bad, shape, 9));
        assert!(m.contains("block 1: padding bits set"), "{m}");
    }
}

#[test]
fn long_and_oversized_payloads_are_rejected() {
    let shape = ChunkShape {
        ni: 16,
        nj: 1,
        start: 0,
    };
    let m = corrupt_message(decompress(METHOD_LORENZO, &[0, 0, 0], shape, 16));
    assert!(m.contains("1 bytes past the last block"), "{m}");
    // A packed payload no smaller than raw is never what the encoder
    // writes (it stores such a chunk raw).
    let m = corrupt_message(decompress(METHOD_LORENZO, &[0; 4], shape, 1));
    assert!(m.contains("no smaller than raw"), "{m}");
    // Tag 1, the retired LZ pipeline, is an unknown method.
    let m = corrupt_message(decompress(1, &[0; 4], shape, 4));
    assert!(m.contains("unknown method tag 1"), "{m}");
}

#[test]
fn wrong_version_rejected() {
    let dims = Dims::new(4, 4, 4);
    let field = hostile_field(dims, 1);
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("ts.v3");
    format::write_velocity_v2(&path, 0, 0.0, &field).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[4..8], 3u32.to_le_bytes());
    // A future version, and version 2 (the retired LZ container): both
    // are refused at the header by name, not as corrupt data that a
    // resilient store would retry or zero-fill.
    for version in [DATASET_FORMAT_VERSION + 1, 2] {
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let mut into = VectorField::zeros(dims);
        match format::decode_velocity_into(&bytes, &mut into) {
            Err(FieldError::Format(m)) => assert!(
                m.starts_with(&format!("unsupported velocity format version {version} ")),
                "{m}"
            ),
            other => panic!("version {version}: expected a Format error, got {other:?}"),
        }
    }
}

#[test]
fn bad_checksum_names_the_failure() {
    let dims = Dims::new(8, 8, 8);
    let field = hostile_field(dims, 2);
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("ts.v3");
    format::write_velocity_v2(&path, 0, 0.0, &field).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Corrupt the very last payload byte: past all chunk-table fields,
    // guaranteed inside compressed data → checksum must catch it.
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    let mut into = VectorField::zeros(dims);
    let err = format::decode_velocity_into(&bytes, &mut into).unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
}
