//! Bit-flip fuzz of the frame decoders on what the wire really carries:
//! a traced tapered-cylinder frame, encoded as a full `GeometryFrame`, as
//! a `DeltaFrame` keyframe and as a delta. Flipping one to three bits must
//! give either a typed `Protocol` error or a frame whose re-encoding is
//! exactly the flipped bytes — every encoding is canonical, so byte
//! equality stays value equality — and never a panic.
//!
//! The session's other messages — every `Command` variant, both
//! `FrameRequest`s, a `DeltaRequest`, a `HelloReply`, a full-length
//! `FrameStats`, and two one-point frames at the edges of the path
//! lattice — are held to the same rule under one to three bit flips or
//! one appended byte. One step past either lattice edge (a value of
//! `±2^24`, an exponent outside the accepted range) is a named error.
//!
//! Case count honors `PROPTEST_CASES` and the inputs `PROPTEST_SEED`
//! (check.sh runs this at the default seed and at a fresh one).

use bytes::{BufMut, Bytes, BytesMut};
use cfd::tapered_cylinder::{generate_dataset, TaperedCylinderFlow};
use cfd::OGridSpec;
use dlib::wire::put_point_path;
use dlib::DlibError;
use flowfield::Dims;
use proptest::prelude::*;
use std::sync::OnceLock;
use storage::{MemoryStore, TimestepStore};
use tracer::{Domain, Rake, ToolKind, TraceConfig};
use vecmath::{Pose, Quat, Vec3};
use vr::Gesture;
use windtunnel::compute::{compute_frame, ComputeConfig, ToolEngines};
use windtunnel::proto::{
    DeltaFrame, DeltaRequest, FrameRequest, FrameStats, GeometryFrame, HelloReply, Lattice,
    RakeChunkMsg,
};
use windtunnel::{Command, EnvironmentState, TimeCommand};

/// The three encodings of one traced frame: full, keyframe, delta.
fn encoded_frames() -> &'static [Bytes; 3] {
    static FRAMES: OnceLock<[Bytes; 3]> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let flow = TaperedCylinderFlow {
            spec: OGridSpec {
                dims: Dims::new(33, 17, 9),
                ..OGridSpec::default()
            },
            ..TaperedCylinderFlow::default()
        };
        let dataset = generate_dataset(&flow, "tapered-cylinder", 1, 0.05).unwrap();
        let grid = dataset.grid().clone();
        let store = MemoryStore::from_dataset(dataset);
        let mut env = EnvironmentState::new(store.timestep_count());
        for (a, b) in [
            (Vec3::new(3.0, 8.0, 1.0), Vec3::new(20.0, 12.0, 7.0)),
            (Vec3::new(1.0, 4.0, 4.0), Vec3::new(30.0, 4.0, 4.0)),
        ] {
            env.add_rake(Rake::new(a, b, 6, ToolKind::Streamline));
        }
        let cfg = ComputeConfig {
            trace: TraceConfig {
                max_points: 40,
                ..TraceConfig::default()
            },
            ..ComputeConfig::default()
        };
        let frame = compute_frame(
            &env,
            &mut ToolEngines::new(),
            &store,
            &grid,
            &Domain::o_grid(grid.dims()),
            &cfg,
        )
        .unwrap();
        assert!(frame.particle_count() > 200, "the rakes traced too little");
        let chunks: Vec<RakeChunkMsg> = frame
            .rakes
            .iter()
            .map(|rk| RakeChunkMsg {
                rake_id: rk.id,
                content_rev: frame.revision,
                paths: frame
                    .paths
                    .iter()
                    .filter(|p| p.rake_id == rk.id)
                    .cloned()
                    .collect(),
            })
            .collect();
        let keyframe = DeltaFrame {
            keyframe: true,
            timestep: frame.timestep,
            time: frame.time,
            revision: frame.revision,
            baseline: 0,
            lattice: frame.lattice,
            rakes: frame.rakes.clone(),
            chunks: chunks.clone(),
            tombstones: vec![],
            users: frame.users.clone(),
        };
        let delta = DeltaFrame {
            keyframe: false,
            baseline: frame.revision.saturating_sub(1),
            chunks: chunks[1..].to_vec(),
            tombstones: vec![99],
            ..keyframe.clone()
        };
        [frame.encode(), keyframe.encode(), delta.encode()]
    })
}

/// Decode `bytes` as the `which`-th encoding and re-encode what came out.
fn round_trip(which: usize, bytes: &[u8]) -> Result<Bytes, DlibError> {
    Ok(match which {
        0 => GeometryFrame::decode(bytes)?.encode(),
        _ => DeltaFrame::decode(bytes)?.encode(),
    })
}

/// Flip bit `f mod (8 · len)` of `bytes` for each `f` in `flips`.
fn flip_bits(bytes: &mut [u8], flips: &[u64]) {
    let bits = 8 * bytes.len() as u64;
    for f in flips {
        let bit = f % bits;
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

/// Which decoder a session message goes through.
#[derive(Debug, Clone, Copy)]
enum Msg {
    Command,
    Frame,
    Delta,
    Hello,
    Stats,
    Geometry,
}

/// A one-point `GeometryFrame` written field by field, so the lattice
/// exponent and the point's lattice value can be anything a peer sends.
fn raw_frame(exp: i32, k: i32) -> Bytes {
    let mut b = BytesMut::new();
    b.put_slice(&[0u8; 16]); // timestep, time, revision
    b.put_u32_le(exp.cast_unsigned());
    b.put_u32_le(0); // rakes
    b.put_u32_le(1); // paths
    b.put_slice(&[0u8; 8]); // rake id, kind
    put_point_path(
        &mut b,
        [[k.cast_unsigned(), 0, k.wrapping_neg().cast_unsigned()]].into_iter(),
    );
    b.put_u32_le(0); // users
    b.freeze()
}

/// The largest lattice value: `|k| < 2^24`.
const K_MAX: i32 = (1 << 24) - 1;

/// One encoding of every request and reply a session exchanges besides
/// the frames: each `Command` variant (each time sub-command too), both
/// `FrameRequest`s, a `DeltaRequest`, a `HelloReply` and a `FrameStats`.
fn session_messages() -> Vec<(Msg, Bytes)> {
    let v = Vec3::new(1.5, -2.0, 0.25);
    let commands = [
        Command::AddRake {
            a: v,
            b: -v,
            seed_count: 8,
            tool: ToolKind::Streakline,
        },
        Command::RemoveRake { id: 3 },
        Command::SetTool {
            id: 3,
            tool: ToolKind::ParticlePath,
        },
        Command::SetSeedCount { id: 3, n: 12 },
        Command::Hand {
            position: v,
            gesture: Gesture::Fist,
        },
        Command::HeadPose {
            pose: Pose::new(v, Quat::new(0.5, 0.5, -0.5, 0.5)),
        },
        Command::Time(TimeCommand::Play),
        Command::Time(TimeCommand::Pause),
        Command::Time(TimeCommand::Reverse),
        Command::Time(TimeCommand::SetRate(-0.5)),
        Command::Time(TimeCommand::Jump(7)),
        Command::Time(TimeCommand::Step(-2)),
        Command::Goodbye,
    ];
    let mut out: Vec<(Msg, Bytes)> = commands
        .iter()
        .map(|c| (Msg::Command, c.encode()))
        .collect();
    for advance in [false, true] {
        out.push((Msg::Frame, FrameRequest { advance }.encode()));
    }
    let delta = DeltaRequest {
        advance: true,
        baseline: 0x0123_4567_89AB,
    };
    out.push((Msg::Delta, delta.encode()));
    let hello = HelloReply {
        dataset_name: "tapered-cylinder".into(),
        dims: Dims::new(64, 64, 32),
        timestep_count: 48,
        dt: 0.25,
        bounds_min: -v,
        bounds_max: v,
        user_id: 2,
    };
    out.push((Msg::Hello, hello.encode()));
    // Every byte distinct, so every field is: a flip lands in a field a
    // short random buffer would never reach, up to the trailing-byte check.
    let pattern: Vec<u8> = (1..=FrameStats::WIRE_LEN).map(|i| i as u8).collect();
    let stats = FrameStats::decode(&pattern).unwrap();
    out.push((Msg::Stats, stats.encode()));
    let (lo, hi) = (*Lattice::EXP_RANGE.start(), *Lattice::EXP_RANGE.end());
    out.push((Msg::Geometry, raw_frame(hi, K_MAX)));
    out.push((Msg::Geometry, raw_frame(lo, -K_MAX)));
    out
}

/// Decode `bytes` as a `msg` and re-encode what came out.
fn reencode(msg: Msg, bytes: &[u8]) -> Result<Bytes, DlibError> {
    Ok(match msg {
        Msg::Command => Command::decode(bytes)?.encode(),
        Msg::Frame => FrameRequest::decode(bytes)?.encode(),
        Msg::Delta => DeltaRequest::decode(bytes)?.encode(),
        Msg::Hello => HelloReply::decode(bytes)?.encode(),
        Msg::Stats => FrameStats::decode(bytes)?.encode(),
        Msg::Geometry => GeometryFrame::decode(bytes)?.encode(),
    })
}

#[test]
fn hostile_lattice_inputs_are_rejected_by_name() {
    let named = |bytes: Bytes, what: &str| match GeometryFrame::decode(&bytes) {
        Err(DlibError::Protocol(m)) => assert!(m.starts_with(what), "{m}"),
        other => panic!("{what}: accepted {other:?}"),
    };
    named(raw_frame(-14, K_MAX + 1), "lattice value ±16777216");
    named(raw_frame(-14, -K_MAX - 1), "lattice value ±16777216");
    named(raw_frame(-14, i32::MIN), "lattice value ±2147483648");
    let (lo, hi) = (*Lattice::EXP_RANGE.start(), *Lattice::EXP_RANGE.end());
    named(
        raw_frame(hi + 1, 0),
        &format!("lattice exponent {}", hi + 1),
    );
    named(
        raw_frame(lo - 1, 0),
        &format!("lattice exponent {}", lo - 1),
    );
    named(raw_frame(i32::MAX, 0), "lattice exponent 2147483647");
}

#[test]
fn session_messages_decode_to_what_they_encode() {
    for (msg, bytes) in session_messages() {
        assert_eq!(reencode(msg, &bytes).unwrap(), bytes, "{msg:?}");
    }
}

#[test]
fn traced_frames_decode_to_what_they_encode() {
    for (which, bytes) in encoded_frames().iter().enumerate() {
        assert_eq!(
            round_trip(which, bytes).unwrap(),
            *bytes,
            "encoding {which}"
        );
    }
}

proptest! {
    #[test]
    fn prop_flipped_frames_are_rejected_or_canonical(
        which in 0usize..3,
        flips in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut bytes = encoded_frames()[which].to_vec();
        flip_bits(&mut bytes, &flips);
        match round_trip(which, &bytes) {
            Ok(again) => prop_assert!(again[..] == bytes[..], "accepted a non-canonical frame"),
            Err(DlibError::Protocol(_)) => {}
            Err(e) => prop_assert!(false, "untyped error {e:?}"),
        }
    }

    #[test]
    fn prop_mutated_session_messages_are_rejected_or_canonical(
        flips in proptest::collection::vec(any::<u64>(), 1..4),
        append in any::<bool>(),
        extra in any::<u8>(),
    ) {
        for (msg, encoded) in session_messages() {
            let mut bytes = encoded.to_vec();
            if append {
                bytes.push(extra);
            } else {
                flip_bits(&mut bytes, &flips);
            }
            match reencode(msg, &bytes) {
                Ok(again) => prop_assert!(
                    again[..] == bytes[..],
                    "accepted a non-canonical {msg:?}: {bytes:?}"
                ),
                Err(DlibError::Protocol(_)) => {}
                Err(e) => prop_assert!(false, "untyped error {e:?} from {msg:?}"),
            }
        }
    }
}
