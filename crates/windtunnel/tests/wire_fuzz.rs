//! Bit-flip fuzz of the frame decoders on what the wire really carries:
//! a traced tapered-cylinder frame, encoded as a full `GeometryFrame`, as
//! a `DeltaFrame` keyframe and as a delta. Flipping one to three bits must
//! give either a typed `Protocol` error or a frame whose re-encoding is
//! exactly the flipped bytes — every encoding is canonical, so byte
//! equality stays value equality — and never a panic.
//!
//! Case count honors `PROPTEST_CASES` and the inputs `PROPTEST_SEED`
//! (check.sh runs this at the default seed and at a fresh one).

use bytes::Bytes;
use cfd::tapered_cylinder::{generate_dataset, TaperedCylinderFlow};
use cfd::OGridSpec;
use dlib::DlibError;
use flowfield::Dims;
use proptest::prelude::*;
use std::sync::OnceLock;
use storage::{MemoryStore, TimestepStore};
use tracer::{Domain, Rake, ToolKind, TraceConfig};
use vecmath::Vec3;
use windtunnel::compute::{compute_frame, ComputeConfig, ToolEngines};
use windtunnel::proto::{DeltaFrame, GeometryFrame, RakeChunkMsg};
use windtunnel::EnvironmentState;

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
        let bits = 8 * bytes.len() as u64;
        for f in flips {
            let bit = f % bits;
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        match round_trip(which, &bytes) {
            Ok(again) => prop_assert!(again[..] == bytes[..], "accepted a non-canonical frame"),
            Err(DlibError::Protocol(_)) => {}
            Err(e) => prop_assert!(false, "untyped error {e:?}"),
        }
    }
}
