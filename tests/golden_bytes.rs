//! Golden bytes: one committed encoding of every wire message and of a
//! small v3 dataset container, in `tests/golden/*.hex`.
//!
//! A layout change — a field reordered, widened, added or dropped, on the
//! wire or on disk — changes these bytes, so it cannot land without
//! regenerating the fixture and deciding about the version constant that
//! each fixture's first line pins: `PROTOCOL_VERSION` moves with the wire
//! layout, `DATASET_FORMAT_VERSION` with the container, and neither with
//! the other. Every value has distinct fields, so a swap shows too. The
//! committed bytes must also decode back to the value they came from.
//!
//! A failing test prints the current encoding in the fixture's format;
//! paste it over the fixture once the change is deliberate.

use distributed_virtual_windtunnel as dvw;
use dvw::flowfield::format::{read_velocity, write_velocity_v2, DATASET_FORMAT_VERSION};
use dvw::flowfield::{Dims, VectorField};
use dvw::tracer::ToolKind;
use dvw::vecmath::{Pose, Quat, Vec3};
use dvw::vr::Gesture;
use dvw::windtunnel::proto::{
    DeltaFrame, DeltaRequest, FrameRequest, FrameStats, GeometryFrame, HelloReply, Lattice,
    PathKind, PathMsg, RakeChunkMsg, RakeMsg, UserMsg, PROTOCOL_VERSION,
};
use dvw::windtunnel::{Command, TimeCommand};

/// Render labelled encodings as a fixture: the version line, then each
/// label followed by its bytes in hex, 32 to a line.
fn render(encodings: &[(String, Vec<u8>)]) -> String {
    let mut out = format!(
        "# PROTOCOL_VERSION {PROTOCOL_VERSION} DATASET_FORMAT_VERSION {DATASET_FORMAT_VERSION}\n"
    );
    for (label, bytes) in encodings {
        out.push_str(label);
        out.push('\n');
        for row in bytes.chunks(32) {
            let hex: String = row.iter().map(|b| format!("{b:02x}")).collect();
            out.push_str(&hex);
            out.push('\n');
        }
    }
    out
}

/// The committed bytes under each label of `fixture`.
fn parse(fixture: &str) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for line in fixture.lines().filter(|l| !l.starts_with('#')) {
        let is_hex = !line.is_empty() && line.bytes().all(|b| b.is_ascii_hexdigit());
        match out.last_mut() {
            Some((_, bytes)) if is_hex => bytes.extend(
                (0..line.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&line[i..i + 2], 16).unwrap()),
            ),
            _ => out.push((line.to_string(), Vec::new())),
        }
    }
    out
}

/// Compare the current encodings with the committed fixture, then hand
/// back the committed bytes for the decode half.
fn check(name: &str, fixture: &str, values: &[(String, Vec<u8>)]) -> Vec<Vec<u8>> {
    let got = render(values);
    assert!(
        got == fixture,
        "tests/golden/{name}.hex no longer matches the encoding; if the layout change is \
         deliberate, settle the version constants and replace the fixture with:\n{got}"
    );
    parse(fixture).into_iter().map(|(_, b)| b).collect()
}

fn v(x: f32, y: f32, z: f32) -> Vec3 {
    Vec3::new(x, y, z)
}

#[test]
fn commands_match_golden_bytes() {
    let commands = [
        (
            "AddRake",
            Command::AddRake {
                a: v(1.5, -2.0, 0.25),
                b: v(-3.0, 4.5, 6.0),
                seed_count: 8,
                tool: ToolKind::Streakline,
            },
        ),
        ("RemoveRake", Command::RemoveRake { id: 3 }),
        (
            "SetTool",
            Command::SetTool {
                id: 4,
                tool: ToolKind::ParticlePath,
            },
        ),
        ("SetSeedCount", Command::SetSeedCount { id: 5, n: 12 }),
        (
            "Hand",
            Command::Hand {
                position: v(0.5, 1.5, 2.5),
                gesture: Gesture::Fist,
            },
        ),
        (
            "HeadPose",
            Command::HeadPose {
                pose: Pose::new(v(7.0, 8.0, 9.0), Quat::new(0.5, 0.5, -0.5, 0.5)),
            },
        ),
        ("Time Play", Command::Time(TimeCommand::Play)),
        ("Time Pause", Command::Time(TimeCommand::Pause)),
        ("Time Reverse", Command::Time(TimeCommand::Reverse)),
        ("Time SetRate", Command::Time(TimeCommand::SetRate(-0.5))),
        ("Time Jump", Command::Time(TimeCommand::Jump(7))),
        ("Time Step", Command::Time(TimeCommand::Step(-2))),
        ("Goodbye", Command::Goodbye),
    ];
    let encoded: Vec<_> = commands
        .iter()
        .map(|(label, c)| (label.to_string(), c.encode().to_vec()))
        .collect();
    let golden = check("command", include_str!("golden/command.hex"), &encoded);
    for ((_, c), bytes) in commands.iter().zip(&golden) {
        assert_eq!(Command::decode(bytes).unwrap(), *c);
    }
}

#[test]
fn requests_and_hello_match_golden_bytes() {
    let frames = [
        FrameRequest { advance: false },
        FrameRequest { advance: true },
    ];
    let delta = DeltaRequest {
        advance: true,
        baseline: 0x0123_4567_89AB_CDEF,
    };
    let hello = HelloReply {
        dataset_name: "tapered-cylinder".into(),
        dims: Dims::new(64, 48, 32),
        timestep_count: 48,
        dt: 0.25,
        bounds_min: v(-1.0, -2.0, -3.0),
        bounds_max: v(4.0, 5.0, 6.0),
        user_id: 2,
    };
    let encoded = vec![
        ("FrameRequest hold".to_string(), frames[0].encode().to_vec()),
        (
            "FrameRequest advance".to_string(),
            frames[1].encode().to_vec(),
        ),
        ("DeltaRequest".to_string(), delta.encode().to_vec()),
        ("HelloReply".to_string(), hello.encode().to_vec()),
    ];
    let golden = check("requests", include_str!("golden/requests.hex"), &encoded);
    assert_eq!(FrameRequest::decode(&golden[0]).unwrap(), frames[0]);
    assert_eq!(FrameRequest::decode(&golden[1]).unwrap(), frames[1]);
    assert_eq!(DeltaRequest::decode(&golden[2]).unwrap(), delta);
    assert_eq!(HelloReply::decode(&golden[3]).unwrap(), hello);
}

/// Two rakes, one user, and paths of 10, 1 and 0 points: a full and a
/// partial codec block, and the degenerate lengths.
fn scene() -> (Vec<RakeMsg>, Vec<PathMsg>, Vec<UserMsg>) {
    let rakes = vec![
        RakeMsg {
            id: 1,
            a: v(0.5, 1.0, 1.5),
            b: v(2.0, 2.5, 3.0),
            seed_count: 3,
            tool: ToolKind::Streamline,
            owner: 7,
        },
        RakeMsg {
            id: 2,
            a: v(-1.0, -2.0, -3.0),
            b: v(-4.0, -5.0, -6.0),
            seed_count: 1,
            tool: ToolKind::Streakline,
            owner: 0,
        },
    ];
    let paths = vec![
        PathMsg {
            rake_id: 1,
            kind: PathKind::Streamline,
            points: (0..10u8)
                .map(|i| v(f32::from(i) * 0.125, 1.0 - f32::from(i) * 0.0625, 2.0))
                .collect(),
        },
        PathMsg {
            rake_id: 1,
            kind: PathKind::ParticlePath,
            points: vec![v(3.25, -0.5, 0.75)],
        },
        PathMsg {
            rake_id: 2,
            kind: PathKind::Streak,
            points: vec![],
        },
    ];
    let users = vec![UserMsg {
        id: 9,
        head: Pose::new(v(0.0, 1.7, -2.0), Quat::new(0.0, 0.6, 0.0, 0.8)),
    }];
    (rakes, paths, users)
}

#[test]
fn frames_match_golden_bytes() {
    let (rakes, paths, users) = scene();
    let full = GeometryFrame {
        timestep: 11,
        time: 11.5,
        revision: 42,
        lattice: Lattice::new(-14).unwrap(),
        rakes: rakes.clone(),
        paths: paths.clone(),
        users: users.clone(),
    };
    let keyframe = DeltaFrame {
        keyframe: true,
        timestep: 12,
        time: 12.25,
        revision: 43,
        baseline: 0,
        lattice: Lattice::new(-13).unwrap(),
        rakes,
        chunks: vec![
            RakeChunkMsg {
                rake_id: 1,
                content_rev: 40,
                paths: paths[..2].to_vec(),
            },
            RakeChunkMsg {
                rake_id: 2,
                content_rev: 41,
                paths: paths[2..].to_vec(),
            },
        ],
        tombstones: vec![],
        users,
    };
    let delta = DeltaFrame {
        keyframe: false,
        revision: 44,
        baseline: 43,
        chunks: keyframe.chunks[1..].to_vec(),
        tombstones: vec![5, 6],
        ..keyframe.clone()
    };
    let encoded = vec![
        ("GeometryFrame".to_string(), full.encode().to_vec()),
        (
            "DeltaFrame keyframe".to_string(),
            keyframe.encode().to_vec(),
        ),
        ("DeltaFrame delta".to_string(), delta.encode().to_vec()),
    ];
    let golden = check("frames", include_str!("golden/frames.hex"), &encoded);
    assert_eq!(GeometryFrame::decode(&golden[0]).unwrap(), full);
    assert_eq!(DeltaFrame::decode(&golden[1]).unwrap(), keyframe);
    assert_eq!(DeltaFrame::decode(&golden[2]).unwrap(), delta);
}

/// Every field distinct (its position in the layout, 1-based, times a
/// per-width stride), so any reordering moves a recognisable value.
fn distinct_frame_stats() -> FrameStats {
    FrameStats {
        revision: 0x0101,
        fetch_us: 0x0202,
        integrate_us: 0x0303,
        map_us: 0x0404,
        encode_us: 0x0505,
        geom_hits: 0x0606,
        geom_misses: 0x0707,
        cum_geom_hits: 0x0808,
        cum_geom_misses: 0x0909,
        cum_frame_hits: 0x0a0a,
        cum_frames: 0x0b0b,
        chunk_encode_us: 0x0c0c,
        delta_encode_us: 0x0d0d,
        cum_chunk_encodes: 0x0e0e,
        cum_keyframes: 0x0f0f,
        cum_delta_frames: 0x1010,
        cum_bytes_sent: 0x1111,
        live_sessions: 0x1212,
        cum_reaped_sessions: 0x1313,
        cum_shed_calls: 0x1414,
        streak_sample_us: 0x1515,
        streak_integrate_us: 0x1616,
        streak_compact_us: 0x1717,
        streak_inject_us: 0x1818,
        streak_particles_per_s: 0x1919,
        cum_io_wait_us: 0x1a1a,
        cum_decode_us: 0x1b1b,
        cum_prefetch_hits: 0x1c1c,
        cum_prefetch_misses: 0x1d1d,
        cum_store_retries: 0x1e1e,
        cum_salvaged_chunks: 0x1f1f,
        cum_zero_filled_chunks: 0x2020,
        cum_quarantined_steps: 0x2121,
        cum_substituted_fetches: 0x2222,
        cum_ahead_traced: 0x2323,
        cum_ahead_adopted: 0x2424,
    }
}

#[test]
fn frame_stats_match_golden_bytes() {
    let stats = distinct_frame_stats();
    let encoded = vec![("FrameStats".to_string(), stats.encode().to_vec())];
    let golden = check(
        "frame_stats",
        include_str!("golden/frame_stats.hex"),
        &encoded,
    );
    assert_eq!(golden[0].len(), FrameStats::WIRE_LEN);
    assert_eq!(FrameStats::decode(&golden[0]).unwrap(), stats);
}

#[test]
fn v3_container_matches_golden_bytes() {
    // 5 × 3 × 2 points: one chunk per component, so the header and a
    // three-entry chunk table are all there is besides the payloads.
    let dims = Dims::new(5, 3, 2);
    let field = VectorField::from_fn(dims, |i, j, k| {
        let (i, j, k) = (i as f32, j as f32, k as f32);
        v(0.5 * i - j, 0.25 * j + k, i * k - 1.0)
    });
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("q.00003.dvwq");
    write_velocity_v2(&path, 3, 1.5, &field).unwrap();
    let encoded = vec![(
        "velocity container".to_string(),
        std::fs::read(&path).unwrap(),
    )];
    let golden = check(
        "container_v3",
        include_str!("golden/container_v3.hex"),
        &encoded,
    );
    std::fs::write(&path, &golden[0]).unwrap();
    let (header, decoded) = read_velocity(&path).unwrap();
    assert_eq!((header.dims, header.index, header.time), (dims, 3, 1.5));
    assert_eq!(decoded.as_slice(), field.as_slice());
}
