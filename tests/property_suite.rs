//! Cross-crate property tests: invariants that must hold for *any* input,
//! exercised through the public APIs.

use distributed_virtual_windtunnel as dvw;
use dvw::flowfield::{CurvilinearGrid, Dims, FieldSample, VectorField};
use dvw::tracer::{streamline, Domain, Integrator, TraceConfig};
use dvw::vecmath::Vec3;
use dvw::windtunnel::{PlaybackMode, TimeController};
use proptest::prelude::*;

proptest! {
    /// The time controller never leaves the valid timestep range, no
    /// matter what sequence of knobs the user mashes.
    #[test]
    fn time_controller_stays_in_range(
        len in 1usize..200,
        ops in proptest::collection::vec(0u8..7, 1..60),
        rates in proptest::collection::vec(-8.0f32..8.0, 1..60),
    ) {
        let mut t = TimeController::new(len);
        for (op, rate) in ops.iter().zip(rates.iter().cycle()) {
            match op {
                0 => t.play(),
                1 => t.pause(),
                2 => t.reverse(),
                3 => t.set_rate(*rate),
                4 => t.jump((rate.abs() * 50.0) as usize),
                5 => t.step(if *rate > 0.0 { 1 } else { -1 }),
                _ => {
                    t.set_mode(match (*rate * 10.0) as i32 % 3 {
                        0 => PlaybackMode::Loop,
                        1 => PlaybackMode::Clamp,
                        _ => PlaybackMode::Bounce,
                    });
                }
            }
            let ts = t.advance();
            prop_assert!(ts < len, "timestep {ts} out of range 0..{len}");
            prop_assert!(t.time() >= 0.0 && t.time() <= (len - 1) as f32 + 1e-3);
        }
    }

    /// A streamline in any random (bounded) field never produces a point
    /// outside the domain, never a NaN, and never exceeds max_points + 1.
    #[test]
    fn streamline_output_always_valid(
        seed_x in 0.0f32..7.0,
        seed_y in 0.0f32..7.0,
        seed_z in 0.0f32..7.0,
        field_seed in 0u64..500,
        dt in 0.01f32..1.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(field_seed);
        let dims = Dims::new(8, 8, 8);
        let field = VectorField::from_fn(dims, |_, _, _| {
            Vec3::new(
                rng.random_range(-2.0..2.0),
                rng.random_range(-2.0..2.0),
                rng.random_range(-2.0..2.0),
            )
        });
        let domain = Domain::boxed(dims);
        let cfg = TraceConfig {
            dt,
            max_points: 64,
            integrator: Integrator::Rk2,
            ..Default::default()
        };
        let path = streamline(&field, &domain, Vec3::new(seed_x, seed_y, seed_z), &cfg);
        prop_assert!(path.len() <= 65);
        for p in &path {
            prop_assert!(p.is_finite());
            prop_assert!(dims.contains_grid_coord(*p), "{p:?} escaped the domain");
        }
    }

    /// Sampling any in-domain point of a bounded random field returns a
    /// value inside the field's own per-component bounds (interpolation
    /// is a convex combination), for both layouts.
    #[test]
    fn interpolation_is_convex_everywhere(
        px in 0.0f32..5.0, py in 0.0f32..5.0, pz in 0.0f32..5.0,
        field_seed in 0u64..200,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(field_seed);
        let dims = Dims::new(6, 6, 6);
        let field = VectorField::from_fn(dims, |_, _, _| {
            Vec3::new(
                rng.random_range(-3.0..3.0),
                rng.random_range(-3.0..3.0),
                rng.random_range(-3.0..3.0),
            )
        });
        let soa = field.to_soa();
        let p = Vec3::new(px, py, pz);
        let a = field.sample(p).unwrap();
        let b = soa.sample(p).unwrap();
        prop_assert!(a.distance(b) < 1e-4);
        for comp in 0..3 {
            prop_assert!(a[comp] >= -3.0 - 1e-4 && a[comp] <= 3.0 + 1e-4);
        }
    }

    /// The grid→physical→grid round trip holds across random smooth
    /// (shear + stretch) grids — the §2.1 coordinate machinery.
    #[test]
    fn coordinate_roundtrip_on_random_smooth_grids(
        shear in -0.4f32..0.4,
        stretch_x in 0.5f32..2.0,
        stretch_y in 0.5f32..2.0,
        gx in 0.5f32..4.5, gy in 0.5f32..4.5, gz in 0.5f32..4.5,
    ) {
        let dims = Dims::new(6, 6, 6);
        let grid = CurvilinearGrid::from_fn(dims, |i, j, k| {
            Vec3::new(
                i as f32 * stretch_x + shear * j as f32,
                j as f32 * stretch_y,
                k as f32 + shear * 0.5 * i as f32,
            )
        })
        .unwrap();
        let gc = Vec3::new(gx, gy, gz);
        let phys = grid.to_physical(gc).unwrap();
        if let Some(found) = grid.locate(phys) {
            let back = grid.to_physical(found).unwrap();
            prop_assert!(back.distance(phys) < 1e-2, "{back:?} vs {phys:?}");
        }
    }

    /// Rake geometry: dragging any handle by d then by -d restores the
    /// rake exactly (grid coordinates are plain affine state).
    #[test]
    fn rake_drag_is_invertible(
        hx in -3.0f32..3.0, hy in -3.0f32..3.0, hz in -3.0f32..3.0,
        which in 0u8..3,
    ) {
        use dvw::tracer::{Handle, Rake, ToolKind};
        let original = Rake::new(Vec3::ZERO, Vec3::new(4.0, 1.0, 0.0), 7, ToolKind::Streakline);
        let handle = match which {
            0 => Handle::Center,
            1 => Handle::EndA,
            _ => Handle::EndB,
        };
        let d = Vec3::new(hx, hy, hz);
        let mut r = original;
        r.drag(handle, d);
        r.drag(handle, -d);
        prop_assert!(r.a.distance(original.a) < 1e-4);
        prop_assert!(r.b.distance(original.b) < 1e-4);
    }

    /// The delta protocol's core guarantee: applying a FRAME_DELTA stream
    /// to the client's retained scene reconstructs a frame byte-identical
    /// to the full-frame encoding, across random rake add / drag / delete
    /// / streak-advance sequences and forced keyframe resyncs.
    ///
    /// Both replies reach the socket as ropes around the server's cached
    /// chunk buffers. A third, raw connection checks the ropes as they
    /// arrive, concatenated by the wire, against the typed encoders —
    /// what the contiguous `splice_delta` / `encode_into` of before
    /// produced: FRAME_DELTA bytes ≡ `DeltaFrame::encode`, FRAME bytes ≡
    /// `GeometryFrame::encode`.
    #[test]
    fn delta_stream_byte_identical_to_full_frames(
        ops in proptest::collection::vec((0u8..6, 0.0f32..1.0), 1..25),
    ) {
        use dvw::dlib::DlibClient;
        use dvw::windtunnel::proto::{
            Command, DeltaFrame, DeltaRequest, FrameRequest, GeometryFrame, TimeCommand,
            PROC_FRAME, PROC_FRAME_DELTA,
        };
        use dvw::windtunnel::{serve, ServerOptions, WindtunnelClient};
        use dvw::flowfield::{dataset::VelocityCoords, Dataset, DatasetMeta, VectorField};
        use dvw::storage::MemoryStore;
        use dvw::tracer::ToolKind;
        use dvw::vecmath::{Aabb, Pose};
        use dvw::vr::Gesture;
        use std::sync::Arc;

        let dims = Dims::new(12, 7, 7);
        let grid = CurvilinearGrid::cartesian(
            dims,
            Aabb::new(Vec3::ZERO, Vec3::new(11.0, 6.0, 6.0)),
        ).unwrap();
        let meta = DatasetMeta {
            name: "delta-prop".into(),
            dims,
            timestep_count: 4,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..4)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X * 0.5))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        let store = Arc::new(MemoryStore::from_dataset(ds));
        let handle = serve(store, grid, ServerOptions::default(), "127.0.0.1:0").unwrap();

        let mut inc = WindtunnelClient::connect(handle.addr()).unwrap();
        let mut full = WindtunnelClient::connect(handle.addr()).unwrap();
        let mut raw = DlibClient::connect(handle.addr()).unwrap();
        let mut raw_baseline = 0u64;
        let mut live_rakes: Vec<u32> = Vec::new();
        let mut next_id = 1u32;
        for (op, x) in ops {
            match op {
                0 => {
                    // Add a rake (alternating tools).
                    let y = 1.0 + x * 4.0;
                    let tool = if next_id.is_multiple_of(2) {
                        ToolKind::Streakline
                    } else {
                        ToolKind::Streamline
                    };
                    inc.send(&Command::AddRake {
                        a: Vec3::new(2.0, y, 3.0),
                        b: Vec3::new(2.0, y + 1.0, 3.0),
                        seed_count: 2,
                        tool,
                    }).unwrap();
                    live_rakes.push(next_id);
                    next_id += 1;
                }
                1 => {
                    // Drag: grab near some rake's center and move it (a
                    // miss is harmless — the hand just closes on air).
                    if !live_rakes.is_empty() {
                        let y = 1.0 + x * 4.0;
                        inc.send(&Command::Hand {
                            position: Vec3::new(2.0, y + 0.5, 3.0),
                            gesture: Gesture::Fist,
                        }).unwrap();
                        inc.send(&Command::Hand {
                            position: Vec3::new(2.0 + x, y + 0.5, 3.0),
                            gesture: Gesture::Fist,
                        }).unwrap();
                        inc.send(&Command::Hand {
                            position: Vec3::new(2.0 + x, y + 0.5, 3.0),
                            gesture: Gesture::Open,
                        }).unwrap();
                    }
                }
                2 => {
                    // Delete the oldest live rake.
                    if !live_rakes.is_empty() {
                        let id = live_rakes.remove(0);
                        inc.send(&Command::RemoveRake { id }).unwrap();
                    }
                }
                3 => {
                    // Advance the clock (streak systems tick).
                    inc.send(&Command::Time(TimeCommand::Play)).unwrap();
                    inc.frame_delta(true).unwrap();
                }
                4 => {
                    // Head-pose-only mutation.
                    inc.send(&Command::HeadPose {
                        pose: Pose::new(Vec3::new(x, 1.7, 2.0), Default::default()),
                    }).unwrap();
                }
                _ => {
                    // Forced resync: drop the retained scene, next reply
                    // must be a keyframe.
                    inc.reset_scene();
                }
            }
            let df = inc.frame_delta(false).unwrap();
            let ff = full.frame(false).unwrap();
            // Byte-identity: the delta reconstruction must match the
            // full-frame encoding exactly.
            prop_assert_eq!(df.encode(), ff.encode());

            // The raw connection acks its own baselines, so it sees true
            // deltas (chunks for changed rakes only, tombstones) as well
            // as keyframes.
            let req = DeltaRequest { advance: false, baseline: raw_baseline };
            let delta_wire = raw.call(PROC_FRAME_DELTA, &req.encode()).unwrap();
            let delta = DeltaFrame::decode(&delta_wire).unwrap();
            prop_assert_eq!(&delta.encode(), &delta_wire);
            raw_baseline = delta.revision;
            let frame_wire = raw
                .call(PROC_FRAME, &FrameRequest { advance: false }.encode())
                .unwrap();
            prop_assert_eq!(&GeometryFrame::decode(&frame_wire).unwrap().encode(), &frame_wire);
            prop_assert_eq!(&frame_wire, &ff.encode());
        }
        handle.shutdown();
    }

    /// Disk-model arithmetic: read time is monotone in bytes and inversely
    /// monotone in bandwidth.
    #[test]
    fn disk_model_monotonicity(
        bytes_a in 1u64..100_000_000,
        bytes_b in 1u64..100_000_000,
        bw in 1.0e6f64..1.0e10,
    ) {
        use dvw::storage::DiskModel;
        use std::time::Duration;
        let m = DiskModel { bandwidth_bytes_per_sec: bw, seek: Duration::from_millis(1) };
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(m.read_duration(lo) <= m.read_duration(hi));
        let faster = DiskModel { bandwidth_bytes_per_sec: bw * 2.0, seek: Duration::from_millis(1) };
        prop_assert!(faster.read_duration(hi) <= m.read_duration(hi));
    }
}
