//! The client's display path against the renderer it replaced:
//! [`WindtunnelClient::render_stereo_for_user`] (borrowed path slices,
//! both eyes at once) must leave the framebuffer bit-identical to the
//! sequential oracle fed the line list the client used to build — every
//! path cloned, then rakes, then the other users' head glyphs — on
//! frames holding all three path kinds, rakes and two users, one of them
//! the viewer.

#[path = "../../vr/tests/oracle/mod.rs"]
mod oracle;

use oracle::{depth_bits, OracleFb};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tracer::ToolKind;
use vecmath::{Mat4, Pose, Quat, Vec3};
use vr::stereo::StereoCamera;
use vr::{Framebuffer, Rgb};
use windtunnel::client::{head_glyph, Palette};
use windtunnel::proto::{Lattice, PathMsg, RakeMsg, UserMsg};
use windtunnel::{GeometryFrame, PathKind, WindtunnelClient};

const SELF_USER: u64 = 7;

/// The line list `render_stereo_for_user` built before it borrowed.
fn cloned_lines(frame: &GeometryFrame, palette: &Palette, self_user: u64) -> Vec<(Vec<Vec3>, u8)> {
    let mut lines: Vec<(Vec<Vec3>, u8)> =
        Vec::with_capacity(frame.paths.len() + frame.rakes.len() + frame.users.len() * 2);
    for p in &frame.paths {
        let shade = match p.kind {
            PathKind::Streamline => palette.streamline,
            PathKind::ParticlePath => palette.particle_path,
            PathKind::Streak => palette.streak,
        };
        lines.push((p.points.clone(), shade));
    }
    for r in &frame.rakes {
        lines.push((vec![r.a, r.b], palette.rake));
    }
    for u in &frame.users {
        if u.id == self_user {
            continue;
        }
        for glyph in head_glyph(&u.head) {
            lines.push((glyph, palette.rake));
        }
    }
    lines
}

fn vec3(rng: &mut StdRng, r: f32) -> Vec3 {
    Vec3::new(
        rng.random_range(-r..r),
        rng.random_range(-r..r),
        rng.random_range(-r..r),
    )
}

fn random_frame(rng: &mut StdRng) -> GeometryFrame {
    let kinds = [
        PathKind::Streamline,
        PathKind::ParticlePath,
        PathKind::Streak,
    ];
    let rakes: Vec<RakeMsg> = (0..3)
        .map(|id| RakeMsg {
            id,
            a: vec3(rng, 4.0),
            b: vec3(rng, 4.0),
            seed_count: 8,
            tool: ToolKind::Streamline,
            owner: 0,
        })
        .collect();
    let paths = (0..rng.random_range(3..40))
        .map(|i| {
            let mut p = vec3(rng, 4.0);
            let points = (0..rng.random_range(0..60))
                .map(|_| {
                    p += vec3(rng, 0.3);
                    p
                })
                .collect();
            PathMsg {
                rake_id: i % 3,
                kind: kinds[i as usize % 3],
                points,
            }
        })
        .collect();
    let users = [SELF_USER, 9]
        .iter()
        .map(|&id| UserMsg {
            id,
            head: Pose::new(vec3(rng, 3.0), Quat::from_axis_angle(Vec3::Y, rng.random())),
        })
        .collect();
    GeometryFrame {
        timestep: 0,
        time: 0.0,
        revision: 1,
        lattice: Lattice::for_extent(4.0),
        rakes,
        paths,
        users,
    }
}

proptest! {
    #[test]
    fn prop_render_stereo_for_user_matches_cloned_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = random_frame(&mut rng);
        let eye = vec3(&mut rng, 2.0) + Vec3::new(0.0, 0.0, 12.0);
        let head = Pose::from_mat4(&Mat4::look_at(eye, Vec3::ZERO, Vec3::Y).inverse_rigid());
        let mut cam = StereoCamera::new(head);
        cam.aspect = 160.0 / 120.0;
        let palette = Palette::default();
        let clear = Rgb::new(rng.random(), rng.random(), rng.random());

        let mut fb = Framebuffer::new(160, 120);
        let mut want = OracleFb::new(160, 120);
        for _ in 0..2 {
            fb.clear(clear);
            want.clear(clear);
            WindtunnelClient::render_stereo_for_user(&frame, &mut fb, &cam, &palette, SELF_USER);
            oracle::render_anaglyph(&mut want, &cam, &cloned_lines(&frame, &palette, SELF_USER));
            prop_assert!(fb.rgb_bytes() == want.rgb_bytes(), "colour differs");
            prop_assert!(depth_bits(&fb) == want.depth_bits(), "depth differs");
            prop_assert_eq!(fb.mask(), want.mask());
        }
        prop_assert!(fb.count_pixels(|c| c.r > 0) > 0 && fb.count_pixels(|c| c.b > 0) > 0);
    }
}

/// The end-to-end benchmark's render step on its largest scene: a traced
/// 100 k-point frame as the wire delivers it, drawn from the fixed
/// three-quarter view (`benchmark/src/session.rs`) on a 640×480
/// framebuffer, over two frames so the second clears what the first drew.
#[test]
fn traced_100k_frame_at_the_benchmark_camera_matches_the_oracle() {
    use bench_support::{paper_spec, tapered_dataset, traced_frame};
    use storage::MemoryStore;

    let dataset = tapered_dataset(paper_spec(), 1);
    let grid = dataset.grid().clone();
    let bounds = grid.bounds();
    let store = MemoryStore::from_dataset(dataset);
    let traced = traced_frame(&store, &grid, 100_000);
    let frame = GeometryFrame::decode(&traced.encode()).unwrap();
    assert_eq!(frame.particle_count(), 100_000);

    let (center, dist) = (bounds.center(), bounds.diagonal().max(1.0));
    let eye = center + Vec3::new(-0.3, 0.5, 0.9) * dist;
    let head = Pose::from_mat4(&Mat4::look_at(eye, center, Vec3::Y).inverse_rigid());
    let mut cam = StereoCamera::new(head);
    cam.aspect = 640.0 / 480.0;
    cam.fovy = 0.9;
    let palette = Palette::default();
    let mut fb = Framebuffer::new(640, 480);
    let mut want = OracleFb::new(640, 480);
    for _ in 0..2 {
        fb.clear(Rgb::BLACK);
        want.clear(Rgb::BLACK);
        WindtunnelClient::render_stereo_for_user(&frame, &mut fb, &cam, &palette, SELF_USER);
        oracle::render_anaglyph(&mut want, &cam, &cloned_lines(&frame, &palette, SELF_USER));
        assert!(fb.rgb_bytes() == want.rgb_bytes(), "colour differs");
        assert!(depth_bits(&fb) == want.depth_bits(), "depth differs");
        cam.head.position += Vec3::new(0.5, 0.0, 0.0);
    }
    assert!(fb.count_pixels(|c| c.r > 0) > 1000 && fb.count_pixels(|c| c.b > 0) > 1000);
}
