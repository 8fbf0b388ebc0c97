//! The concurrent two-eye renderer against the sequential one it
//! replaced, down to the bit pattern of every colour byte and Z value.
//!
//! The contract under test: [`render_anaglyph`] (both eyes at once, on
//! disjoint colour planes and Z buffers, each vertex projected once, only
//! the on-screen run of a long segment walked) leaves the framebuffer
//! exactly as the verbatim old path in `oracle/` does — same
//! `rgb_bytes()`, same bits in every depth value, mask back at `ALL` —
//! whatever the caller left in colour and Z beforehand, over random
//! scenes, head poses and framebuffer sizes, with points behind the eye,
//! NaN, ±∞ and huge coordinates, and 0- and 1-point lines. The mono
//! entry points (`clear`, `set_pixel`, `draw_polyline` under a mask) are
//! held to the same oracle while building the caller's state.

mod oracle;

use oracle::{depth_bits, OracleFb};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use vecmath::{Mat4, Pose, Quat, Vec3};
use vr::stereo::{render_anaglyph, Eye, StereoCamera};
use vr::{ColorMask, Framebuffer, Rgb};

/// Most samples the oracle may walk for one case (it walks a segment's
/// off-screen samples too; a point grazing the eye costs it ~1e8).
const ORACLE_BUDGET: u64 = 1_000_000;

fn assert_same(fb: &Framebuffer, oracle: &OracleFb, what: &str) {
    assert!(
        fb.rgb_bytes() == oracle.rgb_bytes(),
        "{what}: colour differs"
    );
    assert!(
        depth_bits(fb) == oracle.depth_bits(),
        "{what}: depth differs"
    );
    assert_eq!(fb.mask(), oracle.mask(), "{what}: mask differs");
}

/// Samples the oracle walks to draw `lines` through `mvp`.
fn oracle_samples(oracle: &OracleFb, mvp: &Mat4, lines: &[(Vec<Vec3>, u8)]) -> u64 {
    let mut n = 0;
    for (line, _) in lines {
        for w in line.windows(2) {
            if let (Some(a), Some(b)) = (oracle.project(mvp, w[0]), oracle.project(mvp, w[1])) {
                n += ((b.0 - a.0).abs().max((b.1 - a.1).abs()).ceil() as i32) as u64 + 1;
            }
        }
    }
    n
}

fn random_pose(rng: &mut StdRng) -> Pose {
    let axis = Vec3::new(
        rng.random_range(-1.0..1.0),
        rng.random_range(-1.0..1.0),
        rng.random_range(-1.0..1.0),
    );
    let pos = Vec3::new(
        rng.random_range(-3.0..3.0),
        rng.random_range(-3.0..3.0),
        rng.random_range(-3.0..3.0),
    );
    let angle = rng.random_range(-3.2..3.2);
    Pose::new(pos, Quat::from_axis_angle(axis.normalized_or_zero(), angle))
}

fn random_camera(rng: &mut StdRng, w: usize, h: usize) -> StereoCamera {
    let mut cam = StereoCamera::new(random_pose(rng));
    cam.fovy = rng.random_range(0.4..1.8);
    cam.aspect = w as f32 / h as f32;
    if rng.random_range(0..4) == 0 {
        cam.ipd = rng.random_range(0.0..0.5);
    }
    cam
}

/// One point of a random walk in front of `head`, or now and then a
/// special: NaN, ±∞, huge, behind the eye, or close to the eye plane.
fn random_point(rng: &mut StdRng, head: &Pose, walk: &mut Vec3) -> Vec3 {
    *walk += Vec3::new(
        rng.random_range(-0.4..0.4),
        rng.random_range(-0.4..0.4),
        rng.random_range(-0.4..0.4),
    );
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e30, -1.0e30];
    match rng.random_range(0..40) {
        0 => {
            let mut p = head.transform_point(*walk);
            let v = specials[rng.random_range(0..specials.len())];
            match rng.random_range(0..3) {
                0 => p.x = v,
                1 => p.y = v,
                _ => p.z = v,
            }
            p
        }
        1 => head.transform_point(Vec3::new(walk.x, walk.y, rng.random_range(0.0..3.0))),
        2 => head.transform_point(Vec3::new(
            rng.random_range(-0.05..0.05),
            rng.random_range(-0.05..0.05),
            -rng.random_range(0.001..0.05),
        )),
        _ => head.transform_point(*walk),
    }
}

fn random_lines(rng: &mut StdRng, head: &Pose) -> Vec<(Vec<Vec3>, u8)> {
    (0..rng.random_range(0..12))
        .map(|_| {
            let mut walk = Vec3::new(
                rng.random_range(-4.0..4.0),
                rng.random_range(-4.0..4.0),
                -rng.random_range(0.5..25.0),
            );
            let len = match rng.random_range(0..6) {
                0 => 0,
                1 => 1,
                _ => rng.random_range(2..40),
            };
            let line = (0..len)
                .map(|_| random_point(rng, head, &mut walk))
                .collect();
            (line, rng.random())
        })
        .collect()
}

fn random_mask(rng: &mut StdRng) -> ColorMask {
    ColorMask {
        r: rng.random(),
        g: rng.random(),
        b: rng.random(),
    }
}

fn random_rgb(rng: &mut StdRng) -> Rgb {
    Rgb::new(rng.random(), rng.random(), rng.random())
}

proptest! {
    #[test]
    fn prop_anaglyph_bitwise_equals_sequential_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (rng.random_range(1..97), rng.random_range(1..97));
        let mut fb = Framebuffer::new(w, h);
        let mut oracle = OracleFb::new(w, h);

        // The caller's state: a non-black clear under a random mask, a
        // mono draw, and stray pixels — so the left eye starts from a Z
        // buffer the caller did not clear.
        let color = random_rgb(&mut rng);
        let mask = random_mask(&mut rng);
        let cam = random_camera(&mut rng, w, h);
        let mono = random_lines(&mut rng, &cam.head);
        let mono_mvp = cam.mvp(Eye::Left);
        let mono_mask = random_mask(&mut rng);
        let mono_color = random_rgb(&mut rng);
        prop_assume!(oracle_samples(&oracle, &mono_mvp, &mono) < ORACLE_BUDGET);
        let mut stray = Vec::new();
        for _ in 0..rng.random_range(0..20) {
            let z = if rng.random_range(0..8) == 0 { f32::NAN } else { rng.random_range(-1.5..1.5) };
            stray.push((rng.random_range(-2..w as i32 + 2), rng.random_range(-2..h as i32 + 2), z, random_rgb(&mut rng)));
        }
        fb.set_mask(mask);
        oracle.set_mask(mask);
        fb.clear(color);
        oracle.clear(color);
        fb.set_mask(mono_mask);
        oracle.set_mask(mono_mask);
        for (line, _) in &mono {
            fb.draw_polyline(&mono_mvp, line, mono_color);
            oracle.draw_polyline(&mono_mvp, line, mono_color);
        }
        for &(x, y, z, c) in &stray {
            fb.set_pixel(x, y, z, c);
            oracle.set_pixel(x, y, z, c);
        }
        assert_same(&fb, &oracle, "caller state");

        // Three stereo frames: two drawn over each other (the second
        // reuses the swapped-out Z buffer), then one after a clear.
        for frame in 0..3 {
            let cam = random_camera(&mut rng, w, h);
            let lines = random_lines(&mut rng, &cam.head);
            let cost = oracle_samples(&oracle, &cam.mvp(Eye::Left), &lines)
                + oracle_samples(&oracle, &cam.mvp(Eye::Right), &lines);
            prop_assume!(cost < ORACLE_BUDGET);
            if frame == 2 {
                fb.clear(Rgb::BLACK);
                oracle.clear(Rgb::BLACK);
            }
            render_anaglyph(&mut fb, &cam, &lines);
            oracle::render_anaglyph(&mut oracle, &cam, &lines);
            assert_same(&fb, &oracle, &format!("stereo frame {frame}"));
            prop_assert_eq!(fb.mask(), ColorMask::ALL);
        }
    }
}

/// Segments far longer than the viewport, crossing it at assorted
/// slopes and directions: the new DDA walks only the on-screen run, and
/// must light exactly the pixels and depths the oracle's full walk does.
#[test]
fn long_segments_match_the_full_walk() {
    let segments = [
        ((-2.0e6, 100.3, 0.3), (2.0e6, 120.7, -0.2)),
        ((2.0e6, 479.4, -0.9), (-2.0e6, 0.2, 0.9)),
        ((320.0, -1.5e6, 0.1), (330.5, 2.5e6, 0.1)),
        ((-1.9e6, -1.4e6, 0.5), (2.1e6, 1.6e6, -0.5)),
        ((1.0e6, 1.0e6, 0.0), (-3.0e6, -3.0e6, 1.0)),
        ((100.0, 100.0, 0.2), (4.0e6, 100.0, 0.2)),
        ((-4.0e6, 50.0, 0.4), (-10.0, 50.0, 0.4)),
    ];
    let mut fb = Framebuffer::new(640, 480);
    let mut oracle = OracleFb::new(640, 480);
    fb.clear(Rgb::new(7, 8, 9));
    oracle.clear(Rgb::new(7, 8, 9));
    for (i, &(a, b)) in segments.iter().enumerate() {
        let c = Rgb::new(i as u8 * 30, 255 - i as u8, 3 * i as u8);
        fb.draw_line_screen(a, b, c);
        oracle.draw_line_screen(a, b, c);
        assert_same(&fb, &oracle, &format!("segment {i}"));
    }
    assert!(fb.count_pixels(|c| c != Rgb::new(7, 8, 9)) > 2000);
}

/// Non-finite endpoints: NaN casts to pixel 0 and `±∞·0` is NaN at the
/// first sample, so these light odd pixels — the same odd pixels.
#[test]
fn non_finite_endpoints_match_the_oracle() {
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let segments = [
        ((nan, 5.0, 0.0), (nan, 9.0, 0.0)),
        ((nan, 5.0, 0.0), (3.0, 9.0, 0.0)),
        ((4.0, 5.0, 0.0), (nan, nan, 0.0)),
        ((4.0, 5.0, nan), (6.0, 9.0, 0.0)),
        ((4.0, 5.0, 0.0), (6.0, 9.0, -inf)),
        ((nan, 2.0, 0.0), (nan, -3.0e6, 0.0)),
    ];
    let mut fb = Framebuffer::new(16, 16);
    let mut oracle = OracleFb::new(16, 16);
    for (i, &(a, b)) in segments.iter().enumerate() {
        fb.draw_line_screen(a, b, Rgb::WHITE);
        oracle.draw_line_screen(a, b, Rgb::WHITE);
        assert_same(&fb, &oracle, &format!("segment {i}"));
    }
    // An infinite endpoint, which the oracle would walk for i32::MAX
    // samples: its first sample is NaN in x (pixel 0), the rest off screen.
    let mut fb = Framebuffer::new(16, 16);
    fb.draw_line_screen((4.0, 5.0, 0.0), (inf, 9.0, 0.0), Rgb::WHITE);
    assert_eq!(fb.pixel(0, 5), Rgb::WHITE);
    assert_eq!(fb.count_pixels(|c| c == Rgb::WHITE), 1);
}
