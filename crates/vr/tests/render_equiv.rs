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

/// World (x, y, z) to pixel (x, y) and NDC depth 2z, every step exact
/// on a 65×65 framebuffer for the dyadic inputs below: the `-0.0` terms
/// keep a −0.0 z negative (for x, y ≥ 0), and |z| = 3e38 lands on ±∞.
fn pixel_mvp() -> Mat4 {
    Mat4 {
        m: [
            [1.0 / 32.0, 0.0, 0.0, -1.0],
            [0.0, -1.0 / 32.0, 0.0, 1.0],
            [-0.0, -0.0, 2.0, -0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    }
}

/// Draws `lines` through [`pixel_mvp`] on both renderers and compares.
fn draw_pixel_lines(lines: &[Vec<Vec3>]) -> (Framebuffer, OracleFb) {
    let mvp = pixel_mvp();
    let mut fb = Framebuffer::new(65, 65);
    let mut oracle = OracleFb::new(65, 65);
    for (i, line) in lines.iter().enumerate() {
        let c = Rgb::new(40 + i as u8, 255 - i as u8, 7 * i as u8);
        fb.draw_polyline(&mvp, line, c);
        oracle.draw_polyline(&mvp, line, c);
        assert_same(&fb, &oracle, &format!("line {i}"));
    }
    (fb, oracle)
}

/// Segments whose longer screen axis spans exactly one pixel (one DDA
/// step), just over one (two steps), and exactly zero (no step: the first
/// endpoint alone), on half-pixel positions that round away from zero.
#[test]
fn one_step_boundaries_match_the_oracle() {
    let p = |x: f32, y: f32| Vec3::new(x, y, 0.25);
    let above = 1.0 + 1.0 / 1024.0;
    let lines = [
        vec![p(10.0, 10.0), p(11.0, 10.5), p(11.5, 11.5), p(12.5, 11.0)],
        vec![
            p(20.5, 5.0),
            p(20.5 + above, 5.0),
            p(20.5 + above, 5.0 + above),
        ],
        vec![p(30.0, 30.0), p(30.0, 30.0), p(30.5, 30.5), p(30.5, 30.5)],
        vec![p(40.25, 2.0), p(40.25 + above, 2.5), p(40.25, 2.5 + above)],
        vec![p(0.0, 0.0), p(-0.0, 0.0), p(0.5, -0.0), p(1.5, 0.0)],
    ];
    let (fb, _) = draw_pixel_lines(&lines);
    // One step lights both endpoints' pixels; just over one lights the
    // midpoint sample too; zero lights one pixel.
    assert_ne!(fb.pixel(11, 11), Rgb::BLACK);
    assert_ne!(fb.pixel(22, 5), Rgb::BLACK);
    assert_ne!(fb.pixel(31, 31), Rgb::BLACK);
    assert_eq!(fb.pixel(30, 30), fb.pixel(31, 31));
}

/// Runs of samples on one pixel whose depths tie at ±0.0 in either order,
/// or are NaN (between two infinite endpoints, or ∞ − ∞): the fold into
/// one write must leave the bit pattern the sequential writes leave.
#[test]
fn pixel_runs_with_signed_zero_ties_and_nan_match_the_oracle() {
    let p = |x: f32, y: f32, z: f32| Vec3::new(x, y, z);
    let lines = [
        // Samples on (20, 20): 0.5, +0.0, then −0.0 (−0.0 + −3·0).
        vec![
            p(20.1, 20.0, 0.25),
            p(20.2, 20.0, -0.0),
            p(21.0, 20.0, -1.5),
        ],
        // On (24, 20): −0.0 then +0.0 (−0.0 + (+0.0)) — the later wins.
        vec![
            p(24.1, 20.0, -0.0),
            p(24.2, 20.0, -1.5),
            p(24.3, 20.0, -0.0),
        ],
        vec![p(26.2, 20.0, -0.0), p(26.4, 20.0, -0.0), p(27.0, 20.0, 0.0)],
        // NaN and ∞ samples among finite ones on (30, 30).
        vec![
            p(30.0, 30.0, 0.25),
            p(30.1, 30.0, 3.0e38),
            p(30.2, 30.0, 3.0e38),
            p(30.3, 30.0, -0.0),
            p(30.4, 30.0, 0.0),
            p(30.45, 30.0, -3.0e38),
        ],
        // Only NaN samples: nothing lands.
        vec![p(40.0, 40.0, 3.0e38), p(40.1, 40.0, 3.0e38)],
        // A NaN vertex (every coordinate NaN, pixel 0) inside a run.
        vec![p(0.2, 0.0, 0.5), p(0.3, 0.0, f32::NAN), p(0.1, 0.0, -0.0)],
    ];
    let (fb, _) = draw_pixel_lines(&lines);
    assert_eq!(fb.depth_at(20, 20).to_bits(), (-0.0f32).to_bits());
    assert_eq!(fb.depth_at(40, 40), f32::INFINITY);
    assert_eq!(fb.pixel(40, 40), Rgb::BLACK);
}

proptest! {
    /// Random polylines crowded onto a few pixels, on a 1/8-pixel grid,
    /// with depths drawn from ±0.0, ±∞, NaN and a few finite values: long
    /// same-pixel runs, ties and every segment length from 0 to 3 steps.
    #[test]
    fn prop_crowded_pixel_runs_match_the_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zs = [0.0, -0.0, 0.25, -0.25, 3.0e38, -3.0e38, f32::NAN];
        let lines: Vec<Vec<Vec3>> = (0..rng.random_range(1..6))
            .map(|_| {
                (0..rng.random_range(0..24))
                    .map(|_| {
                        let x = 8.0 + rng.random_range(0..24) as f32 / 8.0;
                        let y = 8.0 + rng.random_range(0..24) as f32 / 8.0;
                        Vec3::new(x, y, zs[rng.random_range(0..zs.len())])
                    })
                    .collect()
            })
            .collect();
        draw_pixel_lines(&lines);
    }

    /// Frame after frame on one framebuffer: clears to a repeated or new
    /// colour under a repeated or new mask, stray pixels anywhere (also
    /// outside everything drawn since the last clear), mono lines and
    /// stereo frames, compared after every step. Exercises the clears and
    /// Z resets that touch only what was drawn.
    #[test]
    fn prop_dirty_regions_across_frames_match_the_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (rng.random_range(1..80), rng.random_range(1..80));
        let mut fb = Framebuffer::new(w, h);
        let mut oracle = OracleFb::new(w, h);
        let colours = [Rgb::BLACK, Rgb::new(9, 200, 31), random_rgb(&mut rng)];
        let masks = [ColorMask::ALL, ColorMask::RED_ONLY, random_mask(&mut rng)];
        for step in 0..24 {
            match rng.random_range(0..6) {
                0 | 1 => {
                    let cam = random_camera(&mut rng, w, h);
                    let lines = random_lines(&mut rng, &cam.head);
                    let cost = oracle_samples(&oracle, &cam.mvp(Eye::Left), &lines)
                        + oracle_samples(&oracle, &cam.mvp(Eye::Right), &lines);
                    prop_assume!(cost < ORACLE_BUDGET);
                    render_anaglyph(&mut fb, &cam, &lines);
                    oracle::render_anaglyph(&mut oracle, &cam, &lines);
                }
                2 => {
                    let c = colours[rng.random_range(0..colours.len())];
                    fb.clear(c);
                    oracle.clear(c);
                }
                3 => {
                    let m = masks[rng.random_range(0..masks.len())];
                    fb.set_mask(m);
                    oracle.set_mask(m);
                }
                4 => {
                    let (x, y) = (rng.random_range(0..w as i32), rng.random_range(0..h as i32));
                    let z = rng.random_range(-1.0..1.0);
                    let c = colours[rng.random_range(0..colours.len())];
                    fb.set_pixel(x, y, z, c);
                    oracle.set_pixel(x, y, z, c);
                }
                _ => {
                    let cam = random_camera(&mut rng, w, h);
                    let lines = random_lines(&mut rng, &cam.head);
                    let mvp = cam.mvp(Eye::Left);
                    prop_assume!(oracle_samples(&oracle, &mvp, &lines) < ORACLE_BUDGET);
                    let c = random_rgb(&mut rng);
                    for (line, _) in &lines {
                        fb.draw_polyline(&mvp, line, c);
                        oracle.draw_polyline(&mvp, line, c);
                    }
                    if rng.random() {
                        fb.clear_depth();
                        oracle.clear_depth();
                    }
                }
            }
            assert_same(&fb, &oracle, &format!("step {step}"));
        }
    }
}
