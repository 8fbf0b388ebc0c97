//! Renderer benchmarks: can the software rasterizer hold the head-tracked
//! display rate of figure 9 (the client's fast loop), and what does the
//! writemask stereo pass cost over mono?

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vecmath::{Pose, Vec3};
use vr::stereo::{render_anaglyph, StereoCamera};
use vr::{Framebuffer, Rgb};

/// A synthetic scene shaped like the benchmark's `playback_wire` frame:
/// 200 polylines of 501 points swirling around the origin, every segment
/// under a pixel long.
fn scene() -> Vec<(Vec<Vec3>, u8)> {
    (0..200)
        .map(|l| {
            let phase = l as f32 * 0.05;
            let line: Vec<Vec3> = (0..501)
                .map(|s| {
                    let t = s as f32 * 0.01;
                    Vec3::new(
                        (t + phase).cos() * (1.0 + 0.1 * t),
                        (t * 0.7).sin(),
                        (t + phase).sin() * (1.0 + 0.1 * t) - 6.0,
                    )
                })
                .collect();
            (line, 200u8)
        })
        .collect()
}

fn bench_mono(c: &mut Criterion) {
    let lines = scene();
    let cam = StereoCamera::new(Pose::new(Vec3::new(0.0, 0.0, 2.0), Default::default()));
    let mvp = cam.projection() * cam.head.view_matrix();
    c.bench_function("render_mono_200x501_640x480", |b| {
        let mut fb = Framebuffer::new(640, 480);
        b.iter(|| {
            fb.clear(Rgb::BLACK);
            for (line, shade) in &lines {
                fb.draw_polyline(&mvp, line, Rgb::red(*shade));
            }
            black_box(fb.count_pixels(|c| c.r > 0))
        })
    });
}

fn bench_stereo(c: &mut Criterion) {
    let lines = scene();
    let cam = StereoCamera::new(Pose::new(Vec3::new(0.0, 0.0, 2.0), Default::default()));
    c.bench_function("render_anaglyph_200x501_640x480", |b| {
        let mut fb = Framebuffer::new(640, 480);
        b.iter(|| {
            fb.clear(Rgb::BLACK);
            render_anaglyph(&mut fb, &cam, &lines);
            black_box(fb.count_pixels(|c| c.b > 0))
        })
    });
}

criterion_group!(benches, bench_mono, bench_stereo);
criterion_main!(benches);
