//! Renderer benchmarks: can the software rasterizer hold the head-tracked
//! display rate of figure 9 (the client's fast loop), and what does the
//! writemask stereo pass cost over mono? The `loop_*` cases are the
//! end-to-end benchmark's own render step (`benchmark/`, span
//! `vr.render`): clear, then `render_stereo_for_user` on a 640×480
//! framebuffer, on traced frames as the wire delivers them.

use bench_support::{paper_spec, tapered_dataset, traced_frame};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use storage::MemoryStore;
use vecmath::{Mat4, Pose, Vec3};
use vr::stereo::{render_anaglyph, StereoCamera};
use vr::{Framebuffer, Rgb};
use windtunnel::client::Palette;
use windtunnel::proto::GeometryFrame;
use windtunnel::WindtunnelClient;

const WIDTH: usize = 640;
const HEIGHT: usize = 480;

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

/// The benchmark's stereo camera at a head pose looking at `center`.
fn loop_camera(eye: Vec3, center: Vec3) -> StereoCamera {
    let head = Pose::from_mat4(&Mat4::look_at(eye, center, Vec3::Y).inverse_rigid());
    let mut cam = StereoCamera::new(head);
    cam.aspect = WIDTH as f32 / HEIGHT as f32;
    cam.fovy = 0.9;
    cam
}

/// Times the benchmark's render step on `frame` from `cam`.
fn bench_loop_frame(c: &mut Criterion, name: &str, frame: &GeometryFrame, cam: &StereoCamera) {
    let palette = Palette::default();
    c.bench_function(name, |b| {
        let mut fb = Framebuffer::new(WIDTH, HEIGHT);
        b.iter(|| {
            fb.clear(Rgb::BLACK);
            WindtunnelClient::render_stereo_for_user(frame, &mut fb, cam, &palette, 0);
        });
        black_box(fb.count_pixels(|c| c.b > 0));
    });
}

fn bench_loop(c: &mut Criterion) {
    let dataset = tapered_dataset(paper_spec(), 2);
    let grid = dataset.grid().clone();
    let bounds = grid.bounds();
    let store = MemoryStore::from_dataset(dataset);
    // As the client holds it: decoded from the wire, on the lattice.
    let wire_frame = |particles| {
        let frame = traced_frame(&store, &grid, particles);
        GeometryFrame::decode(&frame.encode()).expect("a frame decodes")
    };
    // `playback_wire` and `drag_smoke`: the fixed three-quarter view.
    let center = bounds.center();
    let dist = bounds.diagonal().max(1.0);
    let three_quarter = loop_camera(center + Vec3::new(-0.3, 0.5, 0.9) * dist, center);
    bench_loop_frame(
        c,
        "loop_100k_three_quarter",
        &wire_frame(100_000),
        &three_quarter,
    );
    // `head_pose_shared`: where its orbit of the wake starts.
    let (angle, wake) = (0.9f32, Vec3::new(2.0, 0.0, 4.0));
    let orbit = Vec3::new(14.0 * angle.cos(), 5.0, 14.0 * angle.sin());
    let orbit = loop_camera(wake + orbit, wake);
    bench_loop_frame(c, "loop_10k_head_pose_orbit", &wire_frame(10_000), &orbit);
    // Nothing drawn: the per-frame fixed cost.
    c.bench_function("loop_empty_clear_and_anaglyph", |b| {
        let mut fb = Framebuffer::new(WIDTH, HEIGHT);
        let empty: [(Vec<Vec3>, u8); 0] = [];
        b.iter(|| {
            fb.clear(Rgb::BLACK);
            render_anaglyph(&mut fb, &three_quarter, &empty);
        });
    });
}

criterion_group!(benches, bench_mono, bench_stereo, bench_loop);
criterion_main!(benches);
