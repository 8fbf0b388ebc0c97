//! Figures 1–3 — the visualization imagery, regenerated.
//!
//! * Figure 1: "Streaklines of the flow around the tapered cylinder
//!   rendered as smoke."
//! * Figure 2: "Streamlines of the flow around the tapered cylinder."
//! * Figure 3: "Streamlines … from the same seedpoints as in figure 2,
//!   but at a later time."
//!
//! Output: `fig{1,2,3}_{stereo,mono}.ppm` in the directory given as the
//! one optional argument, default `bench_out/` (the committed golden
//! copies, which `scripts/check.sh` renders elsewhere and compares
//! against byte for byte). The stereo images use the paper's exact
//! red/blue writemask pipeline; the mono images are the "conventional
//! screen" rendering of §6. Figure 2 vs figure 3 shows the unsteadiness:
//! same seeds, visibly different paths.

use bench_support::{paper_spec, tapered_field};
use cfd::tapered_cylinder::TaperedCylinderFlow;
use std::path::Path;
use tracer::{streamline, Domain, Rake, Streakline, StreaklineConfig, ToolKind, TraceConfig};
use vecmath::{Pose, Quat, Vec3};
use vr::ppm::write_ppm;
use vr::render::Rgb;
use vr::stereo::{render_anaglyph, StereoCamera};
use vr::Framebuffer;

const W: usize = 640;
const H: usize = 480;

/// Camera looking at the cylinder from upstream-above.
fn camera(spec: &cfd::OGridSpec) -> StereoCamera {
    let target = Vec3::new(2.0, 0.0, spec.span * 0.5);
    let eye = Vec3::new(-3.0, 7.0, spec.span * 0.5 + 9.0);
    // Orient the head to look at the target.
    let view = vecmath::Mat4::look_at(eye, target, Vec3::Y);
    let head_mat = view.inverse_rigid();
    let mut cam = StereoCamera::new(Pose::from_mat4(&head_mat));
    cam.fovy = 0.9;
    cam.aspect = W as f32 / H as f32;
    cam
}

/// The cylinder body itself, as a wire cage (rings + spanwise lines).
fn cylinder_wireframe(spec: &cfd::OGridSpec) -> Vec<(Vec<Vec3>, u8)> {
    let mut lines = Vec::new();
    let rings = 9;
    for rk in 0..rings {
        let z = spec.span * rk as f32 / (rings - 1) as f32;
        let a = spec.radius_at(z);
        let ring: Vec<Vec3> = (0..=48)
            .map(|s| {
                let th = std::f32::consts::TAU * s as f32 / 48.0;
                Vec3::new(a * th.cos(), a * th.sin(), z)
            })
            .collect();
        lines.push((ring, 90));
    }
    for s in 0..12 {
        let th = std::f32::consts::TAU * s as f32 / 12.0;
        let line: Vec<Vec3> = (0..rings)
            .map(|rk| {
                let z = spec.span * rk as f32 / (rings - 1) as f32;
                let a = spec.radius_at(z);
                Vec3::new(a * th.cos(), a * th.sin(), z)
            })
            .collect();
        lines.push((line, 90));
    }
    lines
}

/// The figure rake: a spanwise line of seeds upstream of the cylinder
/// (in grid coordinates: fixed angle facing upstream, mid radius).
fn figure_rake(spec: &cfd::OGridSpec) -> Rake {
    let dims = spec.dims;
    // Angle index at θ≈π (upstream side): i = (ni-1)/2.
    let i_up = (dims.ni - 1) as f32 * 0.5;
    let j = (dims.nj - 1) as f32 * 0.35;
    Rake::new(
        Vec3::new(i_up, j, (dims.nk - 1) as f32 * 0.1),
        Vec3::new(i_up, j, (dims.nk - 1) as f32 * 0.9),
        16,
        ToolKind::Streakline,
    )
}

fn render_to(out_dir: &Path, name: &str, spec: &cfd::OGridSpec, paths: &[(Vec<Vec3>, u8)]) {
    let cam = camera(spec);
    let mut all: Vec<(Vec<Vec3>, u8)> = cylinder_wireframe(spec);
    all.extend_from_slice(paths);

    // Stereo (the paper's display).
    let mut fb = Framebuffer::new(W, H);
    render_anaglyph(&mut fb, &cam, &all);
    write_ppm(&out_dir.join(format!("{name}_stereo.ppm")), &fb).unwrap();

    // Mono (the conventional-screen rendering of §6).
    let mut fb = Framebuffer::new(W, H);
    let mvp = cam.projection() * cam.head.view_matrix();
    for (line, shade) in &all {
        let c = Rgb::new(*shade, (*shade as f32 * 0.85) as u8, 60);
        fb.draw_polyline(&mvp, line, c);
    }
    write_ppm(&out_dir.join(format!("{name}_mono.ppm")), &fb).unwrap();
    println!(
        "wrote {name}_stereo.ppm and {name}_mono.ppm ({} polylines)",
        all.len()
    );
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench_out".into());
    let out_dir = Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).unwrap();
    let spec = paper_spec();
    let grid = spec.build().unwrap();
    let flow = TaperedCylinderFlow {
        spec,
        ..TaperedCylinderFlow::default()
    };
    let period = 1.0 / flow.shedding_frequency(0.0);
    let domain = Domain::o_grid(spec.dims);
    let rake = figure_rake(&spec);

    // ------------------------------------------------------------------
    // Figure 1: streaklines as smoke. Advance a streak system through the
    // unsteady flow for ~3 shedding periods, re-sampling the field as
    // time advances (the disk-streaming loop, inlined).
    eprintln!("figure 1: advecting smoke ...");
    let streak_cfg = StreaklineConfig {
        dt: period / 40.0,
        max_age: 400,
        ..StreaklineConfig::default()
    };
    let mut streak = Streakline::new(rake.seeds(), streak_cfg);
    let frames = 120usize;
    let mut field_cache = None;
    for f in 0..frames {
        let t = f as f32 * streak_cfg.dt;
        // Re-sample the analytic field every 4 frames (a timestep every
        // 4 display frames, like a 0.25-rate playback).
        if f % 4 == 0 || field_cache.is_none() {
            let (field, _) = tapered_field(spec, t);
            field_cache = Some(field);
        }
        streak.advance(field_cache.as_ref().unwrap(), &domain);
        if f % 30 == 0 {
            eprintln!(
                "  frame {f}/{frames}, {} particles",
                streak.particle_count()
            );
        }
    }
    let smoke: Vec<(Vec<Vec3>, u8)> = streak
        .filaments()
        .into_iter()
        .filter(|l| l.len() > 1)
        .map(|l| (grid.path_to_physical(&l), 200))
        .collect();
    println!(
        "figure 1: {} filaments, {} particles",
        smoke.len(),
        streak.particle_count()
    );
    render_to(out_dir, "fig1_streaklines", &spec, &smoke);

    // ------------------------------------------------------------------
    // Figures 2 and 3: streamlines from the same seeds at two times.
    let trace_cfg = TraceConfig {
        dt: 0.3,
        max_points: 200,
        ..TraceConfig::default()
    };
    for (fig, t) in [
        ("fig2_streamlines_t0", 6.0 * period),
        ("fig3_streamlines_t1", 6.5 * period),
    ] {
        eprintln!("{fig}: tracing ...");
        let (field, _) = tapered_field(spec, t);
        let lines: Vec<(Vec<Vec3>, u8)> = rake
            .seeds()
            .iter()
            .map(|&s| streamline(&field, &domain, s, &trace_cfg))
            .filter(|l| l.len() > 1)
            .map(|l| (grid.path_to_physical(&l), 235))
            .collect();
        println!("{fig}: {} streamlines", lines.len());
        render_to(out_dir, fig, &spec, &lines);
    }

    // Quantify the fig2-vs-fig3 difference (same seeds, later time).
    let (f2, _) = tapered_field(spec, 6.0 * period);
    let (f3, _) = tapered_field(spec, 6.5 * period);
    let mut max_div = 0.0f32;
    for &s in &rake.seeds() {
        let a = streamline(&f2, &domain, s, &trace_cfg);
        let b = streamline(&f3, &domain, s, &trace_cfg);
        for (pa, pb) in a.iter().zip(&b) {
            max_div = max_div.max(pa.distance(*pb));
        }
    }
    println!("\nmax streamline divergence between fig2 and fig3 (grid units): {max_div:.2}");
    println!("shape to verify: smoke rolls up into the staggered vortex street (fig1);");
    println!(
        "streamlines from identical seeds differ visibly between the two times (fig2 vs fig3)."
    );
    let _ = Quat::IDENTITY; // keep the import used in all cfgs
}
