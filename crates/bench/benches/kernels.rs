//! Criterion micro-benchmarks of the hot kernels behind Table 3:
//! trilinear interpolation (AoS vs SoA), single RK2 steps, and the full
//! 100×200 benchmark per kernel.

use bench_support::{paper_benchmark_seeds, small_spec, tapered_field};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tracer::benchmark::{run_kernel, BenchField, Kernel};
use tracer::{Integrator, TraceConfig};
use vecmath::Vec3;

fn bench_interpolation(c: &mut Criterion) {
    use flowfield::FieldSample;
    let (field, _domain) = tapered_field(small_spec(), 3.0);
    let soa = field.to_soa();
    let dims = small_spec().dims;
    let probes: Vec<Vec3> = (0..256)
        .map(|i| {
            let f = i as f32 / 256.0;
            Vec3::new(
                (dims.ni - 2) as f32 * f,
                (dims.nj - 2) as f32 * (1.0 - f),
                (dims.nk - 2) as f32 * f,
            )
        })
        .collect();

    let mut g = c.benchmark_group("interpolation");
    g.bench_function("aos_256_samples", |b| {
        b.iter(|| {
            let mut acc = Vec3::ZERO;
            for &p in &probes {
                if let Some(v) = field.sample(black_box(p)) {
                    acc += v;
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("soa_256_samples", |b| {
        b.iter(|| {
            let mut acc = Vec3::ZERO;
            for &p in &probes {
                if let Some(v) = soa.sample(black_box(p)) {
                    acc += v;
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("soa_batch_256", |b| {
        let mut out = vec![Vec3::ZERO; probes.len()];
        let mut alive = vec![true; probes.len()];
        b.iter(|| {
            alive.fill(true);
            soa.sample_batch(black_box(&probes), &mut out, &mut alive);
            black_box(&out);
        })
    });
    g.finish();
}

fn bench_integrators(c: &mut Criterion) {
    let (field, domain) = tapered_field(small_spec(), 3.0);
    let start = Vec3::new(8.0, 6.0, 4.0);
    let mut g = c.benchmark_group("integrator_step");
    for (name, scheme) in [
        ("euler", Integrator::Euler),
        ("rk2", Integrator::Rk2),
        ("rk4", Integrator::Rk4),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(scheme.step(&field, &domain, black_box(start), 0.1)))
        });
    }
    g.finish();
}

fn bench_table3_kernels(c: &mut Criterion) {
    let spec = small_spec();
    let (field, domain) = tapered_field(spec, 3.0);
    let bench = BenchField::new(field, spec.build().expect("grid"), domain);
    let seeds = paper_benchmark_seeds(spec.dims, 100);
    let cfg = TraceConfig {
        dt: 0.35,
        max_points: 200,
        ..TraceConfig::default()
    };
    let mut g = c.benchmark_group("table3_100x200");
    g.sample_size(10);
    for kernel in Kernel::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(kernel.label()),
            &kernel,
            |b, &k| b.iter(|| black_box(run_kernel(k, &bench, &seeds, &cfg).0)),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_interpolation,
    bench_integrators,
    bench_table3_kernels
);
criterion_main!(benches);
