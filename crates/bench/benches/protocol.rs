//! Protocol benchmarks: geometry-frame encode/decode of traced
//! streamline frames at Table 1's particle counts (what the wire carries:
//! points rounded to the dataset's lattice, then the point codec), and
//! full dlib round trips over loopback.

use bench_support::{paper_spec, tapered_dataset, traced_frame};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use storage::constraints::TABLE1_PARTICLES;
use storage::MemoryStore;
use windtunnel::proto::GeometryFrame;

fn bench_frame_codec(c: &mut Criterion) {
    let dataset = tapered_dataset(paper_spec(), 2);
    let grid = dataset.grid().clone();
    let store = MemoryStore::from_dataset(dataset);
    let mut g = c.benchmark_group("geometry_frame_codec");
    for particles in TABLE1_PARTICLES.map(|p| p as usize) {
        let frame = traced_frame(&store, &grid, particles);
        let encoded = frame.encode();
        g.throughput(Throughput::Bytes(encoded.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", particles), &frame, |b, f| {
            b.iter(|| black_box(f.encode()))
        });
        g.bench_with_input(
            BenchmarkId::new("encode_into_reused", particles),
            &frame,
            |b, f| {
                let mut scratch = bytes::BytesMut::new();
                b.iter(|| {
                    scratch.clear();
                    f.encode_into(&mut scratch);
                    black_box(scratch.len())
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("decode", particles), &encoded, |b, e| {
            b.iter(|| black_box(GeometryFrame::decode(e).unwrap()))
        });
    }
    g.finish();
}

fn bench_dlib_roundtrip(c: &mut Criterion) {
    use dlib::server::DlibServer;
    use dlib::DlibClient;

    let mut server = DlibServer::new(());
    server.register(1, |_, _, args| Ok(bytes::Bytes::copy_from_slice(args)));
    let handle = server.serve("127.0.0.1:0").unwrap();
    let mut client = DlibClient::connect(handle.addr()).unwrap();

    let mut g = c.benchmark_group("dlib_roundtrip");
    g.sample_size(30);
    for size in [64usize, 120_000, 1_200_000] {
        let payload = vec![0u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &payload, |b, p| {
            b.iter(|| black_box(client.call(1, p).unwrap()))
        });
    }
    g.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_frame_codec, bench_dlib_roundtrip);
criterion_main!(benches);
