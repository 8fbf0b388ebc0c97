//! Table 1 — network constraints.
//!
//! Paper columns: particle count, bytes transferred per frame, bandwidth
//! required for 10 frames/s. We print the analytic rows (the table's
//! formula: 12 B/particle × 10 fps — the 1992 wire) and then *measure*
//! the achieved frame rate shipping real `GeometryFrame` payloads over
//! loopback TCP through the three UltraNet regimes of §5.1: the
//! rated-but-unreachable 100 MB/s, the VME-limited 13 MB/s, and the buggy
//! 1 MB/s the authors actually had at submission time.
//!
//! The frames shipped are *traced* — streamlines through the full-scale
//! tapered cylinder, 500 points a seed — and go through
//! `GeometryFrame::encode`, whose point codec (DESIGN.md §6.8) sends
//! about a third of 12 B/particle; the table prints both byte counts and
//! the bandwidth each needs, and measures frame rates on what is sent.
//!
//! Expected shape: the paper's conclusion was that at 13 MB/s every row
//! clears 10 fps except 100 000 particles, which sits right at the limit;
//! encoded, that row needs under a third of the link. At 1 MB/s only
//! ~10 000-particle scenes are interactive.

use bench_support::{paper_spec, tapered_dataset, traced_frame, TablePrinter};
use dlib::ThrottledWriter;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Instant;
use storage::constraints::{
    frame_bytes, required_network_mbytes_per_sec, TABLE1_PARTICLES, TARGET_FPS,
};
use storage::MemoryStore;

/// Ship `frames` copies of the payload over loopback at `rate` B/s;
/// returns seconds per frame.
fn measure(payload: &[u8], rate: f64, frames: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let expected = payload.len() * frames;
    let reader = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut buf = vec![0u8; 1 << 20];
        let mut total = 0usize;
        while total < expected {
            match sock.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(_) => break,
            }
        }
    });
    let sock = std::net::TcpStream::connect(addr).unwrap();
    let mut w = ThrottledWriter::new(std::io::BufWriter::new(sock), rate);
    let start = Instant::now();
    for _ in 0..frames {
        w.write_all(payload).unwrap();
    }
    w.flush().unwrap();
    let elapsed = start.elapsed();
    reader.join().unwrap();
    elapsed.as_secs_f64() / frames as f64
}

fn main() {
    println!(
        "\nTable 1: Network constraints (12 B/particle columns are the paper's analytic rows)\n"
    );
    let mut t = TablePrinter::new(&[
        "# particles",
        "bytes/frame",
        "req MB/s @10fps",
        "encoded B/frame",
        "enc MB/s @10fps",
        "fps @100MB/s",
        "fps @13MB/s",
        "fps @1MB/s",
    ]);

    eprintln!("generating dataset ...");
    let dataset = tapered_dataset(paper_spec(), 2);
    let grid = dataset.grid().clone();
    let store = MemoryStore::from_dataset(dataset);
    for &particles in &TABLE1_PARTICLES {
        let frame = traced_frame(&store, &grid, particles as usize);
        assert_eq!(
            frame.particle_count() as u64,
            particles,
            "a seed left the grid"
        );
        assert_eq!(frame.path_payload_bytes() as u64, frame_bytes(particles));
        let payload = frame.encode();
        // Fewer trips for the slow regimes so the bin stays fast.
        let fps_100 = 1.0 / measure(&payload, 100.0e6, 12);
        let fps_13 = 1.0 / measure(&payload, 13.0e6, 8);
        let fps_1 = 1.0 / measure(&payload, 1.0e6, if particles > 20_000 { 2 } else { 4 });
        t.row(&[
            format!("{particles}"),
            format!("{}", frame_bytes(particles)),
            format!(
                "{:.3}",
                required_network_mbytes_per_sec(particles, TARGET_FPS)
            ),
            format!("{}", payload.len()),
            format!(
                "{:.3}",
                payload.len() as f64 * TARGET_FPS / (1024.0 * 1024.0)
            ),
            format!("{fps_100:.1}"),
            format!("{fps_13:.1}"),
            format!("{fps_1:.1}"),
        ]);
    }

    println!();
    println!("paper row check: 10k -> 120000 B, 1.144 MB/s; 50k -> 600000 B, 5.722 MB/s;");
    println!("100k -> 1200000 B (paper prints 9.537 MB/s; the formula gives 11.444 — see EXPERIMENTS.md).");
    println!("Encoded columns: what GeometryFrame::encode sends for the same traced particles");
    println!("(points on the 2^-14 lattice through the predictive point codec; MB = 2^20 B as in");
    println!("the paper's column; fps are of the encoded frames). Shape to verify: at 12 B a");
    println!("particle 100k sit at the 13 MB/s limit; encoded they need about a tenth of it.");
}
