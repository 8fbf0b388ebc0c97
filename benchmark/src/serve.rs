//! `serve` mode: the child process the driver measures.
//!
//! Builds exactly the stack `dvw-server --cache 16 --readahead 4` ships —
//! `DiskStore → CachedStore(16) → ReadAhead(4)` — with the Convex disk
//! model directly above `DiskStore`, and the benchmark's two timing
//! wrappers at the stack's two ends.

use crate::spans::{self, Recorder};
use crate::spanstore::SpanStore;
use crate::Result;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use storage::{CachedStore, DiskModel, DiskStore, ReadAhead, SimulatedDisk, TimestepStore};
use tracer::TraceConfig;
use windtunnel::compute::ComputeConfig;
use windtunnel::ServerOptions;

/// Resident window, timesteps (`dvw-server`'s default).
pub const CACHE_TIMESTEPS: usize = 16;
/// Read-ahead depth, timesteps.
pub const READAHEAD_DEPTH: usize = 4;
/// Streamline step and length: 500 steps → 501 points per seed.
pub const TRACE_DT: f32 = 0.02;
pub const TRACE_MAX_POINTS: usize = 500;

/// Span name of a fetch as `windtunnel::serve` sees it.
pub const SPAN_FETCH: &str = "storage.fetch";
/// Span name of a fetch that reached the simulated disk.
pub const SPAN_BACKEND_READ: &str = "storage.backend_read";

pub fn server_options() -> ServerOptions {
    ServerOptions {
        periodic_i: true,
        compute: ComputeConfig {
            trace: TraceConfig {
                dt: TRACE_DT,
                max_points: TRACE_MAX_POINTS,
                ..TraceConfig::default()
            },
            ..ComputeConfig::default()
        },
        ..ServerOptions::default()
    }
}

/// Serve `data_dir` on an ephemeral port, print `port <n>`, and run until
/// stdin reaches end-of-file; then print the recorded spans and return.
pub fn run(data_dir: &Path, traced: bool) -> Result<()> {
    let recorder = Arc::new(Recorder::new(traced));
    let disk = DiskStore::open(data_dir)?;
    let grid = disk.grid().clone();
    let backend = SpanStore::new(
        SimulatedDisk::new(disk, DiskModel::convex_c3240()),
        SPAN_BACKEND_READ,
        Arc::clone(&recorder),
    );
    let cached = Arc::new(CachedStore::new(backend, CACHE_TIMESTEPS));
    let store: Arc<dyn TimestepStore> = Arc::new(SpanStore::new(
        ReadAhead::new(cached, READAHEAD_DEPTH),
        SPAN_FETCH,
        Arc::clone(&recorder),
    ));
    let handle = windtunnel::serve(store, grid, server_options(), "127.0.0.1:0")?;
    println!("port {}", handle.addr().port());

    // The driver holds the other end of stdin; it closes it (or dies) when
    // the run is over.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    for span in recorder.take() {
        println!("{}", spans::to_wire_line(&span));
    }
    Ok(())
}
