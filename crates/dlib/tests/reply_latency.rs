//! Round-trip latency of a reply must not depend on where its size falls
//! relative to a buffer or a TCP segment.
//!
//! Before the vectored writer a reply left the server as two writes — the
//! 4-byte length prefix, then the payload — on a socket without
//! `TCP_NODELAY`. For payloads above the old 8 KiB write buffer whose last
//! segment was short of a full MSS, Nagle held that segment until the
//! prefix was ACKed, and the client's delayed ACK took 40 ms: every such
//! round trip cost ≥ 40 ms on loopback. The sizes below straddle the old
//! buffer (8 191…8 193), sit inside the stall window (60 400 is the
//! benchmark's disk-workload frame), straddle one loopback MSS
//! (65 482…65 484 + 20 bytes of envelope), and go well past it.

use bytes::Bytes;
use dlib::{DlibClient, DlibServer};
use std::time::{Duration, Instant};

const PROC_BLOB: u32 = 1;
const SIZES: [usize; 9] = [
    1, 8_191, 8_192, 8_193, 60_400, 65_482, 65_484, 131_072, 1_205_380,
];
const ROUND_TRIPS: usize = 15;
/// A quarter of the stall: room for a noisy 2-vCPU host, none for a
/// delayed ACK.
const LIMIT: Duration = Duration::from_millis(10);

#[test]
fn reply_round_trip_is_flat_across_sizes() {
    let mut server = DlibServer::new(());
    server.register(PROC_BLOB, |_, _, args: &[u8]| {
        let len = u32::from_le_bytes(args.try_into().map_err(|_| "want a u32 length")?);
        Ok(Bytes::from(vec![0x5A; len as usize]))
    });
    let handle = server.serve("127.0.0.1:0").unwrap();
    let mut client = DlibClient::connect(handle.addr()).unwrap();
    let mut slow = Vec::new();
    for size in SIZES {
        let mut trips: Vec<Duration> = (0..ROUND_TRIPS)
            .map(|_| {
                let started = Instant::now();
                let reply = client
                    .call(PROC_BLOB, &(size as u32).to_le_bytes())
                    .unwrap();
                let took = started.elapsed();
                assert_eq!(reply.len(), size);
                took
            })
            .collect();
        trips.sort();
        let median = trips[ROUND_TRIPS / 2];
        if median >= LIMIT {
            slow.push(format!("{size} B: median {median:?}"));
        }
    }
    assert!(
        slow.is_empty(),
        "median round trip must stay under {LIMIT:?}: {slow:?}"
    );
    handle.shutdown();
}
