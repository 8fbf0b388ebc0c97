//! The benchmark's own serialising link: a one-connection TCP relay whose
//! server→client direction is paced at a fixed byte rate.
//!
//! This is deliberately not `dlib::ThrottledWriter`. That writer banks up
//! to 50 ms of idle time as burst credit, and in a closed loop the link is
//! idle for the whole of the server's compute, so the credit hides the
//! compute behind the link and the "link-bound" frame time comes out as
//! exactly bytes/rate. Here a slice of `n` bytes occupies the link for
//! `n / rate` starting when the link is free *and* the slice has arrived:
//! `free_at = max(arrived, free_at) + n / rate`. Idle time earns nothing.
//!
//! Slices are queued with the time they arrived, so the sender thread
//! waking late from a sleep costs the link nothing either: the next slice
//! was already waiting and starts where the previous one ended.

use crate::spans::Clock;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes handed to the pacer at a time.
pub const SLICE_BYTES: usize = 16 * 1024;

/// Slices the link's input queue holds before the reader stops draining
/// the server's socket (64 MiB — far beyond one reply).
const QUEUE_SLICES: usize = 4096;

/// Link occupancy model, separate from the sockets so it can be tested
/// with synthetic clocks.
pub struct Pacer {
    bytes_per_sec: f64,
    free_at: Option<Instant>,
}

impl Pacer {
    pub fn new(bytes_per_sec: f64) -> Pacer {
        Pacer {
            bytes_per_sec,
            free_at: None,
        }
    }

    /// Whether a slice that arrived at `arrived` found the link idle (as
    /// opposed to queued behind the previous slice).
    pub fn idle_at(&self, arrived: Instant) -> bool {
        self.free_at.is_none_or(|free| arrived > free)
    }

    /// Schedule `n` bytes that arrived at `arrived`; returns the instant
    /// their last byte leaves the link.
    pub fn release_at(&mut self, arrived: Instant, n: usize) -> Instant {
        let start = self.free_at.map_or(arrived, |free| free.max(arrived));
        let done = start + Duration::from_secs_f64(n as f64 / self.bytes_per_sec);
        self.free_at = Some(done);
        done
    }
}

/// One busy period of the paced direction, in [`Clock`] nanoseconds: first
/// slice arrived → last slice released.
pub type Burst = (u64, u64);

pub struct Relay {
    addr: SocketAddr,
    bytes_down: Arc<AtomicU64>,
    bursts: Arc<Mutex<Vec<Burst>>>,
    thread: JoinHandle<io::Result<()>>,
}

fn join<T>(handle: JoinHandle<io::Result<T>>) -> io::Result<T> {
    handle
        .join()
        .unwrap_or_else(|_| Err(io::Error::other("relay thread panicked")))
}

impl Relay {
    /// Listen on an ephemeral loopback port and relay the first connection
    /// to `upstream`, pacing upstream→client at `bytes_per_sec`.
    pub fn start(upstream: SocketAddr, bytes_per_sec: f64, clock: Clock) -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let bytes_down = Arc::new(AtomicU64::new(0));
        let bursts = Arc::new(Mutex::new(Vec::new()));
        let (bytes, sink) = (Arc::clone(&bytes_down), Arc::clone(&bursts));
        let thread = std::thread::Builder::new()
            .name("bench-relay".into())
            .spawn(move || {
                let (client, _) = listener.accept()?;
                drop(listener);
                let server = TcpStream::connect(upstream)?;
                client.set_nodelay(true)?;
                server.set_nodelay(true)?;
                let up = pump_unpaced(client.try_clone()?, server.try_clone()?);
                let (queue, reader) = read_slices(server, clock);
                let down = send_paced(queue, client, bytes_per_sec, clock, &bytes, &sink);
                down.and(join(reader)).and(join(up))
            })?;
        Ok(Relay {
            addr,
            bytes_down,
            bursts,
            thread,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Exact count of bytes forwarded server→client so far.
    pub fn bytes_down(&self) -> u64 {
        self.bytes_down.load(Ordering::Relaxed)
    }

    /// Wait for the relayed connection to end (the client must already
    /// have hung up) and return the paced direction's busy periods.
    pub fn finish(self) -> io::Result<Vec<Burst>> {
        // If no client ever connected, unblock the pending accept.
        drop(TcpStream::connect(self.addr));
        join(self.thread)?;
        Ok(std::mem::take(
            &mut *self.bursts.lock().expect("burst sink poisoned"),
        ))
    }
}

fn pump_unpaced(mut from: TcpStream, mut to: TcpStream) -> JoinHandle<io::Result<()>> {
    std::thread::spawn(move || {
        let copied = io::copy(&mut from, &mut to).map(|_| ());
        // Pass the hang-up on so the server ends the session and the
        // paced direction sees end-of-stream.
        let _ = to.shutdown(Shutdown::Write);
        copied
    })
}

/// A slice of the paced direction with the times it reached the relay.
struct Slice {
    arrived: Instant,
    arrived_ns: u64,
    bytes: Vec<u8>,
}

/// The link's input queue: drain `from` as fast as it delivers, stamping
/// each slice with its arrival.
fn read_slices(mut from: TcpStream, clock: Clock) -> (Receiver<Slice>, JoinHandle<io::Result<()>>) {
    let (tx, rx) = mpsc::sync_channel(QUEUE_SLICES);
    let reader = std::thread::spawn(move || loop {
        let mut bytes = vec![0u8; SLICE_BYTES];
        match from.read(&mut bytes) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                bytes.truncate(n);
                let slice = Slice {
                    arrived: Instant::now(),
                    arrived_ns: clock.now_ns(),
                    bytes,
                };
                if tx.send(slice).is_err() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(()),
            Err(e) => return Err(e),
        }
    });
    (rx, reader)
}

fn send_paced(
    queue: Receiver<Slice>,
    mut to: TcpStream,
    bytes_per_sec: f64,
    clock: Clock,
    bytes: &AtomicU64,
    bursts: &Mutex<Vec<Burst>>,
) -> io::Result<()> {
    let mut pacer = Pacer::new(bytes_per_sec);
    let mut burst: Option<Burst> = None;
    let mut result = Ok(());
    for slice in queue {
        if pacer.idle_at(slice.arrived) {
            if let Some(done) = burst.take() {
                bursts.lock().expect("burst sink poisoned").push(done);
            }
        }
        let release = pacer.release_at(slice.arrived, slice.bytes.len());
        if let Some(wait) = release.checked_duration_since(Instant::now()) {
            #[allow(clippy::disallowed_methods)] // pacing: holding the slice back is the link
            std::thread::sleep(wait);
        }
        if let Err(e) = to.write_all(&slice.bytes) {
            result = Err(e);
            break;
        }
        bytes.fetch_add(slice.bytes.len() as u64, Ordering::Relaxed);
        let start_ns = burst.map_or(slice.arrived_ns, |(start, _)| start);
        burst = Some((start_ns, clock.now_ns()));
    }
    if let Some(done) = burst {
        bursts.lock().expect("burst sink poisoned").push(done);
    }
    let _ = to.shutdown(Shutdown::Write);
    result
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the test sleeps to leave the link idle between bursts
mod tests {
    use super::*;

    #[test]
    fn pacer_gives_no_idle_credit() {
        let rate = 1.0e6;
        let mut pacer = Pacer::new(rate);
        let t0 = Instant::now();
        // Burst one: four slices of 10 kB arriving together = 40 ms of link.
        let mut done = t0;
        for _ in 0..4 {
            done = pacer.release_at(t0, 10_000);
        }
        let first = done - t0;
        // A full second of idle, then the same burst again.
        let t1 = done + Duration::from_secs(1);
        assert!(pacer.idle_at(t1));
        for _ in 0..4 {
            done = pacer.release_at(t1, 10_000);
        }
        let second = done - t1;
        for took in [first, second] {
            let ratio = took.as_secs_f64() / 0.040;
            assert!((0.95..=1.05).contains(&ratio), "burst took {took:?}");
        }
    }

    #[test]
    fn queued_slice_starts_where_the_previous_one_ended() {
        let mut pacer = Pacer::new(1.0e6);
        let t0 = Instant::now();
        let first = pacer.release_at(t0, 1_000);
        // Arrived while the first was still on the link: queued, not idle,
        // however late the sender thread gets round to it.
        let arrived = t0 + Duration::from_micros(300);
        assert!(!pacer.idle_at(arrived));
        assert_eq!(
            pacer.release_at(arrived, 1_000),
            first + Duration::from_millis(1)
        );
    }

    #[test]
    fn relay_paces_and_counts_bytes_exactly() {
        // Upstream: answers each 1-byte request with a 65 000-byte reply.
        const REPLY: usize = 65_000;
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut req = [0u8; 1];
            while s.read_exact(&mut req).is_ok() {
                s.write_all(&vec![req[0]; REPLY]).unwrap();
            }
        });
        let rate = 2.0e6; // 65 kB → 32.5 ms per reply
        let relay = Relay::start(upstream_addr, rate, Clock::new()).unwrap();
        let mut client = TcpStream::connect(relay.addr()).unwrap();
        let mut reply = vec![0u8; REPLY];
        for round in 0..2u8 {
            let started = Instant::now();
            client.write_all(&[round + 1]).unwrap();
            client.read_exact(&mut reply).unwrap();
            let ratio = started.elapsed().as_secs_f64() / (REPLY as f64 / rate);
            assert!((0.95..=1.10).contains(&ratio), "round {round}: {ratio}");
            assert!(reply.iter().all(|&b| b == round + 1));
            // Idle between the bursts must not buy the second one speed.
            std::thread::sleep(Duration::from_millis(60));
        }
        assert_eq!(relay.bytes_down(), 2 * REPLY as u64);
        drop(client);
        let bursts = relay.finish().unwrap();
        server.join().unwrap();
        assert_eq!(bursts.len(), 2);
        for (start, end) in bursts {
            let ratio = (end - start) as f64 / 1.0e9 / (REPLY as f64 / rate);
            assert!((0.95..=1.10).contains(&ratio), "burst {ratio}");
        }
    }
}
