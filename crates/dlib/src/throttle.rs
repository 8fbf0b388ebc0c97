//! Bandwidth-paced stream wrapper.
//!
//! §5.1: "The UltraNet high-speed network … is rated at 100
//! megabytes/second, but the UltraNet VME interface to the SGI workstation
//! limits the bandwidth to 13 megabytes/second… As of this writing, the
//! actual network performance is only 1 megabyte/second due to software
//! bugs." Table 1's constraint analysis only bites when the link is the
//! bottleneck; [`ThrottledWriter`] recreates each of those three regimes
//! on loopback so the bench harness can measure achieved frame rates
//! against the paper's bandwidth column.

use std::io::Write;
use std::time::{Duration, Instant};

/// Writer that paces its output to a byte rate using a token bucket.
pub struct ThrottledWriter<W> {
    inner: W,
    bytes_per_sec: f64,
    /// Bucket state: accumulated "debt" time when we wrote faster than
    /// the rate.
    earliest_next: Instant,
    bytes_written: u64,
    started: Instant,
}

impl<W: Write> ThrottledWriter<W> {
    /// Wrap `inner`, pacing to `bytes_per_sec` (≤ 0 disables pacing).
    pub fn new(inner: W, bytes_per_sec: f64) -> ThrottledWriter<W> {
        let now = Instant::now();
        ThrottledWriter {
            inner,
            bytes_per_sec,
            earliest_next: now,
            bytes_written: 0,
            started: now,
        }
    }

    /// The three network regimes of §5.1, in bytes/second.
    pub fn ultranet_rated() -> f64 {
        100.0e6
    }
    pub fn ultranet_vme() -> f64 {
        13.0e6
    }
    pub fn ultranet_buggy() -> f64 {
        1.0e6
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Achieved throughput since construction.
    pub fn achieved_bytes_per_sec(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.bytes_written as f64 / secs
        } else {
            0.0
        }
    }

    pub fn into_inner(self) -> W {
        self.inner
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for ThrottledWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Pace in chunks so large writes spread smoothly instead of
        // bursting then sleeping one long time.
        const CHUNK: usize = 64 * 1024;
        let take = buf.len().min(CHUNK);
        if self.bytes_per_sec > 0.0 {
            let now = Instant::now();
            if self.earliest_next > now {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "rate-limiter pacing: the caller asked to block until the next send slot"
                )]
                std::thread::sleep(self.earliest_next - now);
            }
            let cost = Duration::from_secs_f64(take as f64 / self.bytes_per_sec);
            let base = self
                .earliest_next
                .max(Instant::now() - Duration::from_millis(50));
            self.earliest_next = base + cost;
        }
        let n = self.inner.write(&buf[..take])?;
        self.bytes_written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_passes_through_fast() {
        let mut w = ThrottledWriter::new(Vec::new(), 0.0);
        let start = Instant::now();
        w.write_all(&vec![0u8; 1_000_000]).unwrap();
        assert!(start.elapsed() < Duration::from_millis(200));
        assert_eq!(w.bytes_written(), 1_000_000);
        assert_eq!(w.into_inner().len(), 1_000_000);
    }

    #[test]
    fn throttle_enforces_rate() {
        // 1 MB/s: 200 KB should take ≈ 0.2 s.
        let mut w = ThrottledWriter::new(Vec::new(), 1.0e6);
        let start = Instant::now();
        w.write_all(&vec![0u8; 200_000]).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(120),
            "finished too fast: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(800),
            "paced too slowly: {elapsed:?}"
        );
    }

    #[test]
    fn achieved_rate_close_to_target() {
        let mut w = ThrottledWriter::new(std::io::sink(), 2.0e6);
        w.write_all(&vec![0u8; 400_000]).unwrap();
        let rate = w.achieved_bytes_per_sec();
        assert!(rate < 3.0e6, "rate {rate}");
        assert!(rate > 0.8e6, "rate {rate}");
    }

    #[test]
    fn data_is_intact() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut w = ThrottledWriter::new(Vec::new(), 50.0e6);
        w.write_all(&payload).unwrap();
        assert_eq!(w.into_inner(), payload);
    }

    #[test]
    fn regime_constants() {
        assert_eq!(ThrottledWriter::<Vec<u8>>::ultranet_rated(), 100.0e6);
        assert_eq!(ThrottledWriter::<Vec<u8>>::ultranet_vme(), 13.0e6);
        assert_eq!(ThrottledWriter::<Vec<u8>>::ultranet_buggy(), 1.0e6);
    }
}
