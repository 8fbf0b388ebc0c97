//! Offline stand-in for `criterion`.
//!
//! Implements the criterion 0.5 API surface this workspace's benches
//! use — `Criterion::benchmark_group`, `bench_function` /
//! `bench_with_input`, `Bencher::iter`, `BenchmarkId`, `Throughput`,
//! and the `criterion_group!` / `criterion_main!` macros — with a
//! simple wall-clock measurement loop instead of criterion's
//! statistical machinery. Each benchmark self-calibrates its batch
//! size, measures batches for ~`CRITERION_MEASURE_MS` (default 80 ms),
//! and prints the median time per iteration over the batches, its
//! quartiles, and the derived throughput at the median. One mean over
//! the whole budget hides the spread, and on a shared host two readings
//! of the same build can differ by a third.

use std::fmt::Display;
use std::time::{Duration, Instant};

fn measure_budget() -> Duration {
    let ms = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(80u64);
    Duration::from_millis(ms)
}

/// Work per iteration, used to report derived throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Benchmark label: an optional function name plus a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> BenchmarkId {
        BenchmarkId { label }
    }
}

/// Runs the measurement loop and records ns/iteration per batch.
pub struct Bencher {
    batch_ns_per_iter: Vec<f64>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and calibrate: grow the batch until one batch is
        // long enough to time reliably.
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let dt = t.elapsed();
            if dt >= Duration::from_millis(2) || batch >= 1 << 22 {
                break;
            }
            batch = batch.saturating_mul(4);
        }

        let budget = measure_budget();
        let mut elapsed = Duration::ZERO;
        self.batch_ns_per_iter.clear();
        // At least five batches, so the quartiles are batches apart.
        while elapsed < budget || self.batch_ns_per_iter.len() < 5 {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let dt = t.elapsed();
            elapsed += dt;
            self.batch_ns_per_iter
                .push(dt.as_nanos() as f64 / batch as f64);
        }
    }

    /// (first quartile, median, third quartile) over the batches.
    fn quartiles(&mut self) -> (f64, f64, f64) {
        let v = &mut self.batch_ns_per_iter;
        if v.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        v.sort_by(f64::total_cmp);
        let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
        (at(0.25), at(0.5), at(0.75))
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn report(group: Option<&str>, label: &str, b: &mut Bencher, throughput: Option<Throughput>) {
    let full = match group {
        Some(g) => format!("{g}/{label}"),
        None => label.to_string(),
    };
    let (q1, median, q3) = b.quartiles();
    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let per_sec = bytes as f64 / (median / 1e9);
            format!("  ({:.1} MiB/s)", per_sec / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) => {
            let per_sec = n as f64 / (median / 1e9);
            format!("  ({per_sec:.0} elem/s)")
        }
        None => String::new(),
    };
    println!(
        "bench: {full:<56} {:>12}/iter  [{} .. {}]{rate}",
        human_time(median),
        human_time(q1),
        human_time(q3),
    );
}

fn run_one<F>(group: Option<&str>, label: &str, throughput: Option<Throughput>, f: F)
where
    F: FnOnce(&mut Bencher),
{
    let mut b = Bencher {
        batch_ns_per_iter: Vec::new(),
    };
    f(&mut b);
    report(group, label, &mut b, throughput);
}

/// Top-level harness handle; holds no state in the shim.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Criterion
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(None, &id.into().label, None, f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's budget is time-based.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(Some(&self.name), &id.into().label, self.throughput, f);
        self
    }

    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(Some(&self.name), &id.into().label, self.throughput, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        std::env::set_var("CRITERION_MEASURE_MS", "5");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_smoke");
        g.sample_size(10);
        g.throughput(Throughput::Bytes(1024));
        g.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.bench_function("push", |b| {
            b.iter(|| {
                let mut v = vec![1u8];
                v.push(2u8);
                v
            })
        });
        g.finish();
        c.bench_function(BenchmarkId::from_parameter(7), |b| b.iter(|| 7u32 * 6));
    }
}
