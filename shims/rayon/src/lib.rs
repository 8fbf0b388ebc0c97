//! Offline stand-in for `rayon`.
//!
//! Implements the slice of the rayon API this workspace uses — `par_iter`
//! / `into_par_iter` / `par_chunks` with `map`, `flat_map_iter`,
//! `for_each` and `collect`, plus `ThreadPoolBuilder::install` for
//! thread-count ablations — on top of `std::thread::scope`.
//!
//! Unlike real rayon there is no persistent work-stealing pool: each
//! parallel stage spawns its workers and joins them before returning, and
//! the workers claim items one at a time from a shared cursor, so an item
//! list of uneven costs (a 100-seed rake beside four smoke rakes) still
//! balances. Results come back in input order, as rayon guarantees for
//! indexed iterators, and a panicking item panics the caller. A stage of
//! zero or one item, or one started under `install` with one thread, runs
//! on the caller's thread and spawns nothing. A stage started inside a
//! worker runs serially on that worker: stages never nest, so no stage
//! ever holds more threads than the machine has cores.

use std::cell::Cell;
use std::panic;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Effective parallelism for stages started on this thread. The machine's
/// count is read once, as a real pool sizes itself once: on Linux
/// `available_parallelism` reads cgroup files, ≈ 20 µs a call.
pub fn current_num_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    POOL_THREADS.with(|c| c.get()).unwrap_or_else(|| {
        *MACHINE.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Parallel-map `items` through `f`, preserving input order. The caller
/// is one of the workers.
fn pmap<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let cursor = Mutex::new(items.into_iter().enumerate());
    // Claims the next item; the guard drops before the item runs.
    let claim = || cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = claim() {
            done.push((i, f(item)));
        }
        done
    };
    let mut slots: Vec<Option<U>> = (0..len).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                s.spawn(|| {
                    POOL_THREADS.with(|c| c.set(Some(1)));
                    work()
                })
            })
            .collect();
        let own = POOL_THREADS.with(|c| c.replace(Some(1)));
        let mine = panic::catch_unwind(panic::AssertUnwindSafe(&work));
        POOL_THREADS.with(|c| c.set(own));
        let mut results = vec![mine];
        results.extend(handles.into_iter().map(|h| h.join()));
        for result in results {
            let done = result.unwrap_or_else(|payload| panic::resume_unwind(payload));
            for (i, u) in done {
                slots[i] = Some(u);
            }
        }
    });
    slots
        .into_iter()
        .map(|u| u.expect("every item is claimed exactly once"))
        .collect()
}

/// An eagerly evaluated "parallel iterator": adapters run the parallel
/// stage immediately and hand back the materialized results.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync + Send,
    {
        ParIter {
            items: pmap(self.items, f),
        }
    }

    pub fn flat_map_iter<U, I, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Sync + Send,
    {
        let nested = pmap(self.items, |t| f(t).into_iter().collect::<Vec<U>>());
        ParIter {
            items: nested.into_iter().flatten().collect(),
        }
    }

    pub fn filter_map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> Option<U> + Sync + Send,
    {
        let nested = pmap(self.items, f);
        ParIter {
            items: nested.into_iter().flatten().collect(),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync + Send,
    {
        pmap(self.items, f);
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// `into_par_iter` for anything iterable (vectors, ranges, maps).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn into_par_iter(self) -> ParIter<I::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Borrowing parallel access to slices: `par_iter` and `par_chunks`.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<&T>;
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

/// Error from [`ThreadPoolBuilder::build`] (infallible in the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// 0 means "use the default", as in real rayon.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = (n > 0).then_some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool" that scopes a thread-count override: parallel stages started
/// inside `install` run on at most `num_threads` threads, the caller's
/// among them.
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(self.num_threads));
        let result = op();
        POOL_THREADS.with(|c| c.set(prev));
        result
    }

    pub fn current_num_threads(&self) -> usize {
        self.num_threads.unwrap_or_else(current_num_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.windows(2).all(|w| w[1] == w[0] + 2));
    }

    #[test]
    fn par_iter_borrows() {
        let data = [1, 2, 3, 4];
        let sum: Vec<i32> = data.par_iter().map(|&x| x + 1).collect();
        assert_eq!(sum, vec![2, 3, 4, 5]);
    }

    #[test]
    fn par_chunks_and_flat_map() {
        let data: Vec<u32> = (0..10).collect();
        let out: Vec<u32> = data.par_chunks(3).flat_map_iter(|c| c.to_vec()).collect();
        assert_eq!(out, data);
    }

    #[test]
    fn install_limits_threads() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let n = pool.install(super::current_num_threads);
        assert_eq!(n, 2);
        // Override is scoped.
        assert!(super::current_num_threads() >= 1);
    }

    fn pool(n: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn uneven_items_keep_order_and_run_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let out: Vec<usize> = pool(3).install(|| {
            (0..40)
                .into_par_iter()
                .map(|i| {
                    // One long item up front, the rest short or free.
                    let spins = if i == 0 { 2_000_000 } else { (i % 5) * 20_000 };
                    std::hint::black_box((0..spins).fold(0usize, |a, x| a ^ x));
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                })
                .collect()
        });
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panicking_item_panics_the_caller() {
        for threads in [1, 2, 3] {
            let caught = std::panic::catch_unwind(|| {
                pool(threads).install(|| {
                    (0..8)
                        .into_par_iter()
                        .map(|i| assert_ne!(i, 5, "item five"))
                        .collect::<Vec<()>>()
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("item five"), "payload kept: {msg:?}");
        }
        // The caller's own override is restored after its item panicked.
        let n = pool(2).install(|| {
            let _ = std::panic::catch_unwind(|| {
                (0..2).into_par_iter().for_each(|_| panic!("both items"));
            });
            super::current_num_threads()
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn one_thread_runs_on_the_caller() {
        let me = std::thread::current().id();
        let ids: Vec<_> = pool(1).install(|| {
            (0..16)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == me));
    }

    #[test]
    fn empty_and_single_stages_spawn_nothing() {
        let me = std::thread::current().id();
        pool(4).install(|| {
            let none: Vec<std::thread::ThreadId> = Vec::<u8>::new()
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            assert!(none.is_empty());
            let one: Vec<_> = [7u8]
                .par_iter()
                .map(|_| (std::thread::current().id(), super::current_num_threads()))
                .collect();
            // The lone item runs on the caller, which keeps its threads
            // for any stage the item starts.
            assert_eq!(one, vec![(me, 4)]);
        });
    }

    #[test]
    fn stages_do_not_nest() {
        let inner: Vec<Vec<bool>> = pool(2).install(|| {
            (0..6)
                .into_par_iter()
                .map(|_| {
                    let outer = std::thread::current().id();
                    (0..4)
                        .into_par_iter()
                        .map(|_| std::thread::current().id() == outer)
                        .collect()
                })
                .collect()
        });
        assert!(inner.iter().flatten().all(|&same| same));
    }
}
