//! Disk-resident store: one velocity file per timestep, read on demand.
//!
//! "The Convex C3240 with its disk I/O bandwidth of 30 megabytes/second
//! can load datasets of up to about three and a quarter megabytes [per
//! timestep] in 1/8th of a second. Thus datasets whose timesteps are this
//! size are limited only by the disk storage space." (§5.1)

use crate::{StoreIoStats, TimestepStore};
use flowfield::{format, CurvilinearGrid, DatasetMeta, FieldError, Result, VectorField};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many recently-returned buffers the recycle bin retains. Playback
/// holds at most a handful of timesteps live (current + blend partner +
/// a short prefetch window), so a small bin recycles essentially every
/// steady-state fetch.
const POOL_CAPACITY: usize = 8;

/// Recycle bin of previously returned buffers. A fetch pushes a clone of
/// the `Arc` it hands out; a later fetch reclaims any entry whose outside
/// handle has been dropped (`strong_count == 1` while the bin is locked
/// means the bin holds the only reference, so `try_unwrap` recovers the
/// allocation without copying).
struct Pool<T> {
    bin: Mutex<Vec<Arc<T>>>,
}

impl<T> Pool<T> {
    fn new() -> Pool<T> {
        Pool {
            bin: Mutex::new(Vec::with_capacity(POOL_CAPACITY)),
        }
    }

    /// Take a reclaimable buffer, if any.
    fn take(&self) -> Option<T> {
        let mut bin = self.bin.lock();
        let pos = bin.iter().position(|a| Arc::strong_count(a) == 1)?;
        let arc = bin.swap_remove(pos);
        // The bin held the only handle and the bin is locked, so nobody
        // can clone it concurrently; unwrap cannot race.
        Arc::try_unwrap(arc).ok()
    }

    /// Remember a handed-out buffer for future recycling.
    fn retain(&self, arc: &Arc<T>) {
        let mut bin = self.bin.lock();
        if bin.len() >= POOL_CAPACITY {
            bin.remove(0);
        }
        bin.push(Arc::clone(arc));
    }
}

/// Store backed by a dataset directory written with
/// [`flowfield::format::write_dataset`] (v1 raw planes) or
/// [`flowfield::format::write_dataset_v2`] (compressed chunks) — the
/// container version is detected per file, so mixed directories work.
///
/// Fetches route through pooled buffers: the steady-state playback loop
/// allocates no `VectorField`, and v2 chunks decode in parallel via rayon
/// inside [`format::decode_velocity_into`].
pub struct DiskStore {
    dir: PathBuf,
    meta: DatasetMeta,
    grid: CurvilinearGrid,
    bytes_read: AtomicU64,
    reads: AtomicU64,
    io_wait_us: AtomicU64,
    decode_us: AtomicU64,
    pool: Pool<VectorField>,
}

impl DiskStore {
    /// Open a dataset directory (reads metadata and grid eagerly; the
    /// timesteps stay on disk).
    pub fn open(dir: &Path) -> Result<DiskStore> {
        let meta = format::read_meta(&format::meta_path(dir))?;
        let grid = format::read_grid(&format::grid_path(dir))?;
        if grid.dims() != meta.dims {
            return Err(FieldError::Format(
                "grid file dims do not match metadata".into(),
            ));
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            meta,
            grid,
            bytes_read: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            io_wait_us: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            pool: Pool::new(),
        })
    }

    /// The curvilinear grid (loaded once at open).
    pub fn grid(&self) -> &CurvilinearGrid {
        &self.grid
    }

    /// Total velocity file bytes read so far — the Table 2 meter. For v1
    /// files this is payload + the fixed header; for v2 it is the actual
    /// compressed size, which is the point of the codec.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Number of timestep reads so far.
    pub fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Path of one timestep file.
    pub fn timestep_path(&self, index: usize) -> PathBuf {
        format::velocity_path(&self.dir, index)
    }

    fn check_range(&self, index: usize) -> Result<()> {
        if index >= self.meta.timestep_count {
            return Err(FieldError::Format(format!("timestep {index} out of range")));
        }
        Ok(())
    }

    /// Read the timestep file, accounting the I/O time and bytes.
    fn read_file(&self, index: usize) -> Result<Vec<u8>> {
        let t = Instant::now();
        let data = std::fs::read(self.timestep_path(index))?;
        self.io_wait_us.fetch_add(elapsed_us(t), Ordering::Relaxed);
        self.bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(data)
    }

    fn check_header(&self, index: usize, header: format::VelocityHeader) -> Result<()> {
        if header.index as usize != index {
            return Err(FieldError::Format(format!(
                "file for timestep {index} claims index {}",
                header.index
            )));
        }
        Ok(())
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl TimestepStore for DiskStore {
    fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    fn fetch(&self, index: usize) -> Result<Arc<VectorField>> {
        self.check_range(index)?;
        let data = self.read_file(index)?;
        let mut field = self
            .pool
            .take()
            .unwrap_or_else(|| VectorField::zeros(self.meta.dims));
        let t = Instant::now();
        let header = format::decode_velocity_into(&data, &mut field)?;
        self.decode_us.fetch_add(elapsed_us(t), Ordering::Relaxed);
        self.check_header(index, header)?;
        let arc = Arc::new(field);
        self.pool.retain(&arc);
        Ok(arc)
    }

    fn payload_bytes(&self, index: usize) -> u64 {
        // Actual on-disk size, so bandwidth models charge what the codec
        // really transfers; fall back to the raw estimate if the file is
        // missing (the subsequent fetch will report the real error).
        std::fs::metadata(self.timestep_path(index))
            .map(|m| m.len())
            .unwrap_or_else(|_| self.meta.dims.timestep_bytes() as u64)
    }

    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            io_wait_us: self.io_wait_us.load(Ordering::Relaxed),
            decode_us: self.decode_us.load(Ordering::Relaxed),
            prefetch_hits: 0,
            prefetch_misses: self.reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::{dataset::VelocityCoords, Dataset, Dims};
    use tempfile::tempdir;
    use vecmath::{Aabb, Vec3};

    fn write_test_dataset(dir: &Path, n: usize) -> Dataset {
        let dims = Dims::new(4, 4, 2);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::splat(3.0))).unwrap();
        let meta = DatasetMeta {
            name: "disk".into(),
            dims,
            timestep_count: n,
            dt: 0.25,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..n)
            .map(|t| VectorField::from_fn(dims, move |i, _, _| Vec3::new(i as f32, t as f32, 0.0)))
            .collect();
        let ds = Dataset::new(meta, grid, fields).unwrap();
        format::write_dataset(dir, &ds).unwrap();
        ds
    }

    #[test]
    fn open_and_fetch() {
        let dir = tempdir().unwrap();
        let ds = write_test_dataset(dir.path(), 3);
        let store = DiskStore::open(dir.path()).unwrap();
        assert_eq!(store.meta(), ds.meta());
        assert_eq!(store.grid().dims(), ds.dims());
        let f = store.fetch(1).unwrap();
        assert_eq!(f.at(2, 0, 0), Vec3::new(2.0, 1.0, 0.0));
    }

    #[test]
    fn byte_accounting() {
        let dir = tempdir().unwrap();
        write_test_dataset(dir.path(), 2);
        let store = DiskStore::open(dir.path()).unwrap();
        assert_eq!(store.bytes_read(), 0);
        store.fetch(0).unwrap();
        store.fetch(1).unwrap();
        // Actual file bytes: v1 payload plus the fixed 28-byte header.
        assert_eq!(store.bytes_read(), 2 * (4 * 4 * 2 * 12 + 28));
        assert_eq!(store.read_count(), 2);
        let io = store.io_stats();
        assert_eq!(io.prefetch_misses, 2);
        assert_eq!(io.prefetch_hits, 0);
    }

    fn write_v2_test_dataset(dir: &Path, n: usize) -> Dataset {
        let dims = Dims::new(4, 4, 2);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::splat(3.0))).unwrap();
        let meta = DatasetMeta {
            name: "disk-v2".into(),
            dims,
            timestep_count: n,
            dt: 0.25,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..n)
            .map(|t| VectorField::from_fn(dims, move |i, _, _| Vec3::new(i as f32, t as f32, 0.0)))
            .collect();
        let ds = Dataset::new(meta, grid, fields).unwrap();
        format::write_dataset_v2(dir, &ds).unwrap();
        ds
    }

    #[test]
    fn v2_dataset_fetch_bitwise_and_charged_at_compressed_size() {
        let dir = tempdir().unwrap();
        let ds = write_v2_test_dataset(dir.path(), 3);
        let store = DiskStore::open(dir.path()).unwrap();
        let f = store.fetch(1).unwrap();
        assert_eq!(f.as_slice(), ds.timesteps()[1].as_slice());
        // payload_bytes reports the compressed file size, below raw.
        let raw = store.meta().dims.timestep_bytes() as u64;
        assert!(store.payload_bytes(1) < raw, "compressed should be < raw");
        assert_eq!(store.bytes_read(), store.payload_bytes(1));
    }

    #[test]
    fn pooled_buffers_recycle_without_stale_data() {
        let dir = tempdir().unwrap();
        write_test_dataset(dir.path(), 4);
        let store = DiskStore::open(dir.path()).unwrap();
        // Drop each handle before the next fetch so the pool recycles the
        // same buffer; every fetch must still see its own timestep.
        for t in 0..4 {
            let f = store.fetch(t).unwrap();
            assert_eq!(f.at(0, 0, 0).y, t as f32, "stale pooled data at {t}");
            drop(f);
        }
        // Held handles must never be recycled out from under the caller.
        let a = store.fetch(0).unwrap();
        let b = store.fetch(1).unwrap();
        assert_eq!(a.at(0, 0, 0).y, 0.0);
        assert_eq!(b.at(0, 0, 0).y, 1.0);
    }

    #[test]
    fn io_stats_accumulate() {
        let dir = tempdir().unwrap();
        write_test_dataset(dir.path(), 2);
        let store = DiskStore::open(dir.path()).unwrap();
        store.fetch(0).unwrap();
        store.fetch(1).unwrap();
        let io = store.io_stats();
        assert_eq!(io.prefetch_misses, 2);
    }

    #[test]
    fn out_of_range_fetch_fails() {
        let dir = tempdir().unwrap();
        write_test_dataset(dir.path(), 2);
        let store = DiskStore::open(dir.path()).unwrap();
        assert!(store.fetch(2).is_err());
    }

    #[test]
    fn missing_directory_fails() {
        assert!(DiskStore::open(Path::new("/nonexistent/nowhere")).is_err());
    }

    #[test]
    fn missing_timestep_file_fails() {
        let dir = tempdir().unwrap();
        write_test_dataset(dir.path(), 3);
        std::fs::remove_file(format::velocity_path(dir.path(), 1)).unwrap();
        let store = DiskStore::open(dir.path()).unwrap();
        assert!(store.fetch(1).is_err());
        assert!(store.fetch(0).is_ok());
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let dir = tempdir().unwrap();
        write_test_dataset(dir.path(), 4);
        let store = Arc::new(DiskStore::open(dir.path()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let f = s.fetch(t).unwrap();
                assert_eq!(f.at(0, 0, 0).y, t as f32);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.read_count(), 4);
    }
}
