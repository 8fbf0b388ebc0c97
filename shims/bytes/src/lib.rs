//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no crates-io access, so the workspace ships
//! its own implementation of the small slice of the `bytes` API it uses:
//! [`Bytes`] (an `Arc`-backed immutable view that clones and subslices
//! without copying, and takes over a `Vec<u8>` without copying it either),
//! [`BytesMut`] (a growable builder), and the [`Buf`] /
//! [`BufMut`] reader/writer traits. Semantics follow the real crate
//! closely enough that swapping the dependency back is a one-line change.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, immutable, sliceable byte buffer.
///
/// Internally an `Arc<Vec<u8>>` plus a window; `clone`, `slice` and
/// `From<Vec<u8>>` are O(1) and never copy the payload (`Arc<[u8]>` would
/// reallocate and memcpy the vector on every conversion).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer (no payload allocation).
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wrap a static slice. The shim copies once into shared storage
    /// (the real crate borrows; callers only use this for tiny literals).
    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }

    /// Copy a slice into a fresh shared buffer.
    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        Bytes::from(b.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// O(1) subslice sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes over the vector's allocation; no copy.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(b: &[u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_ref()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

/// Growable byte builder; `freeze` converts into a shared [`Bytes`]
/// without copying.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { vec: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Drop the contents but keep the allocation for reuse.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, b: &[u8]) {
        self.vec.extend_from_slice(b);
    }

    /// Take the filled bytes, leaving `self` empty (allocation moves with
    /// the returned buffer, as with the real crate's `split`).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            vec: std::mem::take(&mut self.vec),
        }
    }

    /// Convert into an immutable shared buffer; no copy.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut(len={})", self.vec.len())
    }
}

/// Sequential little-endian reader over a byte source.
///
/// Methods panic when the source is exhausted, exactly like the real
/// crate — callers bounds-check first (see `dlib::wire::WireReader`).
pub trait Buf {
    fn remaining(&self) -> usize;
    /// The unread bytes as one contiguous chunk.
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Detach the next `len` bytes. Zero-copy for [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_ref()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(..len);
        self.advance(len);
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Sequential little-endian writer.
pub trait BufMut {
    fn put_slice(&mut self, b: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, b: &[u8]) {
        self.vec.extend_from_slice(b);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_view() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b.len(), 5); // parent untouched
    }

    #[test]
    fn freeze_clone_slice_never_move_the_data() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(&[7u8; 48]);
        let built_at = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), built_at, "freeze must not copy");
        let cloned = frozen.clone();
        assert_eq!(cloned.as_ptr(), built_at, "clone must not copy");
        let sliced = cloned.slice(8..40);
        assert_eq!(sliced.as_ptr(), built_at.wrapping_add(8));
        assert_eq!(&sliced[..], &[7u8; 32]);
        let v = vec![1u8, 2, 3];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at, "From<Vec<u8>> must not copy");
    }

    #[test]
    fn buf_reads_little_endian() {
        let mut m = BytesMut::new();
        m.put_u32_le(7);
        m.put_u64_le(1 << 33);
        m.put_f32_le(1.5);
        let mut b = m.freeze();
        assert_eq!(b.get_u32_le(), 7);
        assert_eq!(b.get_u64_le(), 1 << 33);
        assert_eq!(b.get_f32_le(), 1.5);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn copy_to_bytes_shares_storage() {
        let mut b = Bytes::from(vec![9; 100]);
        let head = b.copy_to_bytes(10);
        assert_eq!(head.len(), 10);
        assert_eq!(b.remaining(), 90);
    }

    #[test]
    fn split_empties_builder() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abc");
        let taken = m.split();
        assert_eq!(&taken.freeze()[..], b"abc");
        assert!(m.is_empty());
    }
}
