//! Minimal in-tree byte buffers (the subset of the `bytes` crate the
//! workspace uses), so the wire codec builds with no external
//! dependencies.
//!
//! [`BytesMut`] is an append-only little-endian writer; [`Bytes`] is a
//! consuming reader over an immutable buffer. Both dereference to the
//! unread byte slice.

use std::ops::{Deref, DerefMut, RangeTo};

/// A growable write buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `n` bytes preallocated.
    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    pub fn put_i32_le(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64_le(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    pub fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a byte slice.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Convert to an immutable reader.
    pub fn freeze(self) -> Bytes {
        Bytes {
            buf: self.buf,
            pos: 0,
        }
    }

    /// The bytes written, as their own `Vec` (no copy).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

/// An immutable buffer consumed from the front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    buf: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Unread bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether any unread bytes remain.
    pub fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Unread length (mirrors [`Self::remaining`]; named for slice
    /// familiarity).
    pub fn len(&self) -> usize {
        self.remaining()
    }

    /// Whether the unread portion is empty.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume and return one byte. Panics if exhausted (callers bound-
    /// check with [`Self::remaining`] first).
    pub fn get_u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Consume a little-endian `u16`.
    pub fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take::<2>())
    }

    /// Consume a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    /// Consume a little-endian `i32`.
    pub fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.take::<4>())
    }

    /// Consume a little-endian `i64`.
    pub fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take::<8>())
    }

    /// Consume a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    /// Consume a little-endian `f64`.
    pub fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take::<8>())
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        out
    }

    /// Skip the next `n` bytes (read them in place through `Deref`
    /// first).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "advance past the end");
        self.pos += n;
    }

    /// Consume the next `n` bytes into their own buffer.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        let out = Bytes {
            buf: self.buf[self.pos..self.pos + n].to_vec(),
            pos: 0,
        };
        self.pos += n;
        out
    }

    /// A copy of the first `range.end` unread bytes.
    pub fn slice(&self, range: RangeTo<usize>) -> Bytes {
        Bytes {
            buf: self.buf[self.pos..self.pos + range.end].to_vec(),
            pos: 0,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.pos..]
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes {
            buf: s.to_vec(),
            pos: 0,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Self {
        Bytes { buf, pos: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_i32_le(-42);
        w.put_i64_le(i64::MIN);
        w.put_f64_le(2.5);
        w.put_slice(b"abc");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i32_le(), -42);
        assert_eq!(r.get_i64_le(), i64::MIN);
        assert_eq!(r.get_f64_le(), 2.5);
        assert_eq!(&r.split_to(3)[..], b"abc");
        assert!(!r.has_remaining());
    }

    #[test]
    fn slice_and_split_do_not_disturb_position() {
        let mut w = BytesMut::new();
        w.put_slice(&[1, 2, 3, 4, 5]);
        let mut r = w.freeze();
        assert_eq!(&r.slice(..2)[..], &[1, 2]);
        assert_eq!(r.remaining(), 5);
        let head = r.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&r[..], &[3, 4, 5]);
        assert_eq!(&r.slice(..1)[..], &[3]);
    }

    #[test]
    fn advance_skips_bytes_read_in_place() {
        let mut r = BytesMut::from(&b"abcde"[..]).freeze();
        assert_eq!(&r[..2], b"ab");
        r.advance(2);
        assert_eq!(&r[..], b"cde");
    }

    #[test]
    fn writer_patches_in_place_and_yields_its_bytes() {
        let mut w = BytesMut::with_capacity(8);
        w.put_u32_le(0);
        w.put_u8(9);
        w[..4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(w.into_vec(), vec![7, 0, 0, 0, 9]);
    }

    #[test]
    fn clear_resets_writer() {
        let mut w = BytesMut::new();
        w.put_u32_le(9);
        w.clear();
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.len(), 1);
    }
}
