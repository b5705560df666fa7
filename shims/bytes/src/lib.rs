//! Hermetic stand-in for the `bytes` crate: a cheaply clonable, immutable
//! byte buffer with zero-copy subslicing. Implements exactly the surface
//! this workspace uses.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning is O(1), and
/// [`Bytes::slice`] produces views that share the same allocation — the
/// wire path hands out payload sub-slices of one received buffer without
/// copying. `From<Vec<u8>>` adopts the vector's allocation, as the real
/// crate does (an `Arc<[u8]>` would reallocate and copy it), trimmed to
/// its length so that an encoder's growth slack is not held for as long as
/// the payload lives.
#[derive(Clone, Default)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static byte slice (copied; the shim does not track 'static).
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes)
    }

    /// Number of bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Zero-copy subslice: the returned `Bytes` shares this buffer's
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let Range { start, end } = resolve(range, self.len());
        assert!(start <= end, "slice start {start} > end {end}");
        assert!(end <= self.len(), "slice end {end} > len {}", self.len());
        Self {
            inner: Arc::clone(&self.inner),
            start: self.start + start,
            end: self.start + end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.inner[self.start..self.end]
    }
}

/// Resolves any range-bound form against `len` (without clamping).
fn resolve(range: impl RangeBounds<usize>, len: usize) -> Range<usize> {
    use std::ops::Bound;
    let start = match range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s + 1,
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&e) => e + 1,
        Bound::Excluded(&e) => e,
        Bound::Unbounded => len,
    };
    start..end
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(mut v: Vec<u8>) -> Self {
        v.shrink_to_fit();
        let end = v.len();
        Self {
            inner: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::from(v.to_vec())
    }
}

// Views over different allocations with equal contents must compare equal,
// so all comparisons go through the visible byte span, never the fields.

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_clone() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        let c = b.clone();
        assert_eq!(c.to_vec(), vec![1, 2, 3]);
        assert!(!c.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\x00");
        assert_eq!(format!("{b:?}"), "b\"a\\x00\"");
    }

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        // Same backing allocation: the sub-slice's pointer lies inside b's.
        let base = b.as_ref().as_ptr() as usize;
        let sp = s.as_ref().as_ptr() as usize;
        assert_eq!(sp, base + 2);
        // Nested slicing composes.
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(s.slice(..).len(), 3);
        assert!(s.slice(1..1).is_empty());
    }

    #[test]
    #[should_panic(expected = "slice end")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::from(vec![1u8, 2]).slice(0..3);
    }

    /// `From<Vec<u8>>` adopts the allocation: no hidden copy on the send
    /// path (`Bytes::from(msg.encode_to_vec())`) or under a received frame.
    #[test]
    fn from_vec_keeps_the_data_pointer() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), ptr);
        assert_eq!(
            b.clone().slice(1..).as_ref().as_ptr() as usize,
            ptr as usize + 1
        );
    }

    #[test]
    fn equality_ignores_view_offsets() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]).slice(1..3);
        let b = Bytes::from(vec![2u8, 3]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
