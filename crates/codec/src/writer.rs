//! Byte-buffer writer with varint support.

/// Append-only byte buffer used by [`Encode`](crate::Encode) implementations.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes preallocated. A disallowed method
    /// (the root `clippy.toml`): a caller states where `cap` comes from.
    pub fn with_capacity(cap: usize) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "the caller's own expectation states where `cap` comes from"
        )]
        let buf = Vec::with_capacity(cap);
        Self { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a varint length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Appends an unsigned LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Number of bytes [`Writer::put_varint`] emits for `v`.
    pub fn varint_len(v: u64) -> usize {
        if v == 0 {
            1
        } else {
            (64 - v.leading_zeros() as usize).div_ceil(7)
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reader;

    #[test]
    fn varint_len_matches_encoding() {
        for &v in &[0u64, 1, 127, 128, 16_383, 16_384, u64::MAX, 1 << 35] {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!(w.len(), Writer::varint_len(v), "v = {v}");
        }
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            for v in [v - 1, v, v.wrapping_add(1)] {
                let mut w = Writer::new();
                w.put_varint(v);
                let bytes = w.into_vec();
                let mut r = Reader::new(&bytes);
                assert_eq!(r.get_varint().unwrap(), v);
                assert!(r.is_empty());
            }
        }
    }
}
