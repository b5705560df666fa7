//! Cursor over received bytes with bounds-checked accessors.

use bytes::Bytes;

use crate::{CodecError, WireLen};

/// Read cursor used by [`Decode`](crate::Decode) implementations.
///
/// All accessors are bounds-checked and return [`CodecError`] instead of
/// panicking, since input bytes may come from corrupted parties.
///
/// A reader built with [`Reader::shared`] remembers the [`Bytes`] it reads
/// from, and [`Reader::get_shared`] then hands out sub-slices of that
/// allocation instead of copies. This is the one place on the wire path
/// that slices a received buffer: a message type holds its payload as
/// `Bytes` and has a single `Decode` impl, zero-copy whenever its input
/// was shared.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The buffer `bytes` derefs from, when the caller had one to share.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            shared: None,
        }
    }

    /// Creates a reader over a shared buffer: every [`Bytes`] decoded
    /// through it is a view into `buf`'s allocation.
    pub fn shared(buf: &'a Bytes) -> Self {
        Self {
            bytes: buf,
            pos: 0,
            shared: Some(buf),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Borrows the unconsumed tail of the input without advancing.
    ///
    /// Zero-copy decoders use this to capture the exact byte span a value
    /// was decoded from (pair it with [`Reader::remaining`] before/after).
    pub fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or(&[])
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let byte = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or(CodecError::UnexpectedEof {
                needed: 1,
                available: 0,
            })?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(CodecError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            })?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `n` raw bytes as a [`Bytes`]: a view into the input
    /// buffer under [`Reader::shared`], a copy under [`Reader::new`].
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn get_shared(&mut self, n: usize) -> Result<Bytes, CodecError> {
        let start = self.pos;
        let raw = self.get_raw(n)?;
        Ok(match self.shared {
            Some(buf) => buf.slice(start..self.pos),
            None => Bytes::from(raw),
        })
    }

    /// Reads a varint length (or element count) and checks it against the
    /// bytes actually present, so a forged prefix fails before anything
    /// is sized by it.
    pub(crate) fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_varint()?;
        let len = usize::try_from(len).map_err(|_| CodecError::VarintRange {
            type_name: "usize",
            value: len,
        })?;
        if len > self.remaining() {
            return Err(CodecError::LengthOverrun {
                claimed: len,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a varint length prefix and then that many bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or if the claimed length exceeds the
    /// remaining bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_len()?;
        self.get_raw(len)
    }

    /// Decodes a length-prefixed sequence, reading each element with `f`.
    ///
    /// Applies the standard sequence bound checks before any allocation:
    /// an element encodes to ≥ 1 byte, so the claimed count may not
    /// exceed the remaining byte count, nor
    /// [`MAX_DECODE_CAPACITY`](crate::MAX_DECODE_CAPACITY). Unlike the
    /// blanket `Vec<T: Decode>` impl, `f` may return values that borrow
    /// from the reader's input, which zero-copy decoders rely on.
    ///
    /// # Errors
    ///
    /// [`CodecError`] from the count prefix, the bound checks, or any
    /// element.
    pub fn decode_each<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.get_seq_len()?;
        let mut out = len.with_capacity();
        for _ in 0..len.get() {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// The element count of a sequence, after [`Reader::get_len`]'s check
    /// and the [`MAX_DECODE_CAPACITY`](crate::MAX_DECODE_CAPACITY) ceiling.
    pub(crate) fn get_seq_len(&mut self) -> Result<WireLen, CodecError> {
        let len = self.get_len()?;
        WireLen::at_most(len, crate::MAX_DECODE_CAPACITY).ok_or(CodecError::CapacityExceeded {
            requested: len,
            limit: crate::MAX_DECODE_CAPACITY,
        })
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// Only the minimal encoding of each value is accepted: a multi-byte
    /// varint whose final byte is `0x00` carries no payload bits and exists
    /// only as a redundant spelling of a shorter encoding.
    ///
    /// # Errors
    ///
    /// [`CodecError::VarintOverflow`] if the varint does not fit in 64 bits,
    /// [`CodecError::NonCanonicalVarint`] if the encoding is not minimal,
    /// or [`CodecError::UnexpectedEof`] on truncation.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut result: u64 = 0;
        for i in 0..10 {
            let byte = self.get_u8()?;
            let payload = u64::from(byte & 0x7f);
            if i == 9 && payload > 1 {
                return Err(CodecError::VarintOverflow);
            }
            result |= payload << (7 * i);
            if byte & 0x80 == 0 {
                if payload == 0 && i > 0 {
                    return Err(CodecError::NonCanonicalVarint);
                }
                return Ok(result);
            }
        }
        Err(CodecError::VarintOverflow)
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
    fn eof_reported_with_counts() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.get_raw(3).unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                needed: 3,
                available: 2
            }
        );
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes.
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint().unwrap_err(), CodecError::VarintOverflow);
    }

    #[test]
    fn varint_64bit_boundary() {
        // u64::MAX encodes as 9 * 0xff + 0x01.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x01);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);

        // Tenth byte with payload 2 would be the 65th bit.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x02);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint().unwrap_err(), CodecError::VarintOverflow);
    }

    #[test]
    fn varint_rejects_non_minimal_encodings() {
        // `0x80 0x00` is a two-byte spelling of 0; only `0x00` is canonical.
        for bytes in [
            &[0x80, 0x00][..],
            &[0xff, 0x00][..],
            &[0x80, 0x80, 0x00][..],
            // 127 padded to two bytes.
            &[0xff, 0x80, 0x00][..],
            // u64::MAX low bits with a redundant zero terminator in byte 10.
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00][..],
        ] {
            let mut r = Reader::new(bytes);
            assert_eq!(
                r.get_varint().unwrap_err(),
                CodecError::NonCanonicalVarint,
                "bytes = {bytes:02x?}"
            );
        }

        // The single-byte encoding of 0 stays valid.
        let mut r = Reader::new(&[0x00]);
        assert_eq!(r.get_varint().unwrap(), 0);
        // A final byte of 0x01 (e.g. value 128) is minimal.
        let mut r = Reader::new(&[0x80, 0x01]);
        assert_eq!(r.get_varint().unwrap(), 128);
    }

    #[test]
    fn varint_boundary_encodings_stay_canonical() {
        // Every power-of-two boundary round-trips through the writer's
        // minimal encoding and is accepted.
        use crate::Writer;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for v in [v - 1, v, v.wrapping_add(1)] {
                let mut w = Writer::new();
                w.put_varint(v);
                let bytes = w.into_vec();
                let mut r = Reader::new(&bytes);
                assert_eq!(r.get_varint().unwrap(), v, "v = {v}");
                // Padding the same value with a continuation bit + 0x00 is
                // rejected.
                let mut padded = bytes.clone();
                *padded.last_mut().unwrap() |= 0x80;
                padded.push(0x00);
                if padded.len() <= 10 {
                    let mut r = Reader::new(&padded);
                    assert_eq!(
                        r.get_varint().unwrap_err(),
                        CodecError::NonCanonicalVarint,
                        "padded v = {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn get_bytes_rejects_forged_length() {
        // varint 100 followed by only 1 byte.
        let bytes = [100, 0];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_bytes().unwrap_err(),
            CodecError::LengthOverrun { .. }
        ));
    }
}
