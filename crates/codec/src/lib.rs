//! Deterministic wire codec for the convex-agreement protocol suite.
//!
//! Every message that crosses the (simulated or real) network is encoded with
//! this codec. Two properties matter for a byzantine-fault-tolerant protocol:
//!
//! 1. **Determinism** — the same value always encodes to the same bytes, so
//!    hashes of encodings are well-defined and communication accounting is
//!    exact.
//! 2. **Robustness** — decoding never panics and never allocates unbounded
//!    memory on adversarial input; malformed bytes yield a [`CodecError`],
//!    which protocols treat as "no message received".
//!
//! The format is a simple little-endian binary layout with LEB128 varints for
//! lengths. There is no self-description: both sides must agree on the type,
//! which is always the case inside a lock-step synchronous protocol.
//!
//! # Examples
//!
//! ```
//! use ca_codec::{Decode, Encode};
//!
//! # fn main() -> Result<(), ca_codec::CodecError> {
//! let msg = (42u64, vec![1u8, 2, 3], true);
//! let bytes = msg.encode_to_vec();
//! let back = <(u64, Vec<u8>, bool)>::decode_from_slice(&bytes)?;
//! assert_eq!(back, msg);
//! # Ok(())
//! # }
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]
#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        reason = "unit tests draw lengths and bytes from a u64 rng"
    )
)]

mod error;
mod reader;
mod wire_len;
mod writer;

use bytes::Bytes;

pub use error::CodecError;
pub use reader::Reader;
pub use wire_len::WireLen;
pub use writer::Writer;

/// Hard ceiling on any single decoder-side collection length.
///
/// A decoded length prefix larger than this fails with
/// [`CodecError::CapacityExceeded`] before any allocation happens. The value
/// is deliberately above every legitimate protocol message (inputs are split
/// into `O(ℓ/n + κ·n·log n)`-bit shares, far below this) and below anything
/// that could pressure memory: even a worst-case `Vec<u64>` preallocation at
/// this length stays under 129 MiB.
pub const MAX_DECODE_CAPACITY: usize = 16 << 20;

/// Types that can be deterministically serialized to bytes.
///
/// Implementations must be *canonical*: equal values produce identical byte
/// strings. This is relied upon when hashing encodings (Merkle leaves,
/// `Π_BA+` inputs) and when counting communication bits.
pub trait Encode {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh `Vec<u8>`.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// The exact number of bytes [`Self::encode`] will produce.
    ///
    /// The default implementation encodes and measures; types on hot paths
    /// override it.
    fn encoded_len(&self) -> usize {
        self.encode_to_vec().len()
    }

    /// Appends `items` in the layout of `Vec<Self>`: a varint count, then
    /// each element. Byte-sized types override it with one bulk copy.
    fn encode_seq(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        w.put_varint(items.len() as u64);
        for item in items {
            item.encode(w);
        }
    }
}

/// Types that can be decoded from bytes produced by [`Encode`].
///
/// Decoding adversarial bytes must fail cleanly with a [`CodecError`]; it must
/// not panic or allocate proportionally to attacker-claimed (rather than
/// actually present) lengths.
pub trait Decode: Sized {
    /// Reads one value from `r`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the bytes are truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must occupy the *entire* slice.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if the slice is longer than the
    /// encoding, in addition to the errors of [`Self::decode`].
    fn decode_from_slice(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_whole(Reader::new(bytes))
    }

    /// [`Self::decode_from_slice`] over a shared buffer: every [`Bytes`]
    /// inside the decoded value is a view into `buf`, not a copy.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_from_slice`].
    fn decode_from_bytes(buf: &Bytes) -> Result<Self, CodecError> {
        decode_whole(Reader::shared(buf))
    }

    /// Reads a `Vec<Self>` written by [`Encode::encode_seq`], with the
    /// bound checks of [`Reader::decode_each`]. Byte-sized types override
    /// it with one bulk copy that accepts and rejects exactly the same
    /// inputs.
    ///
    /// # Errors
    ///
    /// As [`Reader::decode_each`].
    fn decode_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, CodecError> {
        r.decode_each(Self::decode)
    }
}

fn decode_whole<T: Decode>(mut r: Reader<'_>) -> Result<T, CodecError> {
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Primitive implementations
// ---------------------------------------------------------------------------

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidDiscriminant {
                type_name: "bool",
                value: u64::from(other),
            }),
        }
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode_seq(items: &[Self], w: &mut Writer) {
        w.put_bytes(items);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }
    fn decode_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, CodecError> {
        let len = r.get_seq_len()?;
        Ok(r.get_raw(len.get())?.to_vec())
    }
}

macro_rules! impl_varint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(u64::from(*self));
            }
            fn encoded_len(&self) -> usize {
                Writer::varint_len(u64::from(*self))
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let raw = r.get_varint()?;
                <$ty>::try_from(raw).map_err(|_| CodecError::VarintRange {
                    type_name: stringify!($ty),
                    value: raw,
                })
            }
        }
    )*};
}

impl_varint!(u16, u32, u64);

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn encoded_len(&self) -> usize {
        Writer::varint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw = r.get_varint()?;
        usize::try_from(raw).map_err(|_| CodecError::VarintRange {
            type_name: "usize",
            value: raw,
        })
    }
}

/// Signed integers use zigzag encoding so small magnitudes stay small.
impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(zigzag_encode(*self));
    }
    fn encoded_len(&self) -> usize {
        Writer::varint_len(zigzag_encode(*self))
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(zigzag_decode(r.get_varint()?))
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::InvalidDiscriminant {
                type_name: "Option",
                value: u64::from(other),
            }),
        }
    }
}

/// Length-prefixed sequence, through [`Encode::encode_seq`] and
/// [`Decode::decode_seq`]. Decoding caps preallocation at the number of
/// bytes actually remaining, so a forged length cannot cause a huge
/// allocation.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        T::encode_seq(self, w);
    }
    fn encoded_len(&self) -> usize {
        Writer::varint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::decode_seq(r)
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        Writer::varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

/// An opaque payload: length-prefixed like `Vec<u8>`, but decoded as a view
/// into the input buffer when the reader is [`Reader::shared`].
impl Encode for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
    fn encoded_len(&self) -> usize {
        Writer::varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        r.get_shared(len)
    }
}

impl Encode for () {
    fn encode(&self, _w: &mut Writer) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self);
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let slice = r.get_raw(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_to_vec();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back = T::decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(true);
        round_trip(false);
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(300u16);
        round_trip(77usize);
        round_trip(-1i64);
        round_trip(i64::MIN);
        round_trip(i64::MAX);
        round_trip(());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u8, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(vec![10u64, 20, 30]);
        round_trip(Some(9u64));
        round_trip(Option::<u64>::None);
        round_trip(String::from("hello Π_BA+"));
        round_trip((1u64, vec![4u8, 5], false));
        round_trip([7u8; 32]);
    }

    #[test]
    fn bool_rejects_junk() {
        assert!(bool::decode_from_slice(&[2]).is_err());
    }

    #[test]
    fn option_rejects_junk_discriminant() {
        assert!(Option::<u64>::decode_from_slice(&[9, 1]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u64.encode_to_vec();
        bytes.push(0);
        assert!(matches!(
            u64::decode_from_slice(&bytes),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn forged_vec_length_does_not_allocate() {
        // Claims 2^60 elements but provides none.
        let mut w = Writer::new();
        w.put_varint(1 << 60);
        let err = Vec::<u64>::decode_from_slice(&w.into_vec()).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverrun { .. }));
    }

    #[test]
    fn over_capacity_length_rejected_even_when_bytes_present() {
        // A length that really is backed by input bytes, but exceeds the
        // decoder's hard ceiling: must fail with CapacityExceeded, not
        // allocate MAX+1 elements.
        let claimed = MAX_DECODE_CAPACITY + 1;
        let mut w = Writer::new();
        w.put_varint(claimed as u64);
        let mut bytes = w.into_vec();
        bytes.resize(bytes.len() + claimed, 0);
        let err = Vec::<u8>::decode_from_slice(&bytes).unwrap_err();
        assert_eq!(
            err,
            CodecError::CapacityExceeded {
                requested: claimed,
                limit: MAX_DECODE_CAPACITY,
            }
        );
    }

    /// `Vec<u8>`'s bulk [`Decode::decode_seq`] against the element-wise
    /// path it replaced: the same value or the same error, and the same
    /// bytes consumed.
    fn assert_u8_seq_agrees(bytes: &[u8]) {
        let mut bulk = Reader::new(bytes);
        let mut each = Reader::new(bytes);
        assert_eq!(
            Vec::<u8>::decode(&mut bulk),
            each.decode_each(u8::decode),
            "input {bytes:02x?}"
        );
        assert_eq!(bulk.remaining(), each.remaining(), "input {bytes:02x?}");
    }

    #[test]
    fn u8_seq_bulk_path_accepts_exactly_what_the_element_path_accepted() {
        // A varint that claims 2⁶³ bytes.
        const HUGE_LEN: [u8; 10] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut rng = proptest::test_runner::TestRng::for_test("u8_seq_bulk_path");
        for _ in 0..256 {
            let len = rng.next_u64() as usize % 300;
            let body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // Random bytes read as a sequence: mostly overruns, some accepts.
            assert_u8_seq_agrees(&body);
            let enc = body.encode_to_vec();
            for cut in 0..=enc.len() {
                assert_u8_seq_agrees(&enc[..cut]);
            }
            for at in 0..=enc.len() {
                let mut spliced = enc[..at].to_vec();
                spliced.extend_from_slice(&HUGE_LEN);
                spliced.extend_from_slice(&enc[at..]);
                assert_u8_seq_agrees(&spliced);
            }
        }
        // The capacity ceiling, with every claimed byte present: the last
        // accepted count and the first rejected one.
        for count in [MAX_DECODE_CAPACITY, MAX_DECODE_CAPACITY + 1] {
            let mut w = Writer::new();
            w.put_varint(count as u64);
            let mut bytes = w.into_vec();
            bytes.resize(bytes.len() + count, 0xa5);
            assert_u8_seq_agrees(&bytes);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = (1u64, 2u64).encode_to_vec();
        assert!(<(u64, u64)>::decode_from_slice(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn varint_range_enforced() {
        let bytes = (u64::from(u16::MAX) + 1).encode_to_vec();
        assert!(matches!(
            u16::decode_from_slice(&bytes),
            Err(CodecError::VarintRange { .. })
        ));
    }

    #[test]
    fn zigzag_is_order_preserving_for_small_magnitudes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_decode(zigzag_encode(-123_456)), -123_456);
    }
}
