//! Wire frames for the TCP transport.
//!
//! This module is the single place that knows what a frame looks like on
//! the wire: the discriminant bytes and field order ([`Encode`] /
//! [`Decode`] for [`Frame`]), the [`LENGTH_PREFIX_LEN`]-byte length prefix,
//! and how both reach a socket ([`Frame::write_to`], or `Frame::put_head`
//! followed by the payload, which is how a party stages a batch). The
//! party's socket code and the engine's deployment cost model call in
//! here; neither restates the layout.
//!
//! # Overhead accounting
//!
//! `ca_net::Metrics::honest_bits` — the paper's `BITSℓ(Π)` — counts
//! **payload bits only** (the encoded protocol message handed to
//! `Comm::send_bytes`); it never includes the envelope this module adds.
//! The real wire cost of any frame is [`Frame::wire_len`], and the
//! per-message delta between wire and payload is [`Frame::overhead`]: the
//! frame discriminant, the round tag, the payload length varint, and the
//! length prefix. Keeping the two notions separate means experiment
//! numbers track the paper's model while the deployment cost stays
//! auditable from one definition.

use std::io::{self, Write};

use bytes::Bytes;
use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

/// Bytes of big-endian length prefix the TCP transport puts before every
/// encoded frame.
pub const LENGTH_PREFIX_LEN: usize = 4;

/// Hard ceiling on one frame *body* read off the wire: the codec's decode
/// capacity plus the largest possible framing (tag byte + two maximal
/// varints). A length prefix above this could never decode into a valid
/// [`Frame`] anyway, so the transport rejects it before allocating a
/// receive buffer.
pub const MAX_WIRE_FRAME_LEN: usize = ca_codec::MAX_DECODE_CAPACITY + 21;

/// Ceiling on a handshake (`Hello`) frame *body*, enforced by the accept
/// side before any allocation. A well-formed hello is a tag byte plus a
/// `u32` varint (at most 6 bytes); anything claiming more is a stray or
/// hostile connection and is dropped without consuming an accept slot.
pub const MAX_HELLO_FRAME_LEN: usize = 16;

/// A peer announced a frame body longer than [`MAX_WIRE_FRAME_LEN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The announced body length in bytes.
    pub claimed: u64,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame length {} exceeds the {MAX_WIRE_FRAME_LEN}-byte wire limit",
            self.claimed
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Validates an incoming length prefix **before any allocation**.
///
/// Readers must call this on the raw prefix and only then size their
/// receive buffer, so a malicious 4 GiB length claim costs nothing.
///
/// # Errors
///
/// [`FrameTooLarge`] when the claimed length exceeds
/// [`MAX_WIRE_FRAME_LEN`].
pub fn validate_frame_len(len: u32) -> Result<usize, FrameTooLarge> {
    let len = len as usize;
    if len > MAX_WIRE_FRAME_LEN {
        return Err(FrameTooLarge {
            claimed: len as u64,
        });
    }
    Ok(len)
}

/// [`validate_frame_len`] for the handshake path: same contract, but
/// against the far tighter [`MAX_HELLO_FRAME_LEN`] bound, since an
/// unauthenticated stray connection gets no allocation budget at all.
///
/// # Errors
///
/// [`FrameTooLarge`] when the claimed length exceeds
/// [`MAX_HELLO_FRAME_LEN`].
pub fn validate_hello_len(len: u32) -> Result<usize, FrameTooLarge> {
    let len = len as usize;
    if len > MAX_HELLO_FRAME_LEN {
        return Err(FrameTooLarge {
            claimed: len as u64,
        });
    }
    Ok(len)
}

/// A length-prefixed frame exchanged between two parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: announces the sender's party index.
    Hello {
        /// Sender's party index.
        from: u32,
    },
    /// A protocol message belonging to a specific round.
    Msg {
        /// Round the message was sent in.
        round: u64,
        /// Opaque protocol payload: on receive, a view into the buffer the
        /// frame body was read into.
        payload: Bytes,
    },
    /// End-of-round marker: the sender has flushed everything for `round`.
    Eor {
        /// The completed round.
        round: u64,
    },
    /// The sender's protocol terminated; treat as end-of-round for all
    /// future rounds.
    Bye,
}

impl Frame {
    /// Protocol payload bytes carried by this frame — the quantity
    /// metered as `honest_bits`. Zero for control frames.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload().len()
    }

    /// Total bytes this frame occupies on the wire: the length prefix
    /// plus the encoded frame body.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        LENGTH_PREFIX_LEN + self.encoded_len()
    }

    /// Framing bytes beyond the protocol payload:
    /// `wire_len() − payload_len()`. For control frames this is the whole
    /// frame.
    #[must_use]
    pub fn overhead(&self) -> usize {
        self.wire_len() - self.payload_len()
    }

    /// Everything [`Encode::encode`] emits except the payload bytes
    /// themselves, which are always the tail of the body.
    fn encode_head(&self, w: &mut Writer) {
        match self {
            Frame::Hello { from } => {
                w.put_u8(0);
                from.encode(w);
            }
            Frame::Msg { round, payload } => {
                w.put_u8(1);
                round.encode(w);
                w.put_varint(payload.len() as u64);
            }
            Frame::Eor { round } => {
                w.put_u8(2);
                round.encode(w);
            }
            Frame::Bye => w.put_u8(3),
        }
    }

    pub(crate) fn payload(&self) -> &[u8] {
        match self {
            Frame::Msg { payload, .. } => payload,
            Frame::Hello { .. } | Frame::Eor { .. } | Frame::Bye => &[],
        }
    }

    /// Appends the length prefix and the frame's header to `w`: all of
    /// the wire image but a `Msg` payload, which is its tail.
    pub(crate) fn put_head(&self, w: &mut Writer) {
        w.put_raw(&(self.encoded_len() as u32).to_be_bytes());
        self.encode_head(w);
    }

    /// Writes the length prefix and the frame to `out`, exactly
    /// [`Frame::wire_len`] bytes: the header, then a `Msg` payload
    /// straight from its buffer — never copied into an encoded body
    /// first.
    ///
    /// # Errors
    ///
    /// Whatever `out.write_all` returns.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        // Prefix + tag + two maximal varints.
        let mut head = Writer::with_capacity(LENGTH_PREFIX_LEN + 21);
        self.put_head(&mut head);
        out.write_all(head.as_slice())?;
        out.write_all(self.payload())
    }
}

impl Encode for Frame {
    fn encode(&self, w: &mut Writer) {
        self.encode_head(w);
        w.put_raw(self.payload());
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Frame::Hello { from } => from.encoded_len(),
            Frame::Msg { round, payload } => round.encoded_len() + payload.encoded_len(),
            Frame::Eor { round } => round.encoded_len(),
            Frame::Bye => 0,
        }
    }
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Frame::Hello {
                from: u32::decode(r)?,
            }),
            1 => Ok(Frame::Msg {
                round: u64::decode(r)?,
                payload: Bytes::decode(r)?,
            }),
            2 => Ok(Frame::Eor {
                round: u64::decode(r)?,
            }),
            3 => Ok(Frame::Bye),
            other => Err(CodecError::InvalidDiscriminant {
                type_name: "Frame",
                value: u64::from(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> [Frame; 4] {
        [
            Frame::Hello { from: 3 },
            Frame::Msg {
                round: 300,
                payload: Bytes::from(vec![0xCD; 200]),
            },
            Frame::Eor { round: 9 },
            Frame::Bye,
        ]
    }

    #[test]
    fn frames_round_trip() {
        for f in samples() {
            let bytes = f.encode_to_vec();
            assert_eq!(f.encoded_len(), bytes.len());
            assert_eq!(Frame::decode_from_slice(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn junk_rejected() {
        assert!(Frame::decode_from_slice(&[9]).is_err());
        assert!(Frame::decode_from_slice(&[]).is_err());
    }

    /// What `write_to` puts on a socket is the length prefix plus the
    /// encoded body, `wire_len` bytes in all, and every body passes the
    /// reader's length check.
    #[test]
    fn write_to_emits_prefix_then_encoding() {
        for f in samples() {
            let body = f.encode_to_vec();
            let mut wire = Vec::new();
            f.write_to(&mut wire).unwrap();
            assert_eq!(wire.len(), f.wire_len());
            assert_eq!(wire[..LENGTH_PREFIX_LEN], (body.len() as u32).to_be_bytes());
            assert_eq!(wire[LENGTH_PREFIX_LEN..], body[..]);
            assert_eq!(f.overhead(), f.wire_len() - f.payload_len());
            assert_eq!(validate_frame_len(body.len() as u32), Ok(body.len()));
        }
    }

    /// A malicious 4 GiB length prefix must yield a clean error from the
    /// pre-allocation check — never an OOM-sized buffer or a panic.
    #[test]
    fn four_gib_length_prefix_rejected_before_allocation() {
        let err = validate_frame_len(u32::MAX).unwrap_err();
        assert_eq!(err.claimed, u64::from(u32::MAX));
        assert!(err.to_string().contains("exceeds"));
        // The boundary is exact: the largest decodable body passes, one
        // byte more is refused.
        assert_eq!(
            validate_frame_len(MAX_WIRE_FRAME_LEN as u32),
            Ok(MAX_WIRE_FRAME_LEN)
        );
        assert!(validate_frame_len(MAX_WIRE_FRAME_LEN as u32 + 1).is_err());
    }

    #[test]
    fn msg_overhead_excludes_payload() {
        let f = Frame::Msg {
            round: 1,
            payload: Bytes::from(vec![7; 100]),
        };
        assert_eq!(f.payload_len(), 100);
        // 4-byte prefix + 1-byte tag + 1-byte round varint + 1-byte len
        // varint = 7 bytes of framing.
        assert_eq!(f.overhead(), 7);
    }
}
