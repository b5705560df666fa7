//! Wire frames for the TCP transport.
//!
//! This module is the single place that knows what a frame looks like on
//! the wire: the discriminant bytes and field order ([`Encode`] /
//! [`Decode`] for [`Frame`]), the [`LENGTH_PREFIX_LEN`]-byte length prefix,
//! and how both reach a socket ([`Frame::write_to`], or `Frame::put_wire`,
//! which lets the caller send large payloads out of their own buffers).
//! The party's socket code and the engine's deployment cost model call in
//! here; neither restates the layout.
//!
//! Everything a party sends one peer in one round is one
//! [`Frame::Round`], and that frame is also the peer's end-of-round marker.
//!
//! # Overhead accounting
//!
//! `ca_net::Metrics::honest_bits` — the paper's `BITSℓ(Π)` — counts
//! **payload bits only** (the encoded protocol messages handed to
//! `Comm::send_bytes`); it never includes the envelope this module adds.
//! The real wire cost of any frame is [`Frame::wire_len`]: the length
//! prefix, the discriminant, the round tag, the message count and each
//! message's length varint, around the payloads. Keeping the two notions
//! separate means experiment numbers track the paper's model while the
//! deployment cost stays auditable from one definition.

use std::io::{self, Write};

use bytes::Bytes;
use ca_codec::{CodecError, Decode, Encode, Reader, WireLen, Writer};

/// Bytes of big-endian length prefix the TCP transport puts before every
/// encoded frame.
pub const LENGTH_PREFIX_LEN: usize = 4;

/// Hard ceiling on one frame *body*: the codec's decode capacity plus 21
/// bytes of framing. The transport rejects a longer length prefix before
/// allocating a receive buffer. It also bounds a [`Frame::Round`]'s
/// decoded size (see `held`), which a sender checks before building one
/// and the decoder before keeping one, so this bounds what one party
/// sends one peer in one round.
pub const MAX_WIRE_FRAME_LEN: usize = ca_codec::MAX_DECODE_CAPACITY + 21;

/// Bytes a round's messages hold once decoded: each payload plus its
/// handle, which for an empty message far outweighs its one wire byte.
pub(crate) fn held(msgs: &[Bytes]) -> usize {
    msgs.iter()
        .map(|msg| msg.len() + std::mem::size_of::<Bytes>())
        .sum()
}

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
pub fn validate_frame_len(len: u32) -> Result<WireLen, FrameTooLarge> {
    WireLen::at_most(len as usize, MAX_WIRE_FRAME_LEN).ok_or(FrameTooLarge {
        claimed: u64::from(len),
    })
}

/// [`validate_frame_len`] for the handshake path: same contract, but
/// against the far tighter [`MAX_HELLO_FRAME_LEN`] bound, since an
/// unauthenticated stray connection gets no allocation budget at all.
///
/// # Errors
///
/// [`FrameTooLarge`] when the claimed length exceeds
/// [`MAX_HELLO_FRAME_LEN`].
pub fn validate_hello_len(len: u32) -> Result<WireLen, FrameTooLarge> {
    WireLen::at_most(len as usize, MAX_HELLO_FRAME_LEN).ok_or(FrameTooLarge {
        claimed: u64::from(len),
    })
}

/// A length-prefixed frame exchanged between two parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: announces the sender's party index.
    Hello {
        /// Sender's party index.
        from: u32,
    },
    /// Everything the sender sends this peer in one round, and the
    /// sender's end-of-round marker for it.
    Round {
        /// The round's tag: the sender's round on the synchronous path, a
        /// per-party send counter on the event-driven one. Along each link
        /// it strictly increases.
        round: u64,
        /// Opaque protocol payloads, in send order: on receive, views into
        /// the buffer the frame body was read into.
        msgs: Vec<Bytes>,
    },
    /// The sender's protocol terminated; treat as end-of-round for all
    /// future rounds.
    Bye,
}

impl Frame {
    /// The round frame carrying `msgs`.
    ///
    /// # Panics
    ///
    /// If the receiver would reject it as malformed: a decoded size (see
    /// `held`) over [`MAX_WIRE_FRAME_LEN`] bytes. That bounds the body
    /// too, since a message's handle outweighs its length varint plus the
    /// frame's header. The limit is on what one party sends one peer in
    /// one round; going over it is API misuse.
    pub(crate) fn round(round: u64, msgs: Vec<Bytes>) -> Self {
        let size = held(&msgs);
        assert!(
            size <= MAX_WIRE_FRAME_LEN,
            "a round's frame to one peer ({size} bytes decoded) is over the \
             {MAX_WIRE_FRAME_LEN}-byte wire limit"
        );
        Frame::Round { round, msgs }
    }

    /// Total bytes this frame occupies on the wire: the length prefix
    /// plus the encoded frame body.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        LENGTH_PREFIX_LEN + self.encoded_len()
    }

    /// Appends the frame's wire image to `w`: the length prefix, then the
    /// body, whose payloads go through `payload`, which copies each into
    /// `w` or sends it from its own buffer after what `w` holds so far.
    pub(crate) fn put_wire(&self, w: &mut Writer, payload: impl FnMut(&mut Writer, &Bytes)) {
        w.put_raw(&(self.encoded_len() as u32).to_be_bytes());
        self.put_body(w, payload);
    }

    fn put_body(&self, w: &mut Writer, mut payload: impl FnMut(&mut Writer, &Bytes)) {
        match self {
            Frame::Hello { from } => {
                w.put_u8(0);
                from.encode(w);
            }
            Frame::Round { round, msgs } => {
                w.put_u8(1);
                round.encode(w);
                w.put_varint(msgs.len() as u64);
                for msg in msgs {
                    w.put_varint(msg.len() as u64);
                    payload(w, msg);
                }
            }
            Frame::Bye => w.put_u8(2),
        }
    }

    /// Writes the length prefix and the frame to `out`: exactly
    /// [`Frame::wire_len`] bytes.
    ///
    /// # Errors
    ///
    /// Whatever `out.write_all` returns.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        #[expect(
            clippy::disallowed_methods,
            reason = "sized by the frame this party built"
        )]
        let mut w = Writer::with_capacity(self.wire_len());
        self.put_wire(&mut w, |w, msg| w.put_raw(msg));
        out.write_all(w.as_slice())
    }
}

impl Encode for Frame {
    fn encode(&self, w: &mut Writer) {
        self.put_body(w, |w, msg| w.put_raw(msg));
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Frame::Hello { from } => from.encoded_len(),
            Frame::Round { round, msgs } => round.encoded_len() + msgs.encoded_len(),
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
            1 => {
                let round = u64::decode(r)?;
                let msgs = decode_msgs(r)?;
                Ok(Frame::Round { round, msgs })
            }
            2 => Ok(Frame::Bye),
            other => Err(CodecError::InvalidDiscriminant {
                type_name: "Frame",
                value: u64::from(other),
            }),
        }
    }
}

/// The most message handles a round frame within [`MAX_WIRE_FRAME_LEN`]
/// can decode to.
const MAX_ROUND_MSGS: usize = MAX_WIRE_FRAME_LEN / std::mem::size_of::<Bytes>();

/// A round's messages, refused once their decoded size (see `held`) passes
/// [`MAX_WIRE_FRAME_LEN`]. The count sizes nothing beyond the bytes present
/// or that bound, so empty messages cannot decode to many times their bytes.
fn decode_msgs(r: &mut Reader<'_>) -> Result<Vec<Bytes>, CodecError> {
    let count = r.get_varint()?;
    // A message takes at least a byte and holds at least a handle, so the
    // count reserves no more messages than bytes present, and none once
    // that passes the handles the wire limit fits: such a frame is
    // refused.
    let room = usize::try_from(count)
        .unwrap_or(usize::MAX)
        .min(r.remaining());
    let mut msgs =
        WireLen::at_most(room, MAX_ROUND_MSGS).map_or_else(Vec::new, WireLen::with_capacity);
    let mut size = 0;
    for _ in 0..count {
        let len = usize::try_from(r.get_varint()?).unwrap_or(usize::MAX);
        let msg = r.get_shared(len)?;
        size += msg.len() + std::mem::size_of::<Bytes>();
        if size > MAX_WIRE_FRAME_LEN {
            return Err(CodecError::Invalid("round frame over the wire limit"));
        }
        msgs.push(msg);
    }
    Ok(msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> [Frame; 5] {
        [
            Frame::Hello { from: 3 },
            Frame::Round {
                round: 300,
                msgs: vec![Bytes::from(vec![0xCD; 200]), Bytes::new()],
            },
            Frame::Round {
                round: 9,
                msgs: Vec::new(),
            },
            Frame::Round {
                round: 1,
                msgs: vec![Bytes::from(vec![7; 70_000])],
            },
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
            assert_eq!(
                validate_frame_len(body.len() as u32).map(WireLen::get),
                Ok(body.len())
            );
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
            validate_frame_len(MAX_WIRE_FRAME_LEN as u32).map(WireLen::get),
            Ok(MAX_WIRE_FRAME_LEN)
        );
        assert!(validate_frame_len(MAX_WIRE_FRAME_LEN as u32 + 1).is_err());
    }

    /// A round frame's overhead beyond its payloads: the 4-byte prefix,
    /// the tag, the round and count varints, then a length varint per
    /// message.
    #[test]
    fn msg_overhead_excludes_payload() {
        let payloads = |k: usize| vec![Bytes::from(vec![7; 100]); k];
        for k in 0..4 {
            let f = Frame::round(1, payloads(k));
            assert_eq!(f.wire_len(), 7 + k * 101);
        }
    }

    const HANDLE: usize = std::mem::size_of::<Bytes>();

    /// The body of a round frame tagged 1 holding `count` empty messages.
    fn empty_msgs_body(count: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_varint(1);
        w.put_varint(count as u64);
        let mut body = w.into_vec();
        body.resize(body.len() + count, 0);
        body
    }

    /// The sender's check and the decoder's accept the same frames: one
    /// payload, or many empty messages, whose decoded size is exactly the
    /// wire limit round-trips, within the body limit; one byte or one
    /// message more is refused by both.
    #[test]
    fn round_limit_is_the_wire_limit() {
        let fits = MAX_WIRE_FRAME_LEN - HANDLE;
        let f = Frame::round(1, vec![Bytes::from(vec![0; fits])]);
        assert!(f.encoded_len() <= MAX_WIRE_FRAME_LEN);
        assert_eq!(Frame::decode_from_slice(&f.encode_to_vec()), Ok(f));
        let over = Frame::Round {
            round: 1,
            msgs: vec![Bytes::from(vec![0; fits + 1])],
        };
        assert_eq!(
            Frame::decode_from_slice(&over.encode_to_vec()),
            Err(CodecError::Invalid("round frame over the wire limit"))
        );

        let most = MAX_WIRE_FRAME_LEN / HANDLE;
        let f = Frame::round(1, vec![Bytes::new(); most]);
        assert_eq!(f.encode_to_vec(), empty_msgs_body(most));
        assert_eq!(Frame::decode_from_slice(&empty_msgs_body(most)), Ok(f));
    }

    #[test]
    #[should_panic(expected = "-byte wire limit")]
    fn round_over_the_wire_limit_panics() {
        let fits = MAX_WIRE_FRAME_LEN - HANDLE;
        let _ = Frame::round(1, vec![Bytes::from(vec![0; fits + 1])]);
    }

    #[test]
    #[should_panic(expected = "-byte wire limit")]
    fn round_of_too_many_messages_panics() {
        let _ = Frame::round(1, vec![Bytes::new(); MAX_WIRE_FRAME_LEN / HANDLE + 1]);
    }

    /// An empty message is one wire byte but a whole handle decoded: a
    /// body of them is refused once its handles pass the wire limit, from
    /// one message over it up to a full `MAX_WIRE_FRAME_LEN` body (which
    /// would otherwise decode to `HANDLE` times its length).
    #[test]
    fn empty_message_floods_are_refused() {
        let most = MAX_WIRE_FRAME_LEN / HANDLE;
        let full = MAX_WIRE_FRAME_LEN - 6; // tag, round, 4-byte count varint
        for count in [most + 1, full] {
            let body = empty_msgs_body(count);
            assert!(body.len() <= MAX_WIRE_FRAME_LEN);
            assert_eq!(
                Frame::decode_from_slice(&body),
                Err(CodecError::Invalid("round frame over the wire limit"))
            );
        }
    }
}
