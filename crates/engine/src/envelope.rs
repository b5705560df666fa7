//! The session-tagged wire envelope.
//!
//! One engine round produces, per destination, one (or, past 1024 frames,
//! a few) [`Envelope`]s coalescing the round's
//! messages of *every* live session. The envelope rides the existing
//! transports unchanged: it is an opaque payload to `Comm::send_bytes`,
//! and it decodes under the usual `ca-codec` discipline — claimed lengths
//! are validated against [`ca_codec::MAX_DECODE_CAPACITY`] and the bytes
//! actually present before any allocation, so a byzantine envelope can
//! neither OOM the router nor panic it.

use bytes::Bytes;
use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

/// Identifies one agreement session within an engine deployment.
///
/// Ids are assigned by the submitting workload and must be unique for the
/// lifetime of a deployment (the engine rejects duplicates of live ids and
/// routes frames for already-reaped ids to the late-frame counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The trace-scope tag for this session: `s<id>`.
    #[must_use]
    pub fn scope_tag(self) -> String {
        format!("s{}", self.0)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl Encode for SessionId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for SessionId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SessionId(u64::decode(r)?))
    }
}

/// One session's message inside an [`Envelope`].
///
/// The payload is a [`Bytes`] view: on the send side it is the very buffer
/// the session protocol handed to its `Comm` (queued without copying), and
/// on the receive side a slice of the received envelope (decoded with
/// `decode_from_bytes`), again without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFrame {
    /// The session this payload belongs to.
    pub session: SessionId,
    /// The session protocol's encoded message, exactly as it handed it to
    /// its `Comm`.
    pub payload: Bytes,
}

impl Encode for SessionFrame {
    fn encode(&self, w: &mut Writer) {
        self.session.encode(w);
        self.payload.encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.session.encoded_len() + self.payload.encoded_len()
    }
}

impl Decode for SessionFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SessionFrame {
            session: SessionId::decode(r)?,
            payload: Bytes::decode(r)?,
        })
    }
}

/// One transport message of the engine: a batch of session frames for one
/// destination, flushed at a round boundary.
///
/// Frames are ordered by session id (the driver emits them that way);
/// order within a session is the session's own send order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Envelope {
    /// The coalesced frames.
    pub frames: Vec<SessionFrame>,
}

impl Encode for Envelope {
    fn encode(&self, w: &mut Writer) {
        self.frames.encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.frames.encoded_len()
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Envelope {
            frames: Vec::decode(r)?,
        })
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
    fn envelope_round_trips() {
        let env = Envelope {
            frames: vec![
                SessionFrame {
                    session: SessionId(0),
                    payload: Bytes::from(vec![1, 2, 3]),
                },
                SessionFrame {
                    session: SessionId(7),
                    payload: Bytes::new(),
                },
                SessionFrame {
                    session: SessionId(u64::MAX),
                    payload: Bytes::from(vec![0xFF; 300]),
                },
            ],
        };
        let bytes = env.encode_to_vec();
        assert_eq!(bytes.len(), env.encoded_len());
        assert_eq!(Envelope::decode_from_slice(&bytes).unwrap(), env);
    }

    #[test]
    fn empty_envelope_round_trips() {
        let env = Envelope::default();
        assert_eq!(
            Envelope::decode_from_slice(&env.encode_to_vec()).unwrap(),
            env
        );
    }

    /// A byzantine envelope claiming a huge frame count (or frame length)
    /// fails cleanly: the codec bounds every claimed length by the bytes
    /// actually present, so no allocation proportional to the claim
    /// happens.
    #[test]
    fn huge_claimed_lengths_rejected_cleanly() {
        // Vec-of-frames length claim of ~2^60.
        let mut w = Writer::new();
        (1u64 << 60).encode(&mut w);
        assert!(Envelope::decode_from_slice(&w.into_vec()).is_err());

        // A single frame whose payload claims 2^40 bytes.
        let mut w = Writer::new();
        1u64.encode(&mut w); // one frame
        SessionId(3).encode(&mut w);
        (1u64 << 40).encode(&mut w); // payload length claim
        w.put_u8(0xAA); // …but one actual byte
        assert!(Envelope::decode_from_slice(&w.into_vec()).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Envelope::default().encode_to_vec();
        bytes.push(0);
        assert!(Envelope::decode_from_slice(&bytes).is_err());
    }
}
