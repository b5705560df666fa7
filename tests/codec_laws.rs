//! The codec laws, stated once and enforced for every public wire type.
//!
//! For each `Encode + Decode` type the one generic [`laws`] checks, over
//! seeded random values:
//!
//! 1. **Round trip** — `decode(encode(x)) == x`, and `encoded_len` is exact.
//! 2. **Canonical** — any byte string that decodes re-encodes to exactly
//!    itself, so no value has two accepted spellings (the class of the
//!    non-minimal-varint and witness-depth bugs). Candidates are
//!    single-byte mutations of valid encodings.
//! 3. **Shared decode** — `decode_from_slice` and `decode_from_bytes`
//!    agree, and every `Bytes` inside a value decoded from a shared buffer
//!    is a view into that buffer, not a copy.
//! 4. **Robust** — truncations, single-byte mutations and maximal length
//!    prefixes spliced in at every offset never panic; a decoder that sized
//!    an allocation by a claimed length would abort here (`ca-codec` bounds
//!    every claim by the bytes present and by `MAX_DECODE_CAPACITY` first).
//!
//! A new wire type gets all four by adding one line to a `#[test]` below.

use std::fmt::Debug;

use bytes::Bytes;
use convex_agreement::bits::{BitString, Int, Nat, Sign};
use convex_agreement::codec::{Decode, Encode};
use convex_agreement::crypto::{Hash256, MerkleTree, Witness};
use convex_agreement::engine::{Envelope, SessionFrame, SessionId};
use convex_agreement::erasure::{ReedSolomon, Share};
use convex_agreement::net::PartyId;
use convex_agreement::runtime::Frame;
use proptest::test_runner::TestRng;

const CASES: usize = 48;

/// A varint that claims 2⁶³ of whatever the decoder counts next.
const HUGE_LEN: [u8; 10] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];

/// The `Bytes` fields of a value, for law 3.
type Payloads<T> = fn(&T) -> Vec<&Bytes>;

fn no_payloads<T>(_: &T) -> Vec<&Bytes> {
    Vec::new()
}

fn laws<T>(name: &str, gen: impl Fn(&mut TestRng) -> T, payloads: Payloads<T>)
where
    T: Encode + Decode + PartialEq + Debug,
{
    let mut rng = TestRng::for_test(name);
    for case in 0..CASES {
        let x = gen(&mut rng);
        let enc = x.encode_to_vec();

        // (1) round trip, exact length.
        assert_eq!(enc.len(), x.encoded_len(), "{name}: encoded_len of {x:?}");
        assert_eq!(T::decode_from_slice(&enc).as_ref(), Ok(&x), "{name}");

        // (3) the shared decode agrees and slices instead of copying.
        let buf = Bytes::from(enc.clone());
        let shared = T::decode_from_bytes(&buf).expect("decodes from a slice, so from a buffer");
        assert_eq!(shared, x, "{name}: shared decode differs");
        let base = buf.as_ptr() as usize;
        for p in payloads(&shared) {
            let at = p.as_ptr() as usize;
            assert!(
                at >= base && at + p.len() <= base + buf.len(),
                "{name}: a payload of {x:?} was copied out of the shared buffer"
            );
        }

        // (4) every truncation is survived; (2) one that decodes is canonical.
        for cut in 0..enc.len() {
            check_canonical::<T>(name, &enc[..cut]);
        }
        // Mutations: all 255 other values at a few offsets of a long
        // encoding, at every offset of a short one.
        let stride = enc.len().div_ceil(64).max(1);
        for at in (case % stride..enc.len()).step_by(stride) {
            let mut bad = enc.clone();
            for delta in 1..=255u8 {
                bad[at] = enc[at].wrapping_add(delta);
                check_canonical::<T>(name, &bad);
            }
            let mut spliced = enc[..at].to_vec();
            spliced.extend_from_slice(&HUGE_LEN);
            spliced.extend_from_slice(&enc[at..]);
            check_canonical::<T>(name, &spliced);
        }
    }
}

/// Laws 2 and 4 for one candidate byte string: decoding must not panic,
/// and whatever it accepts must re-encode to the same bytes on both the
/// slice and the shared path.
fn check_canonical<T: Encode + Decode + PartialEq + Debug>(name: &str, bytes: &[u8]) {
    let from_slice = T::decode_from_slice(bytes);
    let from_shared = T::decode_from_bytes(&Bytes::from(bytes));
    assert_eq!(from_slice, from_shared, "{name}: {bytes:02x?}");
    if let Ok(v) = from_slice {
        assert_eq!(
            v.encode_to_vec(),
            bytes,
            "{name}: accepted a second spelling of {v:?}"
        );
    }
}

// -- generators --------------------------------------------------------------

/// Integers biased toward the varint length boundaries.
fn word(rng: &mut TestRng) -> u64 {
    let raw = rng.next_u64();
    match raw % 4 {
        0 => raw >> 58,
        1 => (1u64 << ((raw >> 8) % 10 * 7).min(63))
            .wrapping_add(raw >> 62)
            .wrapping_sub(1),
        2 => raw >> 32,
        _ => raw,
    }
}

fn blob(rng: &mut TestRng, max: usize) -> Vec<u8> {
    let len = (rng.next_u64() as usize) % (max + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn bytes32(rng: &mut TestRng) -> [u8; 32] {
    std::array::from_fn(|_| rng.next_u64() as u8)
}

fn payload(rng: &mut TestRng) -> Bytes {
    Bytes::from(blob(rng, 200))
}

/// Every frame shape: a round frame with no message, one, many, or one of
/// at least 64 KiB. The last is rare, since the laws cost time in its
/// length; under the seed `laws("Frame", …)` uses, one of its cases has
/// it.
fn frame(rng: &mut TestRng) -> Frame {
    let round = word(rng);
    let msgs = match rng.next_u64() % 6 {
        0 => {
            return Frame::Hello {
                from: word(rng) as u32,
            }
        }
        1 => return Frame::Bye,
        2 => Vec::new(),
        3 => vec![payload(rng)],
        4 if rng.next_u64().is_multiple_of(16) => vec![large(rng)],
        _ => (0..2 + rng.next_u64() % 6).map(|_| payload(rng)).collect(),
    };
    Frame::Round { round, msgs }
}

/// A payload of 64 KiB or a little more.
fn large(rng: &mut TestRng) -> Bytes {
    let mut bytes = blob(rng, 100);
    bytes.resize(bytes.len() + (64 << 10), 0x5A);
    Bytes::from(bytes)
}

fn session_frame(rng: &mut TestRng) -> SessionFrame {
    SessionFrame {
        session: SessionId(word(rng)),
        payload: payload(rng),
    }
}

fn envelope(rng: &mut TestRng) -> Envelope {
    let frames = rng.next_u64() % 5;
    Envelope {
        frames: (0..frames).map(|_| session_frame(rng)).collect(),
    }
}

fn bit_string(rng: &mut TestRng) -> BitString {
    let bytes = blob(rng, 40);
    let len = (bytes.len() * 8).saturating_sub(rng.next_u64() as usize % 8);
    BitString::from_bits((0..len).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1))
}

fn nat(rng: &mut TestRng) -> Nat {
    match rng.next_u64() % 3 {
        0 => Nat::from_u64(word(rng)),
        _ => Nat::from_bits(&bit_string(rng)),
    }
}

fn share(rng: &mut TestRng) -> Share {
    let n = 4 + rng.next_u64() as usize % 12;
    let rs = ReedSolomon::new(n, n - (n - 1) / 3).expect("valid (n, n − t)");
    let mut shares = rs.encode(&blob(rng, 300));
    shares.swap_remove(rng.next_u64() as usize % n)
}

fn witness(rng: &mut TestRng) -> Witness {
    let leaves: Vec<Vec<u8>> = (0..1 + rng.next_u64() % 20).map(|_| blob(rng, 8)).collect();
    let index = rng.next_u64() as usize % leaves.len();
    MerkleTree::build(&leaves).witness(index)
}

// -- the types ----------------------------------------------------------------

#[test]
fn primitives_and_containers_obey_the_codec_laws() {
    laws("bool", |r| r.next_u64() & 1 == 1, no_payloads);
    laws("u8", |r| r.next_u64() as u8, no_payloads);
    laws("u16", |r| word(r) as u16, no_payloads);
    laws("u32", |r| word(r) as u32, no_payloads);
    laws("u64", word, no_payloads);
    laws("usize", |r| word(r) as usize, no_payloads);
    laws("i64", |r| word(r) as i64, no_payloads);
    laws("unit", |_| (), no_payloads);
    laws("[u8; 32]", bytes32, no_payloads);
    laws(
        "String",
        |r| blob(r, 40).into_iter().map(char::from).collect::<String>(),
        no_payloads,
    );
    laws(
        "Option<u64>",
        |r| (r.next_u64() & 1 == 1).then(|| word(r)),
        no_payloads,
    );
    laws("Vec<u8>", |r| blob(r, 200), no_payloads);
    // At least 4 KiB, the payload sizes the bulk byte path exists for.
    laws(
        "long Vec<u8>",
        |r| {
            let mut long: Vec<u8> = (0..4096).map(|_| r.next_u64() as u8).collect();
            long.extend(blob(r, 600));
            long
        },
        no_payloads,
    );
    laws(
        "Vec<u64>",
        |r| (0..r.next_u64() % 9).map(|_| word(r)).collect::<Vec<u64>>(),
        no_payloads,
    );
    laws(
        "(u64, Vec<u8>, bool)",
        |r| (word(r), blob(r, 30), r.next_u64() & 1 == 1),
        no_payloads,
    );
    laws("Bytes", payload, |b| vec![b]);
    laws(
        "Vec<(u32, Bytes)>",
        |r| {
            (0..r.next_u64() % 4)
                .map(|_| (word(r) as u32, payload(r)))
                .collect::<Vec<_>>()
        },
        |v| v.iter().map(|(_, b)| b).collect(),
    );
}

#[test]
fn transport_frames_and_envelopes_obey_the_codec_laws() {
    laws("Frame", frame, |f| match f {
        Frame::Round { msgs, .. } => msgs.iter().collect(),
        _ => Vec::new(),
    });
    laws("SessionId", |r| SessionId(word(r)), no_payloads);
    laws("SessionFrame", session_frame, |f| vec![&f.payload]);
    laws("Envelope", envelope, |e| {
        e.frames.iter().map(|f| &f.payload).collect()
    });
    laws("PartyId", |r| PartyId(word(r) as usize), no_payloads);
}

#[test]
fn protocol_values_obey_the_codec_laws() {
    laws("BitString", bit_string, no_payloads);
    laws("Nat", nat, no_payloads);
    laws(
        "Int",
        |r| match r.next_u64() % 3 {
            0 => Int::from_i64(word(r) as i64),
            1 => Int::from_i128(r.next_u128() as i128),
            _ => Int::from_parts(Sign::Neg, nat(r)),
        },
        no_payloads,
    );
    laws("Hash256", |r| Hash256::from_bytes(bytes32(r)), no_payloads);
    laws("Share", share, no_payloads);
    laws("Witness", witness, no_payloads);
    laws(
        "(u32, Share, Witness)",
        |r| (word(r) as u32, share(r), witness(r)),
        no_payloads,
    );
}

/// A round frame whose message count claims more messages than its body
/// holds (one more, a larger count, 2⁶³) is refused when its bytes run
/// out; the decoder sizes nothing by the count beyond the bytes present.
#[test]
fn hostile_round_counts_are_rejected() {
    use convex_agreement::codec::CodecError;
    // Tag 1, round 5, the count, then two empty messages.
    for count in [&[3u8][..], &[0x80, 0x01], &HUGE_LEN] {
        let body = [&[1u8, 5][..], count, &[0, 0]].concat();
        let err = Frame::decode_from_slice(&body).unwrap_err();
        assert!(
            matches!(err, CodecError::UnexpectedEof { available: 0, .. }),
            "{count:02x?}: {err:?}"
        );
    }
}
