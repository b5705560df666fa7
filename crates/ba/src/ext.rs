//! `Π_ℓBA+` (paper §7, Theorem 1): the extension protocol — BA for long
//! messages with Intrusion Tolerance and Bounded Pre-Agreement at
//! `O(ℓn + κ·n²·log n) + BITSκ(Π_BA)` bits.
//!
//! Construction (following the outline of [8, 41]):
//!
//! 1. `RS.ENCODE` the input into `n` codewords (`(n, n−t)` Reed–Solomon)
//!    and accumulate them in a Merkle tree: `z` := root.
//! 2. Run [`ba_plus`] on the κ-bit `z`. If it returns `⊥`, output `⊥`.
//! 3. **Distributing step** (two rounds): every party whose own `z` equals
//!    the agreed `z*` sends each party `Pⱼ` its codeword and witness
//!    `(j, sⱼ, wⱼ)`; each party then echoes its (Merkle-verified) codeword
//!    to everyone; everyone erasure-decodes the `≥ n−t` verified codewords.
//!
//! Merkle verification makes corrupted codewords indistinguishable from
//! silence, and RS determinism makes every verified codeword for an index
//! identical — so all honest parties reconstruct the same value, which is
//! the input of an honest party (Lemma 6).
//!
//! Step 1 encodes each message `(j, sⱼ, wⱼ)` once and hashes its codeword
//! where it lies. So a party whose own root is `z*` already holds every
//! message an honest peer can send it: it keeps them through the echo
//! round, recognises a copy by byte equality instead of hashing it, and
//! skips `RS.DECODE` when all it collects are its own. The echo forwards
//! the bytes it verified, their own re-encoding (DESIGN.md §13).
//!
//! ## Adaptive corner (documented deviation)
//!
//! Like the protocols of [41] this distribution step assumes the holder of
//! the pre-agreed value that survives to the distributing step is honest
//! *when it distributes*. An adversary that corrupts the **unique** holder
//! in the gap between agreement on `z*` and distribution can starve
//! reconstruction; we then output `⊥` deterministically. Within the
//! simulator's round-granular corruption this yields a uniform `⊥` for all
//! honest parties, preserving Agreement.

use bytes::Bytes;
use ca_crypto::{Hash256, MerkleTree, Witness};
use ca_erasure::{ReedSolomon, Share, ShareRef};
use ca_net::{block_on, Comm, Ctx, Inbox, PartyId};

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::ba_plus::ba_plus_async;
use crate::{BaKind, Value};

/// Borrowed view of a distributed codeword `(index, share, witness)` — the
/// paper's `(j, sⱼ, wⱼ)` tuples. The share borrows its exact encoded span
/// from the receive buffer, so Merkle verification hashes the wire bytes
/// directly instead of re-encoding the share.
struct ShareMsgRef<'a> {
    /// The whole message, which a holder compares with its own.
    raw: &'a [u8],
    idx: u32,
    share: ShareRef<'a>,
    witness: Witness,
}

impl<'a> ShareMsgRef<'a> {
    /// Bounds-checked decode of one complete message; trailing bytes are
    /// malformed (a byzantine sender must not smuggle extra data past the
    /// share-span capture).
    fn decode_from_slice(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let idx = u32::decode(&mut r)?;
        let share = ShareRef::decode(&mut r)?;
        let witness = Witness::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(ShareMsgRef {
            raw: bytes,
            idx,
            share,
            witness,
        })
    }

    /// `MT.VERIFY` against the agreed root. The leaf preimage is the
    /// borrowed span itself, so this re-encodes nothing.
    fn verifies(&self, z_star: Hash256) -> bool {
        MerkleTree::verify(
            z_star,
            self.idx as usize,
            self.share.encoded_bytes(),
            &self.witness,
        )
    }
}

/// Every well-formed `(idx, share, witness)` message in `inbox`, in sender
/// order, with the buffer it arrived in; malformed messages are silence.
/// Decoding slices the share without hashing it: callers verify only the
/// candidates they need.
fn share_msgs(inbox: &Inbox) -> impl Iterator<Item = (&Bytes, ShareMsgRef<'_>)> + '_ {
    (0..inbox.party_count())
        .flat_map(|sender| inbox.raw_from(PartyId(sender)))
        .filter_map(|raw| Some((raw, ShareMsgRef::decode_from_slice(raw).ok()?)))
}

/// The first `k` indices, ascending, that hold a codeword verifying
/// against `z_star`, each with its first verified copy in sender order —
/// the `k` codewords `RS.DECODE` picks from the full verified set — and
/// whether `recognises` accepted it.
///
/// Messages are bucketed by index and verified in passes: each pass takes
/// the next copy of each of the `k − collected` lowest undecided indices,
/// accepts those `recognises` accepts, hashes the rest through
/// [`MerkleTree::verify_each`], and an index is decided once a copy
/// verifies or its copies run out. This hashes a subset of the copies a
/// scan of the indices in order, stopping at `k`, would hash:
/// - every index in a pass has fewer than `k` verified indices below it,
///   since those are the `collected` ones plus at most `k − collected − 1`
///   batch-mates, so the scan would reach it too;
/// - the passes stop when every index is decided or `k` have verified,
///   and `collected` reaches `k` only in a pass whose every index
///   verified, so no index the scan would still try is left undecided
///   below a verified one.
///
/// With all parties honest the first pass is the first `k` indices'
/// first copies. An unverifiable copy never shadows a later honest one,
/// and verified codewords for an index are identical, so which copy wins
/// is immaterial.
fn first_verified<'a>(
    inbox: &'a Inbox,
    z_star: Hash256,
    n: usize,
    k: usize,
    recognises: impl Fn(&ShareMsgRef<'_>) -> bool,
) -> Vec<(usize, ShareRef<'a>, bool)> {
    let mut buckets: Vec<Vec<ShareMsgRef<'_>>> = (0..n).map(|_| Vec::new()).collect();
    for (_, msg) in share_msgs(inbox) {
        if let Some(bucket) = buckets.get_mut(msg.idx as usize) {
            bucket.push(msg);
        }
    }
    // Per index: the copy up next (or the one that verified), and
    // whether one did, by recognition or by hashing.
    #[expect(clippy::disallowed_methods, reason = "one cursor per codeword index")]
    let mut next = vec![0; n];
    #[expect(clippy::disallowed_methods, reason = "one verdict per codeword index")]
    let mut verified: Vec<Option<bool>> = vec![None; n];
    let mut collected = 0;
    loop {
        let batch: Vec<usize> = (0..n)
            .filter(|&idx| verified[idx].is_none() && next[idx] < buckets[idx].len())
            .take(k - collected)
            .collect();
        if batch.is_empty() {
            break;
        }
        let known: Vec<bool> = batch
            .iter()
            .map(|&idx| recognises(&buckets[idx][next[idx]]))
            .collect();
        let items: Vec<_> = batch
            .iter()
            .zip(&known)
            .filter(|(_, &known)| !known)
            .map(|(&idx, _)| {
                let msg = &buckets[idx][next[idx]];
                (idx, msg.share.encoded_bytes(), &msg.witness)
            })
            .collect();
        // One verdict per copy not recognised, in batch order.
        let mut verdicts = MerkleTree::verify_each(z_star, &items).into_iter();
        for (&idx, &known) in batch.iter().zip(&known) {
            if known || verdicts.next() == Some(true) {
                verified[idx] = Some(known);
                collected += 1;
            } else {
                next[idx] += 1;
            }
        }
    }
    (0..n)
        .filter_map(|idx| verified[idx].map(|own| (idx, buckets[idx][next[idx]].share, own)))
        .collect()
}

/// Step 1: `RS.ENCODE` the payload and `MT.BUILD` over the codewords'
/// encodings. Returns the root and the `n` dispersal messages
/// `(j, sⱼ, wⱼ)`, each encoded once into a buffer of exactly its length:
/// the tree hashes each codeword's span in place, then its witness is
/// appended.
fn dispersal(rs: &ReedSolomon, payload: &[u8]) -> (Hash256, Vec<Vec<u8>>) {
    let shares = rs.encode(payload);
    let witness_len = MerkleTree::witness_len(shares.len() as u32);
    let mut msgs: Vec<Writer> = (0u32..)
        .zip(shares)
        .map(|head| {
            #[expect(
                clippy::disallowed_methods,
                reason = "one message: its index, its codeword and a witness of the local tree"
            )]
            let mut w = Writer::with_capacity(head.encoded_len() + witness_len);
            head.encode(&mut w);
            w
        })
        .collect();
    let spans: Vec<&[u8]> = (0u32..)
        .zip(&msgs)
        .map(|(j, w)| &w.as_slice()[j.encoded_len()..])
        .collect();
    let tree = MerkleTree::build(&spans);
    for (j, w) in msgs.iter_mut().enumerate() {
        tree.witness(j).encode(w);
    }
    let msgs = msgs.into_iter().map(Writer::into_vec).collect();
    (tree.root(), msgs)
}

/// The defense-in-depth check: does the reconstruction `decoded`
/// re-accumulate to `z_star`?
///
/// `z` and `payload` are this party's step-1 root and bytes. When `z` is
/// `z_star` and `decoded` is those same bytes, the answer is yes by
/// construction — `RS.ENCODE` and `MT.BUILD` are deterministic, so the
/// rebuild would be step 1's tree again. Every other case re-encodes and
/// rebuilds.
fn reaccumulates(
    rs: &ReedSolomon,
    decoded: &[u8],
    z_star: Hash256,
    z: Hash256,
    payload: &[u8],
) -> bool {
    (z == z_star && decoded == payload) || dispersal(rs, decoded).0 == z_star
}

/// Runs `Π_ℓBA+` on `input`, instantiating the assumed `Π_BA` with `ba`.
///
/// Returns the agreed value, or `None` (the paper's `⊥`).
///
/// Guarantees (for `t < n/3`), per Theorem 1: Termination, Agreement,
/// Validity, Intrusion Tolerance, Bounded Pre-Agreement.
pub fn lba_plus<V: Value>(ctx: &mut dyn Comm, input: &V, ba: BaKind) -> Option<V> {
    block_on(lba_plus_async(&mut Ctx::live(ctx), input, ba))
}

/// [`lba_plus`] as an `async fn` over a [`Ctx`].
pub async fn lba_plus_async<V: Value>(ctx: &mut Ctx<'_>, input: &V, ba: BaKind) -> Option<V> {
    ctx.scoped("lba+", async |ctx| {
        let out = lba_plus_body(ctx, input, ba).await;
        ctx.trace_decide(|| ca_net::compact_debug(&out));
        out
    })
    .await
}

/// `Π_ℓBA+` proper, inside the `lba+` scope (split out so the decide
/// trace event covers the `⊥` early returns too).
///
/// Each received codeword is hashed only when its step needs it: the echo
/// step stops at the first copy of its own codeword that verifies, the
/// decode step at the `k`-th verified index. A holder of `z*` hashes no
/// copy of its own messages, nor decodes `k` of them (module doc).
async fn lba_plus_body<V: Value>(ctx: &mut Ctx<'_>, input: &V, ba: BaKind) -> Option<V> {
    let n = ctx.n();
    let me = ctx.me();
    #[expect(
        clippy::expect_used,
        reason = "(n, n−t) are local config, not wire input"
    )]
    let rs = ReedSolomon::new(n, ctx.quorum()).expect("valid (n, n−t) parameters");
    let k = rs.threshold();

    // Step 1: erasure-code and accumulate, into the dispersal messages.
    let payload = input.encode_to_vec();
    let (z, msgs) = dispersal(&rs, &payload);

    // Step 2: agree on an accumulator value.
    let z_star = ba_plus_async(ctx, z, ba).await?;

    // Step 3a: holders of the agreed value disperse codewords and keep
    // the messages to recognise their own below; the others drop theirs.
    let own: Vec<Bytes> = msgs
        .into_iter()
        .filter(|_| z == z_star)
        .map(Bytes::from)
        .collect();
    for (j, msg) in own.iter().enumerate() {
        ctx.send_bytes(PartyId(j), msg.clone());
    }
    // A byte-equal copy of one of our messages passes MT.VERIFY.
    let recognises =
        |msg: &ShareMsgRef<'_>| own.get(msg.idx as usize).is_some_and(|m| m[..] == *msg.raw);
    let inbox = ctx.next_round().await;

    // Step 3b: echo the first copy of our own codeword that verifies, in
    // sender order, as it arrived (accepted bytes are their own encoding).
    if let Some((raw, _)) = share_msgs(&inbox).find(|(_, msg)| {
        msg.idx as usize == me.index() && (recognises(msg) || msg.verifies(z_star))
    }) {
        for p in 0..n {
            ctx.send_bytes(PartyId(p), raw.clone());
        }
    }
    drop(inbox);
    let inbox = ctx.next_round().await;
    let collected = first_verified(&inbox, z_star, n, k, recognises);
    drop(own);
    if collected.len() == k && collected.iter().all(|&(_, _, own)| own) {
        return V::decode_from_slice(&payload).ok();
    }
    let collected: Vec<(usize, Share)> = collected
        .iter()
        .map(|(idx, share, _)| (*idx, share.to_share()))
        .collect();
    drop(inbox);

    // Reconstruct; any (n−t)-subset of verified codewords yields the
    // same value because the accumulator binds index → codeword.
    let decoded = rs.decode(&collected).ok()?;
    let value = V::decode_from_slice(&decoded).ok()?;
    // Defense in depth: the reconstruction must re-accumulate to z*.
    if !reaccumulates(&rs, &decoded, z_star, z, &payload) {
        return None;
    }
    Some(value)
}

/// The eager body `lba_plus_body` replaced — every received codeword
/// verified and materialized, a second `RS.ENCODE` + `MT.BUILD` for the
/// re-accumulation check — kept as the differential oracle.
#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod eager {
    use super::*;
    use crate::ba_plus;
    use ca_net::CommExt as _;

    type ShareMsg = (u32, Share, Witness);

    fn verified_share_msgs(
        inbox: &Inbox,
        z_star: Hash256,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Vec<ShareMsg> {
        let mut out = Vec::new();
        for (_, msg) in share_msgs(inbox) {
            if keep(msg.idx as usize) && msg.verifies(z_star) {
                out.push((msg.idx, msg.share.to_share(), msg.witness));
            }
        }
        out
    }

    pub(super) fn lba_plus_body<V: Value>(ctx: &mut dyn Comm, input: &V, ba: BaKind) -> Option<V> {
        let n = ctx.n();
        let me = ctx.me();
        let rs = ReedSolomon::new(n, ctx.quorum()).expect("valid (n, n−t) parameters");

        let payload = input.encode_to_vec();
        let shares = rs.encode(&payload);
        let leaves: Vec<Vec<u8>> = shares.iter().map(Encode::encode_to_vec).collect();
        let tree = MerkleTree::build(&leaves);
        let z = tree.root();

        let z_star = ba_plus(ctx, z, ba)?;

        if z == z_star {
            for (j, (share, witness)) in shares.iter().zip(tree.witnesses()).enumerate() {
                ctx.send(PartyId(j), &(j as u32, share.clone(), witness));
            }
        }
        let inbox = ctx.next_round();
        let mine: Option<ShareMsg> = verified_share_msgs(&inbox, z_star, |idx| idx == me.index())
            .into_iter()
            .next();

        if let Some(msg) = &mine {
            ctx.send_all(msg);
        }
        let inbox = ctx.next_round();
        let mut have = vec![false; n];
        let mut collected: Vec<(usize, Share)> = Vec::new();
        for (idx, share, _) in verified_share_msgs(&inbox, z_star, |idx| idx < n) {
            let idx = idx as usize;
            if !have[idx] {
                have[idx] = true;
                collected.push((idx, share));
            }
        }

        let payload = rs.decode(&collected).ok()?;
        let value = V::decode_from_slice(&payload).ok()?;
        let reencoded = rs.encode(&payload);
        let releaves: Vec<Vec<u8>> = reencoded.iter().map(Encode::encode_to_vec).collect();
        if MerkleTree::build(&releaves).root() != z_star {
            return None;
        }
        Some(value)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use ca_adversary::{Equivocate, Garbage, Replay};
    use ca_bits::BitString;
    use ca_net::{
        max_faults, Adversary, CommExt as _, Corruption, RoundActions, RoundView, SendSpec, Sim,
    };
    use proptest::prelude::*;

    fn long_input(bits: usize, seed: u8) -> BitString {
        BitString::from_bits((0..bits).map(|i| (i as u8).wrapping_mul(seed).is_multiple_of(3)))
    }

    fn bytes_input(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed))
            .collect()
    }

    type Body = fn(&mut dyn Comm, &Vec<u8>, BaKind) -> Option<Vec<u8>>;

    /// The lazy body over a blocking transport, as a [`Body`].
    fn lazy_body(ctx: &mut dyn Comm, input: &Vec<u8>, ba: BaKind) -> Option<Vec<u8>> {
        block_on(lba_plus_body(&mut Ctx::live(ctx), input, ba))
    }

    /// Who misbehaves in a differential case: nobody, or parties `0..t`
    /// (`t..2t` for `TamperMid`).
    #[derive(Debug, Clone, Copy)]
    enum Faults {
        None,
        Silent,
        Garbage,
        Replay,
        Equivocate,
        Tamper,
        /// `Tamper` from the middle ids: an index below them gets its
        /// honest copy first, one above them a forgery first, so one
        /// verify batch holds both and must fall back to later copies
        /// for some of its indices only.
        TamperMid,
        Lying,
        /// `Tamper` on the witness: a rushed copy carries the right
        /// codeword bytes, so only its witness tells it from the holder's
        /// own.
        WrongWitness,
    }

    /// Rushes a well-formed but unverifiable twin of every codeword in
    /// flight — its last symbol byte changed and its witness kept, or with
    /// `witness` its share kept and the last byte of its witness changed —
    /// from every corrupted party to the codeword's recipient, so that bad
    /// candidates sit ahead of the honest ones in sender order.
    struct Tamper {
        witness: bool,
    }

    impl Adversary for Tamper {
        fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
            let mut actions = RoundActions::default();
            for (_, to, payload) in view.honest_sends {
                let Ok((idx, share, witness)) = <(u32, Share, Witness)>::decode_from_slice(payload)
                else {
                    continue;
                };
                let mut forged = idx.encode_to_vec();
                let mut share = share.encode_to_vec();
                let mut witness = witness.encode_to_vec();
                // An increment, not a flip: a forged echo of a forgery stays
                // forged.
                let last = if self.witness {
                    witness.last_mut()
                } else {
                    share.last_mut()
                };
                let last = last.unwrap();
                *last = last.wrapping_add(1);
                forged.extend(share);
                forged.extend(witness);
                for &from in view.corrupted {
                    actions.sends.push(SendSpec {
                        from,
                        to: *to,
                        payload: Bytes::from(forged.clone()),
                    });
                }
            }
            actions
        }
    }

    impl Faults {
        fn sim(self, n: usize) -> Sim {
            let mode = match self {
                Faults::None => return Sim::new(n),
                Faults::Lying => Corruption::LyingHonest,
                _ => Corruption::Scripted,
            };
            let t = max_faults(n);
            let first = if let Faults::TamperMid = self { t } else { 0 };
            let sim = (first..first + t).fold(Sim::new(n), |sim, p| sim.corrupt(PartyId(p), mode));
            match self {
                Faults::Garbage => sim.with_adversary(Garbage::new(31)),
                Faults::Replay => sim.with_adversary(Replay::new(32)),
                Faults::Equivocate => sim.with_adversary(Equivocate::new(33)),
                Faults::Tamper | Faults::TamperMid => sim.with_adversary(Tamper { witness: false }),
                Faults::WrongWitness => sim.with_adversary(Tamper { witness: true }),
                _ => sim,
            }
        }
    }

    /// Per-party outputs, honest bits and rounds of `body`, inside the
    /// `lba+` scope like [`lba_plus`].
    fn run_body(
        sim: Sim,
        inputs: &[Vec<u8>],
        body: Body,
    ) -> (Vec<Option<Option<Vec<u8>>>>, u64, u64) {
        let report = sim.run(|ctx, id| {
            ctx.scoped("lba+", |ctx| {
                body(ctx, &inputs[id.index()], BaKind::TurpinCoan)
            })
        });
        (
            report.outputs,
            report.metrics.honest_bits,
            report.metrics.rounds,
        )
    }

    /// The lazy data plane against the eager oracle: the same output for
    /// every party and the same bits and rounds, with adversaries placed
    /// on the lowest ids so their bad candidates come first in sender
    /// order (on the middle ids for `TamperMid`, so a verify batch must
    /// fall back to later copies for some of its indices), and with split
    /// inputs so that parties whose root lost take the full
    /// re-accumulation path.
    #[test]
    fn lazy_body_matches_the_eager_oracle() {
        for n in [4, 7, 10] {
            let t = max_faults(n);
            let shared = bytes_input(3000, 7);
            // Parties 0..holders hold `shared`, the rest values of their own.
            let split = |holders: usize| -> Vec<Vec<u8>> {
                (0..n)
                    .map(|i| {
                        if i < holders {
                            shared.clone()
                        } else {
                            bytes_input(3000, 11 + i as u8)
                        }
                    })
                    .collect()
            };
            let mut cases = vec![
                (Faults::None, split(n)),
                (Faults::Silent, split(n)),
                (Faults::Garbage, split(n)),
                (Faults::Replay, split(n)),
                (Faults::Equivocate, split(n)),
                (Faults::Tamper, split(n)),
                (Faults::TamperMid, split(n)),
                (Faults::None, split(n - 2 * t - 1)),
                (Faults::None, split(n - 2 * t)),
                (Faults::None, split(n - t)),
            ];
            // Parties 0..t run the protocol on a value of their own.
            let mut liars = vec![shared.clone(); n];
            liars[..t].fill(bytes_input(3000, 9));
            cases.push((Faults::Lying, liars));
            // With non-holders among the honest: a holder that echoed a
            // tampered codeword or witness would starve them.
            cases.push((Faults::WrongWitness, split(n)));
            cases.push((Faults::WrongWitness, split(n - t)));
            // Honest non-holders on ids t..2t, so that the holders' own
            // codewords include parity ones.
            let mut high = split(n);
            for (i, input) in high.iter_mut().enumerate().take(2 * t).skip(t) {
                *input = bytes_input(3000, 11 + i as u8);
            }
            cases.push((Faults::Tamper, high));
            for (case, (faults, inputs)) in cases.iter().enumerate() {
                let lazy = run_body(faults.sim(n), inputs, lazy_body);
                let eager = run_body(faults.sim(n), inputs, eager::lba_plus_body);
                assert_eq!(lazy, eager, "n = {n}, case {case} ({faults:?})");
            }
        }
    }

    /// `lazy_body_matches_the_eager_oracle` at the benchmark's shape
    /// (n = 31, k = 21) with a 64 KiB payload: holders recognise parity
    /// indices ≥ 21 among their own messages, and the decode step's
    /// verify batches fall back past forgeries in more than one pass.
    #[test]
    fn lazy_body_matches_the_eager_oracle_at_n31() {
        let n = 31;
        let t = max_faults(n);
        let shared = bytes_input(64 << 10, 7);
        let split = |holders: usize| -> Vec<Vec<u8>> {
            (0..n)
                .map(|i| {
                    if i < holders {
                        shared.clone()
                    } else {
                        bytes_input(64 << 10, 11 + i as u8)
                    }
                })
                .collect()
        };
        let cases = [
            (Faults::None, split(n)),
            (Faults::Silent, split(n)),
            (Faults::Tamper, split(n)),
            (Faults::TamperMid, split(n)),
            (Faults::WrongWitness, split(n)),
            (Faults::WrongWitness, split(n - t)),
            (Faults::None, split(n - 2 * t - 1)),
        ];
        for (faults, inputs) in &cases {
            let lazy = run_body(faults.sim(n), inputs, lazy_body);
            let eager = run_body(faults.sim(n), inputs, eager::lba_plus_body);
            assert_eq!(lazy, eager, "{faults:?}");
        }
    }

    /// Step 1's messages are `(j, shareⱼ, wⱼ)` as the codec spells them,
    /// under the root of the tree over the codewords' encodings, each in a
    /// buffer with no spare capacity: the witness append never
    /// reallocates, and `Bytes::from` keeps the buffer as it is.
    #[test]
    fn dispersal_messages_are_the_encoded_share_tuples() {
        for n in [4, 7, 31] {
            let rs = ReedSolomon::new(n, n - max_faults(n)).unwrap();
            let k = rs.threshold();
            for len in [0, 1, 2 * k - 1, 2 * k, 2 * k + 1, 64 << 10] {
                let payload = bytes_input(len, 5);
                let shares = rs.encode(&payload);
                let leaves: Vec<Vec<u8>> = shares.iter().map(Encode::encode_to_vec).collect();
                let tree = MerkleTree::build(&leaves);
                let (z, msgs) = dispersal(&rs, &payload);
                assert_eq!(z, tree.root(), "n = {n}, len = {len}");
                assert_eq!(msgs.len(), n, "n = {n}, len = {len}");
                for (j, (msg, share)) in msgs.iter().zip(shares).enumerate() {
                    let expected = (j as u32, share, tree.witness(j)).encode_to_vec();
                    assert_eq!(*msg, expected, "n = {n}, len = {len}, j = {j}");
                    assert_eq!(msg.capacity(), msg.len(), "n = {n}, len = {len}, j = {j}");
                }
            }
        }
    }

    /// A varint that claims 2⁶³ of whatever the decoder counts next.
    const HUGE_LEN: [u8; 10] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];

    /// `ShareMsgRef` and the owned tuple decoder accept `bytes` alike, and
    /// an accepted message is the same tuple and its own encoding, which
    /// whole-message recognition and the forwarded echo rest on.
    fn decoders_agree(bytes: &[u8]) {
        let owned = <(u32, Share, Witness)>::decode_from_slice(bytes);
        match (ShareMsgRef::decode_from_slice(bytes), owned) {
            (Ok(view), Ok(owned)) => {
                assert_eq!(view.raw, bytes);
                assert_eq!((view.idx, view.share.to_share(), view.witness), owned);
                assert_eq!(owned.encode_to_vec(), bytes);
            }
            (view, owned) => assert_eq!(view.is_ok(), owned.is_ok(), "{bytes:02x?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Every truncation of a step-1 message, all 255 other values of
        /// a byte at up to 64 offsets, and [`HUGE_LEN`] spliced in there.
        #[test]
        fn prop_share_msg_view_accepts_what_the_tuple_decoder_accepts(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            n in 4usize..12,
            pick in any::<usize>(),
        ) {
            let rs = ReedSolomon::new(n, n - max_faults(n)).unwrap();
            let msg = dispersal(&rs, &data).1.swap_remove(pick % n);
            decoders_agree(&msg);
            for cut in 0..msg.len() {
                decoders_agree(&msg[..cut]);
            }
            decoders_agree(&[&msg[..], &[0]].concat());
            let stride = msg.len().div_ceil(64);
            for at in (pick % stride..msg.len()).step_by(stride) {
                let mut bad = msg.clone();
                for delta in 1..=255u8 {
                    bad[at] = msg[at].wrapping_add(delta);
                    decoders_agree(&bad);
                }
                decoders_agree(&[&msg[..at], &HUGE_LEN, &msg[at..]].concat());
            }
        }
    }

    #[test]
    fn reaccumulation_check_takes_the_shortcut_only_when_it_is_exact() {
        let rs = ReedSolomon::new(7, 5).unwrap();
        let a = bytes_input(900, 3);
        let b = bytes_input(900, 5);
        let root = |payload: &[u8]| dispersal(&rs, payload).0;
        let (za, zb) = (root(&a), root(&b));

        // Shortcut: z = z* and the same bytes; the full path agrees.
        assert!(reaccumulates(&rs, &a, za, za, &a));
        assert!(reaccumulates(&rs, &a, za, zb, &b));
        // Another party's value, validly reconstructed: the full path
        // accepts it.
        assert!(reaccumulates(&rs, &b, zb, za, &a));
        // A tampered reconstruction under our own root: rejected.
        let mut tampered = a.clone();
        tampered[417] ^= 0x10;
        assert!(!reaccumulates(&rs, &tampered, za, za, &a));
        // Our own bytes but z ≠ z*: byte equality alone is no shortcut.
        assert!(!reaccumulates(&rs, &a, zb, za, &a));
    }

    #[test]
    fn validity_long_inputs() {
        let v = long_input(20_000, 7);
        let report = Sim::new(7).run(|ctx, _| lba_plus(ctx, &v, BaKind::TurpinCoan));
        for out in report.honest_outputs() {
            assert_eq!(out.as_ref(), Some(&v));
        }
    }

    #[test]
    fn agreement_and_intrusion_tolerance_mixed_inputs() {
        let inputs: Vec<BitString> = (0..7).map(|i| long_input(512, i as u8 + 1)).collect();
        let report =
            Sim::new(7).run(|ctx, id| lba_plus(ctx, &inputs[id.index()], BaKind::TurpinCoan));
        let outs = report.honest_outputs();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        if let Some(v) = outs[0] {
            assert!(inputs.contains(v), "output must be an honest input");
        }
    }

    #[test]
    fn bounded_pre_agreement_holds() {
        // n − 2t = 3 honest parties share an input ⇒ output non-⊥.
        let shared = long_input(4096, 3);
        let others: Vec<BitString> = (0..7).map(|i| long_input(4096, 50 + i as u8)).collect();
        let report = Sim::new(7)
            .corrupt(PartyId(5), Corruption::Scripted)
            .corrupt(PartyId(6), Corruption::Scripted)
            .with_adversary(Garbage::new(17))
            .run(|ctx, id| {
                let input = if id.index() < 3 {
                    shared.clone()
                } else {
                    others[id.index()].clone()
                };
                lba_plus(ctx, &input, BaKind::TurpinCoan)
            });
        for out in report.honest_outputs() {
            assert!(out.is_some(), "bounded pre-agreement violated");
        }
    }

    #[test]
    fn attacks_cannot_forge_output() {
        let v = long_input(8192, 9);
        for adv in 0..3 {
            let report = {
                let s = Sim::new(7)
                    .corrupt(PartyId(5), Corruption::Scripted)
                    .corrupt(PartyId(6), Corruption::Scripted);
                let s = match adv {
                    0 => s.with_adversary(Garbage::new(21)),
                    1 => s.with_adversary(Replay::new(22)),
                    _ => s.with_adversary(Equivocate::new(23)),
                };
                s.run(|ctx, _| lba_plus(ctx, &v, BaKind::TurpinCoan))
            };
            for out in report.honest_outputs() {
                assert_eq!(out.as_ref(), Some(&v), "adversary {adv}");
            }
        }
    }

    #[test]
    fn lying_minority_cannot_override() {
        let honest_v = long_input(2048, 1);
        let liar_v = long_input(2048, 2);
        let report = Sim::new(7)
            .corrupt(PartyId(5), Corruption::LyingHonest)
            .corrupt(PartyId(6), Corruption::LyingHonest)
            .run(|ctx, id| {
                let input = if id.index() >= 5 {
                    liar_v.clone()
                } else {
                    honest_v.clone()
                };
                lba_plus(ctx, &input, BaKind::TurpinCoan)
            });
        for out in report.honest_outputs() {
            assert_eq!(out.as_ref(), Some(&honest_v));
        }
    }

    #[test]
    fn value_sized_traffic_scales_linearly_not_quadratically() {
        // Theorem 1's point: doubling ℓ adds ~2ℓn bits, not 2ℓn².
        let n = 10;
        let small = long_input(20_000, 5);
        let large = long_input(40_000, 5);
        let bits_small = Sim::new(n)
            .run(|ctx, _| lba_plus(ctx, &small, BaKind::TurpinCoan))
            .metrics
            .honest_bits;
        let bits_large = Sim::new(n)
            .run(|ctx, _| lba_plus(ctx, &large, BaKind::TurpinCoan))
            .metrics
            .honest_bits;
        let delta = bits_large - bits_small;
        // Expected extra ≈ 2 · Δℓ · (n−1) · (n/(n−t)) ≈ 2·20000·9·1.43 ≈ 5.2e5.
        // A quadratic dependence would add ≈ n× that. Allow generous slack.
        let linear_estimate = 2 * 20_000 * (n as u64 - 1) * 3 / 2;
        assert!(
            delta < 3 * linear_estimate,
            "delta {delta} vs linear estimate {linear_estimate}"
        );
    }
}
