//! Fault-adaptive `Π_ℕ` (ROADMAP item 1, following Constantinescu–Dufay–
//! Paramonov–Wattenhofer, "From Few to Many Faults: Optimal Adaptive
//! Byzantine Agreement"): pay for the faults that actually happen, not
//! the worst case.
//!
//! [`pi_n_adaptive`] prepends a constant-round optimistic attempt to the
//! full `Π_ℕ` ([`crate::pi_n`]) and certifies the shortcut with one binary
//! BA, so all honest parties take the *same* path:
//!
//! 1. **Offer** — everyone sends its input (or a too-long marker when it
//!    exceeds `MAX_FAST_BITS` = 2¹⁶). A party that received
//!    `n` well-formed values forms the *candidate*: the median of the
//!    multiset. With `t < n/3 < n/2` corrupted senders the median of `n`
//!    values, at least `n − t` of which are honest inputs, always lies in
//!    the honest input hull — so a certified candidate is a valid output.
//! 2. **Echo** — everyone sends `(happy, digest)`: `happy` iff it holds a
//!    candidate *and* its transport's [`ca_net::FaultEstimate`] is within
//!    `FAULT_BUDGET` = 0; `digest` is the candidate's
//!    SHA-256. A party *confirms* iff it is happy and received `n` echoes,
//!    all happy, all carrying its own digest.
//! 3. **Certify** — one binary BA on the confirm bit. Output 1 means (BA
//!    validity) some honest party confirmed, so every honest party's echo
//!    was happy with that party's digest — i.e. *every* honest party holds
//!    the same candidate, and all decide it. Output 0 means everyone falls
//!    back to the full worst-case `Π_ℕ`, untouched.
//!
//! Equivocation in step 1 skews medians apart; step 2's digest comparison
//! then denies every honest confirm and the BA certifies the fallback.
//! Either way no honest party ever decides an uncertified candidate, and
//! both branches are taken in lock-step by all honest parties.
//!
//! Cost at `f = 0`: one `ℓ`-bit all-to-all, one `κ`-bit all-to-all, one
//! binary BA — `O(ℓn + κn + ROUNDS(Π_BA^bit))`, a large constant factor
//! below `Π_ℕ`'s `O(log n)` BA invocations and prefix search (the A1
//! experiment in `ca-bench` measures the ratio).

use ca_ba::BaKind;
use ca_bits::Nat;
use ca_codec::Encode;
use ca_crypto::{sha256, Hash256};
use ca_net::{block_on, Comm, Ctx};

use crate::pi_n::pi_n_body;

/// Inputs longer than this many bits are not offered whole — the fast
/// path's `O(ℓn)` offer round must not dwarf the worst-case protocol's
/// `O(ℓn)` total on huge values.
const MAX_FAST_BITS: usize = 1 << 16;

/// Transport-observed faults a party tolerates and stays happy with the
/// fast path: none — any observed silence forces the certified fallback.
const FAULT_BUDGET: usize = 0;

/// An offer: the sender's input, or `None` when it exceeds
/// `MAX_FAST_BITS` (encoded via `Option`'s codec).
type Offer = Option<Nat>;

/// The candidate certified by the fast path: the median of a *complete*
/// round of `n` well-formed offers, `None` otherwise.
fn candidate_from(offers: &mut Vec<(ca_net::PartyId, Offer)>, n: usize) -> Option<Nat> {
    if offers.len() != n {
        return None;
    }
    #[expect(clippy::disallowed_methods, reason = "one value per party")]
    let mut values: Vec<Nat> = Vec::with_capacity(n);
    for (_, offer) in offers.drain(..) {
        values.push(offer?);
    }
    values.sort();
    // Median of n values, ≥ n − t honest, t < n/2: at least one honest
    // value ≤ it and one ≥ it, so it lies in the honest hull.
    values.into_iter().nth(n / 2)
}

/// Runs `Π_ℕ` with the fault-adaptive fast path described in the
/// [module docs](self).
///
/// Guarantees are exactly [`crate::pi_n`]'s (Termination, Agreement,
/// Convex Validity for `t < n/3`); the fast path only changes *cost*,
/// decided by one certifying binary BA common to all honest parties.
///
/// # Examples
///
/// ```
/// use ca_bits::Nat;
/// use ca_core::{pi_n_adaptive, BaKind};
/// use ca_net::Sim;
///
/// // Fault-free and unanimous: the fast path certifies in O(1) rounds.
/// let report =
///     Sim::new(4).run(|ctx, _| pi_n_adaptive(ctx, &Nat::from_u64(42), BaKind::TurpinCoan));
/// assert!(report.honest_outputs().iter().all(|v| **v == Nat::from_u64(42)));
/// ```
pub fn pi_n_adaptive(ctx: &mut dyn Comm, v_in: &Nat, ba: BaKind) -> Nat {
    block_on(pi_n_adaptive_async(&mut Ctx::live(ctx), v_in, ba))
}

/// [`pi_n_adaptive`] as an `async fn` over a [`Ctx`].
pub async fn pi_n_adaptive_async(ctx: &mut Ctx<'_>, v_in: &Nat, ba: BaKind) -> Nat {
    ctx.scoped("pi_n_a", async |ctx| {
        ctx.trace_input(|| v_in.to_string());
        let n = ctx.n();

        // Round 1 (offer): ship the value, or mark it too long.
        let offer: Offer = (v_in.bit_len() <= MAX_FAST_BITS).then(|| v_in.clone());
        let inbox = ctx.exchange(&offer).await;
        let candidate = candidate_from(&mut inbox.decode_each::<Offer>(), n);

        // Round 2 (echo): commit to the candidate by digest.
        let digest: Hash256 = match &candidate {
            Some(v) => sha256(&v.encode_to_vec()),
            None => sha256(b""),
        };
        let happy = candidate.is_some() && ctx.fault_estimate().within(FAULT_BUDGET);
        let inbox = ctx.exchange(&(happy, digest)).await;
        let echoes = inbox.decode_each::<(bool, Hash256)>();
        let confirm =
            happy && echoes.len() == n && echoes.iter().all(|(_, (h, d))| *h && *d == digest);

        // Certify the path choice so every honest party takes the same one.
        let fast = ctx
            .scoped("fast_ba", async |ctx| ba.run_bit_async(ctx, confirm).await)
            .await;
        let out = match candidate {
            Some(v) if fast => {
                ctx.trace_fast_path(|| v.to_string());
                v
            }
            _ => {
                // `fast` with no local candidate is impossible for honest
                // parties (a confirming party proves every honest digest —
                // ours included — matches a real candidate); treat it like
                // any other fallback rather than trusting the impossible.
                let reason = if fast {
                    "no-candidate"
                } else if !happy {
                    if candidate.is_none() {
                        "incomplete"
                    } else {
                        "fault-estimate"
                    }
                } else {
                    "ba-rejected"
                };
                ctx.trace_fallback(reason);
                pi_n_body(ctx, v_in, ba).await
            }
        };
        ctx.trace_decide(|| out.to_string());
        out
    })
    .await
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use ca_adversary::Attack;
    use ca_net::{Corruption, PartyId, Sim};
    use ca_trace::Event;
    use std::sync::Arc;

    fn assert_ca(outs: &[Nat], honest: &[Nat]) {
        assert!(!outs.is_empty());
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement");
        let lo = honest.iter().min().unwrap();
        let hi = honest.iter().max().unwrap();
        assert!(
            outs[0] >= *lo && outs[0] <= *hi,
            "convex validity: {:?} ∉ [{:?}, {:?}]",
            outs[0],
            lo,
            hi
        );
    }

    fn traced_run(sim: Sim, inputs: Vec<Nat>) -> (Vec<Nat>, Vec<ca_trace::Record>) {
        let sink = Arc::new(ca_trace::RingBufferSink::new(4_000_000));
        let report = sim
            .with_trace(Arc::clone(&sink) as Arc<dyn ca_trace::TraceSink>)
            .run(move |ctx, id| pi_n_adaptive(ctx, &inputs[id.index()], BaKind::TurpinCoan));
        let outs = report.honest_outputs().into_iter().cloned().collect();
        let records = sink.records();
        assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
        (outs, records)
    }

    #[test]
    fn fault_free_takes_fast_path_everywhere() {
        let inputs: Vec<Nat> = [70u64, 10, 40, 30]
            .iter()
            .map(|&v| Nat::from_u64(v))
            .collect();
        let (outs, records) = traced_run(Sim::new(4), inputs.clone());
        assert_ca(&outs, &inputs);
        // Median of {10, 30, 40, 70} at index 2.
        assert_eq!(outs[0], Nat::from_u64(40));
        assert_eq!(ca_trace::check(&records), vec![]);
        let fast: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, Event::FastPathTaken { .. }))
            .collect();
        assert_eq!(fast.len(), 4, "every party should go fast: {records:#?}");
        assert!(!records
            .iter()
            .any(|r| matches!(r.event, Event::FallbackTriggered { .. })));
    }

    #[test]
    fn silent_party_falls_back_and_stays_correct() {
        let n = 4;
        let inputs: Vec<Nat> = [70u64, 10, 40, 30]
            .iter()
            .map(|&v| Nat::from_u64(v))
            .collect();
        let honest: Vec<Nat> = inputs[..3].to_vec();
        let (outs, records) = traced_run(
            Sim::new(n).corrupt(PartyId(3), Corruption::Scripted),
            inputs,
        );
        assert_ca(&outs, &honest);
        assert_eq!(ca_trace::check(&records), vec![]);
        // A silent party means no one assembles n offers: all honest
        // parties fall back, none goes fast.
        assert!(!records
            .iter()
            .any(|r| matches!(r.event, Event::FastPathTaken { .. })));
        let fallbacks: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::FallbackTriggered { reason } => Some(reason.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(fallbacks, vec!["incomplete"; 3]);
    }

    #[test]
    fn fallback_decides_like_pi_n() {
        // With a silent party the adaptive run's decision must match what
        // the worst-case protocol decides on the same inputs and faults.
        let n = 4;
        let inputs: Vec<Nat> = [70u64, 10, 40, 30]
            .iter()
            .map(|&v| Nat::from_u64(v))
            .collect();
        let run = inputs.clone();
        let adaptive = Sim::new(n)
            .corrupt(PartyId(3), Corruption::Scripted)
            .run(move |ctx, id| pi_n_adaptive(ctx, &run[id.index()], BaKind::TurpinCoan));
        let run = inputs.clone();
        let plain = Sim::new(n)
            .corrupt(PartyId(3), Corruption::Scripted)
            .run(move |ctx, id| crate::pi_n(ctx, &run[id.index()], BaKind::TurpinCoan));
        assert_eq!(adaptive.honest_outputs(), plain.honest_outputs());
    }

    #[test]
    fn oversized_input_is_not_offered_whole() {
        let n = 4;
        // 2^65536 is one bit past the limit.
        let inputs = vec![Nat::pow2(MAX_FAST_BITS); n];
        let (outs, records) = traced_run(Sim::new(n), inputs.clone());
        assert_ca(&outs, &inputs);
        assert_eq!(ca_trace::check(&records), vec![]);
        // Too-long offers are `None`: no candidate, certified fallback.
        assert!(!records
            .iter()
            .any(|r| matches!(r.event, Event::FastPathTaken { .. })));
    }

    #[test]
    fn fast_path_is_much_cheaper_than_worst_case() {
        let n = 7;
        let inputs: Vec<Nat> = (0..n as u64).map(|i| Nat::from_u64(1_000 + i)).collect();
        let run = inputs.clone();
        let fast = Sim::new(n)
            .run(move |ctx, id| pi_n_adaptive(ctx, &run[id.index()], BaKind::TurpinCoan));
        let run = inputs.clone();
        let worst =
            Sim::new(n).run(move |ctx, id| crate::pi_n(ctx, &run[id.index()], BaKind::TurpinCoan));
        assert!(
            fast.metrics.rounds < worst.metrics.rounds,
            "fast {} rounds vs worst {}",
            fast.metrics.rounds,
            worst.metrics.rounds
        );
        assert!(
            fast.metrics.honest_bits * 2 <= worst.metrics.honest_bits,
            "fast {} bits vs worst {}",
            fast.metrics.honest_bits,
            worst.metrics.honest_bits
        );
    }

    #[test]
    fn adversary_suite_stays_correct() {
        let n = 7;
        let t = ca_net::max_faults(n);
        for attack in Attack::standard_suite(31) {
            if attack.is_lying() {
                // Lying attacks change inputs, covered by pi_n's own suite;
                // here we exercise the fast path's message-level handling.
                continue;
            }
            let inputs: Vec<Nat> = (0..n as u64).map(|i| Nat::from_u64(500 + i)).collect();
            let honest: Vec<Nat> = match attack.kind {
                ca_adversary::AttackKind::None | ca_adversary::AttackKind::Adaptive => {
                    inputs.clone()
                }
                _ => inputs[..n - t].to_vec(),
            };
            let sim = attack.install(Sim::new(n), n, t);
            let run = inputs.clone();
            let outs: Vec<Nat> = sim
                .run(move |ctx, id| pi_n_adaptive(ctx, &run[id.index()], BaKind::TurpinCoan))
                .honest_outputs()
                .into_iter()
                .cloned()
                .collect();
            assert_ca(&outs, &honest);
        }
    }
}
