//! Property tests for the asynchronous building blocks: quorum tracking
//! and reliable broadcast must decide *identically* under arbitrary
//! seeded reorderings and drops (with ≤ t byzantine parties), and the
//! approximate-agreement instance must keep Definition 1's convexity
//! while reaching ε-agreement — for every sampled schedule.

use std::collections::BTreeMap;

use bytes::Bytes;
use ca_async::{
    Action, AsyncApprox, AsyncProtocol, DeliverySchedule, Executor, QuorumTracker, Rbc, RbcMsg,
    RbcTag, WitnessGather,
};
use ca_bits::Nat;
use ca_codec::{Decode, Encode};
use ca_net::{splitmix64, EdgeRule, PartyId};
use proptest::prelude::*;

const N: usize = 4;
const T: usize = 1;

/// Fisher–Yates driven by `splitmix64`: a deterministic in-test shuffle.
fn shuffle<T2>(items: &mut [T2], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// An honest RBC participant that broadcasts its own value (slot seq 0)
/// and decides once all `n − t` honest-origin slots have been delivered.
/// Output renders the honest-origin payloads — the quantity that must be
/// schedule-invariant.
struct RbcNode {
    me: PartyId,
    value: Vec<u8>,
    rbc: Rbc,
    delivered: BTreeMap<usize, Vec<u8>>,
    honest: usize,
}

impl RbcNode {
    fn new(me: PartyId, value: Vec<u8>) -> Self {
        Self {
            me,
            value,
            rbc: Rbc::new(N, T),
            delivered: BTreeMap::new(),
            honest: N - T,
        }
    }

    fn multicast(outgoing: Vec<RbcMsg>) -> Vec<Action> {
        outgoing
            .into_iter()
            .map(|m| Action::Broadcast {
                payload: Bytes::from(m.encode_to_vec()),
            })
            .collect()
    }
}

impl AsyncProtocol for RbcNode {
    type Output = String;

    fn on_start(&mut self) -> Vec<Action> {
        let out = self.rbc.broadcast(self.me, 0, self.value.clone());
        Self::multicast(out.outgoing)
    }

    fn on_message(&mut self, from: PartyId, payload: &Bytes) -> Vec<Action> {
        let Ok(msg) = RbcMsg::decode_from_slice(payload) else {
            return Vec::new();
        };
        let out = self.rbc.on_message(from, msg);
        for (tag, bytes) in out.delivered {
            self.delivered.insert(tag.origin.0, bytes);
        }
        Self::multicast(out.outgoing)
    }

    fn output(&self) -> Option<String> {
        // Decide on the honest origins' slots (0..n−t): those must land
        // under every schedule; the byzantine slot may or may not.
        if (0..self.honest).all(|o| self.delivered.contains_key(&o)) {
            Some(
                (0..self.honest)
                    .map(|o| format!("{o}:{:?}", self.delivered[&o]))
                    .collect::<Vec<_>>()
                    .join(","),
            )
        } else {
            None
        }
    }
}

/// Byzantine origin: equivocates slot `(me, 0)` — Init "a" to low-index
/// parties, Init "b" to the rest — and otherwise stays silent.
struct Equivocator {
    me: PartyId,
}

impl AsyncProtocol for Equivocator {
    type Output = String;
    fn on_start(&mut self) -> Vec<Action> {
        let tag = RbcTag {
            origin: self.me,
            seq: 0,
        };
        (0..N)
            .map(|to| {
                let payload = if to < N / 2 {
                    b"a".to_vec()
                } else {
                    b"b".to_vec()
                };
                Action::Send {
                    to: PartyId(to),
                    payload: Bytes::from(RbcMsg::Init { tag, payload }.encode_to_vec()),
                }
            })
            .collect()
    }
    fn on_message(&mut self, _from: PartyId, _payload: &Bytes) -> Vec<Action> {
        Vec::new()
    }
    fn output(&self) -> Option<String> {
        None
    }
}

/// Runs N−1 honest RBC nodes plus one equivocating byzantine origin
/// (party N−1) under `schedule`; returns each honest party's decision.
fn run_rbc_network(schedule: DeliverySchedule) -> Vec<Option<String>> {
    let mut parties: Vec<Box<dyn AsyncProtocol<Output = String>>> = Vec::new();
    for i in 0..N - 1 {
        parties.push(Box::new(RbcNode::new(PartyId(i), vec![i as u8; 3])));
    }
    parties.push(Box::new(Equivocator { me: PartyId(N - 1) }));
    let report = Executor::new(parties, schedule).run();
    report.outputs.into_iter().take(N - 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// RBC decisions are a pure function of the message set, not the
    /// schedule: arbitrary seeds (reorderings) and drops restricted to
    /// the byzantine party's edges all yield the same delivery.
    #[test]
    fn prop_rbc_decides_identically_under_schedules(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        drop_pct in 0u8..101,
    ) {
        let schedule = |seed: u64| {
            DeliverySchedule::uniform(seed, 3, 9)
                // Drops only on edges leaving the byzantine origin: honest
                // links must be reliable for RBC's totality to bind.
                .with_rule(EdgeRule {
                    from: Some(N - 1),
                    to: None,
                    extra_delay: 0,
                    drop_pct,
                })
        };
        let a = run_rbc_network(schedule(seed_a));
        let b = run_rbc_network(schedule(seed_b));
        for (i, out) in a.iter().enumerate() {
            prop_assert!(out.is_some(), "honest party {i} failed to deliver honest slots");
        }
        prop_assert_eq!(&a[0], &a[1]);
        prop_assert_eq!(&a[0], &a[2]);
        prop_assert_eq!(a, b, "decisions must not depend on the schedule seed");
    }

    /// Threshold crossings of the quorum tracker do not depend on the
    /// order support arrives in.
    #[test]
    fn prop_quorum_tracker_is_order_invariant(
        votes_raw in proptest::collection::vec(any::<u64>(), 1..60),
        threshold in 1usize..6,
        seed in any::<u64>(),
    ) {
        // The shim has no tuple strategies: derive (key, party) from bits.
        let votes: Vec<(u8, usize)> = votes_raw
            .iter()
            .map(|v| ((v % 6) as u8, ((v >> 8) % 7) as usize))
            .collect();
        let mut forward = QuorumTracker::new(threshold);
        for (key, party) in &votes {
            forward.support(*key, *party);
        }
        let mut shuffled_votes = votes.clone();
        shuffle(&mut shuffled_votes, seed);
        let mut shuffled = QuorumTracker::new(threshold);
        for (key, party) in &shuffled_votes {
            shuffled.support(*key, *party);
        }
        for key in 0u8..6 {
            prop_assert_eq!(forward.count(&key), shuffled.count(&key));
            prop_assert_eq!(forward.reached(&key), shuffled.reached(&key));
        }
    }

    /// Witness-gather completion is monotone in the event set: any
    /// interleaving of the same deliveries and claims completes alike.
    #[test]
    fn prop_witness_gather_is_order_invariant(
        item_mask in 0u8..16,
        claims_raw in proptest::collection::vec(any::<u64>(), 0..8),
        seed in any::<u64>(),
    ) {
        #[derive(Clone)]
        enum Ev {
            Deliver(usize),
            Claim(usize, Vec<usize>),
        }
        // Delivered items and witness claims are derived from raw bits
        // (the shim has no set/tuple strategies): claimant from the low
        // bits, the claimed set from a 4-bit membership mask.
        let mut events: Vec<Ev> = (0..N)
            .filter(|i| item_mask & (1 << i) != 0)
            .map(Ev::Deliver)
            .collect();
        for raw in &claims_raw {
            let claimant = (raw % N as u64) as usize;
            let set: Vec<usize> = (0..N).filter(|i| (raw >> (8 + i)) & 1 != 0).collect();
            events.push(Ev::Claim(claimant, set));
        }
        let run = |events: &[Ev]| {
            let mut g = WitnessGather::new(N, T);
            for ev in events {
                match ev {
                    Ev::Deliver(i) => {
                        g.deliver(*i);
                    }
                    Ev::Claim(c, set) => {
                        g.on_witness(*c, set);
                    }
                }
            }
            g.completed()
        };
        let forward = run(&events);
        let mut reversed = events.clone();
        reversed.reverse();
        let mut shuffled = events.clone();
        shuffle(&mut shuffled, seed);
        prop_assert_eq!(forward, run(&reversed));
        prop_assert_eq!(forward, run(&shuffled));
    }

    /// The async AAA instance: under arbitrary schedules (and an optional
    /// crash) surviving parties reach ε-agreement inside the input hull,
    /// and the run is deterministic per seed.
    #[test]
    fn prop_aaa_hull_agreement_determinism(
        seed in any::<u64>(),
        raw in proptest::collection::vec(0u64..1_000_000, N),
        crash_raw in any::<u64>(),
    ) {
        // Half the cases crash one party at a virtual time in [1, 60).
        let crash: Option<(usize, u64)> = if crash_raw.is_multiple_of(2) {
            None
        } else {
            Some((((crash_raw >> 1) % N as u64) as usize, 1 + (crash_raw >> 8) % 59))
        };
        let rounds = 21; // spread < 2^20, plus one
        let run = || {
            let parties: Vec<AsyncApprox> = (0..N)
                .map(|i| AsyncApprox::new(N, T, PartyId(i), Nat::from_u64(raw[i]), rounds))
                .collect();
            let mut exec = Executor::new(parties, DeliverySchedule::uniform(seed, 4, 11));
            if let Some((party, at)) = crash {
                exec = exec.crash_at(PartyId(party), at);
            }
            exec.run()
        };
        let report = run();
        let outs: Vec<Nat> = report.surviving_outputs().into_iter().cloned().collect();
        prop_assert_eq!(outs.len(), N - report.crashed.len(), "every survivor decides");
        let lo = outs.iter().min().unwrap();
        let hi = outs.iter().max().unwrap();
        let spread = hi.checked_sub(lo).unwrap();
        prop_assert!(spread <= Nat::one(), "ε-agreement violated: {:?}", outs);
        // Convexity against the hull of ALL inputs that participated
        // (a crashed party is a fault, not a hull member — but its value
        // only ever pulls outputs inward via trimming, so the honest
        // hull bound below uses survivors' inputs only).
        let honest_inputs: Vec<u64> = (0..N)
            .filter(|i| !report.crashed.contains(i))
            .map(|i| raw[i])
            .collect();
        let min_in = Nat::from_u64(*honest_inputs.iter().min().unwrap());
        let max_in = Nat::from_u64(*honest_inputs.iter().max().unwrap());
        prop_assert!(
            *lo >= min_in && *hi <= max_in,
            "outputs {:?} escape honest hull [{}, {}]",
            outs, min_in, max_in
        );
        // Byte-level determinism of the whole report.
        let again = run();
        prop_assert_eq!(report.outputs, again.outputs);
        prop_assert_eq!(report.decide_time, again.decide_time);
        prop_assert_eq!(report.final_time, again.final_time);
    }
}
