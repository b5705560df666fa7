//! Protocol runners: execute one configured run and collect the
//! quantities the paper bounds, plus property verdicts.

use std::sync::Arc;

use ca_adversary::Attack;
use ca_ba::BaKind;
use ca_bits::Nat;
use ca_core::{broadcast_ca, check_agreement, check_convex_validity, high_cost_ca, pi_n};
use ca_net::{Metrics, Sim, TraceSink};

/// Which CA protocol a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's `Π_ℕ`/`Π_ℤ` stack (`O(ℓn + κn²log²n)`).
    PiN(BaKind),
    /// Classical broadcast-based CA (`O(ℓn²)` baseline), instances run
    /// sequentially.
    BroadcastCa,
    /// Stolz–Wattenhofer-style king CA (`O(ℓn³)` baseline).
    HighCostCa,
}

impl Protocol {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::PiN(BaKind::TurpinCoan) => "pi_n",
            Protocol::PiN(BaKind::PhaseKing) => "pi_n[pk]",
            Protocol::BroadcastCa => "broadcast_ca",
            Protocol::HighCostCa => "high_cost_ca",
        }
    }

    /// The default experiment line-up: ours + both baselines.
    pub fn lineup() -> [Protocol; 3] {
        [
            Protocol::PiN(BaKind::TurpinCoan),
            Protocol::BroadcastCa,
            Protocol::HighCostCa,
        ]
    }
}

/// Everything measured about one run. `metrics.honest_bits` is `BITSℓ`
/// and `metrics.rounds` is `ROUNDSℓ`.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Protocol name.
    pub protocol: &'static str,
    /// Parties.
    pub n: usize,
    /// Corruption budget.
    pub t: usize,
    /// Input length in bits.
    pub ell: usize,
    /// Attack name.
    pub attack: &'static str,
    /// Did all honest outputs agree?
    pub agreement: bool,
    /// Were all honest outputs inside the honest inputs' hull?
    pub validity: bool,
    /// Full metrics (per-scope breakdowns).
    pub metrics: Metrics,
}

impl RunStats {
    /// The stats of one run of `protocol` by `n` parties with
    /// `t = ⌊(n−1)/3⌋` on `ell`-bit inputs under `attack`, with its
    /// `(agreement, validity)` verdicts.
    #[must_use]
    pub fn new(
        protocol: &'static str,
        n: usize,
        ell: usize,
        attack: &'static str,
        (agreement, validity): (bool, bool),
        metrics: Metrics,
    ) -> Self {
        Self {
            protocol,
            n,
            t: ca_net::max_faults(n),
            ell,
            attack,
            agreement,
            validity,
            metrics,
        }
    }
}

/// Runs `protocol` on `inputs` (`inputs[i]` = party `i`'s value) under
/// `attack`, with `t = ⌊(n−1)/3⌋`, and checks Definition 1's properties.
///
/// With `sink` set, every trace event is mirrored into it (e.g. a
/// [`ca_trace::JsonlSink`] producing a `run.jsonl` timeline). The measured
/// [`Metrics`] are identical to the untraced run's: tracing observes
/// sends/rounds, it never adds any.
pub fn run_nat_protocol(
    protocol: Protocol,
    inputs: &[Nat],
    attack: Attack,
    sink: Option<Arc<dyn TraceSink>>,
) -> RunStats {
    let n = inputs.len();
    let ell = inputs.iter().map(Nat::bit_len).max().unwrap_or(0);
    let mut sim = attack.install(Sim::new(n), n, ca_net::max_faults(n));
    if let Some(sink) = sink {
        sim = sim.with_trace(sink);
    }
    let inputs_owned = inputs.to_vec();

    let report = sim.run(move |ctx, id| {
        let input = inputs_owned[id.index()].clone();
        match protocol {
            Protocol::PiN(ba) => pi_n(ctx, &input, ba),
            Protocol::BroadcastCa => broadcast_ca(ctx, input, BaKind::TurpinCoan),
            Protocol::HighCostCa => high_cost_ca(ctx, input, |_| true),
        }
    });

    let honest_inputs: Vec<Nat> = report
        .honest_parties()
        .iter()
        .map(|p| inputs[p.index()].clone())
        .collect();
    let honest_outputs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
    let verdicts = (
        check_agreement(&honest_outputs),
        check_convex_validity(&honest_outputs, &honest_inputs),
    );
    RunStats::new(
        protocol.name(),
        n,
        ell,
        attack.name(),
        verdicts,
        report.metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::clustered_nats;

    #[test]
    fn tracing_does_not_perturb_metrics() {
        let inputs = clustered_nats(5, 4, 64, 8);
        let proto = Protocol::PiN(BaKind::TurpinCoan);
        let base = run_nat_protocol(proto, &inputs, Attack::none(), None);
        let sink = Arc::new(ca_trace::RingBufferSink::new(1 << 20));
        let traced = run_nat_protocol(
            proto,
            &inputs,
            Attack::none(),
            Some(Arc::clone(&sink) as Arc<dyn TraceSink>),
        );
        assert_eq!(
            base.metrics, traced.metrics,
            "tracing must be observation-only"
        );
        assert!(
            sink.total_seen() > 0,
            "the traced run must actually emit events"
        );
    }

    #[test]
    fn all_protocols_pass_basic_run() {
        let inputs = clustered_nats(3, 4, 64, 8);
        for proto in Protocol::lineup() {
            let stats = run_nat_protocol(proto, &inputs, Attack::none(), None);
            assert!(stats.agreement, "{}", stats.protocol);
            assert!(stats.validity, "{}", stats.protocol);
            assert!(stats.metrics.honest_bits > 0);
        }
    }
}
