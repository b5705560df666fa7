//! The experiment suite: one function per table/figure of `DESIGN.md` §3.
//!
//! Every experiment returns a [`Report`] — its claim line, verdict flags
//! and [`Row`]s — and prints the same rows as its table(s); with
//! `--artifacts` the driver writes the report as `BENCH_<id>.json`.
//! `EXPERIMENTS.md` records the claim-vs-measured discussion. `quick`
//! shrinks sweeps for CI.

use ca_adversary::{Attack, AttackKind};
use ca_ba::{ba_plus, lba_plus, turpin_coan, BaKind};
use ca_bits::{BitString, Nat};
use ca_core::find_prefix;
use ca_crypto::sha256;
use ca_net::{Metrics, Sim, TraceSink};

use std::path::Path;
use std::sync::Arc;

use crate::summary::{run_row, Report, Row, Value, COR2_CLAIM};
use crate::table::render;
use crate::workload::{apply_lies, clustered_nats};
use crate::{run_nat_protocol, Protocol, RunStats};

/// One experiment: `(quick, artifacts)` to its report. `artifacts` is the
/// directory for side files (F3's `run.jsonl`); the driver writes the
/// report itself.
pub type Experiment = fn(bool, Option<&Path>) -> Report;

/// Every experiment by id, in the order `all` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("t1", t1_protocol_comparison),
    ("f1", f1_scaling_ell),
    ("f2", f2_scaling_n),
    ("t2", t2_rounds),
    ("f3", f3_breakdown),
    ("t3", t3_extension),
    ("t4", t4_adversarial),
    ("f4", f4_ba_ablation),
    ("f5", f5_findprefix),
    ("e1", e1_approx_vs_exact),
    ("s1", s1_service_throughput),
    ("r1", r1_crash_resilience),
    ("a1", a1_adaptive_sweep),
    ("as1", as1_async_vs_sync),
    ("p1", p1_kernel_grid),
];

/// Runs the experiment of [`EXPERIMENTS`] named `name`, or every one for
/// `"all"`: prints its tables and verdict flags and, with `artifacts` set,
/// writes its report to `<dir>/BENCH_<id>.json`.
///
/// Returns `false` if the id is unknown.
pub fn run_by_name_opts(name: &str, quick: bool, artifacts: Option<&Path>) -> bool {
    if name == "all" {
        for (id, _) in EXPERIMENTS {
            run_by_name_opts(id, quick, artifacts);
        }
        return true;
    }
    let Some((id, run)) = EXPERIMENTS.iter().find(|(id, _)| *id == name) else {
        return false;
    };
    let started = std::time::Instant::now();
    let report = run(quick, artifacts);
    for (flag, value) in &report.flags {
        println!("{} verdict: {flag} = {value}", id.to_uppercase());
    }
    report.write(id, artifacts);
    eprintln!("[{id} finished in {:.1?}]", started.elapsed());
    true
}

/// The paper's protocol, with Turpin–Coan as `Π_BA`.
const PI_N: Protocol = Protocol::PiN(BaKind::TurpinCoan);

/// The table columns of a [`run_row`].
const RUN_KEYS: [&str; 5] = [
    "label",
    "measured.honest_bits",
    "measured.rounds",
    "agreement",
    "validity",
];

/// The metrics of `proto`'s fault-free run on `inputs`.
fn honest_run(proto: Protocol, inputs: &[Nat]) -> Metrics {
    run_nat_protocol(proto, inputs, Attack::none(), None).metrics
}

/// Prints `rows` under `title`, one column per key (see [`render`]).
fn show(title: &str, keys: &[&str], rows: &[Row]) {
    print!("{}", render(title, keys, rows));
}

/// **T1** — Corollary 2: `Π_ℕ` vs the `O(ℓn²)` and `O(ℓn³)` baselines at a
/// fixed large `ℓ`. Expected shape: ours wins, by a factor growing ≈
/// linearly (vs broadcast) resp. ≈ quadratically (vs high-cost) in `n`.
///
/// One `Π_ℤ` run on mixed-sign inputs follows the line-up.
pub fn t1_protocol_comparison(quick: bool, _artifacts: Option<&Path>) -> Report {
    let ns: &[usize] = if quick { &[4, 7] } else { &[4, 7, 10, 13] };
    let ell = 1 << 14;
    let mut rows = Vec::new();
    for &n in ns {
        let inputs = clustered_nats(0x71 ^ n as u64, n, ell, ell / 2);
        for proto in Protocol::lineup() {
            let stats = run_nat_protocol(proto, &inputs, Attack::none(), None);
            rows.push(run_row(&format!("n = {n}, {}", stats.protocol), &stats));
        }
    }
    let z = t1_pi_z_mixed_signs(ell);
    rows.push(run_row(&format!("n = {}, pi_z, mixed signs", z.n), &z));
    show(
        "T1: communication at ℓ = 2^14 (honest bits; paper Cor. 2 vs §1 baselines, then pi_z)",
        &RUN_KEYS,
        &rows,
    );
    Report::new(COR2_CLAIM, rows)
}

/// One honest `Π_ℤ` run at `n = 7`: the T1 magnitudes, negative at five
/// parties and non-negative at two. The sign BA settles on negative (an
/// `n − t` quorum holds it), and the two others enter `Π_ℕ` with
/// magnitude 0, so the whole `Π_ℕ` stack runs on the magnitudes.
fn t1_pi_z_mixed_signs(ell: usize) -> RunStats {
    use ca_bits::{Int, Sign};
    use ca_core::{check_agreement, check_convex_validity, pi_z};

    let n = 7;
    let inputs: Vec<Int> = clustered_nats(0x71 ^ n as u64, n, ell, ell / 2)
        .into_iter()
        .enumerate()
        .map(|(i, mag)| {
            let sign = if i < 5 { Sign::Neg } else { Sign::NonNeg };
            Int::from_parts(sign, mag)
        })
        .collect();
    let run_inputs = inputs.clone();
    let report =
        Sim::new(n).run(move |ctx, id| pi_z(ctx, &run_inputs[id.index()], BaKind::TurpinCoan));
    let outs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
    let verdicts = (
        check_agreement(&outs),
        check_convex_validity(&outs, &inputs),
    );
    RunStats::new("pi_z", n, ell, "honest", verdicts, report.metrics)
}

/// **F1** — §1/§8: `Π_ℕ` is communication-optimal for
/// `ℓ = Ω(κ·n·log²n)`; below that threshold the additive `poly(n, κ)` term
/// dominates and the simpler baselines can be cheaper — the crossover.
pub fn f1_scaling_ell(quick: bool, _artifacts: Option<&Path>) -> Report {
    let n = 7;
    let exps: &[usize] = if quick {
        &[6, 10, 14]
    } else {
        &[6, 8, 10, 12, 14, 16, 18]
    };
    let mut rows = Vec::new();
    for &k in exps {
        let ell = 1usize << k;
        let inputs = clustered_nats(0xF1 ^ k as u64, n, ell, ell / 2);
        let mut row = Row::new(&format!("l = 2^{k}")).with("ell", ell);
        let mut winner = ("", u64::MAX);
        for proto in Protocol::lineup() {
            let bits = honest_run(proto, &inputs).honest_bits;
            if bits < winner.1 {
                winner = (proto.name(), bits);
            }
            row = row.with(proto.name(), bits);
        }
        rows.push(row.with("winner", winner.0));
    }
    show(
        "F1: honest bits vs ℓ at n = 7 (series; crossover where pi_n wins)",
        &["label", "pi_n", "broadcast_ca", "high_cost_ca", "winner"],
        &rows,
    );
    Report::new(
        "CROSSOVER: pi_n sends the fewest honest bits once l = Omega(kappa*n*log2(n)^2); \
         below that the baselines can be cheaper",
        rows,
    )
}

/// **F2** — asymptotic slope in `n` of the **value term** `∂BITS/∂ℓ`.
///
/// Total bits mix the value term with the additive `κ·poly(n)` term, which
/// dominates at practical `ℓ` and hides the slopes; the *marginal* cost of
/// one extra input bit isolates the value term exactly: the paper claims
/// `Θ(n)` for `Π_ℕ` vs `Θ(n²)` for broadcast-based CA vs `Θ(n³)` for
/// `HighCostCA`. The last row is the log-log exponent between the first
/// and the last `n`.
pub fn f2_scaling_n(quick: bool, _artifacts: Option<&Path>) -> Report {
    let (ell_lo, ell_hi) = (1usize << 13, 1usize << 14);
    let ns: &[usize] = if quick {
        &[4, 7, 10]
    } else {
        &[4, 7, 10, 13, 16]
    };
    let mut rows = Vec::new();
    let mut marginals: Vec<[f64; 3]> = Vec::new();
    for &n in ns {
        let inputs_lo = clustered_nats(0xF2 ^ n as u64, n, ell_lo, ell_lo / 2);
        let inputs_hi = clustered_nats(0xF2 ^ n as u64, n, ell_hi, ell_hi / 2);
        let mut row = Row::new(&format!("n = {n}")).with("n", n);
        let mut marginal = [0.0; 3];
        for (m, proto) in marginal.iter_mut().zip(Protocol::lineup()) {
            let lo = honest_run(proto, &inputs_lo).honest_bits;
            let hi = honest_run(proto, &inputs_hi).honest_bits;
            *m = hi.saturating_sub(lo) as f64 / (ell_hi - ell_lo) as f64;
            row = row.with(proto.name(), Value::Fixed(*m, 1));
        }
        marginals.push(marginal);
        rows.push(row);
    }
    let (first, last) = (marginals[0], marginals[marginals.len() - 1]);
    let n_ratio = ns[ns.len() - 1] as f64 / ns[0] as f64;
    let mut fit = Row::new("exponent in n");
    for (i, proto) in Protocol::lineup().into_iter().enumerate() {
        let slope = (last[i] / first[i]).ln() / n_ratio.ln();
        fit = fit.with(proto.name(), Value::Fixed(slope, 2));
    }
    rows.push(fit);
    show(
        "F2: marginal bits per input bit, (BITS(2^14) − BITS(2^13)) / 2^13, \
         and its log-log exponent in n (paper: 1 / 2 / 3)",
        &["label", "pi_n", "broadcast_ca", "high_cost_ca"],
        &rows,
    );
    Report::new(
        "SLOPE: marginal bits per input bit grow as n^1 for pi_n, n^2 for broadcast_ca \
         and n^3 for high_cost_ca",
        rows,
    )
}

/// **T2** — round complexity: Cor. 2 claims `ROUNDSℓ(Π_ℤ) = O(n log n)`;
/// with phase-king `Π_BA` the dominant term is
/// `O(log n)` BA invocations × `O(n)` rounds each.
pub fn t2_rounds(quick: bool, _artifacts: Option<&Path>) -> Report {
    let ns: &[usize] = if quick {
        &[4, 7, 10]
    } else {
        &[4, 7, 10, 13, 16]
    };
    let ell = 1 << 10;
    let mut rows = Vec::new();
    for &n in ns {
        let inputs = clustered_nats(0x72 ^ n as u64, n, ell, ell / 2);
        let rounds = |proto| honest_run(proto, &inputs).rounds;
        let ours = rounds(PI_N);
        let norm = ours as f64 / (n as f64 * (n as f64).log2());
        rows.push(
            Row::new(&format!("n = {n}"))
                .with("n", n)
                .with("pi_n", ours)
                .with("pi_n_per_nlogn", Value::Fixed(norm, 1))
                .with("high_cost_ca", rounds(Protocol::HighCostCa))
                .with("broadcast_ca", rounds(Protocol::BroadcastCa)),
        );
    }
    show(
        "T2: rounds vs n at ℓ = 2^10 (paper: O(n log n) for pi_n; broadcast_ca runs its \
         instances in sequence)",
        &[
            "n",
            "pi_n",
            "pi_n_per_nlogn",
            "high_cost_ca",
            "broadcast_ca",
        ],
        &rows,
    );
    Report::new(
        "ROUNDS(pi_n) = O(n*log2 n): pi_n_per_nlogn stays bounded as n grows",
        rows,
    )
}

/// **F3** — Theorem 5's cost decomposition: which subprotocol pays what.
/// Each run's per-scope subtree breakdown prints as its own table; the
/// report holds the two runs.
///
/// With `artifacts` set, the short-path run is re-emitted as a structured
/// trace (`<dir>/run.jsonl`, one event per line — `ca-trace report/check`
/// consume it).
pub fn f3_breakdown(quick: bool, artifacts: Option<&Path>) -> Report {
    let n: usize = if quick { 7 } else { 10 };
    // The short path requires ℓ ≤ n²; pick the largest power of two below.
    let short_ell = 1usize << ((n * n).ilog2() - 1);
    let mut rows = Vec::new();
    for (idx, (label, ell)) in [
        (format!("short path, ℓ = {short_ell}"), short_ell),
        ("long path, ℓ = 2^16".to_owned(), 1 << 16),
    ]
    .into_iter()
    .enumerate()
    {
        let inputs = clustered_nats(0xF3, n, ell, ell / 2);
        // Trace the (small) short-path run; the long-path timeline would be
        // tens of MB for no extra check coverage.
        let sink = artifacts.filter(|_| idx == 0).and_then(|dir| {
            std::fs::create_dir_all(dir)
                .and_then(|()| ca_trace::JsonlSink::create(&dir.join("run.jsonl")))
                .map_err(|e| eprintln!("warning: cannot create run.jsonl: {e}"))
                .ok()
                .map(|sink| Arc::new(sink) as Arc<dyn TraceSink>)
        });
        let stats = run_nat_protocol(PI_N, &inputs, Attack::none(), sink);
        let m = &stats.metrics;
        let share = |bits: u64| Value::Fixed(100.0 * bits as f64 / m.honest_bits.max(1) as f64, 1);
        let mut scopes: Vec<Row> = [
            "pi_n/path_ba",
            "pi_n/len_est",
            "pi_n/blocksize",
            "pi_n/flca/find_prefix",
            "pi_n/flca/add_last_bit",
            "pi_n/flca/get_output",
            "pi_n/flcab/find_prefix",
            "pi_n/flcab/add_last_block",
            "pi_n/flcab/get_output",
        ]
        .into_iter()
        .map(|scope| (scope, m.scope_subtree(scope)))
        .filter(|(_, sub)| sub.honest_bits != 0 || sub.rounds != 0)
        .map(|(scope, sub)| {
            Row::new(scope)
                .with("bits", sub.honest_bits)
                .with("share_pct", share(sub.honest_bits))
                .with("rounds", sub.rounds)
        })
        .collect();
        scopes.push(
            Row::new("TOTAL")
                .with("bits", m.honest_bits)
                .with("share_pct", share(m.honest_bits))
                .with("rounds", m.rounds),
        );
        show(
            &format!("F3: per-subprotocol breakdown, n = {n}, {label}"),
            &["label", "bits", "share_pct", "rounds"],
            &scopes,
        );
        rows.push(run_row(&label, &stats));
    }
    Report::new(COR2_CLAIM, rows)
}

/// **T3** — Theorem 1: the extension protocol `Π_ℓBA+` vs running the
/// multi-valued BA directly on ℓ-bit values (`O(ℓn + κn²log n)` vs
/// `O(ℓn²)`); the gap should grow ≈ linearly in ℓ·n.
pub fn t3_extension(quick: bool, _artifacts: Option<&Path>) -> Report {
    let n = 7;
    let exps: &[usize] = if quick {
        &[10, 14]
    } else {
        &[8, 10, 12, 14, 16]
    };
    let mut rows = Vec::new();
    for &k in exps {
        let ell = 1usize << k;
        let inputs: Vec<BitString> = clustered_nats(0x73 ^ k as u64, n, ell, ell / 2)
            .iter()
            .map(|v| v.to_bits_len(ell).expect("sized"))
            .collect();
        let lba = {
            let inputs = inputs.clone();
            Sim::new(n)
                .run(move |ctx, id| lba_plus(ctx, &inputs[id.index()], BaKind::TurpinCoan))
                .metrics
                .honest_bits
        };
        let direct = Sim::new(n)
            .run(move |ctx, id| turpin_coan(ctx, inputs[id.index()].clone()))
            .metrics
            .honest_bits;
        rows.push(
            Row::new(&format!("l = 2^{k}"))
                .with("ell", ell)
                .with("lba_plus_bits", lba)
                .with("direct_tc_bits", direct)
                .with("ratio", Value::ratio(direct, lba)),
        );
    }
    show(
        "T3: Π_ℓBA+ vs direct multi-valued BA on ℓ-bit inputs, n = 7",
        &["label", "lba_plus_bits", "direct_tc_bits", "ratio"],
        &rows,
    );
    Report::new(
        "Thm 1: lBA+ sends O(l*n + kappa*n^2*log n) bits against O(l*n^2) for the \
         multi-valued BA run directly on l-bit values",
        rows,
    )
}

/// **T4** — Definition 1 under the full adversary matrix: every protocol ×
/// every attack × seeds; every cell's verdict must read `ok`, beside the
/// most honest bits any seed cost.
pub fn t4_adversarial(quick: bool, _artifacts: Option<&Path>) -> Report {
    let n = 7;
    let t = ca_net::max_faults(n);
    let ell = 256;
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
    let mut rows = Vec::new();
    for attack in Attack::standard_suite(0) {
        let mut row = Row::new(attack.name());
        for proto in Protocol::lineup() {
            let mut ok = true;
            let mut worst_bits = 0u64;
            for &seed in seeds {
                let attack = attack.with_seed(seed);
                let mut inputs = clustered_nats(0x74 ^ seed, n, ell, ell / 2);
                apply_lies(&mut inputs, &attack, n, t, ell);
                let stats = run_nat_protocol(proto, &inputs, attack, None);
                ok &= stats.agreement && stats.validity;
                worst_bits = worst_bits.max(stats.metrics.honest_bits);
            }
            let verdict = if ok { "ok" } else { "VIOLATION" };
            row = row.with(
                proto.name(),
                Value::Obj(vec![
                    ("verdict", verdict.into()),
                    ("worst_bits", worst_bits.into()),
                ]),
            );
        }
        rows.push(row);
    }
    show(
        "T4: Termination ∧ Agreement ∧ Convex Validity, n = 7, ℓ = 256",
        &[
            "label",
            "pi_n.verdict",
            "pi_n.worst_bits",
            "broadcast_ca.verdict",
            "broadcast_ca.worst_bits",
            "high_cost_ca.verdict",
            "high_cost_ca.worst_bits",
        ],
        &rows,
    );
    Report::new(
        "Def. 1: termination, agreement and convex validity hold for every protocol under \
         every attack and seed (every verdict ok)",
        rows,
    )
}

/// **F4** — ablation: `Π_BA` instantiation (Turpin–Coan reduction vs direct
/// multi-valued phase-king) inside the full stack and inside `Π_BA+`.
pub fn f4_ba_ablation(quick: bool, _artifacts: Option<&Path>) -> Report {
    let ns: &[usize] = if quick { &[4, 7] } else { &[4, 7, 10, 13] };
    let ell = 1 << 10;
    let mut rows = Vec::new();
    for &n in ns {
        let inputs = clustered_nats(0xF4 ^ n as u64, n, ell, ell / 2);
        let pi_n_bits = |ba| honest_run(Protocol::PiN(ba), &inputs).honest_bits;
        let hashes: Vec<_> = (0..n).map(|i| sha256(&[i as u8, (i / 3) as u8])).collect();
        let ba_plus_bits = |ba| {
            let hashes = hashes.clone();
            Sim::new(n)
                .run(move |ctx, id| ba_plus(ctx, hashes[id.index() / 3], ba))
                .metrics
                .honest_bits
        };
        rows.push(
            Row::new(&format!("n = {n}"))
                .with("n", n)
                .with("pi_n_tc_bits", pi_n_bits(BaKind::TurpinCoan))
                .with("pi_n_pk_bits", pi_n_bits(BaKind::PhaseKing))
                .with("ba_plus_tc_bits", ba_plus_bits(BaKind::TurpinCoan))
                .with("ba_plus_pk_bits", ba_plus_bits(BaKind::PhaseKing)),
        );
    }
    show(
        "F4: Π_BA ablation (Turpin–Coan vs phase-king)",
        &[
            "n",
            "pi_n_tc_bits",
            "pi_n_pk_bits",
            "ba_plus_tc_bits",
            "ba_plus_pk_bits",
        ],
        &rows,
    );
    Report::new(
        "ABLATION: honest bits of pi_n and Pi_BA+ with Turpin-Coan vs phase-king as Pi_BA, \
         measured side by side (no bound claimed)",
        rows,
    )
}

/// **F5** — Lemma 1/8 behaviour of `FindPrefix`: iteration count is
/// `≤ ⌈log₂ ℓ⌉ + 1` and the agreed prefix is never shorter than the honest
/// inputs' longest common prefix, with and without a splitting input
/// attack.
pub fn f5_findprefix(quick: bool, _artifacts: Option<&Path>) -> Report {
    let n = 7;
    let t = ca_net::max_faults(n);
    let exps: &[usize] = if quick { &[6, 10] } else { &[4, 6, 8, 10, 12] };
    let mut rows = Vec::new();
    for &k in exps {
        let ell = 1usize << k;
        for attack in [
            Attack::none(),
            Attack::new(AttackKind::Lying(ca_adversary::LieKind::Split)),
        ] {
            let mut inputs = clustered_nats(0xF5 ^ k as u64, n, ell, ell / 4);
            apply_lies(&mut inputs, &attack, n, t, ell);
            let bits: Vec<BitString> = inputs
                .iter()
                .map(|v| v.to_bits_len(ell).expect("sized"))
                .collect();
            let corrupted = attack.corrupted_parties(n, t);
            let honest_bits_strs: Vec<&BitString> = (0..n)
                .filter(|i| !corrupted.iter().any(|p| p.index() == *i))
                .map(|i| &bits[i])
                .collect();
            let lcp = honest_bits_strs
                .windows(2)
                .map(|w| w[0].common_prefix_len(w[1]))
                .min()
                .unwrap_or(ell);
            let sim = attack.install(Sim::new(n), n, t);
            let report = sim
                .run(move |ctx, id| find_prefix(ctx, ell, &bits[id.index()], BaKind::TurpinCoan));
            let out = report.honest_outputs()[0];
            rows.push(
                Row::new(&format!("l = 2^{k}, {}", attack.name()))
                    .with("ell", ell)
                    .with("attack", attack.name())
                    .with("iterations", out.iterations)
                    .with("iteration_bound", k + 1)
                    .with("prefix_len", out.prefix.len())
                    .with("honest_lcp", lcp),
            );
        }
    }
    show(
        "F5: FindPrefix iterations and agreed-prefix length vs ℓ, n = 7",
        &[
            "label",
            "iterations",
            "iteration_bound",
            "prefix_len",
            "honest_lcp",
        ],
        &rows,
    );
    Report::new(
        "Lemma 1/8: FindPrefix runs <= log2(l) + 1 iterations and agrees on a prefix no \
         shorter than the honest inputs' longest common prefix",
        rows,
    )
}

/// **E1** (extra, beyond the paper) — exact CA vs the classical relaxation
/// it strengthens: Approximate Agreement [16]. AA pays `O(ℓ'n²)` per
/// halving round for ε-agreement on bounded integers; CA pays once for
/// exact agreement on unbounded integers.
///
/// Both runs of every `n` are rows; the approximate row's `agreement`
/// means ε-agreement.
pub fn e1_approx_vs_exact(quick: bool, _artifacts: Option<&Path>) -> Report {
    use ca_core::{approx_agreement, check_convex_validity};
    let ns: &[usize] = if quick { &[7] } else { &[4, 7, 10, 13] };
    let (range, epsilon) = ((0, 1 << 20), 1);
    let mut rows = Vec::new();
    for &n in ns {
        let inputs: Vec<i64> = (0..n as i64).map(|i| 500_000 + i * 1_000).collect();
        let run_inputs = inputs.clone();
        let aa = Sim::new(n)
            .run(move |ctx, id| approx_agreement(ctx, run_inputs[id.index()], range, epsilon));
        let outs: Vec<i64> = aa.honest_outputs().into_iter().copied().collect();
        let spread = match (outs.iter().min(), outs.iter().max()) {
            (Some(lo), Some(hi)) => hi.abs_diff(*lo),
            _ => 0,
        };
        // Approximate agreement: outputs within ε of each other.
        let verdicts = (spread <= epsilon, check_convex_validity(&outs, &inputs));
        let aa_stats = RunStats::new("approx_agreement", n, 20, "honest", verdicts, aa.metrics);
        rows.push(
            run_row(&format!("n = {n}, approx_agreement"), &aa_stats)
                .with("epsilon", epsilon)
                .with("output_spread", spread),
        );
        let ca_inputs: Vec<_> = inputs.iter().map(|&v| Nat::from_u64(v as u64)).collect();
        let ca = run_nat_protocol(PI_N, &ca_inputs, Attack::none(), None);
        rows.push(run_row(&format!("n = {n}, pi_n"), &ca));
    }
    show(
        "E1: Approximate Agreement [16] vs exact CA (inputs in [0, 2^20), ε = 1)",
        &RUN_KEYS,
        &rows,
    );
    Report::new(COR2_CLAIM, rows)
}

/// **S1** (service layer, beyond the paper) — multiplexing amortization:
/// `K` CA sessions through one `ca-engine` deployment vs `K` isolated
/// runs. The per-instance `BITSℓ` payload is identical by construction
/// (the equivalence tests pin it); what amortizes is everything *around*
/// the payload — the one `Frame::Round` per peer per round that batched
/// envelopes share, and per-connection `Hello`/`Bye` — so per-session
/// **wire** bits fall strictly below the `K = 1` cost as `K` grows.
pub fn s1_service_throughput(quick: bool, _artifacts: Option<&Path>) -> Report {
    use ca_engine::loadgen::{run_load_timed, LoadProfile};
    use ca_runtime::MonotonicClock;

    let n: usize = if quick { 4 } else { 7 };
    let ell: usize = if quick { 64 } else { 256 };
    let mut rows = Vec::new();
    let clock = MonotonicClock::default();
    for (k, attack) in [
        (1usize, Attack::none()),
        (16, Attack::new(AttackKind::Garbage).with_seed(7)),
        (64, Attack::none()),
    ] {
        let mut profile = LoadProfile::closed(n, k, ell);
        profile.attack = attack;
        profile.config.max_sessions = k;
        let report = run_load_timed(&profile, &clock);
        let decided = report.sessions_decided.max(1);
        let s = &report.stats;
        let rate = report.sessions_per_sec();
        // Session throughput, per-session cost, engine-round latency
        // quantiles, and the batching profile that explains the
        // amortization.
        rows.push(
            Row::new(&format!("K={k}"))
                .with("kind", "throughput")
                .with("attack", profile.attack.name())
                .with("runs", report.runs)
                .with("sessions_submitted", report.sessions_submitted)
                .with("sessions_decided", report.sessions_decided)
                .with("agreement", report.agreement)
                .with("validity", report.validity)
                .with(
                    "sessions_per_sec",
                    rate.map_or(Value::Null, |r| Value::Fixed(r, 1)),
                )
                .with("engine_rounds", s.engine_rounds)
                .with("envelopes_sent", s.envelopes_sent)
                .with("frames_sent", s.frames_sent)
                .with("payload_bits", report.payload_bits)
                .with("wire_bits", s.wire_bits)
                .with("payload_bits_per_session", report.payload_bits / decided)
                .with("wire_bits_per_session", s.wire_bits / decided)
                .with("shed_frames", s.shed_frames)
                .with("stray_frames", s.stray_frames)
                .with("late_frames", s.late_frames)
                .with("malformed_envelopes", s.malformed_envelopes)
                .with("session_latency_rounds", &s.session_latency_rounds)
                .with("session_rounds", &s.session_rounds)
                .with("batch_occupancy", &s.batch_occupancy),
        );
    }
    show(
        &format!("S1: K sessions multiplexed through one engine, n = {n}, ℓ = {ell}"),
        &[
            "label",
            "attack",
            "sessions_per_sec",
            "engine_rounds",
            "payload_bits_per_session",
            "wire_bits_per_session",
            "batch_occupancy.p50",
            "agreement",
            "validity",
        ],
        &rows,
    );
    Report::new(COR2_CLAIM, rows)
}

/// **R1** (runtime resilience, beyond the paper) — crash-fault tolerance
/// of the TCP runtime: an n = 4 cluster runs a fixed-schedule iterated
/// midpoint over real sockets, once fault-free and once with `t = 1`
/// party crashed mid-protocol via a scripted [`ca_runtime::FaultPlan`].
/// The survivors must still agree on a value inside the honest input
/// hull, in the same number of rounds; the crashed run additionally
/// shows what the outage costs on the wire (fewer frames, `peers_gone`
/// observations). A frozen [`ca_runtime::ManualClock`] keeps both runs
/// off the `Δ`-timeout path, so the byte counts are reproducible.
pub fn r1_crash_resilience(quick: bool, _artifacts: Option<&Path>) -> Report {
    use ca_net::{Comm, CommExt, PartyId};
    use ca_runtime::{Clock, FaultPlan, ManualClock, TcpCluster};

    let n: usize = 4;
    let t = ca_net::max_faults(n);
    let rounds: u64 = if quick { 6 } else { 12 };
    let crash_round: u64 = 3;
    let inputs: [u64; 4] = [10, 40, 20, 30];

    let run = |crashed: usize| {
        let mut cluster = TcpCluster::new(n)
            // Huge Δ: with frozen clocks the timeout path never fires, so
            // rounds end on markers/EOFs alone and byte counts reproduce.
            .with_delta(std::time::Duration::from_secs(3600))
            .with_clock_factory(|_| -> Box<dyn Clock> { Box::new(ManualClock::new()) });
        for p in 0..crashed {
            cluster = cluster.with_fault_plan(n - 1 - p, FaultPlan::new().crash_at(crash_round));
        }
        cluster.run_report(move |ctx: &mut dyn Comm, id: PartyId| {
            let mut v = inputs[id.index()];
            for _ in 0..rounds {
                let inbox = ctx.exchange(&v);
                let vals: Vec<u64> = inbox
                    .decode_each::<u64>()
                    .into_iter()
                    .map(|(_, x)| x)
                    .collect();
                if let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) {
                    v = min + (max - min) / 2;
                }
            }
            v
        })
    };

    let mut rows = Vec::new();
    for crashed in [0usize, t] {
        let report = match run(crashed) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("warning: r1 cluster run failed: {e}");
                break;
            }
        };
        let honest: Vec<u64> = (0..n - crashed).map(|i| report.outputs[i]).collect();
        let agreement = honest.windows(2).all(|w| w[0] == w[1]);
        let (lo, hi) = inputs[..n - crashed]
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let validity = honest.iter().all(|&v| (lo..=hi).contains(&v));
        let rounds_to_decide = report.rounds.iter().copied().max().unwrap_or(0);
        // Counters sum across parties; `peers_gone` takes the per-party
        // peak (the number to compare against the `t < n/3` budget).
        let sum =
            |f: fn(&ca_runtime::RuntimeStats) -> u64| -> u64 { report.stats.iter().map(f).sum() };
        let gone = report.stats.iter().map(|s| s.peers_gone).max().unwrap_or(0);
        rows.push(
            Row::new(&format!("{crashed} crashed"))
                .with("kind", "resilience")
                .with("n", report.stats.len())
                .with("crashed_parties", crashed)
                .with("rounds_to_decide", rounds_to_decide)
                .with("agreement", agreement)
                .with("validity", validity)
                .with("frames_sent", sum(|s| s.frames_sent))
                .with("wire_bytes_sent", sum(|s| s.wire_bytes_sent))
                .with("frames_shed", sum(|s| s.frames_shed))
                .with("overflow_disconnects", sum(|s| s.overflow_disconnects))
                .with("handshake_rejects", sum(|s| s.handshake_rejects))
                .with("dial_retries", sum(|s| s.dial_retries))
                .with("peers_gone", gone),
        );
    }
    show(
        &format!(
            "R1: crash resilience over TCP, n = {n}, {rounds} rounds, crash at round \
                 {crash_round}"
        ),
        &[
            "crashed_parties",
            "rounds_to_decide",
            "agreement",
            "validity",
            "frames_sent",
            "wire_bytes_sent",
            "frames_shed",
            "peers_gone",
        ],
        &rows,
    );
    Report::new(COR2_CLAIM, rows)
}

/// **A1** — the fault-adaptive fast path (ROADMAP item 1): sweep the
/// *actual* fault count `f = 0..t` at fixed `n` and compare
/// `pi_n_adaptive` against the fixed-cost worst-case `pi_n`. Expected
/// shape: at `f = 0` the fast path certifies and wins by a large constant
/// factor in both bits and rounds; any `f > 0` silent party forces the
/// certified fallback, whose cost matches the worst case plus the
/// constant-round attempt. Every sweep point is traced and must pass
/// `ca-trace check` (agreement + decide-in-hull + the fast-path
/// invariants).
///
/// The report's top-level gate `"f0_beats_worst_case"` is true iff
/// `f = 0` used strictly fewer rounds and ≤ 0.5× the wire bits of the
/// worst case, all sweep points correct and trace-clean. Trace violations
/// print on stderr.
pub fn a1_adaptive_sweep(quick: bool, _artifacts: Option<&Path>) -> Report {
    use ca_core::{check_agreement, check_convex_validity, pi_n_adaptive};
    use ca_net::{Corruption, PartyId};

    let n: usize = 7;
    let t = ca_net::max_faults(n);
    let ell = if quick { 96 } else { 256 };
    let inputs = clustered_nats(0xA1, n, ell, ell / 2);

    let worst = run_nat_protocol(PI_N, &inputs, Attack::none(), None);
    let mut rows = vec![run_row("worst-case pi_n, f = 0", &worst)];

    let mut all_correct = true;
    let mut f0 = None;
    for f in 0..=t {
        let sink = Arc::new(ca_trace::RingBufferSink::new(16 << 20));
        let mut sim = Sim::new(n).with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
        for p in n - f..n {
            // Scripted with no adversary: silent from round 0 — exactly
            // `f` actual crash faults, deterministically.
            sim = sim.corrupt(PartyId(p), Corruption::Scripted);
        }
        let run_inputs = inputs.clone();
        let report =
            sim.run(move |ctx, id| pi_n_adaptive(ctx, &run_inputs[id.index()], BaKind::TurpinCoan));
        let honest_inputs: Vec<Nat> = report
            .honest_parties()
            .iter()
            .map(|p| inputs[p.index()].clone())
            .collect();
        let outs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
        let verdicts = (
            check_agreement(&outs),
            check_convex_validity(&outs, &honest_inputs),
        );
        let records = sink.records();
        assert_eq!(
            sink.total_seen() as usize,
            records.len(),
            "a1 trace ring wrapped; raise its capacity"
        );
        let violations = ca_trace::check(&records);
        for v in &violations {
            eprintln!("a1 trace violation at f = {f}: {v}");
        }
        all_correct &= verdicts.0 && verdicts.1 && violations.is_empty();
        if f == 0 {
            f0 = Some((report.metrics.honest_bits, report.metrics.rounds));
        }
        let attack = if f == 0 { "none" } else { "crash" };
        let stats = RunStats::new("pi_n_adaptive", n, ell, attack, verdicts, report.metrics);
        rows.push(run_row(&format!("adaptive, f = {f}"), &stats));
    }
    show(
        &format!("A1: fault-adaptive fast path, n = {n}, t = {t}, ℓ = {ell}"),
        &RUN_KEYS,
        &rows,
    );

    let (f0_bits, f0_rounds) = f0.expect("sweep includes f = 0");
    let w = &worst.metrics;
    let f0_beats = all_correct && f0_rounds < w.rounds && f0_bits * 2 <= w.honest_bits;
    Report {
        claim: COR2_CLAIM,
        flags: vec![("f0_beats_worst_case", f0_beats)],
        rows,
    }
}

/// **AS1** — synchrony-model ablation: the *same* asynchronous
/// approximate-agreement state machine ([`ca_async::AsyncApprox`]) run
/// under one seeded delay distribution on three hosts:
///
/// 1. a round-barrier simulator with Δ *tuned* to the actual maximum
///    delay (the best case synchrony can do — every barrier still waits
///    out the full Δ);
/// 2. the same simulator with Δ *mistuned* in both directions — an
///    under-estimate (messages miss their barrier, burning extra
///    "wasted" rounds waiting on quorums) and an over-estimate (the
///    realistic unknown-network setting, burning wall clock on every
///    barrier);
/// 3. the event-driven [`ca_async::Executor`] — no Δ anywhere; each
///    protocol hop completes when its quorum's slowest message lands.
///
/// Wall clock is measured in the delay distribution's own time units:
/// `rounds × Δ` for the barrier hosts, last decide virtual time for the
/// async host. The gate `"as1_async_wins"` holds iff every run decided
/// correctly (ε-agreement inside the hull, async trace invariant-clean)
/// and the async host beat the mistuned baselines on their failure
/// axes: less wall clock than the over-estimate, zero wasted rounds
/// while the under-estimate wasted some.
pub fn as1_async_vs_sync(quick: bool, _artifacts: Option<&Path>) -> Report {
    use ca_async::{rounds_for_spread, run_on_comm, AsyncApprox, Executor};
    use ca_net::{EdgeDelays, PartyId};

    let n: usize = 4;
    let t: usize = 1;
    let seed: u64 = 0xA51;
    // Per-message delays are uniform in [base, base + jitter].
    let (base, jitter) = (8u64, 8u64);
    let max_delay = base + jitter;
    let spread: u64 = if quick { 1_000 } else { 1_000_000 };
    let inputs: Vec<u64> = vec![0, spread / 5, spread * 2 / 3, spread];
    let rounds = rounds_for_spread(&Nat::from_u64(spread));
    let delays = || EdgeDelays::uniform(seed, base, jitter);

    // ε-agreement (ε = 1) plus convexity against the input hull.
    let check = |outs: &[Nat]| -> (bool, bool) {
        let lo = outs.iter().min().expect("nonempty");
        let hi = outs.iter().max().expect("nonempty");
        let agreement = hi.checked_sub(lo).expect("hi >= lo") <= Nat::one();
        let hull_lo = Nat::from_u64(*inputs.iter().min().expect("nonempty"));
        let hull_hi = Nat::from_u64(*inputs.iter().max().expect("nonempty"));
        (agreement, *lo >= hull_lo && *hi <= hull_hi)
    };

    // One barrier-hosted run: the async state machine adapted onto the
    // lock-step simulator via `run_on_comm`, messages delayed per the
    // shared distribution and released at Δ-barriers.
    let sync_run = |delta: u64| -> (Vec<Nat>, u64, u64, u64) {
        let run_inputs = inputs.clone();
        let report = Sim::new(n)
            .with_delays(delays(), delta)
            .with_max_rounds(4096)
            .run(move |ctx, id: PartyId| {
                let proto =
                    AsyncApprox::new(n, t, id, Nat::from_u64(run_inputs[id.index()]), rounds);
                run_on_comm(ctx, proto, 4096).expect("sync-hosted AAA decides")
            });
        let outs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
        let m = &report.metrics;
        (outs, m.rounds, m.honest_msgs, m.honest_bits / 8)
    };

    let mut rows = Vec::new();
    // One measured configuration, in the shared abstract time units of
    // the delay distribution. `delta` is `None` on the async path (no Δ
    // exists anywhere — that is the point); `wall` is `rounds × Δ` for
    // sync (each barrier waits out the timeout) and the executor's last
    // decide virtual time for async; `wasted` counts barriers spent
    // waiting on quorums that a correctly tuned Δ delivers in one. There
    // is no `ca_net::Metrics` on the async path — the deterministic
    // executor meters messages and payload bytes directly.
    let mut all_correct = true;
    let mut push = |label: &str,
                    mode: &str,
                    delta: Option<u64>,
                    (wall, rounds, wasted): (u64, u64, u64),
                    (messages, payload_bytes): (u64, u64),
                    outs: &[Nat]| {
        let (agreement, validity) = check(outs);
        all_correct &= agreement && validity;
        rows.push(
            Row::new(label)
                .with("kind", "async")
                .with("mode", mode)
                .with("delta", delta.map_or(Value::Null, Value::Int))
                .with("wall", wall)
                .with("rounds", rounds)
                .with("wasted_rounds", wasted)
                .with("messages", messages)
                .with("payload_bytes", payload_bytes)
                .with("agreement", agreement)
                .with("validity", validity),
        );
    };

    // Δ tuned to the (here known) worst-case delay: the synchrony
    // baseline at its best, and the yardstick for "wasted" rounds.
    let tuned_delta = max_delay + 1;
    let (outs, tuned_rounds, msgs, payload) = sync_run(tuned_delta);
    push(
        "sync, tuned delta",
        "sync-tuned",
        Some(tuned_delta),
        (tuned_rounds * tuned_delta, tuned_rounds, 0),
        (msgs, payload),
        &outs,
    );

    // Δ under-estimated: messages routinely miss their barrier, so
    // quorums straggle across rounds and barriers are burned waiting.
    let under_delta = base + jitter / 2;
    let (outs, under_rounds, msgs, payload) = sync_run(under_delta);
    let under_wasted = under_rounds.saturating_sub(tuned_rounds);
    push(
        "sync, mistuned delta (under)",
        "sync-mistuned",
        Some(under_delta),
        (under_rounds * under_delta, under_rounds, under_wasted),
        (msgs, payload),
        &outs,
    );

    // Δ over-estimated: what an unknown network forces — correct, but
    // every barrier pays the padded timeout in full.
    let over_delta = 250;
    let (outs, over_rounds, msgs, payload) = sync_run(over_delta);
    let over_wall = over_rounds * over_delta;
    push(
        "sync, mistuned delta (over)",
        "sync-mistuned",
        Some(over_delta),
        (
            over_wall,
            over_rounds,
            over_rounds.saturating_sub(tuned_rounds),
        ),
        (msgs, payload),
        &outs,
    );

    // The event-driven host: same state machine, same delay samples per
    // edge, no Δ anywhere. Traced, with the invariants checked.
    let sink = Arc::new(ca_trace::RingBufferSink::new(16 << 20));
    let parties: Vec<AsyncApprox> = (0..n)
        .map(|i| AsyncApprox::new(n, t, PartyId(i), Nat::from_u64(inputs[i]), rounds))
        .collect();
    let report = Executor::new(parties, delays())
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run();
    let records = sink.records();
    assert_eq!(
        sink.total_seen() as usize,
        records.len(),
        "as1 trace ring wrapped; raise its capacity"
    );
    let violations = ca_trace::check(&records);
    for v in &violations {
        eprintln!("as1 trace violation: {v}");
    }
    let async_decided = report.outputs.iter().all(Option::is_some);
    let outs: Vec<Nat> = report.outputs.iter().flatten().cloned().collect();
    let async_wall = report.last_decide_time().unwrap_or(u64::MAX);
    push(
        "async, event-driven",
        "async",
        None,
        (async_wall, rounds, 0),
        (report.messages, report.payload_bytes),
        &outs,
    );
    all_correct &= async_decided && violations.is_empty();

    show(
        &format!(
            "AS1: sync Δ-hosts vs event-driven async, n = {n}, delays ∈ [{base}, \
                 {max_delay}], spread = {spread}, {rounds} AAA rounds"
        ),
        &[
            "label",
            "delta",
            "wall",
            "rounds",
            "wasted_rounds",
            "messages",
            "payload_bytes",
            "agreement",
            "validity",
        ],
        &rows,
    );
    let async_wins = all_correct && async_wall < over_wall && under_wasted > 0;
    Report {
        claim: COR2_CLAIM,
        flags: vec![("as1_async_wins", async_wins)],
        rows,
    }
}

/// **P1** (hot-path kernels, beyond the paper) — the n = 256 scaling
/// grid: single-core throughput of the blocked split-table RS kernels
/// against the scalar reference paths (compiled in via `ca-erasure`'s
/// `scalar-oracle` feature), and of the Merkle build over the cell's
/// shares, over n ∈ {16, 64, 128, 256} × ℓ up to 1 MiB. Every cell is also
/// a runtime differential test: the blocked and scalar kernels must
/// produce byte-identical codewords/reconstructions.
///
/// Decode is measured on the *parity-heavy* share subset — systematic
/// shares are dropped first, so (almost) every reconstructed column pays
/// the full k-term coefficient row. That is the kernel's worst case and
/// the regime the blocking targets.
///
/// The report's claim line is this kernel claim rather than Corollary 2's
/// bits formula, and its top-level gate `"p1_blocked_beats_scalar"` is
/// true iff all cells are differentially equal and the largest cell —
/// n = 256, ℓ = 1 MiB on the full grid — shows ≥ 2× blocked-over-scalar
/// speedup on both encode and decode.
pub fn p1_kernel_grid(quick: bool, _artifacts: Option<&Path>) -> Report {
    use ca_codec::Encode;
    use ca_crypto::MerkleTree;
    use ca_erasure::{ReedSolomon, Share};
    use std::time::Instant;

    let ns: &[usize] = if quick {
        &[16, 64]
    } else {
        &[16, 64, 128, 256]
    };
    let ells: &[usize] = if quick {
        &[64 << 10, 256 << 10]
    } else {
        &[256 << 10, 1 << 20]
    };

    /// Measures `f`'s sustained rate by repeating it until ≥ `budget_ms`
    /// of wall clock is spent (at least once), returning MB of payload
    /// processed per second of one core.
    fn mbps(ell: usize, budget_ms: u64, mut f: impl FnMut()) -> f64 {
        let budget = std::time::Duration::from_millis(budget_ms);
        let start = Instant::now();
        let mut reps = 0u64;
        while reps == 0 || start.elapsed() < budget {
            f();
            reps += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        (ell as f64 * reps as f64) / secs / 1e6
    }

    let budget_ms: u64 = if quick { 30 } else { 200 };
    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut last_speedups = (0.0, 0.0);
    for &n in ns {
        let k = n - ca_net::max_faults(n);
        let rs = ReedSolomon::new(n, k).expect("valid grid parameters");
        for &ell in ells {
            let data: Vec<u8> = (0..ell as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
                .collect();

            // Differential check once per cell, outside the timed loops.
            let blocked = rs.encode(&data);
            let scalar = rs.encode_scalar(&data);
            let mut equal = blocked == scalar;
            // Parity-heavy subset: take the k highest-indexed shares.
            let subset: Vec<(usize, Share)> = (n - k..n).map(|i| (i, blocked[i].clone())).collect();
            let rec_blocked = rs.decode(&subset).expect("k shares reconstruct");
            let rec_scalar = rs.decode_scalar(&subset).expect("k shares reconstruct");
            equal &= rec_blocked == data && rec_scalar == data;
            let leaves: Vec<Vec<u8>> = blocked.iter().map(Encode::encode_to_vec).collect();
            all_equal &= equal;

            let enc_blk = mbps(ell, budget_ms, || {
                std::hint::black_box(rs.encode(std::hint::black_box(&data)));
            });
            let enc_sca = mbps(ell, budget_ms, || {
                std::hint::black_box(rs.encode_scalar(std::hint::black_box(&data)));
            });
            let dec_blk = mbps(ell, budget_ms, || {
                std::hint::black_box(rs.decode(std::hint::black_box(&subset)).expect("decodes"));
            });
            let dec_sca = mbps(ell, budget_ms, || {
                std::hint::black_box(
                    rs.decode_scalar(std::hint::black_box(&subset))
                        .expect("decodes"),
                );
            });
            let mrk = mbps(ell, budget_ms, || {
                std::hint::black_box(MerkleTree::build(std::hint::black_box(&leaves)));
            });

            // MB of payload per second of one core; decode runs on the
            // parity-heavy subset. `differential_equal`: blocked and scalar
            // paths produced byte-identical outputs.
            let speedup = |blocked: f64, scalar: f64| blocked / scalar.max(f64::MIN_POSITIVE);
            let (enc_x, dec_x) = (speedup(enc_blk, enc_sca), speedup(dec_blk, dec_sca));
            let kernel = |blocked: f64, scalar: f64, x: f64| {
                Value::Obj(vec![
                    ("blocked_mbps", Value::Fixed(blocked, 1)),
                    ("scalar_mbps", Value::Fixed(scalar, 1)),
                    ("speedup", Value::Fixed(x, 2)),
                ])
            };
            rows.push(
                Row::new(&format!("n={n}, l={}KiB", ell >> 10))
                    .with("kind", "kernel")
                    .with("n", n)
                    .with("k", k)
                    .with("ell_bytes", ell)
                    .with("encode", kernel(enc_blk, enc_sca, enc_x))
                    .with("decode", kernel(dec_blk, dec_sca, dec_x))
                    .with("merkle", Value::Obj(vec![("mbps", Value::Fixed(mrk, 1))]))
                    .with("differential_equal", equal),
            );
            last_speedups = (enc_x, dec_x);
        }
    }
    show(
        "P1: blocked vs scalar kernel throughput, one core (MB/s of payload)",
        &[
            "label",
            "encode.blocked_mbps",
            "encode.scalar_mbps",
            "encode.speedup",
            "decode.blocked_mbps",
            "decode.scalar_mbps",
            "decode.speedup",
            "merkle.mbps",
            "differential_equal",
        ],
        &rows,
    );

    // The gate reads the grid's largest cell (n = 256, ℓ = 1 MiB on the
    // full grid; the quick grid gates on its own largest cell so CI still
    // exercises the comparison).
    let (enc_x, dec_x) = last_speedups;
    Report {
        claim: "KERNELS: blocked RS encode/decode byte-identical to the scalar oracle \
                in every cell and >= 2x its MB/s on the largest cell",
        flags: vec![(
            "p1_blocked_beats_scalar",
            all_equal && enc_x >= 2.0 && dec_x >= 2.0,
        )],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::{run_by_name_opts, EXPERIMENTS};

    #[test]
    fn unknown_experiment_rejected() {
        assert!(!run_by_name_opts("nope", true, None));
    }

    /// The acceptance claim behind S1: per-session wire cost at K = 64
    /// is strictly below the single-instance cost (i.e. 64 multiplexed
    /// sessions cost strictly less than 64× one isolated session).
    #[test]
    fn s1_amortization_holds() {
        use ca_engine::loadgen::{run_load, LoadProfile};
        let single = run_load(&LoadProfile::closed(4, 1, 64));
        assert!(single.agreement && single.validity);
        let mut profile = LoadProfile::closed(4, 64, 64);
        profile.config.max_sessions = 64;
        let multi = run_load(&profile);
        assert!(multi.agreement && multi.validity);
        assert_eq!(multi.sessions_decided, 64);
        let single_wire = single.stats.wire_bits;
        let multi_wire_per_session = multi.stats.wire_bits / multi.sessions_decided;
        assert!(
            multi_wire_per_session < single_wire,
            "no amortization: {multi_wire_per_session} >= {single_wire}"
        );
        // The payload itself must NOT shrink — multiplexing amortizes
        // framing and round sync, never the protocol's own bits.
        assert!(
            multi.payload_bits / multi.sessions_decided >= single.payload_bits * 9 / 10,
            "payload should be ~invariant per session"
        );
    }

    /// What `BENCH_<id>.json` must hold beyond `"experiment": "<id>"`,
    /// and what it must not: the fields, flags and verdicts each
    /// experiment's gates key on. P1's speedup flag is machine-dependent,
    /// so only its presence and the differential verdict are pinned.
    fn artifact_contract(id: &str) -> (&'static [&'static str], &'static [&'static str]) {
        const BOTH_VERDICTS: &str = "\"agreement\": true,\n      \"validity\": true";
        match id {
            "t1" | "e1" => (&["\"measured\"", "\"ratio\"", "\"scopes\""], &[]),
            "f1" => (&["\"claim\": \"CROSSOVER: ", "\"winner\": \"pi_n\""], &[]),
            "f2" => (
                &["\"claim\": \"SLOPE: ", "\"label\": \"exponent in n\""],
                &[],
            ),
            "t2" => (&["\"pi_n_per_nlogn\""], &[]),
            "t3" => (&["\"lba_plus_bits\"", "\"direct_tc_bits\""], &[]),
            "t4" => (&["\"verdict\": \"ok\"", "\"worst_bits\""], &["VIOLATION"]),
            "f4" => (&["\"pi_n_pk_bits\"", "\"ba_plus_pk_bits\""], &[]),
            "f5" => (&["\"iteration_bound\"", "\"honest_lcp\""], &[]),
            "f3" => (&["\"claim\"", "\"measured\"", "\"ratio\"", "\"p99\""], &[]),
            "s1" => (
                &[
                    "\"kind\": \"throughput\"",
                    "\"sessions_per_sec\"",
                    "\"wire_bits_per_session\"",
                    "\"session_latency_rounds\"",
                    "\"batch_occupancy\"",
                    "\"label\": \"K=64\"",
                ],
                &[],
            ),
            "r1" => (
                &[
                    "\"kind\": \"resilience\"",
                    "\"label\": \"0 crashed\"",
                    "\"label\": \"1 crashed\"",
                    "\"rounds_to_decide\"",
                    "\"agreement\": true",
                    "\"validity\": true",
                    "\"wire_bytes_sent\"",
                    "\"peers_gone\": 1",
                ],
                &[],
            ),
            "a1" => (
                &[
                    "\"f0_beats_worst_case\": true",
                    "\"label\": \"worst-case pi_n, f = 0\"",
                    "\"label\": \"adaptive, f = 0\"",
                    "\"label\": \"adaptive, f = 2\"",
                    "\"protocol\": \"pi_n_adaptive\"",
                    BOTH_VERDICTS,
                ],
                &[],
            ),
            "as1" => (
                &[
                    "\"as1_async_wins\": true",
                    "\"kind\": \"async\"",
                    "\"mode\": \"sync-tuned\"",
                    "\"mode\": \"sync-mistuned\"",
                    "\"mode\": \"async\"",
                    "\"label\": \"async, event-driven\"",
                    "\"delta\": null",
                    "\"wasted_rounds\"",
                    BOTH_VERDICTS,
                ],
                &[],
            ),
            "p1" => (
                &[
                    "\"claim\": \"KERNELS: ",
                    "\"p1_blocked_beats_scalar\"",
                    "\"kind\": \"kernel\"",
                    "\"label\": \"n=16, l=64KiB\"",
                    "\"label\": \"n=64, l=256KiB\"",
                    "\"encode\"",
                    "\"decode\"",
                    "\"merkle\"",
                    "\"blocked_mbps\"",
                    "\"scalar_mbps\"",
                    "\"speedup\"",
                    "\"mbps\"",
                ],
                &["\"differential_equal\": false"],
            ),
            _ => panic!("no artifact contract for {id}"),
        }
    }

    /// Every id in [`EXPERIMENTS`] writes a balanced `BENCH_<id>.json`
    /// naming itself and meeting its contract, and F3's `run.jsonl`
    /// timeline passes `ca-trace check`.
    #[test]
    fn every_experiment_writes_its_artifact() {
        let dir = std::env::temp_dir().join(format!("ca-bench-all-{}", std::process::id()));
        for (id, _) in EXPERIMENTS {
            assert!(run_by_name_opts(id, true, Some(&dir)));
            let path = dir.join(format!("BENCH_{id}.json"));
            let bench = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{id} wrote no {}: {e}", path.display()));
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(
                    bench.matches(open).count(),
                    bench.matches(close).count(),
                    "unbalanced {open}{close} in:\n{bench}"
                );
            }
            let name = format!("\"experiment\": \"{id}\"");
            let (present, absent) = artifact_contract(id);
            for key in present.iter().copied().chain([name.as_str()]) {
                assert!(bench.contains(key), "missing {key} in:\n{bench}");
            }
            for key in absent {
                assert!(!bench.contains(key), "{key} in:\n{bench}");
            }
        }

        let records = ca_trace::read_jsonl(&dir.join("run.jsonl")).unwrap();
        assert!(!records.is_empty());
        assert_eq!(
            ca_trace::check(&records),
            vec![],
            "fault-free trace must check clean"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
