//! The experiment suite: one function per table/figure of `DESIGN.md` §3.
//!
//! Every function prints its table(s) to stdout; `EXPERIMENTS.md` records
//! the claim-vs-measured discussion. `quick` shrinks sweeps for CI.

use ca_adversary::{Attack, AttackKind};
use ca_ba::{ba_plus, lba_plus, turpin_coan, BaKind};
use ca_bits::BitString;
use ca_core::find_prefix;
use ca_crypto::sha256;
use ca_net::Sim;

use std::path::Path;

use crate::summary::{run_row, BenchSummary, Row, Value};
use crate::table::{fmt_bits, Table};
use crate::workload::{apply_lies, clustered_nats};
use crate::{run_nat_protocol, runner::run_nat_protocol_traced, Protocol};

/// Runs one experiment by id (`"t1"`, `"f1"`, …, or `"all"`), with an
/// optional artifact directory: experiments that support machine-readable
/// output (F3, S1, R1, A1, AS1, P1) additionally write a
/// `BENCH_<exp>.json` claim-vs-measured summary — and, for F3, a
/// `run.jsonl` event timeline — into `artifacts`.
///
/// Returns `false` if the id is unknown.
pub fn run_by_name_opts(name: &str, quick: bool, artifacts: Option<&Path>) -> bool {
    let started = std::time::Instant::now();
    let ok = run_inner(name, quick, artifacts);
    if ok && name != "all" {
        eprintln!("[{name} finished in {:.1?}]", started.elapsed());
    }
    ok
}

fn run_inner(name: &str, quick: bool, artifacts: Option<&Path>) -> bool {
    match name {
        "t1" => t1_protocol_comparison(quick),
        "f1" => f1_scaling_ell(quick),
        "f2" => f2_scaling_n(quick),
        "t2" => t2_rounds(quick),
        "f3" => f3_breakdown(quick, artifacts),
        "t3" => t3_extension(quick),
        "t4" => t4_adversarial(quick),
        "f4" => f4_ba_ablation(quick),
        "f5" => f5_findprefix(quick),
        "e1" => e1_approx_vs_exact(quick),
        "s1" => s1_service_throughput(quick, artifacts),
        "r1" => r1_crash_resilience(quick, artifacts),
        "a1" => a1_adaptive_sweep(quick, artifacts),
        "as1" => as1_async_vs_sync(quick, artifacts),
        "p1" => p1_kernel_grid(quick, artifacts),
        "all" => {
            for id in [
                "t1", "f1", "f2", "t2", "f3", "t3", "t4", "f4", "f5", "e1", "s1", "r1", "a1",
                "as1", "p1",
            ] {
                run_by_name_opts(id, quick, artifacts);
            }
        }
        _ => return false,
    }
    true
}

/// **T1** — Corollary 2: `Π_ℕ` vs the `O(ℓn²)` and `O(ℓn³)` baselines at a
/// fixed large `ℓ`. Expected shape: ours wins, by a factor growing ≈
/// linearly (vs broadcast) resp. ≈ quadratically (vs high-cost) in `n`.
pub fn t1_protocol_comparison(quick: bool) {
    let ns: &[usize] = if quick { &[4, 7] } else { &[4, 7, 10, 13] };
    let ell = 1 << 14;
    let mut table = Table::new(
        "T1: communication at ℓ = 2^14 (honest bits; paper Cor. 2 vs §1 baselines)",
        &[
            "n", "protocol", "BITS_l", "rounds", "vs pi_n", "agree", "convex",
        ],
    );
    for &n in ns {
        let inputs = clustered_nats(0x71 ^ n as u64, n, ell, ell / 2);
        let mut ours_bits = 0u64;
        for proto in Protocol::lineup() {
            let stats = run_nat_protocol(proto, &inputs, Attack::none());
            if matches!(proto, Protocol::PiN(_)) {
                ours_bits = stats.honest_bits;
            }
            let ratio = stats.honest_bits as f64 / ours_bits.max(1) as f64;
            table.row_strings(vec![
                n.to_string(),
                stats.protocol.to_string(),
                fmt_bits(stats.honest_bits),
                stats.rounds.to_string(),
                format!("{ratio:.2}x"),
                stats.agreement.to_string(),
                stats.validity.to_string(),
            ]);
        }
    }
    table.print();
}

/// **F1** — §1/§8: `Π_ℕ` is communication-optimal for
/// `ℓ = Ω(κ·n·log²n)`; below that threshold the additive `poly(n, κ)` term
/// dominates and the simpler baselines can be cheaper — the crossover.
pub fn f1_scaling_ell(quick: bool) {
    let n = 7;
    let exps: &[usize] = if quick {
        &[6, 10, 14]
    } else {
        &[6, 8, 10, 12, 14, 16, 18]
    };
    let mut table = Table::new(
        "F1: honest bits vs ℓ at n = 7 (series; crossover where pi_n wins)",
        &["l=2^k", "pi_n", "broadcast_ca", "high_cost_ca", "winner"],
    );
    for &k in exps {
        let ell = 1usize << k;
        let inputs = clustered_nats(0xF1 ^ k as u64, n, ell, ell / 2);
        let mut bits = Vec::new();
        for proto in Protocol::lineup() {
            bits.push(run_nat_protocol(proto, &inputs, Attack::none()).honest_bits);
        }
        let winner = Protocol::lineup()[bits
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| **b)
            .map(|(i, _)| i)
            .unwrap_or(0)]
        .name();
        table.row_strings(vec![
            format!("2^{k}"),
            fmt_bits(bits[0]),
            fmt_bits(bits[1]),
            fmt_bits(bits[2]),
            winner.to_string(),
        ]);
    }
    table.print();
}

/// **F2** — asymptotic slope in `n` of the **value term** `∂BITS/∂ℓ`.
///
/// Total bits mix the value term with the additive `κ·poly(n)` term, which
/// dominates at practical `ℓ` and hides the slopes; the *marginal* cost of
/// one extra input bit isolates the value term exactly: the paper claims
/// `Θ(n)` for `Π_ℕ` vs `Θ(n²)` for broadcast-based CA vs `Θ(n³)` for
/// `HighCostCA`.
pub fn f2_scaling_n(quick: bool) {
    let (ell_lo, ell_hi) = (1usize << 13, 1usize << 14);
    let ns: &[usize] = if quick {
        &[4, 7, 10]
    } else {
        &[4, 7, 10, 13, 16]
    };
    let mut series: Vec<(Protocol, Vec<(usize, f64)>)> = Protocol::lineup()
        .into_iter()
        .map(|p| (p, Vec::new()))
        .collect();
    let mut table = Table::new(
        "F2: marginal bits per input bit, (BITS(2^14) − BITS(2^13)) / 2^13",
        &["n", "pi_n", "broadcast_ca", "high_cost_ca"],
    );
    for &n in ns {
        let inputs_lo = clustered_nats(0xF2 ^ n as u64, n, ell_lo, ell_lo / 2);
        let inputs_hi = clustered_nats(0xF2 ^ n as u64, n, ell_hi, ell_hi / 2);
        let mut row = vec![n.to_string()];
        for (proto, points) in series.iter_mut() {
            let lo = run_nat_protocol(*proto, &inputs_lo, Attack::none()).honest_bits;
            let hi = run_nat_protocol(*proto, &inputs_hi, Attack::none()).honest_bits;
            let marginal = hi.saturating_sub(lo) as f64 / (ell_hi - ell_lo) as f64;
            points.push((n, marginal));
            row.push(format!("{marginal:.1}"));
        }
        table.row_strings(row);
    }
    table.print();

    let mut fit = Table::new(
        "F2 (fit): log-log exponent of the marginal cost in n (paper: 1 / 2 / 3)",
        &["protocol", "exponent"],
    );
    for (proto, points) in &series {
        if points.len() >= 2 {
            let (n1, b1) = points[0];
            let (n2, b2) = points[points.len() - 1];
            let slope = (b2 / b1).ln() / ((n2 as f64) / (n1 as f64)).ln();
            fit.row_strings(vec![proto.name().to_string(), format!("{slope:.2}")]);
        }
    }
    fit.print();
}

/// **T2** — round complexity: Cor. 2 claims `ROUNDSℓ(Π_ℤ) = O(n log n)`;
/// with phase-king `Π_BA` the dominant term is
/// `O(log n)` BA invocations × `O(n)` rounds each.
pub fn t2_rounds(quick: bool) {
    let ns: &[usize] = if quick {
        &[4, 7, 10]
    } else {
        &[4, 7, 10, 13, 16]
    };
    let ell = 1 << 10;
    let mut table = Table::new(
        "T2: rounds vs n at ℓ = 2^10 (paper: O(n log n) for pi_n)",
        &[
            "n",
            "pi_n",
            "rounds/(n·log2 n)",
            "high_cost_ca",
            "broadcast_ca(seq)",
            "broadcast_ca(par)",
        ],
    );
    for &n in ns {
        let inputs = clustered_nats(0x72 ^ n as u64, n, ell, ell / 2);
        let ours = run_nat_protocol(Protocol::PiN(BaKind::TurpinCoan), &inputs, Attack::none());
        let hc = run_nat_protocol(Protocol::HighCostCa, &inputs, Attack::none());
        let bc = run_nat_protocol(Protocol::BroadcastCa, &inputs, Attack::none());
        let bcp = run_nat_protocol(Protocol::BroadcastCaParallel, &inputs, Attack::none());
        let norm = ours.rounds as f64 / (n as f64 * (n as f64).log2());
        table.row_strings(vec![
            n.to_string(),
            ours.rounds.to_string(),
            format!("{norm:.1}"),
            hc.rounds.to_string(),
            bc.rounds.to_string(),
            bcp.rounds.to_string(),
        ]);
    }
    table.print();
}

/// **F3** — Theorem 5's cost decomposition: which subprotocol pays what.
///
/// With `artifacts` set, the short-path run is re-emitted as a structured
/// trace (`<dir>/run.jsonl`, one event per line — `ca-trace report/check`
/// consume it) and both runs land in `<dir>/BENCH_f3.json`.
pub fn f3_breakdown(quick: bool, artifacts: Option<&Path>) {
    let n: usize = if quick { 7 } else { 10 };
    // The short path requires ℓ ≤ n²; pick the largest power of two below.
    let short_ell = 1usize << ((n * n).ilog2() - 1);
    let mut summary = BenchSummary::new("f3");
    for (idx, (label, ell)) in [
        (format!("short path, ℓ = {short_ell}"), short_ell),
        ("long path, ℓ = 2^16".to_owned(), 1 << 16),
    ]
    .into_iter()
    .enumerate()
    {
        let inputs = clustered_nats(0xF3, n, ell, ell / 2);
        let proto = Protocol::PiN(BaKind::TurpinCoan);
        // Trace the (small) short-path run; the long-path timeline would be
        // tens of MB for no extra check coverage.
        let traced_sink = match (idx, artifacts) {
            (0, Some(dir)) => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("warning: cannot create {}: {e}", dir.display());
                    None
                } else {
                    match ca_trace::JsonlSink::create(&dir.join("run.jsonl")) {
                        Ok(sink) => Some(std::sync::Arc::new(sink)),
                        Err(e) => {
                            eprintln!("warning: cannot create run.jsonl: {e}");
                            None
                        }
                    }
                }
            }
            _ => None,
        };
        let stats = match traced_sink {
            Some(sink) => run_nat_protocol_traced(proto, &inputs, Attack::none(), sink),
            None => run_nat_protocol(proto, &inputs, Attack::none()),
        };
        summary.push(run_row(&label, &stats));
        let mut table = Table::new(
            &format!("F3: per-subprotocol breakdown, n = {n}, {label}"),
            &["scope", "bits", "share", "rounds"],
        );
        let total = stats.metrics.honest_bits.max(1);
        for scope in [
            "pi_n/path_ba",
            "pi_n/len_est",
            "pi_n/blocksize",
            "pi_n/flca/find_prefix",
            "pi_n/flca/add_last_bit",
            "pi_n/flca/get_output",
            "pi_n/flcab/find_prefix",
            "pi_n/flcab/add_last_block",
            "pi_n/flcab/get_output",
        ] {
            let m = stats.metrics.scope_subtree(scope);
            if m.honest_bits == 0 && m.rounds == 0 {
                continue;
            }
            table.row_strings(vec![
                scope.to_string(),
                fmt_bits(m.honest_bits),
                format!("{:.1}%", 100.0 * m.honest_bits as f64 / total as f64),
                m.rounds.to_string(),
            ]);
        }
        table.row_strings(vec![
            "TOTAL".to_string(),
            fmt_bits(stats.honest_bits),
            "100%".to_string(),
            stats.rounds.to_string(),
        ]);
        table.print();
    }
    summary.write(artifacts);
}

/// **T3** — Theorem 1: the extension protocol `Π_ℓBA+` vs running the
/// multi-valued BA directly on ℓ-bit values (`O(ℓn + κn²log n)` vs
/// `O(ℓn²)`); the gap should grow ≈ linearly in ℓ·n.
pub fn t3_extension(quick: bool) {
    let n = 7;
    let exps: &[usize] = if quick {
        &[10, 14]
    } else {
        &[8, 10, 12, 14, 16]
    };
    let mut table = Table::new(
        "T3: Π_ℓBA+ vs direct multi-valued BA on ℓ-bit inputs, n = 7",
        &["l=2^k", "lba+ bits", "direct tc bits", "ratio"],
    );
    for &k in exps {
        let ell = 1usize << k;
        let inputs: Vec<BitString> = clustered_nats(0x73 ^ k as u64, n, ell, ell / 2)
            .iter()
            .map(|v| v.to_bits_len(ell).expect("sized"))
            .collect();
        let a = {
            let inputs = inputs.clone();
            Sim::new(n)
                .run(move |ctx, id| lba_plus(ctx, &inputs[id.index()], BaKind::TurpinCoan))
                .metrics
                .honest_bits
        };
        let b = {
            let inputs = inputs.clone();
            Sim::new(n)
                .run(move |ctx, id| turpin_coan(ctx, inputs[id.index()].clone()))
                .metrics
                .honest_bits
        };
        table.row_strings(vec![
            format!("2^{k}"),
            fmt_bits(a),
            fmt_bits(b),
            format!("{:.2}x", b as f64 / a as f64),
        ]);
    }
    table.print();
}

/// **T4** — Definition 1 under the full adversary matrix: every protocol ×
/// every attack × seeds; all cells must read `ok`.
pub fn t4_adversarial(quick: bool) {
    let n = 7;
    let t = ca_net::max_faults(n);
    let ell = 256;
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
    let mut table = Table::new(
        "T4: Termination ∧ Agreement ∧ Convex Validity, n = 7, ℓ = 256",
        &["attack", "pi_n", "broadcast_ca", "high_cost_ca"],
    );
    for attack in Attack::standard_suite(0) {
        let mut row = vec![attack.name().to_string()];
        for proto in Protocol::lineup() {
            let mut ok = true;
            let mut worst_bits = 0u64;
            for &seed in seeds {
                let attack = attack.with_seed(seed);
                let mut inputs = clustered_nats(0x74 ^ seed, n, ell, ell / 2);
                apply_lies(&mut inputs, &attack, n, t, ell);
                let stats = run_nat_protocol(proto, &inputs, attack);
                ok &= stats.agreement && stats.validity;
                worst_bits = worst_bits.max(stats.honest_bits);
            }
            row.push(if ok {
                format!("ok ({})", fmt_bits(worst_bits))
            } else {
                "VIOLATION".to_string()
            });
        }
        table.row_strings(row);
    }
    table.print();
}

/// **F4** — ablation: `Π_BA` instantiation (Turpin–Coan reduction vs direct
/// multi-valued phase-king) inside the full stack and inside `Π_BA+`.
pub fn f4_ba_ablation(quick: bool) {
    let ns: &[usize] = if quick { &[4, 7] } else { &[4, 7, 10, 13] };
    let ell = 1 << 10;
    let mut table = Table::new(
        "F4: Π_BA ablation (Turpin–Coan vs phase-king)",
        &[
            "n",
            "pi_n[tc] bits",
            "pi_n[pk] bits",
            "ba+[tc] bits",
            "ba+[pk] bits",
        ],
    );
    for &n in ns {
        let inputs = clustered_nats(0xF4 ^ n as u64, n, ell, ell / 2);
        let tc = run_nat_protocol(Protocol::PiN(BaKind::TurpinCoan), &inputs, Attack::none());
        let pk = run_nat_protocol(Protocol::PiN(BaKind::PhaseKing), &inputs, Attack::none());
        let hashes: Vec<_> = (0..n).map(|i| sha256(&[i as u8, (i / 3) as u8])).collect();
        let bap_tc = {
            let hashes = hashes.clone();
            Sim::new(n)
                .run(move |ctx, id| ba_plus(ctx, hashes[id.index() / 3], BaKind::TurpinCoan))
                .metrics
                .honest_bits
        };
        let bap_pk = {
            let hashes = hashes.clone();
            Sim::new(n)
                .run(move |ctx, id| ba_plus(ctx, hashes[id.index() / 3], BaKind::PhaseKing))
                .metrics
                .honest_bits
        };
        table.row_strings(vec![
            n.to_string(),
            fmt_bits(tc.honest_bits),
            fmt_bits(pk.honest_bits),
            fmt_bits(bap_tc),
            fmt_bits(bap_pk),
        ]);
    }
    table.print();
}

/// **F5** — Lemma 1/8 behaviour of `FindPrefix`: iteration count is
/// `≤ ⌈log₂ ℓ⌉ + 1` and the agreed prefix is never shorter than the honest
/// inputs' longest common prefix, with and without a splitting input
/// attack.
pub fn f5_findprefix(quick: bool) {
    let n = 7;
    let t = ca_net::max_faults(n);
    let exps: &[usize] = if quick { &[6, 10] } else { &[4, 6, 8, 10, 12] };
    let mut table = Table::new(
        "F5: FindPrefix iterations and agreed-prefix length vs ℓ, n = 7",
        &[
            "l=2^k",
            "attack",
            "iters",
            "log2(l)+1",
            "|PREFIX*|",
            "honest LCP",
        ],
    );
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
            let honest_bits_strs: Vec<&BitString> = (0..n)
                .filter(|i| {
                    !attack
                        .corrupted_parties(n, t)
                        .iter()
                        .any(|p| p.index() == *i)
                })
                .map(|i| &bits[i])
                .collect();
            let lcp = honest_bits_strs
                .windows(2)
                .map(|w| w[0].common_prefix_len(w[1]))
                .min()
                .unwrap_or(ell);
            let sim = attack.install(Sim::new(n), n, t);
            let bits_owned = bits.clone();
            let report = sim.run(move |ctx, id| {
                find_prefix(ctx, ell, &bits_owned[id.index()], BaKind::TurpinCoan)
            });
            let out = report.honest_outputs()[0].clone();
            table.row_strings(vec![
                format!("2^{k}"),
                attack.name().to_string(),
                out.iterations.to_string(),
                (k + 1).to_string(),
                out.prefix.len().to_string(),
                lcp.to_string(),
            ]);
        }
    }
    table.print();
}

/// **E1** (extra, beyond the paper) — exact CA vs the classical relaxation
/// it strengthens: Approximate Agreement [16]. AA pays `O(ℓ'n²)` per
/// halving round for ε-agreement on bounded integers; CA pays once for
/// exact agreement on unbounded integers.
pub fn e1_approx_vs_exact(quick: bool) {
    use ca_core::approx_agreement;
    let ns: &[usize] = if quick { &[7] } else { &[4, 7, 10, 13] };
    let mut table = Table::new(
        "E1: Approximate Agreement [16] vs exact CA (inputs in [0, 2^20), ε = 1)",
        &["n", "aa bits", "aa rounds", "pi_n bits", "pi_n rounds"],
    );
    for &n in ns {
        let inputs: Vec<i64> = (0..n as i64).map(|i| 500_000 + i * 1_000).collect();
        let aa = {
            let inputs = inputs.clone();
            Sim::new(n)
                .run(move |ctx, id| approx_agreement(ctx, inputs[id.index()], (0, 1 << 20), 1))
        };
        let ca_inputs: Vec<_> = inputs
            .iter()
            .map(|&v| ca_bits::Nat::from_u64(v as u64))
            .collect();
        let ca = run_nat_protocol(
            Protocol::PiN(BaKind::TurpinCoan),
            &ca_inputs,
            Attack::none(),
        );
        table.row_strings(vec![
            n.to_string(),
            fmt_bits(aa.metrics.honest_bits),
            aa.metrics.rounds.to_string(),
            fmt_bits(ca.honest_bits),
            ca.rounds.to_string(),
        ]);
    }
    table.print();
}

/// **S1** (service layer, beyond the paper) — multiplexing amortization:
/// `K` CA sessions through one `ca-engine` deployment vs `K` isolated
/// runs. The per-instance `BITSℓ` payload is identical by construction
/// (the equivalence tests pin it); what amortizes is everything *around*
/// the payload — the one `Frame::Round` per peer per round that batched
/// envelopes share, and per-connection `Hello`/`Bye` — so per-session
/// **wire** bits fall strictly below the `K = 1` cost as `K` grows.
pub fn s1_service_throughput(quick: bool, artifacts: Option<&Path>) {
    use ca_engine::loadgen::{run_load_timed, LoadProfile};
    use ca_runtime::MonotonicClock;

    let n: usize = if quick { 4 } else { 7 };
    let ell: usize = if quick { 64 } else { 256 };
    let mut summary = BenchSummary::new("s1");
    let mut table = Table::new(
        &format!("S1: K sessions multiplexed through one engine, n = {n}, ℓ = {ell}"),
        &[
            "K",
            "attack",
            "sess/s",
            "rounds",
            "payload/sess",
            "wire/sess",
            "vs K=1",
            "batch p50",
            "ok",
        ],
    );
    let clock = MonotonicClock::default();
    let mut single_wire_per_session = 0u64;
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
        let wire_per_session = report.stats.wire_bits / decided;
        if k == 1 {
            single_wire_per_session = wire_per_session;
        }
        let s = &report.stats;
        let rate = report.sessions_per_sec();
        // Session throughput, per-session cost, engine-round latency
        // quantiles, and the batching profile that explains the
        // amortization.
        let row = Row::new(&format!("K={k}"))
            .with("kind", "throughput")
            .with("attack", profile.attack.name())
            .with("runs", report.runs)
            .with("sessions_submitted", report.sessions_submitted)
            .with("sessions_decided", report.sessions_decided)
            .with("sessions_rejected", report.sessions_rejected)
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
            .with("wire_bits_per_session", wire_per_session)
            .with("shed_frames", s.shed_frames)
            .with("stray_frames", s.stray_frames)
            .with("late_frames", s.late_frames)
            .with("malformed_envelopes", s.malformed_envelopes)
            .with("session_latency_rounds", &s.session_latency_rounds)
            .with("session_rounds", &s.session_rounds)
            .with("batch_occupancy", &s.batch_occupancy);
        table.row_strings(vec![
            k.to_string(),
            row.cell("attack"),
            rate.map_or_else(|| "-".to_owned(), |r| format!("{r:.0}")),
            row.cell("engine_rounds"),
            fmt_bits(report.payload_bits / decided),
            fmt_bits(wire_per_session),
            format!(
                "{:.2}x",
                wire_per_session as f64 / single_wire_per_session.max(1) as f64
            ),
            s.batch_occupancy.quantile_permille(500).to_string(),
            (report.agreement && report.validity).to_string(),
        ]);
        summary.push(row);
    }
    table.print();
    summary.write(artifacts);
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
pub fn r1_crash_resilience(quick: bool, artifacts: Option<&Path>) {
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

    let mut summary = BenchSummary::new("r1");
    let mut table = Table::new(
        &format!(
            "R1: crash resilience over TCP, n = {n}, {rounds} rounds, crash at round {crash_round}"
        ),
        &[
            "crashed",
            "rounds",
            "agree",
            "convex",
            "frames",
            "wire bytes",
            "shed",
            "gone",
        ],
    );
    for crashed in [0usize, t] {
        let report = match run(crashed) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("warning: r1 cluster run failed: {e}");
                return;
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
        let row = Row::new(&format!("{crashed} crashed"))
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
            .with("peers_gone", gone);
        table.row_of(
            &row,
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
        );
        summary.push(row);
    }
    table.print();
    summary.write(artifacts);
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
/// With `artifacts` set, writes `BENCH_a1.json` including the top-level
/// gate `"f0_beats_worst_case"` (true iff `f = 0` used strictly fewer
/// rounds and ≤ 0.5× the wire bits of the worst case, all sweep points
/// correct and trace-clean).
pub fn a1_adaptive_sweep(quick: bool, artifacts: Option<&Path>) {
    use ca_bits::Nat;
    use ca_core::{check_agreement, check_convex_validity, pi_n_adaptive};
    use ca_net::{Corruption, PartyId};
    use std::sync::Arc;

    let n: usize = 7;
    let t = ca_net::max_faults(n);
    let ell = if quick { 96 } else { 256 };
    let inputs = clustered_nats(0xA1, n, ell, ell / 2);

    let mut summary = BenchSummary::new("a1");
    let worst = run_nat_protocol(Protocol::PiN(BaKind::TurpinCoan), &inputs, Attack::none());
    summary.push(run_row("worst-case pi_n, f = 0", &worst));

    let mut table = Table::new(
        &format!("A1: fault-adaptive fast path, n = {n}, t = {t}, ℓ = {ell}"),
        &[
            "f", "protocol", "bits", "rounds", "path", "agree", "convex", "trace",
        ],
    );
    table.row_strings(vec![
        "0".to_string(),
        worst.protocol.to_string(),
        fmt_bits(worst.honest_bits),
        worst.rounds.to_string(),
        "worst-case".to_string(),
        worst.agreement.to_string(),
        worst.validity.to_string(),
        "-".to_string(),
    ]);

    let mut all_correct = true;
    let mut f0 = None;
    for f in 0..=t {
        let sink = Arc::new(ca_trace::RingBufferSink::new(16 << 20));
        let mut sim = Sim::new(n).with_trace(Arc::clone(&sink) as Arc<dyn ca_trace::TraceSink>);
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
        let agreement = check_agreement(&outs);
        let validity = check_convex_validity(&outs, &honest_inputs);
        let records = sink.records();
        assert_eq!(
            sink.total_seen() as usize,
            records.len(),
            "a1 trace ring wrapped; raise its capacity"
        );
        let violations = ca_trace::check(&records);
        let clean = violations.is_empty();
        for v in &violations {
            eprintln!("a1 trace violation at f = {f}: {v}");
        }
        let fast_deciders = records
            .iter()
            .filter(|r| matches!(r.event, ca_trace::Event::FastPathTaken { .. }))
            .count();
        let path = if fast_deciders > 0 {
            format!("fast ({fast_deciders})")
        } else {
            "fallback".to_string()
        };
        all_correct &= agreement && validity && clean;
        if f == 0 {
            f0 = Some((report.metrics.honest_bits, report.metrics.rounds));
        }

        let stats = crate::runner::RunStats {
            protocol: "pi_n_adaptive",
            n,
            t,
            ell,
            attack: if f == 0 { "none" } else { "crash" },
            honest_bits: report.metrics.honest_bits,
            rounds: report.metrics.rounds,
            agreement,
            validity,
            metrics: report.metrics.clone(),
        };
        summary.push(run_row(&format!("adaptive, f = {f}"), &stats));
        table.row_strings(vec![
            f.to_string(),
            "pi_n_adaptive".to_string(),
            fmt_bits(stats.honest_bits),
            stats.rounds.to_string(),
            path,
            agreement.to_string(),
            validity.to_string(),
            if clean { "clean" } else { "VIOLATION" }.to_string(),
        ]);
    }
    table.print();

    let (f0_bits, f0_rounds) = f0.expect("sweep includes f = 0");
    let f0_beats = all_correct && f0_rounds < worst.rounds && f0_bits * 2 <= worst.honest_bits;
    summary.set_flag("f0_beats_worst_case", f0_beats);
    println!(
        "A1 verdict: f0_beats_worst_case = {f0_beats} \
         (adaptive {} bits / {} rounds vs worst-case {} bits / {} rounds)",
        fmt_bits(f0_bits),
        f0_rounds,
        fmt_bits(worst.honest_bits),
        worst.rounds
    );
    summary.write(artifacts);
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
///
/// With `artifacts` set, writes `BENCH_as1.json`.
pub fn as1_async_vs_sync(quick: bool, artifacts: Option<&Path>) {
    use std::sync::Arc;

    use ca_async::{rounds_for_spread, run_on_comm, AsyncApprox, DeliverySchedule, Executor};
    use ca_bits::Nat;
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

    let mut summary = BenchSummary::new("as1");
    let mut table = Table::new(
        &format!(
            "AS1: sync Δ-hosts vs event-driven async, n = {n}, delays ∈ [{base}, {max_delay}], \
             spread = {spread}, {rounds} AAA rounds"
        ),
        &[
            "config",
            "delta",
            "wall",
            "rounds",
            "wasted",
            "msgs",
            "payload B",
            "agree",
            "convex",
        ],
    );

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
        let row = Row::new(label)
            .with("kind", "async")
            .with("mode", mode)
            .with("delta", delta.map_or(Value::Null, Value::Int))
            .with("wall", wall)
            .with("rounds", rounds)
            .with("wasted_rounds", wasted)
            .with("messages", messages)
            .with("payload_bytes", payload_bytes)
            .with("agreement", agreement)
            .with("validity", validity);
        table.row_of(
            &row,
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
        );
        summary.push(row);
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
    let report = Executor::new(parties, DeliverySchedule::new(delays()))
        .with_trace(Arc::clone(&sink) as Arc<dyn ca_trace::TraceSink>)
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

    table.print();

    let async_wins = all_correct && async_wall < over_wall && under_wasted > 0;
    summary.set_flag("as1_async_wins", async_wins);
    println!(
        "AS1 verdict: as1_async_wins = {async_wins} \
         (async wall {async_wall} vs over-estimated sync {over_wall}; \
         under-estimated sync wasted {under_wasted} rounds, async 0)"
    );
    summary.write(artifacts);
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
/// With `artifacts` set, writes `BENCH_p1.json` including the top-level
/// gate `"p1_blocked_beats_scalar"` (true iff all cells are
/// differentially equal and the largest cell — n = 256, ℓ = 1 MiB on the
/// full grid — shows ≥ 2× blocked-over-scalar speedup on both encode and
/// decode).
pub fn p1_kernel_grid(quick: bool, artifacts: Option<&Path>) {
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
    let mut summary = BenchSummary::new("p1");
    let mut table = Table::new(
        "P1: blocked vs scalar kernel throughput, one core (MB/s of payload)",
        &[
            "n", "l", "enc blk", "enc sca", "enc x", "dec blk", "dec sca", "dec x", "mrk", "equal",
        ],
    );

    let mut all_equal = true;
    let mut last_cell: Option<(String, f64, f64)> = None;
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
            let label = format!("n={n}, l={}KiB", ell >> 10);
            let row = Row::new(&label)
                .with("kind", "kernel")
                .with("n", n)
                .with("k", k)
                .with("ell_bytes", ell)
                .with("encode", kernel(enc_blk, enc_sca, enc_x))
                .with("decode", kernel(dec_blk, dec_sca, dec_x))
                .with("merkle", Value::Obj(vec![("mbps", Value::Fixed(mrk, 1))]))
                .with("differential_equal", equal);
            table.row_strings(vec![
                row.cell("n"),
                format!("{}KiB", ell >> 10),
                format!("{enc_blk:.0}"),
                format!("{enc_sca:.0}"),
                format!("{enc_x:.2}x"),
                format!("{dec_blk:.0}"),
                format!("{dec_sca:.0}"),
                format!("{dec_x:.2}x"),
                format!("{mrk:.0}"),
                row.cell("differential_equal"),
            ]);
            summary.push(row);
            last_cell = Some((label, enc_x, dec_x));
        }
    }
    table.print();

    // The gate reads the grid's largest cell (n = 256, ℓ = 1 MiB on the
    // full grid; the quick grid gates on its own largest cell so CI still
    // exercises the comparison).
    let (label, enc_x, dec_x) = last_cell.expect("grid has cells");
    let beats = all_equal && enc_x >= 2.0 && dec_x >= 2.0;
    summary.set_flag("p1_blocked_beats_scalar", beats);
    println!(
        "P1 verdict: p1_blocked_beats_scalar = {beats} \
         ({label}: encode {enc_x:.2}x, decode {dec_x:.2}x, all cells equal = {all_equal})"
    );
    summary.write(artifacts);
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_experiment_rejected() {
        assert!(!super::run_by_name_opts("nope", true, None));
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

    #[test]
    fn s1_artifact_has_throughput_fields() {
        let dir = std::env::temp_dir().join(format!("ca-bench-s1-{}", std::process::id()));
        assert!(super::run_by_name_opts("s1", true, Some(&dir)));
        let bench = std::fs::read_to_string(dir.join("BENCH_s1.json")).unwrap();
        for key in [
            "\"experiment\": \"s1\"",
            "\"kind\": \"throughput\"",
            "\"sessions_per_sec\"",
            "\"wire_bits_per_session\"",
            "\"session_latency_rounds\"",
            "\"batch_occupancy\"",
            "\"label\": \"K=64\"",
        ] {
            assert!(bench.contains(key), "missing {key} in:\n{bench}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn r1_artifact_has_resilience_fields() {
        let dir = std::env::temp_dir().join(format!("ca-bench-r1-{}", std::process::id()));
        assert!(super::run_by_name_opts("r1", true, Some(&dir)));
        let bench = std::fs::read_to_string(dir.join("BENCH_r1.json")).unwrap();
        for key in [
            "\"experiment\": \"r1\"",
            "\"kind\": \"resilience\"",
            "\"label\": \"0 crashed\"",
            "\"label\": \"1 crashed\"",
            "\"rounds_to_decide\"",
            "\"agreement\": true",
            "\"validity\": true",
            "\"wire_bytes_sent\"",
            "\"peers_gone\": 1",
        ] {
            assert!(bench.contains(key), "missing {key} in:\n{bench}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a1_artifact_gates_on_fast_path_win() {
        let dir = std::env::temp_dir().join(format!("ca-bench-a1-{}", std::process::id()));
        assert!(super::run_by_name_opts("a1", true, Some(&dir)));
        let bench = std::fs::read_to_string(dir.join("BENCH_a1.json")).unwrap();
        assert_eq!(
            bench.matches('{').count(),
            bench.matches('}').count(),
            "unbalanced braces in:\n{bench}"
        );
        for key in [
            "\"experiment\": \"a1\"",
            "\"f0_beats_worst_case\": true",
            "\"label\": \"worst-case pi_n, f = 0\"",
            "\"label\": \"adaptive, f = 0\"",
            "\"label\": \"adaptive, f = 2\"",
            "\"protocol\": \"pi_n_adaptive\"",
            "\"agreement\": true,\n      \"validity\": true",
        ] {
            assert!(bench.contains(key), "missing {key} in:\n{bench}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn as1_artifact_gates_on_async_win() {
        let dir = std::env::temp_dir().join(format!("ca-bench-as1-{}", std::process::id()));
        assert!(super::run_by_name_opts("as1", true, Some(&dir)));
        let bench = std::fs::read_to_string(dir.join("BENCH_as1.json")).unwrap();
        assert_eq!(
            bench.matches('{').count(),
            bench.matches('}').count(),
            "unbalanced braces in:\n{bench}"
        );
        for key in [
            "\"experiment\": \"as1\"",
            "\"as1_async_wins\": true",
            "\"kind\": \"async\"",
            "\"mode\": \"sync-tuned\"",
            "\"mode\": \"sync-mistuned\"",
            "\"mode\": \"async\"",
            "\"label\": \"async, event-driven\"",
            "\"delta\": null",
            "\"wasted_rounds\"",
            "\"agreement\": true,\n      \"validity\": true",
        ] {
            assert!(bench.contains(key), "missing {key} in:\n{bench}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// P1's artifact carries the kernel grid with the blocked-vs-scalar
    /// gate. The speedup value is machine-dependent, so the test pins the
    /// structure and the differential-equality verdict (which must hold
    /// anywhere), not the flag itself.
    #[test]
    fn p1_artifact_has_kernel_grid() {
        let dir = std::env::temp_dir().join(format!("ca-bench-p1-{}", std::process::id()));
        assert!(super::run_by_name_opts("p1", true, Some(&dir)));
        let bench = std::fs::read_to_string(dir.join("BENCH_p1.json")).unwrap();
        assert_eq!(
            bench.matches('{').count(),
            bench.matches('}').count(),
            "unbalanced braces in:\n{bench}"
        );
        for key in [
            "\"experiment\": \"p1\"",
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
        ] {
            assert!(bench.contains(key), "missing {key} in:\n{bench}");
        }
        assert!(
            !bench.contains("\"differential_equal\": false"),
            "blocked and scalar kernels disagreed:\n{bench}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn f3_artifacts_trace_checks_clean() {
        let dir = std::env::temp_dir().join(format!("ca-bench-f3-{}", std::process::id()));
        assert!(super::run_by_name_opts("f3", true, Some(&dir)));

        let records = ca_trace::read_jsonl(&dir.join("run.jsonl")).unwrap();
        assert!(!records.is_empty());
        assert_eq!(
            ca_trace::check(&records),
            vec![],
            "fault-free trace must check clean"
        );

        let bench = std::fs::read_to_string(dir.join("BENCH_f3.json")).unwrap();
        for key in [
            "\"experiment\": \"f3\"",
            "\"claim\"",
            "\"measured\"",
            "\"ratio\"",
            "\"p99\"",
        ] {
            assert!(bench.contains(key), "missing {key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
