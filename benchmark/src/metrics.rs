//! The benchmark's vocabulary: every workload and metric by name, with
//! unit, direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repository root states the same tables; a test keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_small",
        why: "Pi_Z, n=16, 256-bit inputs over Sim: control plane, ~90% of a party's time is inside next_round; kernel work must not move it",
    },
    Workload {
        name: "sim_bulk",
        why: "Pi_Z, n=16, 256 KiB inputs over Sim: value plumbing, core + bits self time dominates; same net/ba use as sim_small, different core/bits",
    },
    Workload {
        name: "lba_bulk",
        why: "Pi_lBA+, n=31 (k=21), 1 MiB payload, all honest: data-plane kernels (RS encode, Merkle, share codec, systematic decode)",
    },
    Workload {
        name: "lba_bulk_crash",
        why: "lba_bulk with parties 0..9 silent: the first t data shares never arrive, so RS decode reconstructs instead of copying",
    },
    Workload {
        name: "tcp_small",
        why: "Pi_Z, n=7, 256-bit inputs back to back on one loopback TcpCluster: framing, syscalls, tokio-shim threads, marker-driven round end",
    },
    Workload {
        name: "engine_mux",
        why: "ca-engine closed loop, n=7, 64 sessions of 256-bit Pi_N per batch over Sim: few large envelopes, thread-per-session hosting",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median the metric may worsen by.
    pub bound: f64,
    /// Fixed by the protocol and the inputs alone: two runs on one seed
    /// must agree to the digit, whatever the bound says.
    pub exact_per_seed: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact_per_seed: false,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("decisions_per_s", "1/s", Better::Higher, 0.25),
    e2e("decision_latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_decision", "ms", Better::Lower, 0.25),
    EndToEnd {
        exact_per_seed: true,
        ..e2e("wire_bytes_per_decision", "B", Better::Lower, 0.02)
    },
    EndToEnd {
        exact_per_seed: true,
        ..e2e("rounds_per_decision", "rounds", Better::Lower, 0.02)
    },
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// From the traced pass. Processor time is per decision, summed over the
/// honest parties; wall time is per step on the lead party's timeline.
pub const TRACED_LAYERS: [Layer; 37] = [
    lower("net.next_round.wall_ms", "ms"),
    lower("net.next_round.cpu_ms", "ms"),
    lower("net.executor.cpu_ms", "ms"),
    lower("net.rounds", "count"),
    lower("net.sends", "count"),
    lower("net.send_bytes", "B"),
    lower("ba.tc.cpu_ms", "ms"),
    lower("ba.pk.cpu_ms", "ms"),
    lower("ba.ba_plus.cpu_ms", "ms"),
    lower("ba.lba_plus.cpu_ms", "ms"),
    lower("ba.lba_plus.calls", "count"),
    lower("core.pi_z.cpu_ms", "ms"),
    lower("core.pi_n.cpu_ms", "ms"),
    lower("core.find_prefix.cpu_ms", "ms"),
    lower("core.flca.cpu_ms", "ms"),
    lower("core.add_last.cpu_ms", "ms"),
    lower("core.get_output.cpu_ms", "ms"),
    lower("core.high_cost.cpu_ms", "ms"),
    lower("core.bits_vs_bound_ratio", "ratio"),
    lower("runtime.next_round.wall_ms", "ms"),
    lower("runtime.next_round.cpu_ms", "ms"),
    lower("runtime.io.cpu_ms", "ms"),
    lower("runtime.frames_per_decision", "count"),
    lower("runtime.frames_shed", "count"),
    lower("runtime.peers_gone", "count"),
    lower("runtime.establish_ms", "ms"),
    lower("engine.mux.cpu_ms", "ms"),
    lower("engine.session_wait.wall_ms", "ms"),
    higher("engine.batch_occupancy_p50", "count"),
    lower("engine.shed_frames", "count"),
    lower("engine.malformed_envelopes", "count"),
    lower("other.cpu_ms", "ms"),
    lower("layers.decision_wall_ms", "ms"),
    higher("layers.covered_pct", "%"),
    lower("layers.cpu_sum_ms", "ms"),
    lower("trace.overhead_pct", "%"),
    lower("trace.spans_per_decision", "count"),
];

/// From `probe`: single-threaded calls into public functions at the
/// workloads' shapes.
pub const PROBE_LAYERS: [Layer; 21] = [
    lower("erasure.new_us.n31", "us"),
    higher("erasure.encode_mbps.n31", "MB/s"),
    higher("erasure.encode_mbps.n16", "MB/s"),
    higher("erasure.decode_systematic_mbps.n31", "MB/s"),
    higher("erasure.decode_reconstruct_mbps.n31", "MB/s"),
    higher("crypto.sha256_mbps", "MB/s"),
    higher("crypto.merkle_build_mbps.n31", "MB/s"),
    lower("crypto.merkle_verify_us.n31", "us"),
    higher("codec.share_encode_mbps", "MB/s"),
    higher("codec.share_decode_ref_mbps", "MB/s"),
    higher("codec.bitstring_roundtrip_mbps", "MB/s"),
    higher("bits.slice_mbps", "MB/s"),
    higher("bits.extend_from_mbps", "MB/s"),
    higher("bits.cmp_val_mbps", "MB/s"),
    higher("bits.nat_to_bits_mbps", "MB/s"),
    higher("bits.val_mbps", "MB/s"),
    lower("net.sim_round_us.n16", "us"),
    lower("runtime.tcp_round_us.n7", "us"),
    lower("ba.tc_bit_ms.n16", "ms"),
    lower("async.aaa_decide_ms.n4", "ms"),
    lower("trace.ring_sink_overhead_pct", "%"),
];

pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    TRACED_LAYERS.iter().chain(PROBE_LAYERS.iter())
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in per_layer() {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(per_layer().count() <= 128);
        assert_eq!(crate::workloads::NAMES, WORKLOADS.map(|w| w.name));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these tables
    /// are what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text_of =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(text_of(row, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers = rows("per_layer");
        assert_eq!(layers.len(), per_layer().count());
        for (row, m) in layers.iter().zip(per_layer()) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(text_of(row, "better"), m.better.as_str(), "{}", m.name);
        }
        assert_eq!(rows("paths"), vec![Json::Str("benchmark".to_owned())]);
    }
}
