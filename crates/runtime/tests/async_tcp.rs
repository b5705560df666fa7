//! The event-driven TCP driver end to end: asynchronous approximate
//! agreement over real sockets, with no Δ tuning anywhere — and with a
//! scripted mid-protocol crash that the survivors must ride out.

use ca_async::{rounds_for_spread, AsyncApprox};
use ca_bits::Nat;
use ca_net::PartyId;
use ca_runtime::{FaultPlan, TcpCluster};

const N: usize = 4;
const T: usize = 1;

fn inputs() -> Vec<u64> {
    vec![0, 12, 500, 1000]
}

fn rounds() -> u64 {
    rounds_for_spread(&Nat::from_u64(1000))
}

fn check_survivors(outs: &[Option<Nat>], survivors: &[usize]) {
    let decided: Vec<&Nat> = survivors
        .iter()
        .map(|&i| {
            outs[i]
                .as_ref()
                .unwrap_or_else(|| panic!("party {i} must decide: {outs:?}"))
        })
        .collect();
    let lo = decided.iter().min().unwrap();
    let hi = decided.iter().max().unwrap();
    let spread = hi.checked_sub(lo).unwrap();
    assert!(spread <= Nat::one(), "ε-agreement violated: {outs:?}");
    let hull_lo = Nat::from_u64(*inputs().iter().min().unwrap());
    let hull_hi = Nat::from_u64(*inputs().iter().max().unwrap());
    assert!(
        **lo >= hull_lo && **hi <= hull_hi,
        "outputs escape the input hull: {outs:?}"
    );
}

/// All four parties decide ε-close values inside the input hull. The
/// cluster's Δ is set absurdly low to prove no code path waits on it:
/// progress is purely quorum-driven.
#[test]
fn async_aaa_decides_over_tcp_without_delta_tuning() {
    let outs = TcpCluster::new(N)
        .with_delta(std::time::Duration::from_nanos(1))
        .run_async(|id: PartyId| {
            AsyncApprox::new(N, T, id, Nat::from_u64(inputs()[id.index()]), rounds())
        })
        .unwrap();
    assert_eq!(outs.len(), N);
    check_survivors(&outs, &[0, 1, 2, 3]);
}

/// Party 3 crashes mid-protocol (at its 15th delivered message, well
/// inside the run) under a [`FaultPlan`]; the three survivors still
/// decide, ε-close and in hull, and the crashed party reports no
/// decision.
#[test]
fn async_survivors_decide_past_mid_protocol_crash() {
    let outs = TcpCluster::new(N)
        .with_fault_plan(N - 1, FaultPlan::new().crash_at(15))
        .run_async(|id: PartyId| {
            AsyncApprox::new(N, T, id, Nat::from_u64(inputs()[id.index()]), rounds())
        })
        .unwrap();
    assert_eq!(outs[N - 1], None, "the crashed party must not decide");
    check_survivors(&outs, &[0, 1, 2]);
}
