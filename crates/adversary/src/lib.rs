//! Byzantine adversary strategies for the convex-agreement simulator.
//!
//! The paper's adversary (§2) is adaptive and computationally bounded; it
//! fully controls up to `t < n/3` corrupted parties. In the simulator
//! (`ca-net`) an adversary is anything implementing [`ca_net::Adversary`]:
//! it is invoked each round with a *rushing* view (all honest round-`r`
//! messages) and answers with the corrupted parties' round-`r` messages and
//! optional adaptive corruptions.
//!
//! Two complementary classes of attack are provided:
//!
//! * **Message-level strategies** (this crate): garbage injection,
//!   equivocation, replay of honest payloads, adaptive corruption — these
//!   stress decoding robustness, quorum logic, and agreement.
//! * **Input-level strategies** ("byzantine parties may act as honest
//!   parties with inputs of their own choice", paper §3): modelled by
//!   running the *honest protocol code* under
//!   [`ca_net::Corruption::LyingHonest`] with adversary-chosen inputs.
//!   [`Attack`] tells the harness which parties lie and how
//!   ([`LieKind`]).
//!
//! [`Attack::install`] wires a strategy into a [`ca_net::Sim`]; the set
//! [`Attack::standard_suite`] is the adversary matrix used by experiment T4
//! and by the protocol test suites.

#![cfg_attr(
    test,
    allow(clippy::disallowed_types, reason = "unit tests count distinct values")
)]

mod attack;
mod strategies;

pub use attack::{Attack, AttackKind, LieKind};
pub use strategies::{
    AdaptiveGarbage, DelayedCrash, Equivocate, EquivocateThenCrash, Garbage, LateFault,
    PeriodicBurst, Replay,
};
