//! TCP deployment runtime on `std::net`.
//!
//! The simulator in `ca-net` realizes the synchronous model as an explicit
//! lock-step executor; this crate realizes it the way the paper states it
//! (§2): real point-to-point channels where "all messages get delivered
//! within `Δ` time, and `Δ` is publicly known". A round is one frame
//! per peer, which is also the sender's end-of-round marker, plus a `Δ`
//! timeout, so crashed peers delay a round by at most `Δ` and can never
//! stall the protocol.
//!
//! Protocol code is *identical* to what the simulator runs — anything
//! written against [`ca_net::Comm`] works here unchanged; each party's
//! protocol runs on one thread, which also writes each round's frames and
//! reads its peers' nonblocking sockets itself. What a full socket does
//! not take waits in that peer's write queue, which the thread writes out
//! whenever it reads, so a party starts no thread of its own.
//!
//! The runtime also has an **event-driven mode** for asynchronous
//! protocols ([`ca_async::AsyncProtocol`]): [`run_async_party`] and
//! [`TcpCluster::run_async`] advance a protocol instance per delivered
//! message, with no round barriers and no Δ anywhere — the TCP
//! deployment of the same state machines the deterministic
//! [`ca_async::Executor`] schedules in tests. Its post-decision linger
//! (300 ms) and its liveness deadline (30 s) are fixed constants of the
//! driver, not settings.
//!
//! Scope: this runtime demonstrates deployment and is used by the
//! `tcp_cluster` example and the simulator-equivalence tests. It does not
//! meter communication (use the simulator for experiments) and it trusts
//! the transport for authentication, as the paper's model does.
//!
//! # Examples
//!
//! ```no_run
//! use ca_net::CommExt;
//! use ca_runtime::TcpCluster;
//! use std::time::Duration;
//!
//! let outputs = TcpCluster::new(4)
//!     .with_delta(Duration::from_millis(200))
//!     .run(|ctx, id| {
//!         let inbox = ctx.exchange(&(id.index() as u64));
//!         inbox.decode_each::<u64>().len()
//!     })
//!     .unwrap();
//! assert_eq!(outputs, vec![4, 4, 4, 4]);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "socket tests time real sockets and collect from threads"
    )
)]

mod async_driver;
mod clock;
mod cluster;
mod fault;
mod frame;
mod liveness;
mod party;
mod stats;

pub use async_driver::run_async_party;
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use cluster::{ClusterReport, TcpCluster};
pub use fault::FaultPlan;
pub use frame::{
    validate_frame_len, validate_hello_len, Frame, FrameTooLarge, LENGTH_PREFIX_LEN,
    MAX_HELLO_FRAME_LEN, MAX_WIRE_FRAME_LEN,
};
pub use party::{RuntimeError, TcpParty};
pub use stats::RuntimeStats;
