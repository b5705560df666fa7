//! The asynchronous protocol abstraction: explicit state machines
//! advanced by delivery events.
//!
//! Where the synchronous stack writes protocol code as straight-line
//! round loops against [`ca_net::Comm`], the asynchronous model inverts
//! control: a protocol instance is a state machine that *reacts* to each
//! message as it arrives and answers with a batch of [`Action`]s. No call
//! ever blocks, and there is no timer and no Δ — progress is driven purely
//! by which quorums of messages have landed.

use bytes::Bytes;
use ca_net::PartyId;

/// What a protocol instance asks its host to do in response to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `payload` to one party (point-to-point, authenticated).
    Send {
        /// Recipient.
        to: PartyId,
        /// Opaque wire bytes (the protocol's own codec).
        payload: Bytes,
    },
    /// Send `payload` to *every* party, self included (self-delivery is
    /// local and free; hosts must deliver it like any other message so
    /// protocol logic never special-cases `me`).
    Broadcast {
        /// Opaque wire bytes.
        payload: Bytes,
    },
    /// Record a labelled note into the trace timeline.
    Note {
        /// Note label.
        label: String,
        /// Rendered value.
        value: String,
    },
}

/// An event-driven protocol instance.
///
/// Implementations are plain deterministic state machines: same events in
/// the same order ⇒ same actions and output. All scheduling, delivery,
/// fault injection, and tracing live in the host (the deterministic
/// [`crate::Executor`], the TCP driver in `ca-runtime`, or the round-based
/// adapter in [`crate::run_on_comm`]).
pub trait AsyncProtocol {
    /// What the instance decides.
    type Output: Clone;

    /// Called once before any delivery; returns the opening actions
    /// (typically the initial broadcast).
    fn on_start(&mut self) -> Vec<Action>;

    /// A message from `from` has been delivered. Malformed payloads must
    /// be ignored (byzantine senders can emit arbitrary bytes).
    fn on_message(&mut self, from: PartyId, payload: &Bytes) -> Vec<Action>;

    /// `Some` once the instance has irrevocably decided. Hosts poll this
    /// after every event batch; further events may still arrive (and must
    /// be tolerated) but cannot change the output.
    fn output(&self) -> Option<Self::Output>;

    /// Decimal rendering of this party's input, if the protocol has one —
    /// used by hosts to emit the `Input` trace event that anchors the
    /// decide-in-hull invariant.
    fn input_repr(&self) -> Option<String> {
        None
    }
}

/// Boxed instances forward, so heterogeneous networks (honest machines
/// beside byzantine ones) can run under one executor as
/// `Vec<Box<dyn AsyncProtocol<Output = O>>>`.
impl<P: AsyncProtocol + ?Sized> AsyncProtocol for Box<P> {
    type Output = P::Output;
    fn on_start(&mut self) -> Vec<Action> {
        (**self).on_start()
    }
    fn on_message(&mut self, from: PartyId, payload: &Bytes) -> Vec<Action> {
        (**self).on_message(from, payload)
    }
    fn output(&self) -> Option<Self::Output> {
        (**self).output()
    }
    fn input_repr(&self) -> Option<String> {
        (**self).input_repr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal protocol: decides on the first byte it hears.
    struct FirstByte {
        out: Option<u8>,
    }

    impl AsyncProtocol for FirstByte {
        type Output = u8;
        fn on_start(&mut self) -> Vec<Action> {
            vec![Action::Broadcast {
                payload: Bytes::from_static(b"\x2a"),
            }]
        }
        fn on_message(&mut self, _from: PartyId, payload: &Bytes) -> Vec<Action> {
            if self.out.is_none() {
                self.out = payload.first().copied();
            }
            Vec::new()
        }
        fn output(&self) -> Option<u8> {
            self.out
        }
    }

    #[test]
    fn default_hooks_are_inert() {
        let mut p = FirstByte { out: None };
        assert_eq!(p.input_repr(), None);
        assert_eq!(p.output(), None);
        p.on_message(PartyId(1), &Bytes::from_static(b"\x07"));
        assert_eq!(p.output(), Some(7));
    }
}
