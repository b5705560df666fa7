//! Lifting single-instance adversaries to the envelope layer.
//!
//! The equivalence story of the engine needs the *same* byzantine
//! strategy to attack a session whether it runs isolated or multiplexed.
//! [`EnvelopeAdversary`] makes that precise: it holds one inner
//! [`Adversary`] per session, presents each with exactly the per-session
//! rushing view it would see in an isolated run (by unpacking honest
//! envelope traffic), and re-wraps every injected message as a
//! single-frame envelope for that session.
//!
//! Assumes all sessions are admitted at engine round 0 (engine round =
//! session round), which is how the equivalence tests run it. Adaptive
//! corruption requests are unioned across sessions; strategies whose
//! victim choice is deterministic (e.g. `AdaptiveGarbage` picks the
//! lowest-id honest party) therefore agree and the union stays within
//! budget.

use std::collections::BTreeMap;

use bytes::Bytes;
use ca_codec::{Decode as _, Encode as _};
use ca_net::{Adversary, PartyId, RoundActions, RoundView, SendSpec};

use crate::{Envelope, SessionFrame, SessionId};

/// Per-session adversaries attacking through the envelope layer.
pub struct EnvelopeAdversary {
    inner: BTreeMap<u64, Box<dyn Adversary>>,
}

impl std::fmt::Debug for EnvelopeAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvelopeAdversary")
            .field("sessions", &self.inner.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl EnvelopeAdversary {
    /// One inner adversary per session id.
    #[must_use]
    pub fn new(sessions: impl IntoIterator<Item = (SessionId, Box<dyn Adversary>)>) -> Self {
        Self {
            inner: sessions
                .into_iter()
                .map(|(sid, adv)| (sid.0, adv))
                .collect(),
        }
    }
}

impl Adversary for EnvelopeAdversary {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        // Unpack honest envelope traffic into per-session views, keeping
        // the executor's ordering (by sender, then send order) so inner
        // strategies observe exactly what an isolated run would show them.
        let mut per_session: BTreeMap<u64, Vec<(PartyId, PartyId, Bytes)>> =
            self.inner.keys().map(|sid| (*sid, Vec::new())).collect();
        for (from, to, payload) in view.honest_sends {
            let Ok(env) = Envelope::decode_from_bytes(payload) else {
                continue;
            };
            for frame in env.frames {
                if let Some(sends) = per_session.get_mut(&frame.session.0) {
                    sends.push((*from, *to, frame.payload));
                }
            }
        }

        let mut actions = RoundActions::default();
        for (sid, adv) in &mut self.inner {
            let honest_sends = &per_session[sid];
            let sub_view = RoundView {
                n: view.n,
                t: view.t,
                round: view.round,
                corrupted: view.corrupted,
                honest_sends,
            };
            let sub = adv.on_round(&sub_view);
            for p in sub.corrupt {
                if !actions.corrupt.contains(&p) {
                    actions.corrupt.push(p);
                }
            }
            for send in sub.sends {
                let env = Envelope {
                    frames: vec![SessionFrame {
                        session: SessionId(*sid),
                        payload: send.payload.clone(),
                    }],
                };
                actions.sends.push(SendSpec {
                    from: send.from,
                    to: send.to,
                    payload: Bytes::from(env.encode_to_vec()),
                });
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_net::Silent;

    /// An asserting inner adversary: checks it sees exactly the isolated
    /// per-session view, and echoes one send per round.
    struct Probe {
        expect: Vec<(PartyId, PartyId, Vec<u8>)>,
    }

    impl Adversary for Probe {
        fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
            let got: Vec<(PartyId, PartyId, Vec<u8>)> = view
                .honest_sends
                .iter()
                .map(|(f, t, p)| (*f, *t, p.to_vec()))
                .collect();
            assert_eq!(got, self.expect, "inner adversary sees unpacked view");
            RoundActions {
                corrupt: Vec::new(),
                sends: vec![SendSpec {
                    from: PartyId(2),
                    to: PartyId(0),
                    payload: Bytes::from_static(b"\x01\x02"),
                }],
            }
        }
    }

    #[test]
    fn unpacks_envelopes_per_session_and_rewraps_sends() {
        let probe = Probe {
            expect: vec![(PartyId(0), PartyId(1), vec![0xBB, 0xCC])],
        };
        let mut lift = EnvelopeAdversary::new([
            (SessionId(0), Box::new(Silent) as Box<dyn Adversary>),
            (SessionId(1), Box::new(probe) as Box<dyn Adversary>),
        ]);

        // One honest envelope from P0 to P1 carrying frames of both
        // sessions, plus one non-envelope payload that must be ignored.
        let env = Envelope {
            frames: vec![
                SessionFrame {
                    session: SessionId(0),
                    payload: Bytes::from(vec![0xAA]),
                },
                SessionFrame {
                    session: SessionId(1),
                    payload: Bytes::from(vec![0xBB, 0xCC]),
                },
            ],
        };
        let honest = vec![
            (PartyId(0), PartyId(1), Bytes::from(env.encode_to_vec())),
            (PartyId(1), PartyId(0), Bytes::from_static(b"junk")),
        ];
        let view = RoundView {
            n: 3,
            t: 1,
            round: 0,
            corrupted: &[PartyId(2)],
            honest_sends: &honest,
        };
        let actions = lift.on_round(&view);

        // The probe's send came back wrapped as a session-1 envelope.
        assert_eq!(actions.sends.len(), 1);
        let spec = &actions.sends[0];
        assert_eq!((spec.from, spec.to), (PartyId(2), PartyId(0)));
        let rewrapped = Envelope::decode_from_slice(&spec.payload).unwrap();
        assert_eq!(
            rewrapped.frames,
            vec![SessionFrame {
                session: SessionId(1),
                payload: Bytes::from(vec![1, 2]),
            }]
        );
    }
}
