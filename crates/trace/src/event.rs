//! Typed trace events and their JSONL wire form.

use std::fmt;

use crate::json::{json_escape, JsonValue};

/// What happened. Every event is wrapped in a [`Record`] carrying the
/// common stamp (party, round, scope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A round boundary opened (stamped with the new round number).
    RoundStart,
    /// A round completed; the record's scope is the round's attribution.
    RoundEnd,
    /// The stamped party entered a metrics scope; the record's scope path
    /// already includes `name` as its last component.
    ScopeEnter {
        /// Scope component entered.
        name: String,
    },
    /// The stamped party left a metrics scope; the record's scope path is
    /// the remaining (parent) path.
    ScopeExit {
        /// Scope component left.
        name: String,
    },
    /// The stamped party sent `bytes` payload bytes to `to` this round.
    Send {
        /// Destination party index.
        to: u64,
        /// Payload bytes (framing excluded; see `ca-net::Metrics` docs).
        bytes: u64,
    },
    /// The stamped party received `bytes` payload bytes from `from`.
    Deliver {
        /// Originating party index.
        from: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// The stamped party entered a protocol with this input value
    /// (rendered as a decimal string for integer domains).
    Input {
        /// Rendered input value.
        value: String,
    },
    /// The stamped party decided this value in the record's scope.
    Decide {
        /// Rendered decided value.
        value: String,
    },
    /// The stamped party decided via the optimistic fast path: the value
    /// was certified by the fast-path confirmation BA without running the
    /// full worst-case protocol. A fast-path decide is still subject to
    /// convex validity — `ca-trace check` holds it against the same
    /// honest-input hull as a regular [`Event::Decide`].
    FastPathTaken {
        /// Rendered fast-path value (equals the scope's decided value).
        value: String,
    },
    /// The stamped party abandoned the fast path and fell back to the
    /// full worst-case protocol: observed misbehavior (missing values,
    /// digest mismatch, transport fault evidence) exceeded the fast-path
    /// budget, or the confirmation BA rejected the optimistic round.
    FallbackTriggered {
        /// Why the fast path was abandoned (e.g. `"incomplete"`,
        /// `"mismatch"`, `"ba-rejected"`, `"fault-estimate"`).
        reason: String,
    },
    /// The stamped party fell under adversary control.
    FaultInjected {
        /// Corruption mode or strategy name.
        strategy: String,
    },
    /// The stamped party stopped listening to `peer`: its stream ended
    /// (EOF/`Bye`/decode failure) or the transport cut it off (writer
    /// queue overflow). From this record on the peer is treated as
    /// silent-byzantine by the emitting party. The emission round is an
    /// *observation* time — stream ends are asynchronous, so it may vary
    /// across otherwise identical runs (see the TCP runtime docs).
    PeerGone {
        /// Index of the disconnected peer.
        peer: u64,
        /// Why the peer was dropped (e.g. `"eof"`, `"overflow"`).
        reason: String,
    },
    /// Free-form protocol annotation (e.g. `find_prefix` iteration counts).
    Note {
        /// Annotation key.
        label: String,
        /// Annotation value.
        value: String,
    },
}

impl Event {
    /// Stable discriminant used as the JSONL `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart => "round_start",
            Event::RoundEnd => "round_end",
            Event::ScopeEnter { .. } => "scope_enter",
            Event::ScopeExit { .. } => "scope_exit",
            Event::Send { .. } => "send",
            Event::Deliver { .. } => "deliver",
            Event::Input { .. } => "input",
            Event::Decide { .. } => "decide",
            Event::FastPathTaken { .. } => "fast_path",
            Event::FallbackTriggered { .. } => "fallback",
            Event::FaultInjected { .. } => "fault",
            Event::PeerGone { .. } => "peer_gone",
            Event::Note { .. } => "note",
        }
    }
}

/// Scope stamped on executor-emitted records that belong to no party scope.
pub const ROOT_SCOPE: &str = "_root";

/// Scope stamped on sends issued by adversary-scripted parties.
pub const ADVERSARY_SCOPE: &str = "_adversary";

/// One trace record: an [`Event`] plus the common stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Emitting party, or `None` for executor-level records (round
    /// boundaries in the simulator).
    pub party: Option<u64>,
    /// Round the event belongs to.
    pub round: u64,
    /// `/`-joined hierarchical scope path at the time of the event
    /// ([`ROOT_SCOPE`] outside any scope).
    pub scope: String,
    /// The event itself.
    pub event: Event,
}

impl Record {
    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        #[expect(
            clippy::disallowed_methods,
            reason = "a constant: one typical record line"
        )]
        let mut out = String::with_capacity(96);
        out.push_str("{\"party\":");
        match self.party {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"round\":");
        out.push_str(&self.round.to_string());
        out.push_str(",\"scope\":\"");
        json_escape(&self.scope, &mut out);
        out.push_str("\",\"ev\":\"");
        out.push_str(self.event.kind());
        out.push('"');
        let mut field = |key: &str, val: &str, quoted: bool| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            if quoted {
                out.push('"');
                json_escape(val, &mut out);
                out.push('"');
            } else {
                out.push_str(val);
            }
        };
        match &self.event {
            Event::RoundStart | Event::RoundEnd => {}
            Event::ScopeEnter { name } | Event::ScopeExit { name } => field("name", name, true),
            Event::Send { to, bytes } => {
                field("to", &to.to_string(), false);
                field("bytes", &bytes.to_string(), false);
            }
            Event::Deliver { from, bytes } => {
                field("from", &from.to_string(), false);
                field("bytes", &bytes.to_string(), false);
            }
            Event::Input { value } | Event::Decide { value } | Event::FastPathTaken { value } => {
                field("value", value, true);
            }
            Event::FallbackTriggered { reason } => field("reason", reason, true),
            Event::FaultInjected { strategy } => field("strategy", strategy, true),
            Event::PeerGone { peer, reason } => {
                field("peer", &peer.to_string(), false);
                field("reason", reason, true);
            }
            Event::Note { label, value } => {
                field("label", label, true);
                field("value", value, true);
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line produced by [`Record::to_jsonl`].
    ///
    /// # Errors
    ///
    /// A human-readable message when the line is not a valid record.
    pub fn parse_jsonl(line: &str) -> Result<Record, String> {
        let obj = crate::json::parse_object(line)?;
        let party = match obj.get("party") {
            Some(JsonValue::Null) | None => None,
            Some(JsonValue::Num(p)) => Some(*p),
            Some(other) => return Err(format!("bad party field: {other:?}")),
        };
        let round = obj.num("round")?;
        let scope = obj.str("scope")?.to_owned();
        let event = match obj.str("ev")? {
            "round_start" => Event::RoundStart,
            "round_end" => Event::RoundEnd,
            "scope_enter" => Event::ScopeEnter {
                name: obj.str("name")?.to_owned(),
            },
            "scope_exit" => Event::ScopeExit {
                name: obj.str("name")?.to_owned(),
            },
            "send" => Event::Send {
                to: obj.num("to")?,
                bytes: obj.num("bytes")?,
            },
            "deliver" => Event::Deliver {
                from: obj.num("from")?,
                bytes: obj.num("bytes")?,
            },
            "input" => Event::Input {
                value: obj.str("value")?.to_owned(),
            },
            "decide" => Event::Decide {
                value: obj.str("value")?.to_owned(),
            },
            "fast_path" => Event::FastPathTaken {
                value: obj.str("value")?.to_owned(),
            },
            "fallback" => Event::FallbackTriggered {
                reason: obj.str("reason")?.to_owned(),
            },
            "fault" => Event::FaultInjected {
                strategy: obj.str("strategy")?.to_owned(),
            },
            "peer_gone" => Event::PeerGone {
                peer: obj.num("peer")?,
                reason: obj.str("reason")?.to_owned(),
            },
            "note" => Event::Note {
                label: obj.str("label")?.to_owned(),
                value: obj.str("value")?.to_owned(),
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(Record {
            party,
            round,
            scope,
            event,
        })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.party {
            Some(p) => write!(f, "P{p}")?,
            None => f.write_str("exec")?,
        }
        write!(f, " r{} [{}] {}", self.round, self.scope, self.event.kind())?;
        match &self.event {
            Event::RoundStart | Event::RoundEnd => Ok(()),
            Event::ScopeEnter { name } | Event::ScopeExit { name } => write!(f, " {name}"),
            Event::Send { to, bytes } => write!(f, " to=P{to} bytes={bytes}"),
            Event::Deliver { from, bytes } => write!(f, " from=P{from} bytes={bytes}"),
            Event::Input { value } | Event::Decide { value } | Event::FastPathTaken { value } => {
                write!(f, " value={value}")
            }
            Event::FallbackTriggered { reason } => write!(f, " reason={reason}"),
            Event::FaultInjected { strategy } => write!(f, " strategy={strategy}"),
            Event::PeerGone { peer, reason } => write!(f, " peer=P{peer} reason={reason}"),
            Event::Note { label, value } => write!(f, " {label}={value}"),
        }
    }
}

/// Renders a value via `Debug`, truncated to 64 characters (with a `…`
/// marker) so traces of long-value protocols stay proportional to the
/// run, not to `ℓ`. Truncated renderings are never plain decimal
/// integers, so they are invisible to the `decide-in-hull` check.
pub fn compact_debug<T: fmt::Debug + ?Sized>(value: &T) -> String {
    const LIMIT: usize = 64;
    let mut s = format!("{value:?}");
    if s.len() > LIMIT {
        let cut = (0..=LIMIT)
            .rev()
            .find(|i| s.is_char_boundary(*i))
            .unwrap_or(0);
        s.truncate(cut);
        s.push('…');
    }
    s
}

/// Renders an arbitrary byte string as lowercase hex (for tracing values
/// that have no decimal rendering, e.g. hashes).
pub fn hex(bytes: &[u8]) -> String {
    #[expect(
        clippy::disallowed_methods,
        reason = "two hex digits per byte of the caller's slice"
    )]
    let mut out = String::with_capacity(2 * bytes.len());
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('?'));
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('?'));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event: Event) -> Record {
        Record {
            party: Some(3),
            round: 17,
            scope: "pi_n/len_est".to_owned(),
            event,
        }
    }

    #[test]
    fn compact_debug_truncates_long_values() {
        assert_eq!(compact_debug(&42u64), "42");
        let long = "x".repeat(200);
        let rendered = compact_debug(long.as_str());
        assert!(rendered.len() <= 68, "{}", rendered.len());
        assert!(rendered.ends_with('…'));
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let events = vec![
            Event::RoundStart,
            Event::RoundEnd,
            Event::ScopeEnter {
                name: "pi_n".to_owned(),
            },
            Event::ScopeExit {
                name: "pi_n".to_owned(),
            },
            Event::Send { to: 2, bytes: 40 },
            Event::Deliver { from: 5, bytes: 7 },
            Event::Input {
                value: "-123".to_owned(),
            },
            Event::Decide {
                value: "99".to_owned(),
            },
            Event::FastPathTaken {
                value: "99".to_owned(),
            },
            Event::FallbackTriggered {
                reason: "mismatch".to_owned(),
            },
            Event::FaultInjected {
                strategy: "scripted".to_owned(),
            },
            Event::PeerGone {
                peer: 3,
                reason: "eof".to_owned(),
            },
            Event::Note {
                label: "iterations".to_owned(),
                value: "5".to_owned(),
            },
        ];
        for ev in events {
            let r = rec(ev);
            let line = r.to_jsonl();
            assert_eq!(Record::parse_jsonl(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn executor_records_have_null_party() {
        let r = Record {
            party: None,
            round: 0,
            scope: ROOT_SCOPE.to_owned(),
            event: Event::RoundStart,
        };
        let line = r.to_jsonl();
        assert!(line.contains("\"party\":null"), "{line}");
        assert_eq!(Record::parse_jsonl(&line).unwrap(), r);
    }

    #[test]
    fn escaping_survives_hostile_scope_names() {
        let r = Record {
            party: Some(0),
            round: 1,
            scope: "a\"b\\c\nd".to_owned(),
            event: Event::Note {
                label: "k\"".to_owned(),
                value: "v\\".to_owned(),
            },
        };
        assert_eq!(Record::parse_jsonl(&r.to_jsonl()).unwrap(), r);
    }

    #[test]
    fn junk_rejected() {
        assert!(Record::parse_jsonl("").is_err());
        assert!(Record::parse_jsonl("{}").is_err());
        assert!(Record::parse_jsonl("{\"ev\":\"nope\"}").is_err());
        assert!(Record::parse_jsonl("not json").is_err());
    }

    #[test]
    fn hex_renders() {
        assert_eq!(hex(&[0x00, 0xAB, 0xFF]), "00abff");
        assert_eq!(hex(&[]), "");
    }
}
