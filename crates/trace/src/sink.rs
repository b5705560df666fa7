//! Trace sinks: where records go.
//!
//! Instrumented code holds an `Arc<dyn TraceSink>` and calls
//! [`TraceSink::enabled`] before building a [`Record`], so the disabled
//! path ([`NullSink`]) costs one virtual call and no allocation.
//!
//! Each sink that locks lives in a private module of its own (`ring`,
//! `jsonl`), so its lock field is private to that module. The rule there:
//! every method takes exactly one lock, its own sink's, releases it before
//! it returns, returns no guard and is handed no other sink. No code can
//! then hold two sinks' locks at once, and there is no lock order to get
//! wrong; outside those modules a `buf.lock()` or `writer.lock()` does not
//! compile (E0616).

use std::path::Path;

use crate::Record;

pub use jsonl::JsonlSink;
pub use ring::RingBufferSink;

/// Destination for trace records.
///
/// Implementations must be cheap to call concurrently: the TCP runtime
/// records from the protocol thread while the simulator flushes whole
/// per-party buffers from its executor thread.
pub trait TraceSink: Send + Sync {
    /// Whether callers should bother constructing records at all.
    /// Instrumentation sites check this before rendering values.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one record.
    fn record(&self, rec: &Record);

    /// Forces buffered records to durable storage (no-op by default).
    fn flush(&self) {}
}

/// Discards everything; [`enabled`](TraceSink::enabled) is `false` so
/// instrumentation short-circuits before any rendering or allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _rec: &Record) {}
}

mod ring {
    use std::sync::Mutex;

    use crate::{Record, TraceSink};

    /// Keeps the most recent `capacity` records in memory — the post-mortem
    /// sink: cheap enough to leave on, and a property-test failure can dump
    /// the tail of the timeline.
    #[derive(Debug)]
    pub struct RingBufferSink {
        capacity: usize,
        buf: Mutex<RingState>,
    }

    #[derive(Debug, Default)]
    struct RingState {
        records: Vec<Record>,
        /// Next write position once the buffer has wrapped.
        head: usize,
        /// Total records ever offered (≥ `records.len()`).
        seen: u64,
    }

    impl RingBufferSink {
        /// Creates a ring holding at most `capacity` records (min 1).
        #[must_use]
        pub fn new(capacity: usize) -> Self {
            Self {
                capacity: capacity.max(1),
                buf: Mutex::new(RingState::default()),
            }
        }

        /// Returns the retained records in arrival order (oldest first).
        ///
        /// # Panics
        ///
        /// If a writer panicked while holding the internal lock.
        #[must_use]
        pub fn records(&self) -> Vec<Record> {
            let state = self.buf.lock().expect("ring sink poisoned");
            if state.records.len() < self.capacity {
                state.records.clone()
            } else {
                #[expect(clippy::disallowed_methods, reason = "the ring's own record count")]
                let mut out = Vec::with_capacity(state.records.len());
                out.extend_from_slice(&state.records[state.head..]);
                out.extend_from_slice(&state.records[..state.head]);
                out
            }
        }

        /// Total number of records offered over the sink's lifetime,
        /// including ones that have since been overwritten.
        ///
        /// # Panics
        ///
        /// If a writer panicked while holding the internal lock.
        #[must_use]
        pub fn total_seen(&self) -> u64 {
            self.buf.lock().expect("ring sink poisoned").seen
        }
    }

    impl TraceSink for RingBufferSink {
        fn record(&self, rec: &Record) {
            let mut state = self.buf.lock().expect("ring sink poisoned");
            state.seen += 1;
            if state.records.len() < self.capacity {
                state.records.push(rec.clone());
                state.head = state.records.len() % self.capacity;
            } else {
                let head = state.head;
                state.records[head] = rec.clone();
                state.head = (head + 1) % self.capacity;
            }
        }
    }
}

mod jsonl {
    use std::fs::File;
    use std::io::{BufWriter, Write};
    use std::path::Path;
    use std::sync::Mutex;

    use crate::{Record, TraceSink};

    /// Streams records to a JSONL file, one record per line, in arrival
    /// order. Durable artifact sink for `ca-trace report|diff|check`.
    #[derive(Debug)]
    pub struct JsonlSink {
        writer: Mutex<BufWriter<File>>,
    }

    impl JsonlSink {
        /// Creates (truncating) the file at `path`.
        ///
        /// # Errors
        ///
        /// Propagates file-creation failures.
        pub fn create(path: &Path) -> std::io::Result<Self> {
            Ok(Self {
                writer: Mutex::new(BufWriter::new(File::create(path)?)),
            })
        }
    }

    impl TraceSink for JsonlSink {
        fn record(&self, rec: &Record) {
            let mut w = self.writer.lock().expect("jsonl sink poisoned");
            // Disk-full during tracing degrades the artifact, not the run.
            let _ = writeln!(w, "{}", rec.to_jsonl());
        }

        fn flush(&self) {
            let mut w = self.writer.lock().expect("jsonl sink poisoned");
            let _ = w.flush();
        }
    }

    impl Drop for JsonlSink {
        fn drop(&mut self) {
            self.flush();
        }
    }
}

/// Reads every record from a JSONL trace file.
///
/// # Errors
///
/// I/O failures or the first malformed line (with its line number).
pub fn read_jsonl(path: &Path) -> Result<Vec<Record>, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec =
            Record::parse_jsonl(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn rec(round: u64) -> Record {
        Record {
            party: Some(0),
            round,
            scope: "s".to_owned(),
            event: Event::RoundStart,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(&rec(1)); // must not panic
    }

    #[test]
    fn ring_keeps_most_recent() {
        let s = RingBufferSink::new(3);
        for r in 0..5 {
            s.record(&rec(r));
        }
        let rounds: Vec<u64> = s.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
        assert_eq!(s.total_seen(), 5);
    }

    #[test]
    fn ring_under_capacity() {
        let s = RingBufferSink::new(10);
        s.record(&rec(0));
        s.record(&rec(1));
        let rounds: Vec<u64> = s.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 1]);
    }

    #[test]
    fn jsonl_sink_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("ca_trace_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        {
            let s = JsonlSink::create(&path).unwrap();
            s.record(&rec(7));
            s.record(&rec(8));
        } // drop flushes
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].round, 8);
        std::fs::remove_file(&path).ok();
    }
}
