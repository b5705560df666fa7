//! Injectable time source for the TCP transport.
//!
//! The round loop in [`TcpParty`](crate::TcpParty) needs a notion of "Δ has
//! elapsed". Reading `Instant::now()` inline makes runs unreproducible and
//! untestable, so the deadline logic is written against this trait instead:
//! production uses [`MonotonicClock`], tests use [`ManualClock`] and advance
//! time explicitly.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A monotonic time source, reporting elapsed time since an arbitrary
/// (per-clock) epoch.
pub trait Clock: Send {
    /// Time elapsed since this clock's epoch. Must be monotonic.
    fn now(&self) -> Duration;
}

/// Real time: elapsed [`Instant`] since clock construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl Default for MonotonicClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one clock-injection boundary: no other runtime code reads the wall clock"
    )]
    fn default() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A test clock that only moves when told to.
///
/// Clones share the same underlying time, so a test can hold one handle
/// while the transport holds another.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: Arc<Mutex<Duration>>,
}

impl ManualClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        let mut now = self.now.lock().unwrap_or_else(PoisonError::into_inner);
        *now = now.saturating_add(d);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_when_told() {
        let clock = ManualClock::new();
        let handle = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        handle.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        handle.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(500));
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let clock = MonotonicClock::default();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
