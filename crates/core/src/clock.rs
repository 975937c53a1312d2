//! Monotonic time source with a manual test double.
//!
//! Telemetry (latency histograms, trace spans, replication-lag timing)
//! needs wall-clock durations, but tests that assert on telemetry output
//! need *deterministic* ones. [`Clock`] abstracts the difference: the
//! production clock reads [`std::time::Instant`] against a fixed anchor,
//! the manual clock reads a shared atomic that tests advance explicitly.
//! Cloning a clock shares its time source, so every component of one
//! process observes the same timeline.
//!
//! A component that decides *when* on a clock waits on it too. The
//! store's group commit is one: it sizes its gather from fsyncs timed on
//! the store's clock and waits until a deadline on that same clock, with
//! no other time source. On a manual clock such a deadline passes only
//! when the clock is advanced past it, whatever real time goes by.
//!
//! Nanoseconds since the clock's anchor are reported as `u64` — ~584
//! years of range, and cheap enough to record on hot paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared monotonic time source; see the module docs.
#[derive(Clone, Debug)]
pub struct Clock(Kind);

#[derive(Clone, Debug)]
enum Kind {
    /// Real time: nanoseconds since the clock was created.
    Monotonic(Instant),
    /// Test time: nanoseconds advanced explicitly via [`Clock::advance`].
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// The production clock: monotonic nanoseconds since construction.
    pub fn monotonic() -> Clock {
        Clock(Kind::Monotonic(Instant::now()))
    }

    /// A deterministic clock starting at 0; time moves only through
    /// [`Clock::advance`]. Clones share the same timeline.
    pub fn manual() -> Clock {
        Clock(Kind::Manual(Arc::new(AtomicU64::new(0))))
    }

    /// Nanoseconds since this clock's anchor.
    pub fn now_nanos(&self) -> u64 {
        match &self.0 {
            Kind::Monotonic(anchor) => {
                // Saturating: a u64 of nanoseconds outlives the process.
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Kind::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// Advances a manual clock by `nanos`. Returns `false` (and does
    /// nothing) on a monotonic clock — real time cannot be steered.
    pub fn advance(&self, nanos: u64) -> bool {
        match &self.0 {
            Kind::Monotonic(_) => false,
            Kind::Manual(t) => {
                t.fetch_add(nanos, Ordering::Relaxed);
                true
            }
        }
    }

    /// Whether this is the deterministic manual clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.0, Kind::Manual(_))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::monotonic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_shared_and_steerable() {
        let a = Clock::manual();
        let b = a.clone();
        assert_eq!(a.now_nanos(), 0);
        assert!(a.advance(25));
        assert_eq!(b.now_nanos(), 25, "clones share the timeline");
        assert!(b.is_manual());
    }

    #[test]
    fn monotonic_clock_moves_forward_only() {
        let c = Clock::monotonic();
        let t0 = c.now_nanos();
        assert!(!c.advance(1_000), "real time cannot be steered");
        assert!(c.now_nanos() >= t0);
        assert!(!c.is_manual());
    }
}
