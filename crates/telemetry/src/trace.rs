//! Fixed-capacity structured trace ring: the hot-path flight recorder.
//!
//! Events are small `Copy` records — a monotonic timestamp, a severity,
//! a `&'static str` key, a kind (span begin / span end / point), and two
//! free `u64` payload words. The ring preallocates its slot vector at
//! construction and overwrites the oldest slot once full, so recording
//! never allocates and never grows: the buffer always holds the *last*
//! `capacity` events, which is exactly what you want when something goes
//! wrong and you ask "what was the engine doing just now?".
//!
//! Recording takes a [`std::sync::Mutex`] per event. That is deliberate:
//! trace events are per-*flush* and per-*lifecycle-transition* (a few
//! hundred per second), not per-request, so a mutex costs nothing
//! measurable while keeping the implementation obviously correct under
//! concurrent writers (serving handlers, replication threads, observers).

use std::sync::Mutex;

/// Event severity, ordered from chattiest to most urgent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-flush phase markers.
    Debug,
    /// Lifecycle transitions: resize epochs, checkpoints, promotions.
    Info,
    /// Anomalies worth flagging: rebalance whale pins, fenced frames.
    Warn,
}

impl Severity {
    /// Stable lowercase name, used by the text exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }
}

/// What a trace event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened (`a` = caller payload).
    Begin,
    /// A span closed (`a` = caller payload, `b` = elapsed nanos).
    End,
    /// An instantaneous event.
    Point,
}

impl TraceKind {
    /// Stable lowercase name, used by the text exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Begin => "begin",
            TraceKind::End => "end",
            TraceKind::Point => "point",
        }
    }
}

/// A causal trace context: a sampled request's identity, minted once at
/// the tier that first sees the request and threaded — as metadata, never
/// as digested state — through every stage it touches. Events recorded
/// with [`crate::Telemetry::point_in`]/[`crate::Telemetry::span_in`]
/// carry the id, so one `grep <id>` over any node's trace ring yields
/// that request's causal path on that node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceCtx {
    /// The trace id; never 0 (0 means "untraced" in [`TraceEvent`]).
    pub id: u64,
    /// Clock nanos at the origin tier when the trace was minted.
    pub origin_nanos: u64,
}

impl TraceCtx {
    /// Mints a trace context from the origin timestamp and a per-node
    /// sequence salt. The id is a splitmix64 finalize of the pair —
    /// well-mixed so ids from different nodes or restarts don't collide
    /// in practice — floored at 1 so it never aliases "untraced".
    pub fn mint(origin_nanos: u64, salt: u64) -> TraceCtx {
        let mut z = origin_nanos
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TraceCtx {
            id: z.max(1),
            origin_nanos,
        }
    }
}

/// One recorded event. `Copy`; the ring stores these inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock nanos at record time.
    pub at: u64,
    /// Severity of the event.
    pub severity: Severity,
    /// Span/point kind.
    pub kind: TraceKind,
    /// Static event key (e.g. `"flush"`, `"epoch"`, `"checkpoint"`).
    pub key: &'static str,
    /// First payload word (meaning is per-key; see the key's docs).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Correlating trace id ([`TraceCtx::id`]); 0 = untraced.
    pub trace: u64,
}

#[derive(Debug)]
struct Ring {
    slots: Vec<TraceEvent>,
    /// Total events ever recorded; `total % capacity` is the next slot.
    total: u64,
}

/// The shared, fixed-capacity trace buffer. See the module docs.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl TraceBuffer {
    /// A buffer retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            ring: Mutex::new(Ring {
                // Preallocate up front: record() never allocates.
                slots: Vec::with_capacity(capacity),
                total: 0,
            }),
            capacity,
        }
    }

    /// Records one event, overwriting the oldest once full.
    pub fn record(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        let slot = (ring.total % self.capacity as u64) as usize;
        if ring.slots.len() < self.capacity {
            debug_assert_eq!(slot, ring.slots.len());
            ring.slots.push(ev);
        } else {
            ring.slots[slot] = ev;
        }
        ring.total += 1;
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").total
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        if ring.slots.len() < self.capacity {
            ring.slots.clone()
        } else {
            // The ring has wrapped: the slot about to be overwritten is
            // the oldest retained event.
            let split = (ring.total % self.capacity as u64) as usize;
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&ring.slots[split..]);
            out.extend_from_slice(&ring.slots[..split]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(at: u64) -> TraceEvent {
        TraceEvent {
            at,
            severity: Severity::Debug,
            kind: TraceKind::Point,
            key: "t",
            a: at,
            b: 0,
            trace: 0,
        }
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = TraceCtx::mint(0, 0);
        let b = TraceCtx::mint(0, 1);
        let c = TraceCtx::mint(1, 0);
        assert_ne!(a.id, 0);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_ne!(b.id, c.id);
        assert_eq!(a.origin_nanos, 0);
        // Deterministic: same inputs, same id.
        assert_eq!(TraceCtx::mint(0, 0), a);
    }

    #[test]
    fn wraps_keeping_newest() {
        let buf = TraceBuffer::new(4);
        for at in 0..10u64 {
            buf.record(point(at));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.total_recorded(), 10);
        let got: Vec<u64> = buf.events().iter().map(|e| e.at).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "oldest-first, newest retained");
    }

    #[test]
    fn partial_fill_is_in_order() {
        let buf = TraceBuffer::new(8);
        for at in 0..3u64 {
            buf.record(point(at));
        }
        let got: Vec<u64> = buf.events().iter().map(|e| e.at).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        use std::sync::Arc;
        let buf = Arc::new(TraceBuffer::new(64));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        buf.record(point(t * 10_000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(buf.total_recorded(), 4000);
        assert_eq!(buf.len(), 64);
        // Each writer's retained events appear in its own program order.
        let events = buf.events();
        for t in 0..4u64 {
            let mine: Vec<u64> = events
                .iter()
                .map(|e| e.at)
                .filter(|at| at / 10_000 == t)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "writer {t} reordered");
        }
    }
}
