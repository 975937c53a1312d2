//! # realloc-telemetry
//!
//! Unified observability for the realloc serving stack: a **metrics
//! registry** (counters, gauges, log-bucketed latency histograms), a
//! fixed-capacity **trace ring buffer** for hot-path spans and lifecycle
//! events, a Prometheus-style **text exposition** and a tiny TCP
//! **[`ObsServer`]** so every node of a replicated cluster can be polled
//! live. Std-only, like the rest of the workspace.
//!
//! # Design
//!
//! A [`Telemetry`] handle is either *enabled* (it owns a shared
//! registry, trace buffer and [`Clock`]) or *[`disabled()`]* (every
//! operation is a no-op on a `None`). Components take a `&Telemetry` once at attach
//! time, look up their named instruments, and keep the returned
//! [`Counter`]/[`Gauge`]/[`Histo`] handles — the name→instrument map is
//! only locked at registration, never on the hot path. Counters and
//! gauges are plain `AtomicU64`s. Histograms sit behind a mutex, so hot
//! paths record O(1) samples per batch (a flush phase, an fsync, an ack),
//! never one per request.
//!
//! # Naming scheme
//!
//! `<layer>_<what>[_<unit>]`, with `_total` for counters and `_nanos`
//! for durations: `engine_requests_total`, `engine_flush_barrier_nanos`,
//! `cluster_replica_last_seq`. A label set may be embedded in the name
//! via [`labeled`] (e.g. `cluster_link_acked_seq{replica="…"}`); the
//! renderer understands it and splices `quantile` labels in correctly.
//!
//! # Persistence
//!
//! None: a registry lives as long as its process. Numbers that must
//! survive a restart are owned by the component that counts them and
//! ride that component's own snapshot — the engine's lifetime tallies
//! are in its snapshot, and its registry shows them again at attach.
//! Deliberately, the registry is **not** part of any engine's digested
//! state: replication digests must depend only on the replayed event
//! stream, never on wall-clock measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod hist;
pub mod obs;
pub mod render;
pub mod trace;

pub use agg::{Collector, CollectorConfig, FleetSnapshot, NodeRole, NodeSpec, NodeStatus};
pub use hist::{Histogram, HIST_BUCKETS};
pub use obs::{fetch_metrics, fetch_trace, HealthCheck, ObsClient, ObsConfig, ObsServer};
pub use realloc_core::clock::Clock;
pub use render::parse_sample;
pub use trace::{Severity, TraceBuffer, TraceCtx, TraceEvent, TraceKind};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default retained-event capacity of the trace ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Default cap on events rendered by [`Telemetry::render_trace`]. A full
/// 1024-entry ring renders to tens of kilobytes — more than casual
/// clients budget for one frame — so the bare `trace` verb shows the
/// newest slice and callers page deeper with `trace <n>`.
pub const DEFAULT_TRACE_RENDER_CAP: usize = 512;

/// Callback invoked by [`Telemetry::incident`], after the triggering
/// event is in the ring (the hook may itself render the ring).
pub type IncidentHook = Arc<dyn Fn(&'static str) + Send + Sync>;

/// The hook slot needs a manual `Debug` (closures have none).
#[derive(Default)]
struct HookCell(Mutex<Option<IncidentHook>>);

impl std::fmt::Debug for HookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.0.lock().map(|g| g.is_some()).unwrap_or(false);
        f.debug_tuple("HookCell").field(&installed).finish()
    }
}

#[derive(Debug)]
struct Shared {
    clock: Clock,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
    trace: TraceBuffer,
    incident_hook: HookCell,
}

/// The no-op telemetry handle: every instrument it hands out does
/// nothing, every query returns nothing. Attaching this to an engine is
/// free — the hot paths test one `Option` and move on.
pub fn disabled() -> Telemetry {
    Telemetry { inner: None }
}

/// A cheaply cloneable handle on one node's observability state; see the
/// crate docs. `Default` is [`disabled()`].
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Shared>>,
}

fn assert_name(name: &str) {
    debug_assert!(
        !name.is_empty() && !name.contains(char::is_whitespace) && !name.contains('#'),
        "metric name {name:?} must be non-empty with no whitespace or '#'"
    );
}

/// Builds `base{key="value"}` — a metric name with one embedded label.
/// The value must not contain whitespace, `"` or `#` (socket addresses,
/// shard indices and tenant ids are all fine).
pub fn labeled(base: &str, key: &str, value: impl std::fmt::Display) -> String {
    let name = format!("{base}{{{key}=\"{value}\"}}");
    assert_name(&name);
    name
}

impl Telemetry {
    /// Enabled telemetry on the production (monotonic) clock with the
    /// default trace capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_clock(Clock::monotonic(), DEFAULT_TRACE_CAPACITY)
    }

    /// Enabled telemetry on an explicit clock (pass [`Clock::manual`]
    /// for deterministic tests) and trace ring capacity.
    pub fn with_clock(clock: Clock, trace_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Shared {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                trace: TraceBuffer::new(trace_capacity),
                incident_hook: HookCell::default(),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared clock (`None` when disabled).
    pub fn clock(&self) -> Option<Clock> {
        self.inner.as_ref().map(|s| s.clock.clone())
    }

    /// Current clock nanos; 0 when disabled.
    pub fn now_nanos(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.clock.now_nanos())
    }

    /// The named counter, created at zero on first use.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let name = name.into();
        assert_name(&name);
        Counter(self.inner.as_ref().map(|s| {
            let mut map = s.counters.lock().expect("counter map poisoned");
            Arc::clone(map.entry(name).or_default())
        }))
    }

    /// The named gauge, created at zero on first use.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        let name = name.into();
        assert_name(&name);
        Gauge(self.inner.as_ref().map(|s| {
            let mut map = s.gauges.lock().expect("gauge map poisoned");
            Arc::clone(map.entry(name).or_default())
        }))
    }

    /// The named histogram, created empty on first use.
    pub fn histogram(&self, name: impl Into<String>) -> Histo {
        let name = name.into();
        assert_name(&name);
        Histo(self.inner.as_ref().map(|s| {
            let mut map = s.hists.lock().expect("hist map poisoned");
            Arc::clone(map.entry(name).or_default())
        }))
    }

    /// Current value of a counter that has been registered, else `None`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let s = self.inner.as_ref()?;
        let map = s.counters.lock().expect("counter map poisoned");
        map.get(name).map(|c| c.load(Ordering::Relaxed))
    }

    /// Current value of a registered gauge, else `None`.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        let s = self.inner.as_ref()?;
        let map = s.gauges.lock().expect("gauge map poisoned");
        map.get(name).map(|g| g.load(Ordering::Relaxed))
    }

    /// A copy of a registered histogram, else `None`.
    pub fn histogram_snapshot(&self, name: &str) -> Option<Histogram> {
        let s = self.inner.as_ref()?;
        let map = s.hists.lock().expect("hist map poisoned");
        let h = Arc::clone(map.get(name)?);
        drop(map);
        let snap = h.lock().expect("histogram poisoned").clone();
        Some(snap)
    }

    /// Estimated `q`-quantile of a registered histogram.
    pub fn quantile(&self, name: &str, q: f64) -> Option<u64> {
        self.histogram_snapshot(name).map(|h| h.quantile(q))
    }

    /// Records an instantaneous trace event.
    pub fn point(&self, severity: Severity, key: &'static str, a: u64, b: u64) {
        self.point_traced(0, severity, key, a, b);
    }

    /// [`Telemetry::point`] correlated to a causal trace id.
    pub fn point_in(&self, trace: TraceCtx, severity: Severity, key: &'static str, a: u64, b: u64) {
        self.point_traced(trace.id, severity, key, a, b);
    }

    fn point_traced(&self, trace: u64, severity: Severity, key: &'static str, a: u64, b: u64) {
        if let Some(s) = &self.inner {
            s.trace.record(TraceEvent {
                at: s.clock.now_nanos(),
                severity,
                kind: TraceKind::Point,
                key,
                a,
                b,
                trace,
            });
        }
    }

    /// Opens a trace span: records a `Begin` event now and an `End`
    /// event (with elapsed nanos in `b`) when the returned guard drops.
    pub fn span(&self, key: &'static str, a: u64) -> Span {
        self.span_traced(0, key, a)
    }

    /// [`Telemetry::span`] correlated to a causal trace id: both the
    /// `Begin` and the `End` event carry the id.
    pub fn span_in(&self, trace: TraceCtx, key: &'static str, a: u64) -> Span {
        self.span_traced(trace.id, key, a)
    }

    fn span_traced(&self, trace: u64, key: &'static str, a: u64) -> Span {
        let start = match &self.inner {
            Some(s) => {
                let at = s.clock.now_nanos();
                s.trace.record(TraceEvent {
                    at,
                    severity: Severity::Debug,
                    kind: TraceKind::Begin,
                    key,
                    a,
                    b: 0,
                    trace,
                });
                at
            }
            None => 0,
        };
        Span {
            shared: self.inner.clone(),
            key,
            a,
            start,
            trace,
        }
    }

    /// Installs the [`Telemetry::incident`] hook (e.g. a flight-recorder
    /// dump). One hook per handle; installing replaces the previous one.
    pub fn set_incident_hook(&self, hook: IncidentHook) {
        if let Some(s) = &self.inner {
            *s.incident_hook.0.lock().expect("incident hook poisoned") = Some(hook);
        }
    }

    /// Records a `Warn` point for an operator-grade anomaly (quorum
    /// loss, drain timeout, durability error) and then fires the
    /// installed incident hook, if any. The event is in the ring
    /// *before* the hook runs, so a hook that snapshots the ring
    /// captures its own trigger; no ring lock is held across the call.
    ///
    /// The hook runs **synchronously on the caller's thread** — and
    /// incidents fire from already-degraded paths (a flush hitting a
    /// sick disk, a replication link failing), so an expensive hook
    /// must bound its own cost. The flight recorder's installed hook
    /// rate-limits dumps per incident key for exactly this reason.
    pub fn incident(&self, key: &'static str, a: u64, b: u64) {
        let Some(s) = &self.inner else { return };
        self.point(Severity::Warn, key, a, b);
        let hook = s
            .incident_hook
            .0
            .lock()
            .expect("incident hook poisoned")
            .clone();
        if let Some(hook) = hook {
            hook(key);
        }
    }

    /// The retained trace events, oldest first (empty when disabled).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.trace.events())
    }

    /// Sorted copies of the whole registry:
    /// `(counters, gauges, histograms)`.
    #[allow(clippy::type_complexity)]
    pub fn registry_contents(
        &self,
    ) -> (
        Vec<(String, u64)>,
        Vec<(String, u64)>,
        Vec<(String, Histogram)>,
    ) {
        let Some(s) = &self.inner else {
            return (Vec::new(), Vec::new(), Vec::new());
        };
        let counters = s
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = s
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
            .collect();
        let hists = s
            .hists
            .lock()
            .expect("hist map poisoned")
            .iter()
            .map(|(n, h)| (n.clone(), h.lock().expect("histogram poisoned").clone()))
            .collect();
        (counters, gauges, hists)
    }

    /// Renders the registry in Prometheus text format (the `metrics`
    /// command of [`ObsServer`]); empty when disabled.
    pub fn render_text(&self) -> String {
        let (counters, gauges, hists) = self.registry_contents();
        render::render_registry(&counters, &gauges, &hists)
    }

    /// [`Telemetry::render_text`] restricted to instruments whose name
    /// starts with `prefix` (label suffixes included: `cluster_` matches
    /// `cluster_link_acked_seq{replica="…"}`). Lets a fleet aggregator
    /// poll just its derived-signal inputs instead of the full registry.
    pub fn render_text_filtered(&self, prefix: &str) -> String {
        let (mut counters, mut gauges, mut hists) = self.registry_contents();
        counters.retain(|(n, _)| n.starts_with(prefix));
        gauges.retain(|(n, _)| n.starts_with(prefix));
        hists.retain(|(n, _)| n.starts_with(prefix));
        render::render_registry(&counters, &gauges, &hists)
    }

    /// Renders the newest [`DEFAULT_TRACE_RENDER_CAP`] trace events (the
    /// `trace` command of [`ObsServer`]). Use
    /// [`Telemetry::render_trace_last`] to page deeper.
    pub fn render_trace(&self) -> String {
        self.render_trace_last(DEFAULT_TRACE_RENDER_CAP)
    }

    /// Renders the newest `limit` trace events as text, one event per
    /// line, oldest first (the `trace <n>` command of [`ObsServer`]).
    /// The header says how much of the ring is shown, so a truncated
    /// view is never mistaken for the whole history.
    pub fn render_trace_last(&self, limit: usize) -> String {
        let events = self.trace_events();
        let skip = events.len().saturating_sub(limit);
        let shown = &events[skip..];
        let mut out = format!(
            "# trace: showing {} of {} event(s), oldest first: at severity kind key a b trace\n",
            shown.len(),
            events.len()
        );
        for e in shown {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{} {} {} {} {} {} {}",
                e.at,
                e.severity.as_str(),
                e.kind.as_str(),
                e.key,
                e.a,
                e.b,
                e.trace
            );
        }
        out
    }
}

/// A monotonically increasing `u64` instrument. Lock-free; no-op when
/// its [`Telemetry`] is disabled.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins `u64` instrument. Lock-free; no-op when disabled.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A shared handle on a registered [`Histogram`]. Recording takes a
/// mutex — record per batch, not per request, on hot paths (see the
/// crate docs).
#[derive(Clone, Debug, Default)]
pub struct Histo(Option<Arc<Mutex<Histogram>>>);

impl Histo {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().expect("histogram poisoned").record(v);
        }
    }

    /// A copy of the current contents (empty when disabled).
    pub fn snapshot(&self) -> Histogram {
        self.0.as_ref().map_or_else(Histogram::new, |h| {
            h.lock().expect("histogram poisoned").clone()
        })
    }

    /// Whether this handle actually records (its telemetry is enabled).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Guard returned by [`Telemetry::span`]; records the `End` event (with
/// elapsed nanos) when dropped.
#[derive(Debug)]
pub struct Span {
    shared: Option<Arc<Shared>>,
    key: &'static str,
    a: u64,
    start: u64,
    trace: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = &self.shared {
            let at = s.clock.now_nanos();
            s.trace.record(TraceEvent {
                at,
                severity: Severity::Debug,
                kind: TraceKind::End,
                key: self.key,
                a: self.a,
                b: at.saturating_sub(self.start),
                trace: self.trace,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = disabled();
        assert!(!t.is_enabled());
        let c = t.counter("x_total");
        c.add(5);
        assert_eq!(c.get(), 0);
        t.gauge("g").set(7);
        t.histogram("h_nanos").record(9);
        t.point(Severity::Info, "ev", 1, 2);
        drop(t.span("s", 0));
        assert!(t.trace_events().is_empty());
        assert_eq!(t.render_text(), "");
        assert_eq!(t.counter_value("x_total"), None);
    }

    #[test]
    fn instruments_share_state_by_name() {
        let t = Telemetry::with_clock(Clock::manual(), 16);
        let a = t.counter("reqs_total");
        let b = t.counter("reqs_total");
        a.add(3);
        b.inc();
        assert_eq!(t.counter_value("reqs_total"), Some(4));

        t.gauge("jobs").set(11);
        assert_eq!(t.gauge_value("jobs"), Some(11));

        let h = t.histogram("lat_nanos");
        t.histogram("lat_nanos").record(100);
        t.histogram("lat_nanos").record(200);
        h.record(300);
        assert_eq!(t.histogram_snapshot("lat_nanos").unwrap().count(), 3);
        assert_eq!(t.quantile("lat_nanos", 1.0), Some(300));
    }

    #[test]
    fn spans_use_the_shared_clock() {
        let clock = Clock::manual();
        let t = Telemetry::with_clock(clock.clone(), 16);
        {
            let _s = t.span("flush", 42);
            clock.advance(1_000);
        }
        let evs = t.trace_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, TraceKind::Begin);
        assert_eq!(evs[1].kind, TraceKind::End);
        assert_eq!(evs[1].b, 1_000, "elapsed nanos in b");
        assert_eq!(evs[1].a, 42);
        let text = t.render_trace();
        assert!(text.contains("debug end flush 42 1000"), "{text}");
    }

    #[test]
    fn traced_events_carry_the_context_id() {
        let clock = Clock::manual();
        let t = Telemetry::with_clock(clock.clone(), 16);
        let tc = TraceCtx::mint(7, 3);
        t.point_in(tc, Severity::Info, "receipt", 1, 2);
        {
            let _s = t.span_in(tc, "flush", 5);
            clock.advance(100);
        }
        t.point(Severity::Debug, "untraced", 0, 0);
        let evs = t.trace_events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].trace, tc.id);
        assert_eq!(evs[1].trace, tc.id, "span begin");
        assert_eq!(evs[2].trace, tc.id, "span end");
        assert_eq!(evs[3].trace, 0, "plain events stay untraced");
        let text = t.render_trace();
        assert!(
            text.contains(&format!("info point receipt 1 2 {}", tc.id)),
            "{text}"
        );
    }

    #[test]
    fn render_trace_last_caps_and_reports_truncation() {
        let t = Telemetry::with_clock(Clock::manual(), 32);
        for i in 0..10u64 {
            t.point(Severity::Debug, "tick", i, 0);
        }
        let text = t.render_trace_last(3);
        assert!(
            text.starts_with("# trace: showing 3 of 10 event(s)"),
            "{text}"
        );
        // Newest 3 survive; older ones are paged out.
        assert!(text.contains("tick 9 0"), "{text}");
        assert!(text.contains("tick 7 0"), "{text}");
        assert!(!text.contains("tick 6 0"), "{text}");
        // The default render shows everything when under the cap.
        let full = t.render_trace();
        assert!(
            full.starts_with("# trace: showing 10 of 10 event(s)"),
            "{full}"
        );
    }

    #[test]
    fn filtered_render_keeps_only_the_prefix() {
        let t = Telemetry::with_clock(Clock::manual(), 16);
        t.counter("cluster_frames_total").add(3);
        t.counter(labeled("cluster_link_acked_seq", "replica", "a"))
            .add(9);
        t.gauge("service_inflight").set(2);
        t.histogram("engine_flush_nanos").record(50);
        let text = t.render_text_filtered("cluster_");
        assert_eq!(parse_sample(&text, "cluster_frames_total"), Some(3));
        assert!(text.contains("cluster_link_acked_seq"), "{text}");
        assert!(!text.contains("service_inflight"), "{text}");
        assert!(!text.contains("engine_flush_nanos"), "{text}");
        // The unfiltered render still has everything.
        assert_eq!(parse_sample(&t.render_text(), "service_inflight"), Some(2));
    }

    #[test]
    fn incident_records_then_fires_hook_with_ring_visible() {
        use std::sync::atomic::AtomicUsize;
        let t = Telemetry::with_clock(Clock::manual(), 16);
        let seen = Arc::new(Mutex::new(Vec::<(String, usize)>::new()));
        let hook_seen = Arc::clone(&seen);
        let hook_tel = t.clone();
        let calls = Arc::new(AtomicUsize::new(0));
        let hook_calls = Arc::clone(&calls);
        t.set_incident_hook(Arc::new(move |key: &'static str| {
            hook_calls.fetch_add(1, Ordering::SeqCst);
            // The hook can render the ring (no lock is held) and must
            // see the triggering event already recorded.
            let events = hook_tel.trace_events();
            hook_seen
                .lock()
                .unwrap()
                .push((key.to_string(), events.len()));
        }));
        t.incident("quorum_lost", 2, 1);
        t.incident("drain_timeout", 0, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], ("quorum_lost".to_string(), 1));
        assert_eq!(seen[1], ("drain_timeout".to_string(), 2));
        let evs = t.trace_events();
        assert_eq!(evs[0].severity, Severity::Warn);
        assert_eq!(evs[0].key, "quorum_lost");
        // Disabled handles stay inert, hook installation included.
        let d = disabled();
        d.set_incident_hook(Arc::new(|_| panic!("never fires")));
        d.incident("quorum_lost", 0, 0);
    }
}
