//! # reis-telemetry — observability for the REIS serving stack
//!
//! An allocation-free metric registry, per-query trace spans and
//! exporters, shared by every layer of the workspace (`reis-core`'s
//! engine and mutation paths, `reis-persist`'s durable store,
//! `reis-cluster`'s aggregator, and the benches).
//!
//! ## Design constraints
//!
//! * **Static keys.** Every metric is an enum variant
//!   ([`CounterId`], [`GaugeId`], [`HistogramId`]) indexing a fixed
//!   array of atomics — the hot path never hashes a string and never
//!   allocates.
//! * **Zero overhead when disabled.** A [`Telemetry`] handle wraps
//!   `Option<Arc<…>>`; every recording call starts with one branch on
//!   that option and compiles to nothing more when the handle is
//!   disabled (the default).
//! * **Provably non-perturbing when enabled.** Recording only *reads*
//!   values the engine already computed (`ScanCounts`, `FlashStats`,
//!   `LatencyBreakdown`) and happens at existing merge/barrier points
//!   or after a query completes — never inside a scan loop and never
//!   feeding back into control flow. The workspace's determinism gate
//!   runs the identity property suites with `REIS_TELEMETRY=1` to
//!   enforce that results and transferred-entry accounting stay
//!   bit-identical with telemetry on and off.
//!
//! ## Example
//!
//! ```
//! use reis_telemetry::{CounterId, HistogramId, Telemetry};
//!
//! let telemetry = Telemetry::enabled();
//! telemetry.count(CounterId::Queries, 1);
//! telemetry.observe(HistogramId::QueryWallNs, 12_345);
//! assert_eq!(telemetry.counter(CounterId::Queries), 1);
//! let scrape = telemetry.prometheus();
//! assert!(scrape.contains("reis_queries_total 1"));
//!
//! // Disabled handles record nothing and cost one branch per call.
//! let off = Telemetry::disabled();
//! off.count(CounterId::Queries, 1);
//! assert_eq!(off.counter(CounterId::Queries), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod registry;
mod trace;

pub use registry::{
    bucket_index, CounterId, GaugeId, Histogram, HistogramId, HistogramSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
use trace::Ring;
pub use trace::{
    ExplainEvent, ExplainTrace, QueryTrace, Span, EXPLAIN_RING_CAPACITY, TRACE_RING_CAPACITY,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The environment variable that enables telemetry at construction
/// sites honouring [`Telemetry::from_env`] (`REIS_TELEMETRY=1`).
pub const TELEMETRY_ENV: &str = "REIS_TELEMETRY";

#[derive(Debug)]
struct Inner {
    registry: Registry,
    traces: Mutex<Ring<QueryTrace>>,
    explains: Mutex<Ring<ExplainTrace>>,
    explain_armed: AtomicBool,
    next_sequence: AtomicU64,
}

/// The shared telemetry handle threaded through a system.
///
/// Cloning is cheap (an `Option<Arc>` copy); every clone records into
/// the same registry. The default handle is disabled.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: every recording call is a no-op after one
    /// branch, every read returns zero/empty.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh enabled handle with an all-zero registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                traces: Mutex::new(Ring::new(TRACE_RING_CAPACITY)),
                explains: Mutex::new(Ring::new(EXPLAIN_RING_CAPACITY)),
                explain_armed: AtomicBool::new(false),
                next_sequence: AtomicU64::new(0),
            })),
        }
    }

    /// Enabled iff the `REIS_TELEMETRY` environment variable is `1`
    /// (the knob the CI determinism gate flips), disabled otherwise.
    pub fn from_env() -> Self {
        if std::env::var(TELEMETRY_ENV).is_ok_and(|v| v == "1") {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- recording (all no-ops when disabled) --------------------------

    /// Add `by` to a counter.
    #[inline]
    pub fn count(&self, id: CounterId, by: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.count(id, by);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(id, value);
        }
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&self, id: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(id, value);
        }
    }

    /// Claim the next trace sequence number (0 when disabled).
    pub fn next_sequence(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_sequence.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Push a completed query trace into the bounded ring.
    pub fn record_trace(&self, trace: QueryTrace) {
        if let Some(inner) = &self.inner {
            inner.traces.lock().expect("trace ring lock").push(trace);
        }
    }

    // ---- explain mode --------------------------------------------------

    /// Arm explain mode: the next single query captures its per-page
    /// scan trace. No-op when disabled.
    pub fn arm_explain(&self) {
        if let Some(inner) = &self.inner {
            inner.explain_armed.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the next query should capture an explain trace.
    #[inline]
    pub fn explain_armed(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.explain_armed.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Deposit a captured explain trace and disarm.
    pub fn record_explain(&self, trace: ExplainTrace) {
        if let Some(inner) = &self.inner {
            inner.explain_armed.store(false, Ordering::Relaxed);
            inner
                .explains
                .lock()
                .expect("explain ring lock")
                .push(trace);
        }
    }

    /// The most recent explain trace, if any was captured.
    pub fn last_explain(&self) -> Option<ExplainTrace> {
        self.inner.as_ref().and_then(|inner| {
            inner
                .explains
                .lock()
                .expect("explain ring lock")
                .last()
                .cloned()
        })
    }

    // ---- reading -------------------------------------------------------

    /// Read a counter (0 when disabled).
    pub fn counter(&self, id: CounterId) -> u64 {
        match &self.inner {
            Some(inner) => inner.registry.counter(id),
            None => 0,
        }
    }

    /// Read a gauge (0 when disabled).
    pub fn gauge(&self, id: GaugeId) -> u64 {
        match &self.inner {
            Some(inner) => inner.registry.gauge(id),
            None => 0,
        }
    }

    /// Snapshot a histogram (empty when disabled).
    pub fn histogram(&self, id: HistogramId) -> HistogramSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.histogram(id),
            None => HistogramSnapshot {
                buckets: [0; HISTOGRAM_BUCKETS],
                count: 0,
                sum: 0,
            },
        }
    }

    /// The most recent query trace.
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.inner.as_ref().and_then(|inner| {
            inner
                .traces
                .lock()
                .expect("trace ring lock")
                .last()
                .cloned()
        })
    }

    // ---- exporters -----------------------------------------------------

    /// The Prometheus text-format scrape of the registry (empty string
    /// when disabled).
    pub fn prometheus(&self) -> String {
        match &self.inner {
            Some(inner) => export::prometheus(&inner.registry),
            None => String::new(),
        }
    }

    /// The JSON snapshot of the registry (`"{}"` when disabled). The
    /// schema is documented in `docs/BENCHMARKS.md` and validated by
    /// `reis_bench::artifacts`.
    pub fn json_snapshot(&self) -> String {
        match &self.inner {
            Some(inner) => export::json_snapshot(&inner.registry),
            None => String::from("{}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_and_reads_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count(CounterId::Queries, 10);
        t.observe(HistogramId::QueryWallNs, 10);
        t.gauge_set(GaugeId::Tombstones, 10);
        t.record_trace(QueryTrace {
            sequence: 0,
            kind: "search",
            spans: vec![],
        });
        t.arm_explain();
        assert!(!t.explain_armed());
        assert_eq!(t.counter(CounterId::Queries), 0);
        assert_eq!(t.gauge(GaugeId::Tombstones), 0);
        assert_eq!(t.histogram(HistogramId::QueryWallNs).count, 0);
        assert!(t.last_trace().is_none());
        assert!(t.last_explain().is_none());
        assert_eq!(t.prometheus(), "");
        assert_eq!(t.json_snapshot(), "{}");
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.count(CounterId::LeafRequests, 4);
        t.count(CounterId::LeafRequests, 1);
        assert_eq!(t.counter(CounterId::LeafRequests), 5);
        assert_eq!(clone.counter(CounterId::LeafRequests), 5);
        assert_eq!(t.next_sequence(), 0);
        assert_eq!(clone.next_sequence(), 1);
    }

    #[test]
    fn explain_arm_capture_disarm_cycle() {
        let t = Telemetry::enabled();
        t.arm_explain();
        assert!(t.explain_armed());
        t.record_explain(ExplainTrace {
            sequence: 3,
            events: vec![ExplainEvent {
                page: 0,
                window: 0,
                slots: 8,
                passed: 2,
            }],
        });
        assert!(!t.explain_armed());
        let explain = t.last_explain().expect("captured");
        assert_eq!(explain.sequence, 3);
        assert_eq!(explain.total_passed(), 2);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let t = Telemetry::enabled();
        for _ in 0..(TRACE_RING_CAPACITY + 10) {
            let sequence = t.next_sequence();
            t.record_trace(QueryTrace {
                sequence,
                kind: "search",
                spans: vec![Span {
                    stage: "fine_scan",
                    index: 0,
                    wall_ns: 1,
                    modelled_ns: 2,
                }],
            });
        }
        let inner = t.inner.as_ref().unwrap();
        assert_eq!(inner.traces.lock().unwrap().len(), TRACE_RING_CAPACITY);
        assert_eq!(
            t.last_trace().unwrap().sequence as usize,
            TRACE_RING_CAPACITY + 9
        );
    }
}
