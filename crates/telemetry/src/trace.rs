//! Per-query trace spans and the on-demand per-page explain trace.
//!
//! Traces are recorded once per query *after* the engine has finished —
//! never from inside a scan loop — so they cannot perturb execution.
//! Both stores are bounded rings: a long-running server keeps the most
//! recent traces and drops the oldest.

use std::collections::VecDeque;

/// How many query traces the ring keeps before dropping the oldest.
pub const TRACE_RING_CAPACITY: usize = 64;

/// How many explain traces the ring keeps before dropping the oldest.
pub const EXPLAIN_RING_CAPACITY: usize = 4;

/// One stage of a query's lifecycle, with both clocks.
///
/// `wall_ns` is host wall-clock time actually spent in the stage;
/// `modelled_ns` is the [`PerfModel`]'s device-time estimate for the
/// same stage (zero where no model term exists, e.g. aggregator-side
/// merging).
///
/// [`PerfModel`]: https://docs.rs/reis-core
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static stage label (`"coarse_scan"`, `"fine_scan"`, `"rerank"`,
    /// `"doc_fetch"`, `"merge"`, `"leaf"` …).
    pub stage: &'static str,
    /// Disambiguator for repeated stages (leaf index of a `"leaf"`
    /// span, window index of a `"window"` span); 0 elsewhere.
    pub index: u32,
    /// Wall-clock nanoseconds spent in the stage.
    pub wall_ns: u64,
    /// Modelled device nanoseconds for the stage.
    pub modelled_ns: u64,
}

/// The full lifecycle trace of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Monotonic trace sequence number (per telemetry handle).
    pub sequence: u64,
    /// What produced the trace (`"search"`, `"batch"`, `"fused_batch"`,
    /// `"cluster_search"` …).
    pub kind: &'static str,
    /// Stage spans in execution order.
    pub spans: Vec<Span>,
}

impl QueryTrace {
    /// Total modelled nanoseconds across all spans.
    pub fn modelled_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.modelled_ns).sum()
    }
}

/// One fine-scan page observation of an explain trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainEvent {
    /// Position of the page in the query's deterministic page order.
    pub page: u32,
    /// The adaptive window the page was scanned under (0 for static
    /// scans).
    pub window: u32,
    /// Embedding slots scanned on the page.
    pub slots: u32,
    /// Entries that passed the distance filter on the page.
    pub passed: u32,
}

/// The per-page scan trace of one query, captured on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainTrace {
    /// The trace sequence number it was captured under.
    pub sequence: u64,
    /// Per-page events in deterministic page order.
    pub events: Vec<ExplainEvent>,
}

impl ExplainTrace {
    /// Total entries passed across all pages.
    pub fn total_passed(&self) -> u64 {
        self.events.iter().map(|e| e.passed as u64).sum()
    }
}

/// A bounded FIFO ring of trace records.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` records.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Append, dropping the oldest record when full.
    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
    }

    /// The most recent record.
    pub(crate) fn last(&self) -> Option<&T> {
        self.items.back()
    }

    /// Number of records currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let mut ring = Ring::new(3);
        assert_eq!(ring.len(), 0);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.items, [2, 3, 4]);
        assert_eq!(ring.last(), Some(&4));
    }

    #[test]
    fn trace_totals_sum_spans() {
        let trace = QueryTrace {
            sequence: 7,
            kind: "search",
            spans: vec![
                Span {
                    stage: "coarse_scan",
                    index: 0,
                    wall_ns: 10,
                    modelled_ns: 100,
                },
                Span {
                    stage: "fine_scan",
                    index: 0,
                    wall_ns: 32,
                    modelled_ns: 900,
                },
            ],
        };
        assert_eq!(trace.modelled_ns(), 1000);
        let explain = ExplainTrace {
            sequence: 7,
            events: vec![
                ExplainEvent {
                    page: 0,
                    window: 0,
                    slots: 64,
                    passed: 3,
                },
                ExplainEvent {
                    page: 1,
                    window: 0,
                    slots: 64,
                    passed: 2,
                },
            ],
        };
        assert_eq!(explain.total_passed(), 5);
    }
}
