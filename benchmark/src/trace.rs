//! Benchmark-side spans, recorded from outside the system.
//!
//! In a traced run every front-door call is wrapped in a span; its children
//! are the spans the system already records (`QueryTrace`, read back through
//! `Telemetry::last_trace`). Spans stay in memory and are written to
//! `trace-<workload>.json` when the run ends.

use std::time::Instant;

use reis::telemetry::QueryTrace;

use crate::json::{Json, JsonExt};

/// One span: a name, a start and end on the run's clock, the span that
/// caused it and the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`bf_single.search`, `fine_scan`, …).
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

/// Totals over the recorded calls, for the layer metrics.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Front-door calls recorded.
    pub calls: u64,
    /// Host nanoseconds of the calls.
    pub call_ns: u64,
    /// Host nanoseconds covered by child spans.
    pub child_ns: u64,
    /// Per child stage: summed host nanoseconds, in first-seen order.
    pub stages: Vec<(String, u64)>,
    /// Summed host nanoseconds of the slowest `leaf` span of each call.
    pub slowest_leaf_ns: u64,
    /// `leaf` spans seen.
    pub leaf_spans: u64,
}

impl SpanTotals {
    /// Mean host microseconds per call spent in `stage`.
    pub fn stage_us_per_call(&self, stage: &str) -> f64 {
        let ns = self
            .stages
            .iter()
            .find(|(name, _)| name == stage)
            .map_or(0, |(_, ns)| *ns);
        ns as f64 / 1e3 / self.calls.max(1) as f64
    }

    /// Mean host microseconds of one `leaf` span.
    pub fn mean_leaf_us(&self) -> f64 {
        self.stage_us_per_call("leaf") * self.calls as f64 / self.leaf_spans.max(1) as f64
    }

    /// Share of the calls' host time no child span covers, %.
    pub fn unattributed_pct(&self) -> f64 {
        if self.call_ns == 0 {
            return 0.0;
        }
        self.call_ns.saturating_sub(self.child_ns) as f64 / self.call_ns as f64 * 100.0
    }
}

/// Spans kept per run; calls past it still count into the totals. (A
/// microsecond-scale operation would otherwise write a trace file of
/// hundreds of megabytes.)
const MAX_SPANS: usize = 50_000;

/// The in-memory span store of one traced run.
pub struct TraceRecorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    totals: SpanTotals,
    next_request: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        TraceRecorder {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: SpanTotals::default(),
            next_request: 0,
        }
    }

    /// Record one front-door call that started at `started` and took
    /// `call_ns`, with the system's own trace of it (if it recorded one).
    /// `share` scales the child spans: a fused batch records one trace per
    /// query, each holding that query's share of the batch, so a batch call
    /// passes its batch size and the last query's trace.
    pub fn call(
        &mut self,
        name: &str,
        started: Instant,
        call_ns: u64,
        system_trace: Option<&QueryTrace>,
        share: u64,
    ) {
        let request = self.next_request;
        self.next_request += 1;
        let start_ns = started.duration_since(self.origin).as_nanos() as u64;
        let parent = self.spans.len();
        let keep = parent < MAX_SPANS;
        if keep {
            self.spans.push(SpanRecord {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns + call_ns,
                parent: None,
                request,
            });
        }
        self.totals.calls += 1;
        self.totals.call_ns += call_ns;

        // The system records stage durations, not start times; stages run
        // one after another, so lay them end to end from the call's start.
        let mut cursor = start_ns;
        let mut slowest_leaf = 0u64;
        for span in system_trace.map_or(&[][..], |t| t.spans.as_slice()) {
            let wall = span.wall_ns * share;
            if wall == 0 {
                continue;
            }
            let label = if span.stage.starts_with("leaf") {
                slowest_leaf = slowest_leaf.max(wall);
                self.totals.leaf_spans += 1;
                "leaf"
            } else {
                span.stage
            };
            if keep {
                self.spans.push(SpanRecord {
                    name: format!("{}[{}]", span.stage, span.index),
                    start_ns: cursor,
                    end_ns: cursor + wall,
                    parent: Some(parent),
                    request,
                });
            }
            cursor += wall;
            self.totals.child_ns += wall;
            match self
                .totals
                .stages
                .iter_mut()
                .find(|(name, _)| name == label)
            {
                Some((_, total)) => *total += wall,
                None => self.totals.stages.push((label.to_string(), wall)),
            }
        }
        self.totals.slowest_leaf_ns += slowest_leaf;
    }

    /// The totals so far.
    pub fn totals(&self) -> &SpanTotals {
        &self.totals
    }

    /// The spans so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("calls", Json::Num(self.totals.calls as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis::telemetry::Span;

    fn system_trace() -> QueryTrace {
        let span = |stage, index, wall_ns| Span {
            stage,
            index,
            wall_ns,
            modelled_ns: 0,
        };
        QueryTrace {
            sequence: 1,
            kind: "cluster_search",
            spans: vec![
                span("leaf", 0, 300),
                span("leaf_hedged", 1, 500),
                span("select", 0, 0),
                span("merge", 0, 100),
            ],
        }
    }

    #[test]
    fn children_are_laid_end_to_end_under_their_call() {
        let mut recorder = TraceRecorder::new();
        let started = Instant::now();
        recorder.call(
            "cluster4_bf.search",
            started,
            1_000,
            Some(&system_trace()),
            1,
        );
        recorder.call("cluster4_bf.search", started, 1_000, None, 1);

        let spans = recorder.spans();
        assert_eq!(spans.len(), 5, "zero-length stages are not recorded");
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..4]
            .iter()
            .all(|s| s.parent == Some(0) && s.request == 0));
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
        assert_eq!(spans[3].end_ns - spans[0].start_ns, 900);
        assert_eq!(spans[4].request, 1);

        let totals = recorder.totals();
        assert_eq!(
            (totals.calls, totals.call_ns, totals.child_ns),
            (2, 2_000, 900)
        );
        assert!((totals.unattributed_pct() - 55.0).abs() < 1e-9);
        assert!((totals.stage_us_per_call("leaf") - 0.4).abs() < 1e-12);
        assert_eq!((totals.slowest_leaf_ns, totals.leaf_spans), (500, 2));
        assert!((totals.mean_leaf_us() - 0.4).abs() < 1e-12);
        assert_eq!(totals.stage_us_per_call("absent"), 0.0);

        let doc = recorder.to_json("cluster4_bf");
        assert!(matches!(doc.get("spans"), Some(Json::Arr(spans)) if spans.len() == 5));
    }

    #[test]
    fn a_batch_call_scales_the_last_querys_share() {
        let mut recorder = TraceRecorder::new();
        recorder.call(
            "bf_batch8.search_batch",
            Instant::now(),
            10_000,
            Some(&system_trace()),
            8,
        );
        assert_eq!(recorder.totals().child_ns, 900 * 8);
    }
}
