//! Exporters: Prometheus text format and a JSON snapshot.
//!
//! Both walk the registry off the hot path. The JSON snapshot is the
//! machine-readable form embedded in benchmark artifacts and validated
//! by `reis_bench::artifacts` (every number is emitted as a plain JSON
//! number, every name as a string — no custom types).

use std::fmt::Write as _;

use crate::registry::{CounterId, GaugeId, HistogramId, Registry, HISTOGRAM_BUCKETS};

/// Render the registry in the Prometheus text exposition format.
///
/// Histograms are rendered with cumulative `_bucket{le="..."}` series
/// up to the highest non-empty bucket, then `le="+Inf"`, `_sum` and
/// `_count`, matching what a Prometheus scraper expects.
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for id in CounterId::ALL {
        let value = registry.counter(id);
        let name = id.name();
        let _ = writeln!(out, "# HELP {name} {}", id.help());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for id in GaugeId::ALL {
        let value = registry.gauge(id);
        let name = id.name();
        let _ = writeln!(out, "# HELP {name} {}", id.help());
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for id in HistogramId::ALL {
        let snap = registry.histogram(id);
        let name = id.name();
        let _ = writeln!(out, "# HELP {name} {}", id.help());
        let _ = writeln!(out, "# TYPE {name} histogram");
        let highest = (0..HISTOGRAM_BUCKETS)
            .rev()
            .find(|&i| snap.buckets[i] != 0)
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &in_bucket) in snap.buckets.iter().enumerate().take(highest + 1) {
            cumulative += in_bucket;
            // Bucket i covers [2^(i-1), 2^i); integer samples in buckets
            // 0..=i are therefore all <= 2^i - 1 < 2^i.
            let le = if i >= 64 { u64::MAX } else { 1u64 << i };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{name}_sum {}", snap.sum);
        let _ = writeln!(out, "{name}_count {}", snap.count);
    }
    out
}

/// Render the registry as a JSON object:
///
/// ```json
/// {
///   "counters": { "reis_queries_total": 42, ... },
///   "gauges": { "reis_tombstones": 0, ... },
///   "histograms": {
///     "reis_query_wall_ns": { "count": 9, "sum": 1234,
///                             "mean": 137.1, "p50": 120.0,
///                             "p95": 300.0, "p99": 310.0 },
///     ...
///   }
/// }
/// ```
///
/// Quantiles are the log2-bucket approximations of
/// [`crate::HistogramSnapshot::quantile`].
pub fn json_snapshot(registry: &Registry) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, id) in CounterId::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {}",
            id.name(),
            registry.counter(*id)
        );
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, id) in GaugeId::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {}", id.name(), registry.gauge(*id));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, id) in HistogramId::ALL.iter().enumerate() {
        let snap = registry.histogram(*id);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"mean\": {:.1}, \
             \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1} }}",
            id.name(),
            snap.count,
            snap.sum,
            snap.mean(),
            snap.quantile(0.50),
            snap.quantile(0.95),
            snap.quantile(0.99),
        );
    }
    out.push_str("\n  }\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CounterId, HistogramId, Registry};

    #[test]
    fn prometheus_text_has_the_expected_series() {
        let registry = Registry::new();
        registry.count(CounterId::Queries, 5);
        registry.observe(HistogramId::QueryWallNs, 1000);
        registry.observe(HistogramId::QueryWallNs, 3);
        let text = prometheus(&registry);
        assert!(text.contains("# TYPE reis_queries_total counter"));
        assert!(text.contains("\nreis_queries_total 5\n"));
        assert!(text.contains("# TYPE reis_query_wall_ns histogram"));
        // Cumulative buckets: the le="1024" bucket covers both samples.
        assert!(text.contains("reis_query_wall_ns_bucket{le=\"1024\"} 2"));
        assert!(text.contains("reis_query_wall_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("reis_query_wall_ns_sum 1003"));
        assert!(text.contains("reis_query_wall_ns_count 2"));
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let registry = Registry::new();
        registry.count(CounterId::FineEntries, 77);
        registry.observe(HistogramId::FanoutNs, 2048);
        let json = json_snapshot(&registry);
        assert!(json.contains("\"reis_fine_entries_total\": 77"));
        assert!(json.contains("\"reis_fanout_ns\": { \"count\": 1"));
        // Braces and quotes balance (cheap well-formedness check; the
        // real parser check is `reis-bench`'s
        // `telemetry_json_snapshot_parses_into_its_three_sections`).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "unbalanced quotes");
    }
}
