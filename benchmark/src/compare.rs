//! `reis-perf compare A/ B/`: hold result set B against result set A under
//! the bounds of `BENCHMARK.json` — the tool behind both the repeatability
//! check (two runs of one commit) and every later before/after. Untraced
//! documents are compared over the end-to-end metrics, traced ones over the
//! exact per-layer metrics.

use std::path::Path;

use crate::catalogue::{Better, Clock, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, format_number, Json, JsonExt};
use crate::report::result_file;

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound (host clock) or identical (exact clock).
    Ok,
    /// An exact metric changed for the better.
    Changed,
    /// The sides' block spreads straddle the bound: neither "no worse than
    /// the bound" nor "worse than the bound" can be claimed.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
    /// Only one side reports the metric, so nothing can be judged.
    Missing,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Changed => "changed",
            Status::Unresolved => "unresolved",
            Status::Regression => "REGRESSION",
            Status::Missing => "MISSING",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// Block-to-block spread behind it, % (host metrics that have one).
    pub block_spread_pct: f64,
}

/// By how much B is worse than A, as a share of A (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one metric. `same_inputs` says both sides ran the same seed and
/// sizes, in which case an exact metric must match to the printed precision;
/// otherwise its bound applies like any other.
pub fn judge(
    clock: Clock,
    better: Better,
    bound: f64,
    a: Reading,
    b: Reading,
    same_inputs: bool,
) -> Status {
    let worse_by = worsening(better, a.value, b.value);
    if clock == Clock::Exact && same_inputs {
        return if format_number(a.value) == format_number(b.value) {
            Status::Ok
        } else if worse_by > 0.0 {
            Status::Regression
        } else {
            Status::Changed
        };
    }
    // Half the inter-quartile distance of the noisier side, as a share.
    let band = a.block_spread_pct.max(b.block_spread_pct) / 200.0;
    if worse_by - band > bound {
        Status::Regression
    } else if worse_by + band > bound {
        Status::Unresolved
    } else {
        Status::Ok
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Side A (the base of the ratio), if it reports the metric.
    pub a: Option<f64>,
    /// Side B, if it reports the metric.
    pub b: Option<f64>,
    /// How much worse B is, % of A.
    pub worse_pct: f64,
    /// The verdict.
    pub status: Status,
}

fn reading(document: &Json, metric: &str) -> Option<Reading> {
    let entry = document.get("metrics")?.get(metric)?;
    Some(Reading {
        value: entry.get("value")?.as_f64()?,
        block_spread_pct: entry
            .get("block_spread_pct")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    })
}

fn number(document: &Json, key: &str) -> f64 {
    document.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Compare two result documents of one workload and one kind: the untraced
/// documents row by row over the end-to-end metrics, the traced ones over
/// the per-layer metrics. Layer metrics carry no bound, so only the exact
/// ones are judged, and only on the same inputs, where they must match to
/// the printed digit. A metric only one side reports is a row of its own.
pub fn compare_documents(workload: &str, trace: bool, a: &Json, b: &Json) -> Vec<Row> {
    let same_inputs = ["seed", "seconds", "comparable"]
        .iter()
        .all(|key| a.get(key) == b.get(key));
    let row = |metric: &str, a: Option<f64>, b: Option<f64>, worse: f64, status| Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        a,
        b,
        worse_pct: worse * 100.0,
        status,
    };
    let mut rows = Vec::new();
    for def in if trace { PER_LAYER } else { END_TO_END } {
        match (reading(a, def.name), reading(b, def.name)) {
            (None, None) => {}
            (Some(ra), Some(rb)) => {
                if trace && !(def.clock == Clock::Exact && same_inputs) {
                    continue;
                }
                rows.push(row(
                    def.name,
                    Some(ra.value),
                    Some(rb.value),
                    worsening(def.better, ra.value, rb.value),
                    judge(def.clock, def.better, def.bound, ra, rb, same_inputs),
                ));
            }
            (ra, rb) => rows.push(row(
                def.name,
                ra.map(|r| r.value),
                rb.map(|r| r.value),
                0.0,
                Status::Missing,
            )),
        }
    }
    // Any rise in the share of failed operations is a regression.
    let (fa, fb) = (number(a, "fail_ratio"), number(b, "fail_ratio"));
    rows.push(row(
        if trace {
            "traced.fail_ratio"
        } else {
            "fail_ratio"
        },
        Some(fa),
        Some(fb),
        worsening(Better::Lower, fa, fb),
        if fb > fa || b.get("correct") == Some(&Json::Bool(false)) {
            Status::Regression
        } else {
            Status::Ok
        },
    ));
    rows
}

fn load(dir: &Path, workload: &str, trace: bool) -> Result<Option<Json>, String> {
    let path = dir.join(result_file(workload, trace));
    match std::fs::read_to_string(&path) {
        Ok(text) => json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Compare every result document both directories hold — untraced and
/// traced — print one row per workload x metric (ratio base: side A), and
/// return whether B passes: no regression, and no metric that only one side
/// reports.
///
/// # Errors
///
/// Unreadable or malformed result files, or no document in common.
pub fn run(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let file = result_file(workload.name, trace);
            match (
                load(a_dir, workload.name, trace)?,
                load(b_dir, workload.name, trace)?,
            ) {
                (Some(a), Some(b)) => {
                    if a.get("comparable") == Some(&Json::Bool(false))
                        || b.get("comparable") == Some(&Json::Bool(false))
                    {
                        println!(
                            "# {file}: a smoke run is on one side; numbers are not comparable"
                        );
                    }
                    rows.extend(compare_documents(workload.name, trace, &a, &b));
                }
                (None, None) => {}
                _ => println!("# {file}: present on one side only, skipped"),
            }
        }
    }
    if rows.is_empty() {
        return Err("the two directories share no result document".into());
    }
    println!(
        "{:<18} {:<32} {:>16} {:>16} {:>10}  status",
        "workload", "metric", "A (base)", "B", "worse %"
    );
    for row in &rows {
        println!(
            "{:<18} {:<32} {:>16} {:>16} {:>10.2}  {}",
            row.workload,
            row.metric,
            short(row.a),
            short(row.b),
            row.worse_pct,
            row.status.label()
        );
    }
    let count = |status| rows.iter().filter(|r| r.status == status).count();
    let (regressions, missing) = (count(Status::Regression), count(Status::Missing));
    println!(
        "# {} rows: {regressions} regression(s), {missing} reported by one side only, {} unresolved, {} exact metric(s) changed for the better",
        rows.len(),
        count(Status::Unresolved),
        count(Status::Changed),
    );
    Ok(regressions == 0 && missing == 0)
}

fn short(value: Option<f64>) -> String {
    match value {
        None => "-".to_string(),
        Some(value) if value.fract() == 0.0 && value.abs() < 1e15 => format!("{value}"),
        Some(value) => format!("{value:.6}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(value: f64, spread: f64) -> Reading {
        Reading {
            value,
            block_spread_pct: spread,
        }
    }

    #[test]
    fn worsening_is_direction_aware_with_a_as_base() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 200.0, 180.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 200.0, 220.0) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.25), f64::INFINITY);
    }

    #[test]
    fn host_metrics_are_judged_against_the_bound_and_the_spread() {
        let judge_host = |a, b| judge(Clock::Host, Better::Higher, 0.08, a, b, true);
        // (An 8 % bound for the example; the catalogue's are larger.)
        // 5 % slower, tight blocks: within the 8 % bound.
        assert_eq!(judge_host(host(1000.0, 1.0), host(950.0, 1.0)), Status::Ok);
        // 12 % slower, tight blocks: regression.
        assert_eq!(
            judge_host(host(1000.0, 1.0), host(880.0, 1.0)),
            Status::Regression
        );
        // 7 % slower but blocks spread 6 %: the band straddles the bound.
        assert_eq!(
            judge_host(host(1000.0, 6.0), host(930.0, 2.0)),
            Status::Unresolved
        );
        // 9 % slower with the same spread: also straddles.
        assert_eq!(
            judge_host(host(1000.0, 6.0), host(910.0, 2.0)),
            Status::Unresolved
        );
        // Faster is never a regression.
        assert_eq!(judge_host(host(1000.0, 6.0), host(1200.0, 6.0)), Status::Ok);
    }

    #[test]
    fn exact_metrics_must_match_to_the_printed_digit_on_the_same_inputs() {
        let exact = |a: f64, b: f64, same| {
            judge(
                Clock::Exact,
                Better::Lower,
                0.05,
                host(a, 0.0),
                host(b, 0.0),
                same,
            )
        };
        assert_eq!(exact(1743.25, 1743.25, true), Status::Ok);
        assert_eq!(exact(1743.25, 1743.2500001, true), Status::Regression);
        assert_eq!(exact(1743.25, 1700.0, true), Status::Changed);
        // Different seeds: the inputs differ, so the bound applies instead.
        assert_eq!(exact(1743.25, 1760.0, false), Status::Ok);
        assert_eq!(exact(1743.25, 1900.0, false), Status::Regression);
    }

    fn document(seed: f64, wall_qps: f64, model_qps: f64, failed: f64) -> Json {
        let metric = |value: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("block_spread_pct", Json::Num(1.0)),
            ])
        };
        Json::obj([
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(6.0)),
            ("comparable", Json::Bool(true)),
            ("fail_ratio", Json::Num(failed)),
            ("correct", Json::Bool(failed == 0.0)),
            (
                "metrics",
                Json::obj([
                    ("wall_qps", metric(wall_qps)),
                    ("model_qps", metric(model_qps)),
                ]),
            ),
        ])
    }

    #[test]
    fn documents_compare_row_by_row_and_failures_always_regress() {
        let a = document(47.0, 500.0, 574.0, 0.0);
        let same = compare_documents("bf_single", false, &a, &document(47.0, 490.0, 574.0, 0.0));
        assert_eq!(same.len(), 3, "two metrics present plus fail_ratio");
        assert!(same.iter().all(|r| r.status == Status::Ok));

        let worse = compare_documents("bf_single", false, &a, &document(47.0, 300.0, 570.0, 0.01));
        let status =
            |rows: &[Row], metric: &str| rows.iter().find(|r| r.metric == metric).map(|r| r.status);
        assert_eq!(status(&worse, "wall_qps"), Some(Status::Regression));
        assert_eq!(status(&worse, "model_qps"), Some(Status::Regression));
        assert_eq!(status(&worse, "fail_ratio"), Some(Status::Regression));

        let other_seed =
            compare_documents("bf_single", false, &a, &document(1013.0, 500.0, 573.0, 0.0));
        assert_eq!(status(&other_seed, "model_qps"), Some(Status::Ok));
    }

    fn traced(seed: f64, metrics: &[(&str, f64)]) -> Json {
        Json::obj([
            ("seed", Json::Num(seed)),
            ("fail_ratio", Json::Num(0.0)),
            ("correct", Json::Bool(true)),
            (
                "metrics",
                Json::obj(
                    metrics
                        .iter()
                        .map(|(name, value)| (*name, Json::obj([("value", Json::Num(*value))]))),
                ),
            ),
        ])
    }

    #[test]
    fn traced_documents_hold_exact_layer_metrics_to_the_digit() {
        let status =
            |rows: &[Row], metric: &str| rows.iter().find(|r| r.metric == metric).map(|r| r.status);
        let a = traced(
            47.0,
            &[
                ("nand.pages_sensed_per_op", 288.0),
                ("pipeline.shed", 0.0),
                ("host.calib_ms", 8.0),
                ("core.broadcast_us", 250.0),
            ],
        );
        // Host layer metrics carry no bound and are not judged; an exact one
        // that moved is, in its direction; one that vanished is reported.
        let b = traced(
            47.0,
            &[
                ("nand.pages_sensed_per_op", 288.5),
                ("pipeline.shed", 0.0),
                ("host.calib_ms", 16.0),
            ],
        );
        let rows = compare_documents("ivf_single", true, &a, &b);
        assert_eq!(
            status(&rows, "nand.pages_sensed_per_op"),
            Some(Status::Regression)
        );
        assert_eq!(status(&rows, "pipeline.shed"), Some(Status::Ok));
        assert_eq!(status(&rows, "host.calib_ms"), None);
        assert_eq!(status(&rows, "core.broadcast_us"), Some(Status::Missing));
        assert_eq!(status(&rows, "traced.fail_ratio"), Some(Status::Ok));
        let fewer = traced(47.0, &[("nand.pages_sensed_per_op", 280.0)]);
        let rows = compare_documents("ivf_single", true, &a, &fewer);
        assert_eq!(
            status(&rows, "nand.pages_sensed_per_op"),
            Some(Status::Changed)
        );
        // Other inputs: exact layer metrics cannot be held to anything.
        let rows = compare_documents(
            "ivf_single",
            true,
            &a,
            &traced(1013.0, &[("pipeline.shed", 3.0)]),
        );
        assert_eq!(status(&rows, "pipeline.shed"), None);
        assert_eq!(status(&rows, "host.calib_ms"), Some(Status::Missing));
    }
}
