//! Turning a workload's [`Report`] into what the benchmark prints and
//! writes: one `workload metric value unit` line per metric, one JSON file
//! per workload, and the one-line JSON result the contract asks for.

use std::path::{Path, PathBuf};

use crate::catalogue::{self, Clock, MetricDef};
use crate::json::{format_number, Json, JsonExt};
use crate::workloads::{Report, RunCfg};

/// Where the workspace keeps `.git`, for the commit recorded in results.
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(root.join(".git").join(reference))
            .map_or_else(|| "unknown".into(), |hash| hash.trim().to_string()),
        None => head.to_string(),
    }
}

/// The metric table a run of this kind must fill.
fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        catalogue::PER_LAYER
    } else {
        catalogue::END_TO_END
    }
}

/// Names in the report that the catalogue does not know, and (for an
/// untraced run, where every workload reports every end-to-end metric)
/// catalogue names the report lacks. Both are bugs in a workload.
pub fn catalogue_mismatches(report: &Report, trace: bool) -> Vec<String> {
    let table = table(trace);
    let mut problems: Vec<String> = report
        .metrics
        .iter()
        .filter(|(name, _)| !table.iter().any(|m| m.name == *name))
        .map(|(name, _)| format!("metric {name} is not in the catalogue"))
        .collect();
    for (i, (name, _)) in report.metrics.iter().enumerate() {
        if report.metrics[..i]
            .iter()
            .any(|(earlier, _)| earlier == name)
        {
            problems.push(format!("metric {name} reported twice"));
        }
    }
    if !trace {
        for m in table {
            match report.metrics.iter().find(|(name, _)| *name == m.name) {
                None => problems.push(format!("end-to-end metric {} is missing", m.name)),
                Some((_, value)) if !(value.is_finite() && *value > 0.0) => {
                    problems.push(format!("end-to-end metric {} is {value}", m.name));
                }
                Some(_) => {}
            }
        }
    }
    problems
}

/// The one-line result: every metric of the run's kind, the ones a workload
/// does not define reading 0.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics = table(trace).iter().map(|m| {
        let value = report
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map_or(0.0, |(_, v)| *v);
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.tally.correct())),
        ("attempted", Json::Num(report.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(report.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// The `workload metric value unit` lines, one per reported metric.
pub fn metric_lines(workload: &str, report: &Report, trace: bool) -> Vec<String> {
    report
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = table(trace)
                .iter()
                .find(|m| m.name == *name)
                .map_or("?", |m| m.unit);
            format!("{workload} {name} {} {unit}", format_number(*value))
        })
        .collect()
}

/// The per-workload result document.
pub fn result_document(workload: &str, report: &Report, cfg: &RunCfg) -> Json {
    let metrics = report.metrics.iter().map(|(name, value)| {
        let def = catalogue::find(name);
        let mut fields = vec![
            ("value", Json::Num(*value)),
            ("unit", Json::str(def.map_or("?", |m| m.unit))),
            (
                "clock",
                Json::str(match def.map(|m| m.clock) {
                    Some(Clock::Host) => "host",
                    _ => "exact",
                }),
            ),
        ];
        if let Some((_, spread)) = report.spreads.iter().find(|(n, _)| n == name) {
            fields.push(("block_spread_pct", Json::Num(*spread)));
        }
        (*name, Json::obj(fields))
    });
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "kind",
            Json::str(if cfg.trace { "per_layer" } else { "end_to_end" }),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("comparable", Json::Bool(!cfg.scale.smoke)),
        ("nproc", Json::Num(cfg.nproc as f64)),
        (
            "sched_workers",
            Json::Num(crate::sched_workers(cfg.nproc) as f64),
        ),
        ("git_commit", Json::str(git_commit())),
        (
            "blocks",
            Json::Arr(
                report
                    .block_log
                    .iter()
                    .map(|b| Json::Arr(b.iter().map(|v| Json::Num(*v)).collect()))
                    .collect(),
            ),
        ),
        ("samples", Json::Num(report.samples as f64)),
        ("attempted", Json::Num(report.tally.attempted as f64)),
        ("failed", Json::Num(report.tally.failed as f64)),
        ("fail_ratio", Json::Num(report.tally.fail_ratio())),
        ("correct", Json::Bool(report.tally.correct())),
        (
            "messages",
            Json::Arr(report.tally.messages.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// File name of a workload's result document.
pub fn result_file(workload: &str, trace: bool) -> String {
    if trace {
        format!("{workload}.trace.json")
    } else {
        format!("{workload}.json")
    }
}

/// Write the result document (and, for a traced run, the spans) under `out`.
///
/// # Errors
///
/// The I/O error, as text.
pub fn write_files(
    out: &Path,
    workload: &str,
    report: &Report,
    cfg: &RunCfg,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let write = |name: String, body: String| {
        let path = out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        result_file(workload, cfg.trace),
        result_document(workload, report, cfg).to_pretty(),
    )?;
    if let Some(spans) = &report.spans {
        write(
            format!("trace-{workload}.json"),
            spans.to_json(workload).to_line() + "\n",
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Tally;
    use crate::json::parse;
    use crate::workloads::Scale;

    fn cfg(trace: bool) -> RunCfg {
        RunCfg {
            seed: 47,
            seconds: 6.0,
            trace,
            scale: Scale::smoke(),
            nproc: 2,
            work_dir: PathBuf::from("unused"),
        }
    }

    fn full_untraced_report() -> Report {
        let mut report = Report::new(Tally::new());
        for (i, m) in catalogue::END_TO_END.iter().enumerate() {
            report.push(m.name, 1.5 + i as f64);
        }
        report.spreads.push(("wall_qps", 2.25));
        report.tally.op(Ok(()));
        report
    }

    #[test]
    fn the_result_line_carries_exactly_the_contract_keys() {
        let report = full_untraced_report();
        let line = result_line(&report, false);
        assert!(!line.contains('\n'));
        let parsed = parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), catalogue::END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("1/s"));
        assert!(catalogue_mismatches(&report, false).is_empty());
    }

    #[test]
    fn a_traced_line_lists_every_layer_metric_with_zero_for_the_undefined() {
        let mut report = Report::new(Tally::new());
        report.push("host.calib_ms", 10.5);
        let parsed = parse(&result_line(&report, true)).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), catalogue::PER_LAYER.len());
        let value = |name: &str| {
            parsed
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("host.calib_ms"), Some(10.5));
        assert_eq!(value("cluster.merge_us"), Some(0.0));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1.0));
        assert!(catalogue_mismatches(&report, true).is_empty());
    }

    #[test]
    fn unknown_missing_duplicate_and_zero_metrics_are_reported() {
        let mut report = full_untraced_report();
        report.push("made_up", 1.0);
        report.push("wall_qps", 2.0);
        report.metrics.retain(|(name, _)| *name != "setup_s");
        for (name, value) in &mut report.metrics {
            if *name == "recall_at_10" {
                *value = 0.0;
            }
        }
        let problems = catalogue_mismatches(&report, false).join("; ");
        for needle in [
            "made_up",
            "twice",
            "setup_s is missing",
            "recall_at_10 is 0",
        ] {
            assert!(problems.contains(needle), "{needle} not in {problems}");
        }
    }

    #[test]
    fn the_result_document_round_trips_through_its_file() {
        let report = full_untraced_report();
        let cfg = cfg(false);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("report-test-{}", std::process::id()));
        write_files(&dir, "bf_single", &report, &cfg).unwrap();
        let text = std::fs::read_to_string(dir.join(result_file("bf_single", false))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, result_document("bf_single", &report, &cfg));
        assert_eq!(parsed.get("comparable"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("seed").and_then(Json::as_f64), Some(47.0));
        let qps = parsed
            .get("metrics")
            .and_then(|m| m.get("wall_qps"))
            .unwrap();
        assert_eq!(
            qps.get("block_spread_pct").and_then(Json::as_f64),
            Some(2.25)
        );
        assert_eq!(qps.get("clock").and_then(Json::as_str), Some("host"));
        let lines = metric_lines("bf_single", &report, false);
        assert_eq!(lines[0], "bf_single wall_qps 1.5 1/s");
    }
}
