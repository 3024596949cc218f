//! Drift test: a smoke run of every workload, untraced and traced, emits
//! exactly the names the catalogue (and with it `BENCHMARK.json`) declares.

use std::collections::BTreeSet;
use std::path::Path;

use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::{catalogue_mismatches, result_line};
use crate::workloads::{self, RunCfg, Scale};

#[test]
fn a_smoke_run_of_every_workload_emits_exactly_the_catalogue() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(
        "REIS_SCHED_WORKERS",
        crate::sched_workers(nproc).to_string(),
    );
    let mut layer_names = BTreeSet::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 47,
                seconds: 0.2,
                trace,
                scale: Scale::smoke(),
                nproc,
                work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("work"),
            };
            let report = workloads::run(workload.name, &cfg)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name));
            let mismatches = catalogue_mismatches(&report, trace);
            assert!(
                mismatches.is_empty(),
                "{} (trace {trace}): {mismatches:?}",
                workload.name
            );
            assert!(
                report.tally.correct(),
                "{} (trace {trace}) failed its output checks: {:?}",
                workload.name,
                report.tally.messages
            );
            assert!(report.tally.attempted > 0);
            assert!(result_line(&report, trace).starts_with("{\"correct\":true,"));
            if trace {
                assert!(
                    report.spans.is_some(),
                    "{} recorded no spans",
                    workload.name
                );
                layer_names.extend(report.metrics.iter().map(|(name, _)| *name));
            } else {
                // Every workload reports every end-to-end metric (checked by
                // `catalogue_mismatches`), so the set is the table itself.
                assert_eq!(report.metrics.len(), END_TO_END.len());
            }
        }
    }
    let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(
        layer_names, declared,
        "the traced smoke runs and the per-layer catalogue differ"
    );
}
