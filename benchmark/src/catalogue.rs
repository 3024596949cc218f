//! The metric and workload catalogue: every name this benchmark may print,
//! with its unit, direction and clock. `BENCHMARK.json` at the repository
//! root is rendered from these tables (`reis-perf catalogue`), and a test
//! keeps the two from drifting apart.

use crate::json::{Json, JsonExt};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time (or memory) of the simulator: noisy, hence bounded loosely.
    Host,
    /// The `PerfModel` / `EnergyModel` device clock, a count or a recall:
    /// a pure function of the inputs, so two runs of one commit agree
    /// exactly.
    Exact,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The printed name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// The printed unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Which clock it is read from.
    pub clock: Clock,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for layer metrics, which carry none).
    pub bound: f64,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Exact,
        bound,
    }
}

use Better::{Higher, Lower};

/// Unit of a time on the model clock. It is spelled differently from the
/// host clock's `us` so that no reader or tool adds or compares the two.
const MODEL_US: &str = "model_us";

/// End-to-end metrics: what a user of the system would see. Every workload
/// prints every one of them.
///
/// The exact metrics are read on the pinned dataset (corpus, query set,
/// arrival and mutation traces, fig07's calibration sets) and do not depend
/// on `--seed`, so their bound is as small as a bound can usefully be.
/// `compare` goes further and demands that they match to the printed digit.
///
/// The host-clock bounds are what the judge's repeatability rule leaves
/// room for, not what one would wish for: the inter-quartile spread of ten
/// runs of one commit must stay inside the bound, and on the 2-core shared
/// sandbox the first baseline was recorded on that spread reached 15 % for
/// throughput, 14 % for the median latency and 21 % for the p95
/// (`benchmark/README.md`, "Noise"), while the medians of two such sets
/// stayed within 8 % of each other. `compare` marks a host metric
/// *unresolved* when the blocks' own spread straddles the bound.
pub const END_TO_END: &[MetricDef] = &[
    host("wall_qps", "1/s", Higher, 0.25),
    host("wall_p50_us", "us", Lower, 0.25),
    host("wall_p95_us", "us", Lower, 0.25),
    host("setup_s", "s", Lower, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.05),
    exact("model_qps", "1/s", Higher, 0.02),
    exact("model_p50_us", MODEL_US, Lower, 0.02),
    exact("model_p99_us", MODEL_US, Lower, 0.02),
    exact("model_qps_per_watt", "1/J", Higher, 0.02),
    exact("recall_at_10", "ratio", Higher, 0.02),
    exact("paper_gap_pct", "%", Lower, 0.02),
];

const fn layer_host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    host(name, unit, better, 0.0)
}

const fn layer_exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    exact(name, unit, better, 0.0)
}

/// Per-layer metrics, named `<layer>.<metric>` with the crate names as
/// layers. A workload prints the ones defined for it; the others read 0 on
/// the one-line result the contract asks for.
pub const PER_LAYER: &[MetricDef] = &[
    // The harness itself.
    layer_host("host.calib_ms", "ms", Lower),
    layer_host("host.raw_wall_qps", "1/s", Higher),
    layer_host("host.block_spread_pct", "%", Lower),
    layer_host("host.wall_p99_us", "us", Lower),
    layer_host("host.cpu_us_per_op", "us", Lower),
    layer_host("host.cores_busy", "count", Higher),
    layer_host("host.wall_over_model", "ratio", Lower),
    layer_exact("host.fail_ratio", "ratio", Lower),
    // reis-kernels.
    layer_host("kernels.scan_ns_per_page", "ns", Lower),
    layer_host("kernels.scan_us_per_op", "us", Lower),
    layer_host("kernels.scan_gbps", "GB/s", Higher),
    layer_host("kernels.crc32c_gbps", "GB/s", Higher),
    // reis-nand.
    layer_exact("nand.pages_sensed_per_op", "count", Lower),
    layer_exact("nand.pages_programmed_per_op", "count", Lower),
    layer_host("nand.page_read_ns", "ns", Lower),
    layer_host("nand.oob_unpack_ns_per_entry", "ns", Lower),
    // reis-ssd.
    layer_exact("ssd.entries_scanned_per_op", "count", Lower),
    layer_exact("ssd.entries_transferred_per_op", "count", Lower),
    layer_exact("ssd.filter_pass_ratio", "ratio", Lower),
    // reis-ann.
    layer_host("ann.quantize_us", "us", Lower),
    layer_host("ann.select_us_per_op", "us", Lower),
    layer_host("ann.rerank_us_per_op", "us", Lower),
    layer_exact("ann.rerank_candidates_per_op", "count", Lower),
    layer_host("ann.kmeans_build_s", "s", Lower),
    // reis-core: the existing query spans, both clocks.
    layer_host("core.broadcast_us", "us", Lower),
    layer_host("core.coarse_scan_us", "us", Lower),
    layer_host("core.fine_scan_us", "us", Lower),
    layer_host("core.rerank_us", "us", Lower),
    layer_host("core.doc_fetch_us", "us", Lower),
    layer_host("core.unattributed_pct", "%", Lower),
    layer_exact("core.model.broadcast_us", MODEL_US, Lower),
    layer_exact("core.model.coarse_scan_us", MODEL_US, Lower),
    layer_exact("core.model.fine_scan_us", MODEL_US, Lower),
    layer_exact("core.model.select_us", MODEL_US, Lower),
    layer_exact("core.model.rerank_us", MODEL_US, Lower),
    layer_exact("core.model.doc_fetch_us", MODEL_US, Lower),
    layer_exact("core.model.host_transfer_us", MODEL_US, Lower),
    layer_exact("core.fine_windows_per_op", "count", Lower),
    layer_exact("core.energy_uj_per_op", "uJ", Lower),
    layer_host("core.deploy_s", "s", Lower),
    layer_host("core.search_under_update_p50_us", "us", Lower),
    layer_exact("core.mutation_model_us", MODEL_US, Lower),
    // reis-core's request pipeline (virtual time unless noted).
    layer_exact("pipeline.mean_batch", "count", Higher),
    layer_exact("pipeline.queue_wait_p50_us", MODEL_US, Lower),
    layer_exact("pipeline.queue_wait_p99_us", MODEL_US, Lower),
    layer_exact("pipeline.shed", "count", Lower),
    layer_host("pipeline.submit_us", "us", Lower),
    layer_exact("pipeline.p99_us_at_half", MODEL_US, Lower),
    layer_exact("pipeline.p99_us_at_1x", MODEL_US, Lower),
    layer_exact("pipeline.p99_us_at_2x", MODEL_US, Lower),
    layer_exact("pipeline.max_rate_under_limit_qps", "1/s", Higher),
    // reis-sched.
    layer_host("sched.scope_dispatch_us", "us", Lower),
    layer_host("sched.dispatch_us_per_op", "us", Lower),
    // reis-update.
    layer_host("update.insert_us", "us", Lower),
    layer_host("update.delete_us", "us", Lower),
    layer_host("update.upsert_us", "us", Lower),
    layer_exact("update.segment_entries_peak", "count", Lower),
    layer_exact("update.tombstones_peak", "count", Lower),
    layer_host("update.compact_ms", "ms", Lower),
    layer_exact("update.compact_pages_rewritten", "count", Lower),
    // reis-persist.
    layer_host("persist.wal_overhead_us_per_op", "us", Lower),
    layer_exact("persist.wal_bytes_per_op", "B", Lower),
    layer_exact("persist.snapshot_bytes_per_entry", "B", Lower),
    layer_host("persist.save_ms", "ms", Lower),
    layer_host("persist.recover_ms", "ms", Lower),
    layer_host("persist.recover_records_per_s", "1/s", Higher),
    // reis-cluster: the existing `cluster_search` spans.
    layer_host("cluster.leaf_us", "us", Lower),
    layer_host("cluster.slowest_leaf_us", "us", Lower),
    layer_host("cluster.merge_us", "us", Lower),
    layer_host("cluster.doc_fetch_us", "us", Lower),
    layer_exact("cluster.candidates_merged_per_op", "count", Lower),
    layer_exact("cluster.retries", "count", Lower),
    layer_host("cluster.overhead_vs_single_pct", "%", Lower),
    // reis-telemetry.
    layer_host("telemetry.overhead_pct", "%", Lower),
    // The full-scale models against the paper.
    layer_exact("perf.speedup_vs_cpu_geomean", "x", Higher),
    layer_exact("perf.speedup_vs_cpu_max", "x", Higher),
    layer_exact("perf.ssd2_over_ssd1_geomean", "x", Higher),
    layer_exact("energy.gain_vs_cpu_geomean", "x", Higher),
    layer_exact("energy.gain_vs_cpu_max", "x", Higher),
];

/// One workload: its name and the one line on why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The seven workloads, in suite order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "bf_single",
        why: "brute-force scan, one query per call: kernels, page sense/OOB and intra-query sharding dominate; rerank and fetch are small",
    },
    WorkloadDef {
        name: "bf_batch8",
        why: "same scan layer fused page-major over 8 queries: a single-query trick that costs the fused path shows here",
    },
    WorkloadDef {
        name: "ivf_single",
        why: "IVF nprobe 8 scans 1/8 of the pages, so quantise, coarse scan, select, rerank and fetch dominate; kernel changes predict no change",
    },
    WorkloadDef {
        name: "pipeline_overload",
        why: "open-loop Poisson arrivals at 6x the service rate through the batching pipeline: the only workload where batching policy moves a number",
    },
    WorkloadDef {
        name: "mutate_durable",
        why: "seeded insert/delete/upsert trace with interleaved reads on a WAL-backed system, then compact, save, crash, recover: writes beside reads",
    },
    WorkloadDef {
        name: "cluster4_bf",
        why: "the bf_single corpus behind a 4-leaf cluster: same scan work plus fan-out, lifted-order merge and per-leaf fetch",
    },
    WorkloadDef {
        name: "paper_fullscale",
        why: "full-scale PerfModel/EnergyModel sweep against CPU-Real exactly as fig07/fig08: tracks the gap to the paper's 13x / 2.6x / 55x",
    },
];

/// How long one run measures, seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 6;

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate name {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate name {:?}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    }

    #[test]
    fn sizes_and_bounds_fit_the_contract() {
        assert_eq!(WORKLOADS.len(), 7);
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` at the repository root is exactly what the tables
    /// render to.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `reis-perf catalogue > BENCHMARK.json`"
        );
    }
}
