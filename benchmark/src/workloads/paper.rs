//! `paper_fullscale`: the full-scale `PerfModel` / `EnergyModel` sweep
//! against the CPU-Real baseline, exactly as `fig07_retrieval_qps` and
//! `fig08_energy_efficiency` compute it — plus the headline ratios and
//! their gap to the paper, which every other workload reports too.

use std::hint::black_box;

use reis::baseline::{CpuPrecision, CpuSystem};
use reis::core::{ReisConfig, ReisSystem};
use reis::workloads::{DatasetProfile, SyntheticDataset};
use reis_bench::calibration::calibrate;
use reis_bench::fullscale::{estimate_reis, ReisEstimate, SearchMode};

use crate::calib::Calibrator;
use crate::checks::{Tally, K};
use crate::harness::{self, measure};
use crate::stats;
use crate::trace::TraceRecorder;

use super::{median_setup, Report, RunCfg};

/// Queries the CPU baseline amortises its dataset load over (as in fig07).
const QUERY_BATCH: usize = 1_000;
/// The Recall@10 targets of the IVF rows (as in fig07).
const RECALLS: [f64; 3] = [0.98, 0.94, 0.90];
/// Entries, queries and dataset seed of the functional calibration run (as
/// in fig07, so the headline ratios here are the ones fig07/fig08 print).
const CALIBRATION_ENTRIES: usize = 1_024;
const CALIBRATION_QUERIES: usize = 8;
const CALIBRATION_SEED: u64 = 33;

/// Sweeps per timed call. One sweep takes about 6 µs, too short for a
/// percentile of it to show anything but timer and interrupt jitter.
const SWEEPS_PER_CALL: usize = 32;

/// The paper's headline ratios.
const PAPER_SPEEDUP_VS_CPU: f64 = 13.0;
const PAPER_SSD2_OVER_SSD1: f64 = 2.6;
const PAPER_ENERGY_GAIN_VS_CPU: f64 = 55.0;

/// One dataset profile with what the functional calibration measured.
pub struct Calibrated {
    profile: DatasetProfile,
    pass_fraction: f64,
    /// Recall@10 of the BQ + rerank search at the widest probe setting.
    recall_full_probe: f64,
}

/// Generate and calibrate the four main-evaluation datasets.
pub fn calibrate_all() -> Vec<Calibrated> {
    let threshold = ReisConfig::ssd1().filter_threshold_fraction;
    DatasetProfile::main_evaluation()
        .into_iter()
        .map(|profile| {
            let scaled = profile
                .clone()
                .scaled(CALIBRATION_ENTRIES)
                .with_queries(CALIBRATION_QUERIES);
            let dataset = SyntheticDataset::generate(scaled, CALIBRATION_SEED);
            let calibration = calibrate(&dataset, threshold, K);
            Calibrated {
                profile,
                pass_fraction: calibration.pass_fraction,
                recall_full_probe: calibration.recall_curve.last().map_or(0.0, |&(_, r)| r),
            }
        })
        .collect()
}

/// One row of fig07/fig08: a dataset at brute force or one recall target.
pub struct Row {
    cpu_qps: f64,
    cpu_qps_per_watt: f64,
    ssd1: ReisEstimate,
    ssd2: ReisEstimate,
}

/// Evaluate every row: 4 datasets × (brute force + 3 IVF recall targets).
pub fn sweep(calibrated: &[Calibrated]) -> Vec<Row> {
    let cpu = CpuSystem::default();
    let (ssd1, ssd2) = (ReisConfig::ssd1(), ReisConfig::ssd2());
    let mut rows = Vec::with_capacity(calibrated.len() * (1 + RECALLS.len()));
    for cal in calibrated {
        let profile = &cal.profile;
        let mut row = |nprobe: Option<usize>, mode: SearchMode, precision: CpuPrecision| {
            let cpu_real = cpu.cpu_real(profile, QUERY_BATCH, nprobe, precision);
            rows.push(Row {
                cpu_qps: cpu_real.qps(),
                cpu_qps_per_watt: cpu_real.qps_per_watt(),
                ssd1: estimate_reis(profile, &ssd1, mode, cal.pass_fraction, K),
                ssd2: estimate_reis(profile, &ssd2, mode, cal.pass_fraction, K),
            });
        };
        row(None, SearchMode::BruteForce, CpuPrecision::Float32);
        for recall in RECALLS {
            // The device-side recall heuristic at full scale, as fig07 does.
            let nprobe_fraction = ReisSystem::nprobe_for_recall(profile.full_nlist, recall) as f64
                / profile.full_nlist as f64;
            let nprobe = ((profile.full_nlist as f64 * nprobe_fraction) as usize).max(1);
            row(
                Some(nprobe),
                SearchMode::Ivf { nprobe_fraction },
                CpuPrecision::BinaryWithRerank,
            );
        }
    }
    rows
}

/// The headline ratios of a sweep and their distance from the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Geometric-mean QPS of REIS-SSD1 over CPU-Real (paper: 13×).
    pub speedup_vs_cpu_geomean: f64,
    /// Largest such speed-up (paper: 112×).
    pub speedup_vs_cpu_max: f64,
    /// Geometric-mean QPS of REIS-SSD2 over REIS-SSD1 (paper: 2.6×).
    pub ssd2_over_ssd1_geomean: f64,
    /// Geometric-mean QPS/W of REIS-SSD1 over CPU-Real (paper: 55×).
    pub energy_gain_vs_cpu_geomean: f64,
    /// Largest such gain (paper: 157×).
    pub energy_gain_vs_cpu_max: f64,
    /// Mean absolute relative gap of the three geometric means to the
    /// paper's 13× / 2.6× / 55×, %.
    pub gap_pct: f64,
}

/// Reduce a sweep to its headline ratios.
pub fn headline(rows: &[Row]) -> Headline {
    let speedups: Vec<f64> = rows.iter().map(|r| r.ssd1.qps / r.cpu_qps).collect();
    let ssd2_over_ssd1: Vec<f64> = rows.iter().map(|r| r.ssd2.qps / r.ssd1.qps).collect();
    let gains: Vec<f64> = rows
        .iter()
        .map(|r| r.ssd1.qps_per_watt / r.cpu_qps_per_watt)
        .collect();
    let max = |values: &[f64]| values.iter().copied().fold(0.0, f64::max);
    let speedup = stats::geomean(&speedups);
    let ssd2 = stats::geomean(&ssd2_over_ssd1);
    let gain = stats::geomean(&gains);
    let gaps = [
        (speedup - PAPER_SPEEDUP_VS_CPU).abs() / PAPER_SPEEDUP_VS_CPU,
        (ssd2 - PAPER_SSD2_OVER_SSD1).abs() / PAPER_SSD2_OVER_SSD1,
        (gain - PAPER_ENERGY_GAIN_VS_CPU).abs() / PAPER_ENERGY_GAIN_VS_CPU,
    ];
    Headline {
        speedup_vs_cpu_geomean: speedup,
        speedup_vs_cpu_max: max(&speedups),
        ssd2_over_ssd1_geomean: ssd2,
        energy_gain_vs_cpu_geomean: gain,
        energy_gain_vs_cpu_max: max(&gains),
        gap_pct: stats::mean(&gaps) * 100.0,
    }
}

/// `paper_gap_pct`, for the workloads that only report the gap.
pub fn gap_pct() -> f64 {
    headline(&sweep(&calibrate_all())).gap_pct
}

/// Run the workload. Set-up is the functional calibration; the measured
/// operation is [`SWEEPS_PER_CALL`] sweeps of the full-scale models over all
/// sixteen rows.
pub fn run(cfg: &RunCfg, calibrator: &Calibrator) -> Result<Report, String> {
    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps };
    let (calibrated, setup_s) = median_setup(reps, calibrate_all);

    let mut tally = Tally::new();
    let rows = sweep(&calibrated);
    let reference = headline(&rows);
    tally.invariant(rows.len() == 16, || {
        format!("the sweep has {} rows, not 16", rows.len())
    });
    tally.invariant(
        rows.iter().all(|r| {
            [r.cpu_qps, r.ssd1.qps, r.ssd2.qps, r.ssd1.qps_per_watt]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0)
        }),
        || "a full-scale estimate is not a positive finite number".into(),
    );

    // One phase either way: no telemetry exists on this path, so a traced
    // run only adds the benchmark-side span of each sweep.
    let blocks = if cfg.trace {
        cfg.scale.traced_blocks
    } else {
        cfg.scale.blocks
    };
    let mut recorder = cfg.trace.then(TraceRecorder::new);
    let measured = measure(calibrator, blocks, cfg.seconds, |_, block| {
        while block.open() {
            let started = std::time::Instant::now();
            let rows = block.call(1, || {
                let mut rows = Vec::new();
                for _ in 0..SWEEPS_PER_CALL {
                    rows = sweep(black_box(&calibrated));
                }
                rows
            });
            if let Some(recorder) = recorder.as_mut() {
                let ns = started.elapsed().as_nanos() as u64;
                recorder.call("paper_fullscale.sweep", started, ns, None, 1);
            }
            // The models are pure functions: every sweep must reproduce
            // the reference to the last bit.
            tally.op(if headline(&rows) == reference {
                Ok(())
            } else {
                Err("a repeated sweep changed the headline ratios".into())
            });
        }
    });

    let ssd1_latency_ns: Vec<u64> = rows.iter().map(|r| r.ssd1.latency.as_nanos()).collect();
    if cfg.trace {
        let model_us_per_call =
            ssd1_latency_ns.iter().sum::<u64>() as f64 / 1e3 * SWEEPS_PER_CALL as f64;
        let mut report = Report::new(tally);
        report.push_host_layer(&measured, true, model_us_per_call);
        report.push(
            "perf.speedup_vs_cpu_geomean",
            reference.speedup_vs_cpu_geomean,
        );
        report.push("perf.speedup_vs_cpu_max", reference.speedup_vs_cpu_max);
        report.push(
            "perf.ssd2_over_ssd1_geomean",
            reference.ssd2_over_ssd1_geomean,
        );
        report.push(
            "energy.gain_vs_cpu_geomean",
            reference.energy_gain_vs_cpu_geomean,
        );
        report.push("energy.gain_vs_cpu_max", reference.energy_gain_vs_cpu_max);
        report.spans = recorder;
        return Ok(report);
    }

    let mut report = Report::new(tally);
    report.push_host_end_to_end(&measured, setup_s, harness::peak_rss_mb());
    // The model clock of this workload is REIS-SSD1 over the sixteen rows.
    let ssd1_qps: Vec<f64> = rows.iter().map(|r| r.ssd1.qps).collect();
    let ssd1_qps_per_watt: Vec<f64> = rows.iter().map(|r| r.ssd1.qps_per_watt).collect();
    report.push_model_end_to_end(stats::geomean(&ssd1_qps), &ssd1_latency_ns);
    report.push("model_qps_per_watt", stats::geomean(&ssd1_qps_per_watt));
    let recalls: Vec<f64> = calibrated.iter().map(|c| c.recall_full_probe).collect();
    report.push("recall_at_10", stats::mean(&recalls));
    report.push("paper_gap_pct", reference.gap_pct);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gap_is_the_mean_relative_distance_to_the_papers_ratios() {
        let calibrated = calibrate_all();
        let rows = sweep(&calibrated);
        assert_eq!(rows.len(), 16);
        let h = headline(&rows);
        let expected = ((h.speedup_vs_cpu_geomean - 13.0).abs() / 13.0
            + (h.ssd2_over_ssd1_geomean - 2.6).abs() / 2.6
            + (h.energy_gain_vs_cpu_geomean - 55.0).abs() / 55.0)
            / 3.0
            * 100.0;
        assert!((h.gap_pct - expected).abs() < 1e-9);
        assert!(h.speedup_vs_cpu_max >= h.speedup_vs_cpu_geomean);
        assert!(h.energy_gain_vs_cpu_max >= h.energy_gain_vs_cpu_geomean);
        // Same inputs, same bits.
        assert_eq!(headline(&sweep(&calibrated)), h);
    }
}
