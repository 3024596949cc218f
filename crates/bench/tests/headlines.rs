//! Ratchets on the headline values of the modelled figures.
//!
//! Each test pins today's headline values of one figure of
//! [`reis_bench::figures`] within ±1 % and prints the paper's figure beside
//! each (`cargo test -p reis-bench --test headlines -- --nocapture`). A
//! change that moves a headline pins the new value here in the same commit,
//! so every move of the gap to the paper is a reviewed diff. The paper's
//! figures are the ones the printed text quotes; none has been checked
//! against the paper's text.

use reis_bench::calibration::measure_pass_fraction;
use reis_bench::figures::{self, Figure};
use reis_bench::fullscale::{headline, sweep};
use reis_core::ReisConfig;
use reis_workloads::{DatasetProfile, SyntheticDataset};

/// Assert that `figure`'s headlines are `pinned`, by name and in order, each
/// value within ±1 % of its pin.
fn ratchet(figure: Figure, pinned: &[(&str, f64)]) {
    let names: Vec<&str> = figure.headlines.iter().map(|h| h.name).collect();
    let pinned_names: Vec<&str> = pinned.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, pinned_names, "every headline is pinned, in order");
    for (h, &(_, pin)) in figure.headlines.iter().zip(pinned) {
        println!(
            "{}: {:.4} (pinned {pin}; paper: {})",
            h.name, h.value, h.paper
        );
        assert!(
            (h.value - pin).abs() <= 0.01 * pin.abs(),
            "{}: {} moved more than 1 % from its pinned {pin} (paper: {}); \
             if the move is meant, pin the new value in the same commit",
            h.name,
            h.value,
            h.paper
        );
    }
}

#[test]
fn fig07_speedups_over_cpu_real() {
    ratchet(
        figures::fig07_retrieval_qps(),
        &[
            ("speedup_vs_cpu_geomean", 3.2100495046743296),
            ("speedup_vs_cpu_max", 10.223591515389051),
            ("ssd2_over_ssd1_geomean", 2.0649106338450647),
        ],
    );
}

#[test]
fn fig08_energy_gains_and_the_paper_gap() {
    ratchet(
        figures::fig08_energy_efficiency(),
        &[
            ("energy_gain_vs_cpu_geomean", 8.150932634997522),
            ("energy_gain_vs_cpu_max", 17.756078408074934),
            ("gap_pct", 60.3559314070187),
        ],
    );
}

#[test]
fn fig09_optimization_ladder() {
    ratchet(
        figures::fig09_sensitivity(),
        &[
            ("ladder_r090_ssd1_no_opt", 0.9461828107560655),
            ("ladder_r090_ssd1_df", 5.6248379240863615),
            ("ladder_r090_ssd1_pl", 10.213724486125551),
            ("ladder_r090_ssd1_mpibc", 10.223591515389051),
            ("df_over_no_opt_ssd1", 6.078855818765582),
            ("mpibc_over_df_pl_ssd1_pct", 0.04545266246358537),
        ],
    );
}

#[test]
fn fig10_speedup_over_ice() {
    ratchet(
        figures::fig10_vs_ice(),
        &[("speedup_vs_ice_geomean", 10.501004671150366)],
    );
}

#[test]
fn fig11_speedup_over_ndsearch() {
    ratchet(
        figures::fig11_vs_ndsearch(),
        &[("speedup_vs_ndsearch_geomean", 7.296142848818729)],
    );
}

#[test]
fn asic_slowdown() {
    ratchet(
        figures::asic_comparison(),
        &[("asic_slowdown_geomean", 6.293076763315564)],
    );
}

#[test]
fn table04_rag_speedups() {
    ratchet(
        figures::table04_end_to_end(),
        &[
            ("rag_speedup_hotpotqa", 1.119775516707356),
            ("rag_speedup_nq", 1.0696721725258658),
        ],
    );
}

/// The sweep's gap, on the inputs the fixed benchmark's `paper_fullscale`
/// calibrates (seed 33, 1,024 entries × 8 queries; `calibrate`'s pass
/// fraction is [`measure_pass_fraction`] on them), equals the
/// `paper_gap_pct` that workload reports, and the gap fig08 computes.
#[test]
fn the_sweep_gap_equals_the_fixed_benchmarks_paper_gap() {
    const PAPER_GAP_PCT: f64 = 60.3559314070187;
    let threshold = ReisConfig::ssd1().filter_threshold_fraction;
    let calibrated: Vec<(DatasetProfile, f64)> = DatasetProfile::main_evaluation()
        .into_iter()
        .map(|profile| {
            let scaled = profile.clone().scaled(1_024).with_queries(8);
            let dataset = SyntheticDataset::generate(scaled, 33);
            (profile, measure_pass_fraction(&dataset, threshold))
        })
        .collect();
    let rows = sweep(&calibrated);
    assert_eq!(rows.len(), 16);
    let gap = headline(&rows).gap_pct;
    assert!(
        (gap - PAPER_GAP_PCT).abs() <= 1e-9 * PAPER_GAP_PCT,
        "gap_pct {gap} differs from paper_fullscale's {PAPER_GAP_PCT}"
    );
    let fig08 = figures::fig08_energy_efficiency();
    let from_fig08 = fig08
        .headlines
        .iter()
        .find(|h| h.name.starts_with("gap_pct"));
    assert_eq!(from_fig08.map(|h| h.value), Some(gap));
}
