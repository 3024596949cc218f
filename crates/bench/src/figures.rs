//! The paper's modelled figures and tables as data: each function returns
//! the text its binary in `src/bin/` prints and the headline values the
//! paper's claims are read against. `tests/figures_golden.rs` pins every
//! printed line, `tests/headlines.rs` every headline value. A figure that
//! prices a distance-filter pass fraction measures it on a scaled synthetic
//! dataset of its own (1,024 entries, 8 queries, its own seed).

use std::fmt::Write as _;

use reis_ann::metrics::recall_at_k;
use reis_ann::quantize::BinaryQuantizer;
use reis_baseline::{
    CpuPrecision, CpuSystem, IceModel, IceVariant, NdSearchAlgorithm, NdSearchModel, ReisAsicModel,
};
use reis_core::{Optimizations, PerfModel, ReisConfig};
use reis_rag::{RagBreakdown, RagPipeline, RagStage};
use reis_workloads::{DatasetProfile, GroundTruth, SyntheticDataset};

use crate::calibration::measure_pass_fraction;
use crate::fullscale::{
    estimate_reis, headline, ivf_at, sweep, SearchMode, K, QUERY_BATCH, RECALLS,
};
use crate::report::{self, geomean, normalized};

/// `println!` into a figure's text.
macro_rules! outln {
    ($fig:expr, $($arg:tt)*) => {{
        let _ = writeln!($fig.text, $($arg)*);
    }};
}

/// One figure or table of the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Everything the figure's binary prints.
    pub text: String,
    /// The values the paper's claims are read against, in print order.
    pub headlines: Vec<HeadlineValue>,
}

/// A headline value of a figure beside the paper's figure for it.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineValue {
    /// What the value is.
    pub name: &'static str,
    /// The value at full precision.
    pub value: f64,
    /// The paper's figure for it, as the printed text quotes it (not
    /// checked against the paper's text).
    pub paper: &'static str,
}

impl Figure {
    fn new(experiment: &str, description: &str) -> Self {
        Figure {
            text: report::header(experiment, description),
            headlines: Vec::new(),
        }
    }

    fn headline(&mut self, name: &'static str, value: f64, paper: &'static str) {
        self.headlines.push(HeadlineValue { name, value, paper });
    }

    /// Print the figure's text to stdout.
    pub fn print(&self) {
        print!("{}", self.text);
    }
}

/// Entries and queries of each figure's scaled calibration dataset.
const CALIBRATION_ENTRIES: usize = 1_024;
const CALIBRATION_QUERIES: usize = 8;

/// The scaled calibration dataset of `profile`, drawn with `seed`.
fn calibration_dataset(profile: &DatasetProfile, seed: u64) -> SyntheticDataset {
    let scaled = profile
        .clone()
        .scaled(CALIBRATION_ENTRIES)
        .with_queries(CALIBRATION_QUERIES);
    SyntheticDataset::generate(scaled, seed)
}

/// The distance-filter pass fraction at SSD1's threshold on `profile`'s
/// calibration dataset: the one calibration product the figures price.
fn pass_fraction(profile: &DatasetProfile, seed: u64) -> f64 {
    let threshold = ReisConfig::ssd1().filter_threshold_fraction;
    measure_pass_fraction(&calibration_dataset(profile, seed), threshold)
}

/// The four main-evaluation datasets with their pass fractions, as fig07
/// and fig08 (and the fixed benchmark's `paper_fullscale`) sweep them.
fn sweep_inputs() -> Vec<(DatasetProfile, f64)> {
    let profiles = DatasetProfile::main_evaluation().into_iter();
    profiles
        .map(|p| (p.clone(), pass_fraction(&p, 33)))
        .collect()
}

/// Every RAG stage's share of a breakdown, in %, one line each.
fn stage_shares(fig: &mut Figure, breakdown: &RagBreakdown) {
    outln!(fig, "  stage fractions:");
    for stage in RagStage::all() {
        let label = format!("{} (% of total)", stage.label());
        let share = breakdown.fraction(stage) * 100.0;
        outln!(fig, "    {label:<42} {share:>12.3}");
    }
}

/// Figure 2: the latency breakdown of a CPU RAG pipeline over a flat f32
/// index served from storage, on HotpotQA and wiki_en.
pub fn fig02_rag_breakdown() -> Figure {
    let mut fig = Figure::new(
        "Figure 2",
        "RAG pipeline latency breakdown, CPU retrieval over f32 embeddings",
    );
    let pipeline = RagPipeline::default();
    let cpu = CpuSystem::default();
    for profile in [DatasetProfile::hotpotqa(), DatasetProfile::wiki_en()] {
        let breakdown = pipeline.cpu_breakdown(&cpu, &profile, CpuPrecision::Float32);
        outln!(
            fig,
            "\n{name}  (full scale: {entries} entries, {gb:.1} GB loaded)  total = {total:.2} s",
            name = profile.name,
            entries = profile.full_entries,
            gb = profile.full_load_bytes_f32() as f64 / 1e9,
            total = breakdown.total(),
        );
        stage_shares(&mut fig, &breakdown);
        outln!(
            fig,
            "  retrieval stage (dataset loading + search): {:.1}% of end-to-end time",
            breakdown.retrieval_fraction() * 100.0
        );
    }
    outln!(
        fig,
        "\nPaper reference: dataset loading reaches 84% of the pipeline for wiki_en \
         and 46% for HotpotQA; the shape to check is that wiki_en's retrieval share \
         is far larger and grows with dataset size."
    );
    fig
}

/// Figure 3: the Fig. 2 breakdown when the embeddings are binary-quantized
/// (documents and INT8 rescoring data still move).
pub fn fig03_rag_breakdown_bq() -> Figure {
    let mut fig = Figure::new(
        "Figure 3",
        "RAG pipeline latency breakdown with Binary Quantization (CPU retrieval)",
    );
    let pipeline = RagPipeline::default();
    let cpu = CpuSystem::default();
    for profile in [DatasetProfile::hotpotqa(), DatasetProfile::wiki_en()] {
        let f32_breakdown = pipeline.cpu_breakdown(&cpu, &profile, CpuPrecision::Float32);
        let bq_breakdown = pipeline.cpu_breakdown(&cpu, &profile, CpuPrecision::BinaryWithRerank);
        outln!(
            fig,
            "\n{name}  (BQ load: {gb:.1} GB, of which documents {doc_gb:.1} GB)  total = {total:.2} s",
            name = profile.name,
            gb = profile.full_load_bytes_bq() as f64 / 1e9,
            doc_gb = profile.full_document_bytes() as f64 / 1e9,
            total = bq_breakdown.total(),
        );
        stage_shares(&mut fig, &bq_breakdown);
        outln!(
            fig,
            "  dataset-loading share: {:.1}% (was {:.1}% without BQ) — reduced but not eliminated",
            bq_breakdown.fraction(RagStage::DatasetLoading) * 100.0,
            f32_breakdown.fraction(RagStage::DatasetLoading) * 100.0,
        );
    }
    outln!(
        fig,
        "\nPaper reference: BQ cuts the I/O share by 17-29% but dataset loading still \
         accounts for ~67% of the wiki_en pipeline, because document chunks cannot be quantized."
    );
    fig
}

/// Figure 7: QPS of No-I/O, REIS-SSD1 and REIS-SSD2 normalized to CPU-Real
/// over the [`sweep`] of the four main datasets.
pub fn fig07_retrieval_qps() -> Figure {
    let mut fig = Figure::new(
        "Figure 7",
        "Retrieval QPS normalized to CPU-Real (higher is better)",
    );
    let inputs = sweep_inputs();
    let rows = sweep(&inputs);
    for ((profile, pass), rows) in inputs.iter().zip(rows.chunks(1 + RECALLS.len())) {
        let (name, entries) = (&profile.name, profile.full_entries);
        outln!(
            fig,
            "\n{name}: full scale {entries} entries; calibration on {CALIBRATION_ENTRIES} \
             entries (pass fraction {pass:.3})\n\
             configuration                      No-I/O      REIS-SSD1      REIS-SSD2"
        );
        for row in rows {
            let [no_io, ssd1, ssd2] = [row.no_io.qps(), row.ssd1.qps, row.ssd2.qps]
                .map(|qps| normalized(qps, row.cpu_real.qps()));
            let label = row.label();
            outln!(fig, "{label:<26} {no_io:>14.2} {ssd1:>14.2} {ssd2:>14.2}");
        }
    }
    let h = headline(&rows);
    let (speedup, ssd2) = (h.speedup_vs_cpu_geomean, h.ssd2_over_ssd1_geomean);
    outln!(
        fig,
        "\nGeometric-mean speedup of REIS-SSD1 over CPU-Real: {speedup:.1}x (paper: ~13x average, \
         up to 112x)\nGeometric-mean speedup of REIS-SSD2 over REIS-SSD1: {ssd2:.1}x (paper: ~2.6x \
         average)"
    );
    fig.headline("speedup_vs_cpu_geomean", speedup, "~13x");
    fig.headline("speedup_vs_cpu_max", h.speedup_vs_cpu_max, "112x");
    fig.headline("ssd2_over_ssd1_geomean", ssd2, "~2.6x");
    fig
}

/// Figure 8: energy efficiency (QPS/W) of REIS-SSD1 and REIS-SSD2
/// normalized to CPU-Real, over the same sweep as Fig. 7.
pub fn fig08_energy_efficiency() -> Figure {
    let mut fig = Figure::new(
        "Figure 8",
        "Energy efficiency (QPS/W) normalized to CPU-Real",
    );
    let inputs = sweep_inputs();
    let rows = sweep(&inputs);
    for rows in rows.chunks(1 + RECALLS.len()) {
        let name = &rows[0].profile.name;
        outln!(
            fig,
            "\n{name}:\nconfiguration                   REIS-SSD1      REIS-SSD2"
        );
        for row in rows {
            let [ssd1, ssd2] = [row.ssd1.qps_per_watt, row.ssd2.qps_per_watt]
                .map(|qps_per_watt| normalized(qps_per_watt, row.cpu_real.qps_per_watt()));
            outln!(fig, "{:<26} {ssd1:>14.1} {ssd2:>14.1}", row.label());
        }
    }
    let h = headline(&rows);
    let gain = h.energy_gain_vs_cpu_geomean;
    outln!(
        fig,
        "\nGeometric-mean energy-efficiency gain of REIS-SSD1 over CPU-Real: {gain:.0}x \
         (paper: ~55x average, up to 157x, driven by the ~30x lower SSD power)"
    );
    fig.headline("energy_gain_vs_cpu_geomean", gain, "~55x");
    fig.headline("energy_gain_vs_cpu_max", h.energy_gain_vs_cpu_max, "157x");
    fig.headline("gap_pct", h.gap_pct, "0");
    fig
}

/// Figure 9: REIS QPS over CPU-Real as DF, PL and MPIBC are switched on, on
/// wiki_full, for both SSDs.
pub fn fig09_sensitivity() -> Figure {
    let mut fig = Figure::new(
        "Figure 9",
        "Effect of DF / PL / MPIBC on throughput (wiki_full, normalized to CPU-Real)",
    );
    let profile = DatasetProfile::wiki_full();
    let pass_fraction = pass_fraction(&profile, 41);
    let cpu = CpuSystem::default();
    let ladder = [
        Optimizations::none(),
        Optimizations::df_only(),
        Optimizations::df_pl(),
        Optimizations::all(),
    ];
    for (ssd, base_config) in [("SSD1", ReisConfig::ssd1()), ("SSD2", ReisConfig::ssd2())] {
        outln!(
            fig,
            "\nREIS-{ssd}:\nRecall@10           NO-OPT         +DF         +PL      +MPIBC"
        );
        let mut df_gain = Vec::new();
        let mut mpibc_gain = Vec::new();
        for recall in [0.98, 0.96, 0.94, 0.92, 0.90] {
            let (nprobe, mode) = ivf_at(&profile, recall);
            let precision = CpuPrecision::BinaryWithRerank;
            let cpu_real = cpu.cpu_real(&profile, QUERY_BATCH, Some(nprobe), precision);
            let qps = ladder.map(|opts| {
                // Without distance filtering every scanned embedding crosses
                // the channel, so the pass fraction degenerates to 1.0.
                let pass = if opts.distance_filtering {
                    pass_fraction
                } else {
                    1.0
                };
                let config = base_config.with_optimizations(opts);
                estimate_reis(&profile, &config, mode, pass, K).qps
            });
            let [no_opt, df, pl, mpibc] = qps.map(|qps| normalized(qps, cpu_real.qps()));
            outln!(
                fig,
                "{recall:<14.2}{no_opt:>12.2}{df:>12.2}{pl:>12.2}{mpibc:>12.2}"
            );
            if ssd == "SSD1" && recall == 0.90 {
                fig.headline("ladder_r090_ssd1_no_opt", no_opt, "-");
                fig.headline("ladder_r090_ssd1_df", df, "-");
                fig.headline("ladder_r090_ssd1_pl", pl, "-");
                fig.headline("ladder_r090_ssd1_mpibc", mpibc, "-");
            }
            df_gain.push(qps[1] / qps[0]);
            mpibc_gain.push(qps[3] / qps[2]);
        }
        let df = geomean(&df_gain);
        let mpibc_pct = (geomean(&mpibc_gain) - 1.0) * 100.0;
        outln!(
            fig,
            "  DF speedup over NO-OPT: {df:.1}x geomean (paper: 4.7x / 5.7x for SSD1 / SSD2); \
             MPIBC over DF+PL: {mpibc_pct:.0}% (paper: 6% / 26%)"
        );
        if ssd == "SSD1" {
            fig.headline("df_over_no_opt_ssd1", df, "4.7x");
            fig.headline("mpibc_over_df_pl_ssd1_pct", mpibc_pct, "6%");
        }
    }
    fig
}

/// Figure 10: speed-up of REIS over the ICE in-flash search accelerator and
/// its idealised ICE-ESP variant, on the four main datasets.
pub fn fig10_vs_ice() -> Figure {
    let mut fig = Figure::new(
        "Figure 10",
        "Speedup of REIS over ICE (and ICE-ESP) per dataset and recall",
    );
    let configs = [ReisConfig::ssd1(), ReisConfig::ssd2()];
    let mut over_ice = Vec::new();
    for profile in DatasetProfile::main_evaluation() {
        let pass_fraction = pass_fraction(&profile, 55);
        outln!(
            fig,
            "\n{}:\nconfiguration             SSD1 vs ICE      SSD2 vs ICE  SSD1 vs ICE-ESP  \
             SSD2 vs ICE-ESP",
            profile.name
        );
        let mut settings = vec![("BF".into(), SearchMode::BruteForce, profile.full_entries)];
        for recall in RECALLS {
            let (nprobe, mode) = ivf_at(&profile, recall);
            let ice_entries = IceModel::ivf_entries(&profile, nprobe);
            settings.push((format!("IVF R@10={recall:.2}"), mode, ice_entries));
        }
        for (label, mode, ice_entries) in settings {
            let reis_qps =
                configs.map(|config| estimate_reis(&profile, &config, mode, pass_fraction, K).qps);
            let [ice1, ice2, esp1, esp2] = [
                (0, IceVariant::Published),
                (1, IceVariant::Published),
                (0, IceVariant::EspIdeal),
                (1, IceVariant::EspIdeal),
            ]
            .map(|(ssd, variant)| {
                reis_qps[ssd] / IceModel::new(configs[ssd], variant).qps(&profile, ice_entries, K)
            });
            outln!(
                fig,
                "{label:<20} {ice1:>15.1}x {ice2:>15.1}x {esp1:>15.1}x {esp2:>15.1}x"
            );
            over_ice.extend([ice1, ice2]);
        }
    }
    let over_ice = geomean(&over_ice);
    outln!(
        fig,
        "\nGeometric-mean speedup of REIS over ICE: {over_ice:.1}x (paper: 7.1x at R@10=0.90 \
         rising to 22.9x at 0.98 for SSD-2, and >10x for brute force; vs ICE-ESP the paper \
         reports 2-4x)"
    );
    fig.headline("speedup_vs_ice_geomean", over_ice, "7.1x-22.9x");
    fig
}

/// Figure 11: REIS (IVF, SSD2) against NDSearch running HNSW and DiskANN on
/// the billion-scale SIFT-1B and DEEP-1B collections.
pub fn fig11_vs_ndsearch() -> Figure {
    let mut fig = Figure::new(
        "Figure 11",
        "REIS throughput normalized to NDSearch (HNSW and DiskANN) on billion-scale datasets",
    );
    // The Fig. 11 operating points: SIFT-1B at R@10 = 0.94, DEEP-1B at 0.93,
    // each with the fraction of the lists it probes.
    let settings = [
        (DatasetProfile::sift_1b(), 0.94, 0.010),
        (DatasetProfile::deep_1b(), 0.93, 0.009),
    ];
    // Not calibrated. The synthetic generator draws every profile from the
    // same clustered text-embedding model, so a scaled SIFT-1B or DEEP-1B
    // dataset would measure that model, not those descriptor collections;
    // the fixed 2 % stands for "the filter still removes the bulk of the
    // candidates" (Sec. 4.3.3) and is an assumption, not a measurement.
    let pass_fraction = 0.02;
    let mut speedups = Vec::new();
    outln!(
        fig,
        "dataset (target recall)          speedup vs ND-HNSW  speedup vs ND-DiskANN"
    );
    for (profile, recall, nprobe_fraction) in settings {
        let mode = SearchMode::Ivf { nprobe_fraction };
        let reis = estimate_reis(&profile, &ReisConfig::ssd2(), mode, pass_fraction, K);
        let [hnsw, diskann] =
            [NdSearchAlgorithm::Hnsw, NdSearchAlgorithm::DiskAnn].map(|algorithm| {
                reis.qps / NdSearchModel::new(ReisConfig::ssd2(), algorithm).qps(&profile)
            });
        let label = format!("{} (R@10={recall})", profile.name);
        outln!(fig, "{label:<28} {hnsw:>21.2}x {diskann:>21.2}x");
        speedups.extend([hnsw, diskann]);
    }
    let over_ndsearch = geomean(&speedups);
    outln!(
        fig,
        "\nGeometric-mean speedup over NDSearch: {over_ndsearch:.2}x (paper: 1.7x average, up to \
         2.6x)"
    );
    fig.headline("speedup_vs_ndsearch_geomean", over_ndsearch, "1.7x");
    fig
}

/// Table 4: end-to-end RAG latency breakdown for REIS (SSD1) against the
/// CPU pipeline with binary quantization, on HotpotQA and NQ.
pub fn table04_end_to_end() -> Figure {
    let mut fig = Figure::new(
        "Table 4",
        "End-to-end RAG latency breakdown: REIS-SSD1 vs CPU with binary quantization",
    );
    let pipeline = RagPipeline::default();
    let cpu = CpuSystem::default();
    for (profile, id, paper) in [
        (DatasetProfile::hotpotqa(), "rag_speedup_hotpotqa", "1.25x"),
        (DatasetProfile::nq(), "rag_speedup_nq", "3.24x"),
    ] {
        let pass_fraction = pass_fraction(&profile, 77);
        let (_, mode) = ivf_at(&profile, 0.94);
        let reis = estimate_reis(&profile, &ReisConfig::ssd1(), mode, pass_fraction, K);
        let reis_breakdown = pipeline.reis_breakdown(reis.latency.as_secs_f64());
        let cpu_breakdown = pipeline.cpu_breakdown(&cpu, &profile, CpuPrecision::BinaryWithRerank);

        outln!(
            fig,
            "\n{} (latency contribution, % of end-to-end time):\n\
             stage                                  REIS       CPU+BQ",
            profile.name
        );
        for stage in RagStage::all() {
            let label = stage.label();
            let reis_pct = reis_breakdown.fraction(stage) * 100.0;
            let cpu_pct = cpu_breakdown.fraction(stage) * 100.0;
            if stage == RagStage::DatasetLoading {
                outln!(fig, "{label:<30} {:>12} {cpu_pct:>11.1}%", "N/A");
            } else {
                outln!(fig, "{label:<30} {reis_pct:>11.2}% {cpu_pct:>11.1}%");
            }
        }
        let (reis_s, cpu_s) = (reis_breakdown.total(), cpu_breakdown.total());
        outln!(
            fig,
            "{:<30} {reis_s:>11.2}s {cpu_s:>11.2}s",
            "End-to-end latency"
        );
        let speedup = cpu_s / reis_s;
        outln!(
            fig,
            "Speedup of REIS over CPU+BQ: {speedup:.2}x; retrieval share shrinks from {:.1}% to {:.2}%",
            cpu_breakdown.retrieval_fraction() * 100.0,
            reis_breakdown.retrieval_fraction() * 100.0,
        );
        fig.headline(id, speedup, paper);
    }
    outln!(
        fig,
        "\nPaper reference: REIS cuts the loading+search share from 20-69% to 0.02-0.15% and \
         generation (~92%) becomes the new bottleneck; end-to-end speedups are 1.25x (HotpotQA) \
         and 3.24x (NQ-class loading-bound pipelines)."
    );
    fig
}

/// Section 6.3.1: REIS against REIS-ASIC, which computes for free in an ASIC
/// but sends every scanned page over the channel through controller ECC.
pub fn asic_comparison() -> Figure {
    let mut fig = Figure::new(
        "REIS-ASIC comparison (Sec. 6.3.1)",
        "Slowdown of an ECC-in-the-controller ideal-ASIC design relative to REIS",
    );
    outln!(
        fig,
        "dataset        configuration     SSD1 slowdown  SSD2 slowdown"
    );
    let mut slowdowns = Vec::new();
    for profile in DatasetProfile::main_evaluation() {
        let pass_fraction = pass_fraction(&profile, 91);
        for recall in RECALLS {
            let (_, mode) = ivf_at(&profile, recall);
            let [ssd1, ssd2] = [ReisConfig::ssd1(), ReisConfig::ssd2()].map(|config| {
                let reis = estimate_reis(&profile, &config, mode, pass_fraction, K);
                let a = reis.activity;
                let perf = PerfModel::new(config);
                let scan = |pages, entries| perf.scan(pages, entries, a.embedding_slot_bytes);
                let reis_scan =
                    scan(a.coarse_pages, a.coarse_entries) + scan(a.fine_pages, a.fine_entries);
                let shared_tail = reis.latency.saturating_sub(reis_scan);
                ReisAsicModel::new(config).slowdown_vs_reis(&a, reis_scan, shared_tail)
            });
            let (name, label) = (&profile.name, format!("IVF R@10={recall:.2}"));
            outln!(fig, "{name:<14} {label:<16} {ssd1:>13.1}x {ssd2:>13.1}x");
            slowdowns.extend([ssd1, ssd2]);
        }
    }
    let slowdown = geomean(&slowdowns);
    outln!(
        fig,
        "\nGeometric-mean REIS-ASIC slowdown: {slowdown:.1}x (paper: 4.1x-5.0x for SSD-1 and \
         3.9x-6.5x for SSD-2 across datasets and recall targets)"
    );
    fig.headline("asic_slowdown_geomean", slowdown, "4.1x-5.0x (SSD-1)");
    fig
}

/// Section 4.3.3: per filter threshold, the share of embeddings that pass
/// the in-die distance filter and the Recall@10 left among them.
pub fn distance_filter_study() -> Figure {
    let mut fig = Figure::new(
        "Distance-filter study (Sec. 4.3.3)",
        "Surviving fraction and retained Recall@10 per filter threshold",
    );
    outln!(
        fig,
        "dataset         threshold      pass fraction retained recall@10"
    );
    for profile in [
        DatasetProfile::hotpotqa(),
        DatasetProfile::nq(),
        DatasetProfile::fever(),
        DatasetProfile::quora(),
    ] {
        let dataset = calibration_dataset(&profile, 7);
        let truth = GroundTruth::compute(&dataset, K).expect("ground truth");
        let quantizer = BinaryQuantizer::fit(dataset.vectors()).expect("quantizer");
        let binary = quantizer.quantize_all(dataset.vectors()).expect("quantize");
        for threshold_fraction in [0.40, 0.44, 0.47, 0.50] {
            let threshold = (threshold_fraction * profile.dim as f64).round() as u32;
            let mut passed = 0usize;
            let mut recall = 0.0;
            for (qi, query) in dataset.queries().iter().enumerate() {
                let q = quantizer.quantize(query).expect("quantize query");
                let surviving: Vec<usize> = binary
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| q.hamming_distance(b) <= threshold)
                    .map(|(id, _)| id)
                    .collect();
                passed += surviving.len();
                recall += recall_at_k(&surviving, truth.neighbors(qi), K);
            }
            let queries = dataset.queries().len();
            let pass_pct = passed as f64 / (queries * binary.len()) as f64 * 100.0;
            let (name, recall) = (&profile.name, recall / queries as f64);
            outln!(
                fig,
                "{name:<12} {threshold_fraction:>12.2} {pass_pct:>17.1}% {recall:>18.3}"
            );
        }
    }
    outln!(
        fig,
        "\nPaper reference: a single threshold filters out ~99% of HotpotQA documents while \
         retaining the k=10 most relevant ones, and the best threshold varies by only ~1.6% \
         across datasets of very different sizes."
    );
    fig
}
