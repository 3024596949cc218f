//! # reis-bench — the benchmark harness of the REIS reproduction
//!
//! One binary per table/figure of the paper's evaluation regenerates the
//! corresponding rows or series (see `docs/BENCHMARKS.md`, "Figures").
//! This library holds the shared machinery:
//!
//! * [`figures`] — every modelled figure and table as a function returning
//!   its printed text and its headline values beside the paper's; the
//!   binaries print them, a golden fixture pins the text and ratchet tests
//!   pin the headlines.
//! * [`calibration`] — functional, scaled-dataset measurements (distance
//!   filter pass fractions, recall-versus-`nprobe` curves) that parameterize
//!   the full-scale models.
//! * [`fullscale`] — the extrapolation of REIS's per-query activity to the
//!   paper's full-scale dataset sizes, priced by `reis-core`'s latency and
//!   energy models.
//! * [`report`] — the figure header and the ratios the figures print.
//! * [`artifacts`] — the JSON value and parser the fixed benchmark
//!   (`benchmark/`) reads its result documents back with.
//!
//! Every experiment prints both the scaled dataset used for functional
//! calibration and the full-scale parameters used for extrapolation, so the
//! provenance of each number is visible in the output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;

pub mod calibration {
    //! Functional calibration runs on scaled synthetic datasets.

    use reis_ann::ivf::{IvfBqIndex, IvfConfig, IvfIndex};
    use reis_ann::metrics::recall_at_k;
    use reis_ann::quantize::BinaryQuantizer;
    use reis_workloads::{GroundTruth, SyntheticDataset};

    /// Calibration products of one dataset profile.
    #[derive(Debug, Clone)]
    pub struct Calibration {
        /// Fraction of database embeddings whose Hamming distance from a
        /// query falls at or below the distance-filter threshold.
        pub pass_fraction: f64,
        /// Measured `(nprobe fraction, recall@10)` pairs of the BQ+rerank IVF
        /// search on the scaled dataset.
        pub recall_curve: Vec<(f64, f64)>,
        /// The trained scaled IVF index. No figure reads it; it stays for the
        /// pinned shape of [`calibrate`], which the fixed benchmark calls.
        pub ivf: IvfBqIndex,
    }

    /// Measure the distance-filter pass fraction of a dataset at the given
    /// threshold fraction of the dimensionality.
    pub fn measure_pass_fraction(dataset: &SyntheticDataset, threshold_fraction: f64) -> f64 {
        let quantizer = BinaryQuantizer::fit(dataset.vectors()).expect("non-empty dataset");
        let binary = quantizer
            .quantize_all(dataset.vectors())
            .expect("consistent dims");
        let threshold = (threshold_fraction * dataset.profile().dim as f64).round() as u32;
        let mut passed = 0usize;
        let mut total = 0usize;
        for query in dataset.queries() {
            let q = quantizer.quantize(query).expect("consistent dims");
            for b in &binary {
                total += 1;
                if q.hamming_distance(b) <= threshold {
                    passed += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            passed as f64 / total as f64
        }
    }

    /// Run the full calibration for a dataset: pass fraction plus the
    /// recall-versus-nprobe curve of the BQ IVF search REIS executes.
    pub fn calibrate(dataset: &SyntheticDataset, threshold_fraction: f64, k: usize) -> Calibration {
        let profile = dataset.profile();
        let nlist = profile.scaled_nlist.min(dataset.len());
        let float_ivf = IvfIndex::build(dataset.vectors().to_vec(), IvfConfig::new(nlist))
            .expect("IVF construction on calibration data");
        let ivf = IvfBqIndex::from_ivf(&float_ivf).expect("quantized IVF construction");
        let truth = GroundTruth::compute(dataset, k).expect("ground truth");

        let mut recall_curve = Vec::new();
        for fraction in [0.02, 0.05, 0.10, 0.20, 0.40, 1.0] {
            let nprobe = ((nlist as f64 * fraction).ceil() as usize).clamp(1, nlist);
            let mut recall = 0.0;
            for (qi, query) in dataset.queries().iter().enumerate() {
                let got: Vec<usize> = ivf
                    .search(query, k, nprobe, 10)
                    .expect("search")
                    .iter()
                    .map(|n| n.id)
                    .collect();
                recall += recall_at_k(&got, truth.neighbors(qi), k);
            }
            recall /= dataset.queries().len().max(1) as f64;
            recall_curve.push((fraction, recall));
        }

        Calibration {
            pass_fraction: measure_pass_fraction(dataset, threshold_fraction),
            recall_curve,
            ivf,
        }
    }
}

pub mod fullscale {
    //! Extrapolation of REIS activity to full-scale datasets, and the one
    //! fig07/fig08 sweep of it against the CPU-Real baseline.

    use reis_baseline::{CpuPrecision, CpuRetrievalEstimate, CpuSystem};
    use reis_core::{
        EnergyBreakdown, EnergyModel, PerfModel, QueryActivity, ReisConfig, ReisSystem,
    };
    use reis_nand::{FlashStats, Nanos};
    use reis_workloads::DatasetProfile;

    use crate::report::geomean;

    /// Results per query of every full-scale estimate.
    pub(crate) const K: usize = 10;
    /// Queries the CPU baseline amortises its dataset load over.
    pub(crate) const QUERY_BATCH: usize = 1_000;
    /// The Recall@10 targets of the sweep's IVF rows.
    pub(crate) const RECALLS: [f64; 3] = [0.98, 0.94, 0.90];

    /// The search mode being extrapolated.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum SearchMode {
        /// Brute-force scan of the whole embedding region.
        BruteForce,
        /// IVF search probing the given fraction of the clusters.
        Ivf {
            /// Fraction of the `full_nlist` clusters probed.
            nprobe_fraction: f64,
        },
    }

    /// A full-scale per-query estimate of REIS.
    #[derive(Debug, Clone, Copy)]
    pub struct ReisEstimate {
        /// Modelled per-query latency.
        pub latency: Nanos,
        /// Queries per second.
        pub qps: f64,
        /// Per-query energy breakdown.
        pub energy: EnergyBreakdown,
        /// Queries per joule (equivalently QPS per watt).
        pub qps_per_watt: f64,
        /// The activity the estimate was built from.
        pub activity: QueryActivity,
    }

    /// Build the full-scale activity of one REIS query.
    pub fn full_scale_activity(
        profile: &DatasetProfile,
        config: &ReisConfig,
        mode: SearchMode,
        pass_fraction: f64,
        k: usize,
    ) -> QueryActivity {
        let geometry = config.ssd.geometry;
        let slot = profile.binary_bytes().next_power_of_two();
        let per_page_capacity = geometry.page_size_bytes / slot;
        let per_page_oob = geometry.oob_size_bytes / reis_nand::OobEntry::SIZE;
        let epp = per_page_capacity.min(per_page_oob).max(1);
        let entries = profile.full_entries;

        let (coarse_pages, coarse_entries, scanned_entries) = match mode {
            SearchMode::BruteForce => (0usize, 0usize, entries),
            SearchMode::Ivf { nprobe_fraction } => {
                let centroid_pages = (profile.full_nlist as u64).div_ceil(epp as u64) as usize;
                let probed = (entries as f64 * nprobe_fraction.clamp(0.0, 1.0)) as u64;
                (centroid_pages, profile.full_nlist, probed)
            }
        };
        let fine_pages = scanned_entries.div_ceil(epp as u64) as usize;
        let fine_entries = (scanned_entries as f64 * pass_fraction.clamp(0.0, 1.0)) as usize;
        let rerank_candidates = config.rerank_factor * k;
        let int8_per_page = (geometry.page_size_bytes / profile.dim.max(1)).max(1);
        let int8_pages = rerank_candidates.div_ceil(int8_per_page);
        QueryActivity {
            coarse_pages,
            coarse_entries,
            fine_pages,
            fine_entries: fine_entries.max(rerank_candidates),
            // Full-scale extrapolations price the static-threshold scan; the
            // windowed adaptive maintenance is a measured, not extrapolated,
            // quantity.
            fine_windows: 0,
            rerank_candidates,
            int8_pages,
            documents: k,
            embedding_slot_bytes: slot,
            dim: profile.dim,
            doc_slot_bytes: 4096,
        }
    }

    /// Approximate the flash statistics of one full-scale query from its
    /// activity (for the energy model).
    pub fn activity_flash_stats(activity: &QueryActivity, config: &ReisConfig) -> FlashStats {
        let geometry = config.ssd.geometry;
        let pages = (activity.coarse_pages + activity.fine_pages) as u64;
        let entry_bytes = (activity.embedding_slot_bytes + config.ttl_metadata_bytes) as u64;
        FlashStats {
            page_reads: pages + activity.int8_pages as u64 + activity.documents as u64,
            page_programs: 0,
            block_erases: 0,
            xor_ops: pages,
            bit_count_ops: pages,
            pass_fail_ops: pages,
            broadcast_ops: geometry.total_dies() as u64,
            bytes_to_controller: (activity.coarse_entries + activity.fine_entries) as u64
                * entry_bytes
                + (activity.int8_pages * geometry.page_size_bytes) as u64
                + (activity.documents * activity.doc_slot_bytes) as u64,
            bytes_from_controller: (geometry.total_dies() * activity.embedding_slot_bytes) as u64,
            injected_bit_errors: 0,
        }
    }

    /// Full-scale REIS estimate for one dataset / mode / recall point.
    pub fn estimate_reis(
        profile: &DatasetProfile,
        config: &ReisConfig,
        mode: SearchMode,
        pass_fraction: f64,
        k: usize,
    ) -> ReisEstimate {
        let activity = full_scale_activity(profile, config, mode, pass_fraction, k);
        let perf = PerfModel::new(*config);
        let latency = perf.query_latency(&activity, k).total();
        let core_busy = perf.core_busy(&activity, k);
        let flash = activity_flash_stats(&activity, config);
        let energy = EnergyModel::default().query_energy(
            &flash,
            flash.bytes_to_controller,
            core_busy,
            latency,
        );
        let secs = latency.as_secs_f64();
        let qps = if secs > 0.0 { 1.0 / secs } else { 0.0 };
        let joules = energy.total_j();
        let qps_per_watt = if joules > 0.0 { 1.0 / joules } else { 0.0 };
        ReisEstimate {
            latency,
            qps,
            energy,
            qps_per_watt,
            activity,
        }
    }

    /// The `nprobe` and search mode of an IVF query on `profile` at a
    /// Recall@10 target, by [`ReisSystem::nprobe_for_recall`] over the
    /// full-scale lists (an unsourced mapping, see its doc).
    pub(crate) fn ivf_at(profile: &DatasetProfile, recall: f64) -> (usize, SearchMode) {
        let nprobe = ReisSystem::nprobe_for_recall(profile.full_nlist, recall);
        let nprobe_fraction = nprobe as f64 / profile.full_nlist as f64;
        (nprobe, SearchMode::Ivf { nprobe_fraction })
    }

    /// One row of the fig07/fig08 sweep: a dataset at brute force or at one
    /// Recall@10 target, on the CPU baseline and on REIS with both SSDs.
    #[derive(Debug, Clone)]
    pub struct SweepRow<'a> {
        /// The dataset.
        pub profile: &'a DatasetProfile,
        /// The Recall@10 target of an IVF row; `None` for brute force.
        pub recall: Option<f64>,
        /// CPU-Real: the CPU baseline, dataset loading included.
        pub cpu_real: CpuRetrievalEstimate,
        /// No-I/O: the same CPU search with the dataset already in memory.
        pub no_io: CpuRetrievalEstimate,
        /// REIS on SSD1.
        pub ssd1: ReisEstimate,
        /// REIS on SSD2.
        pub ssd2: ReisEstimate,
    }

    impl SweepRow<'_> {
        /// The row's label in the figures: `BF` or `IVF R@10=0.98`.
        pub(crate) fn label(&self) -> String {
            match self.recall {
                None => "BF".to_string(),
                Some(recall) => format!("IVF R@10={recall:.2}"),
            }
        }
    }

    /// Price every row of fig07/fig08: for each dataset with its calibrated
    /// filter pass fraction, brute force and then IVF at Recall@10 0.98,
    /// 0.94 and 0.90.
    pub fn sweep(calibrated: &[(DatasetProfile, f64)]) -> Vec<SweepRow<'_>> {
        let cpu = CpuSystem::default();
        let (ssd1, ssd2) = (ReisConfig::ssd1(), ReisConfig::ssd2());
        let mut rows = Vec::with_capacity(calibrated.len() * (1 + RECALLS.len()));
        for (profile, pass_fraction) in calibrated {
            for recall in std::iter::once(None).chain(RECALLS.map(Some)) {
                let (nprobe, mode, precision) = match recall {
                    None => (None, SearchMode::BruteForce, CpuPrecision::Float32),
                    Some(recall) => {
                        let (nprobe, mode) = ivf_at(profile, recall);
                        (Some(nprobe), mode, CpuPrecision::BinaryWithRerank)
                    }
                };
                rows.push(SweepRow {
                    profile,
                    recall,
                    cpu_real: cpu.cpu_real(profile, QUERY_BATCH, nprobe, precision),
                    no_io: cpu.no_io(profile, QUERY_BATCH, nprobe, precision),
                    ssd1: estimate_reis(profile, &ssd1, mode, *pass_fraction, K),
                    ssd2: estimate_reis(profile, &ssd2, mode, *pass_fraction, K),
                });
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
    pub fn headline(rows: &[SweepRow<'_>]) -> Headline {
        let speedups: Vec<f64> = rows.iter().map(|r| r.ssd1.qps / r.cpu_real.qps()).collect();
        let ssd2_over_ssd1: Vec<f64> = rows.iter().map(|r| r.ssd2.qps / r.ssd1.qps).collect();
        let gains: Vec<f64> = rows
            .iter()
            .map(|r| r.ssd1.qps_per_watt / r.cpu_real.qps_per_watt())
            .collect();
        let max = |values: &[f64]| values.iter().copied().fold(0.0, f64::max);
        let speedup = geomean(&speedups);
        let ssd2 = geomean(&ssd2_over_ssd1);
        let gain = geomean(&gains);
        let gap = |value: f64, paper: f64| (value - paper).abs() / paper;
        Headline {
            speedup_vs_cpu_geomean: speedup,
            speedup_vs_cpu_max: max(&speedups),
            ssd2_over_ssd1_geomean: ssd2,
            energy_gain_vs_cpu_geomean: gain,
            energy_gain_vs_cpu_max: max(&gains),
            gap_pct: (gap(speedup, 13.0) + gap(ssd2, 2.6) + gap(gain, 55.0)) / 3.0 * 100.0,
        }
    }
}

pub mod report {
    //! Formatting helpers shared by the figures.

    /// A figure/table header with the experiment id and a description.
    pub fn header(experiment: &str, description: &str) -> String {
        let rule = "==================================================================";
        format!("{rule}\n{experiment}: {description}\n{rule}\n")
    }

    /// Format a normalized value as the paper's figures report them.
    pub fn normalized(value: f64, baseline: f64) -> f64 {
        if baseline <= 0.0 {
            0.0
        } else {
            value / baseline
        }
    }

    /// Geometric mean of a slice of positive values (used for "average
    /// speedup" claims).
    pub fn geomean(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
        (sum / values.len() as f64).exp()
    }
}

pub mod artifacts {
    //! The workspace's JSON value and parser.
    //!
    //! The fixed benchmark (`benchmark/`, `reis-perf`) reads its result
    //! documents back with [`parse`] to compare two runs, and pins this
    //! module's surface: [`Json`] and [`parse`].

    /// A parsed JSON value (minimal offline parser — the shimmed `serde`
    /// has no deserializer).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, kept as `f64`.
        Num(f64),
        /// A string (escape sequences decoded).
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, in source order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Look up a key of an object (`None` for non-objects).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input,
    /// including trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&what) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", what as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        literal: &str,
        value: Json,
    ) -> Result<Json, String> {
        if bytes[*pos..].starts_with(literal.as_bytes()) {
            *pos += literal.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("malformed number at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = bytes
                        .get(*pos..*pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("bad UTF-8 at byte {}", *pos))?;
                    out.push_str(chunk);
                    *pos += len;
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            fields.push((key, parse_value(bytes, pos)?));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod artifact_tests {
    use super::artifacts::{parse, Json};

    #[test]
    fn parser_round_trips_the_artifact_shapes() {
        let doc = parse(
            r#"{ "a": 1.5, "b": [true, null, "x\n\"yA"], "nested": { "k": -2e3 }, "empty": [], "eo": {} }"#,
        )
        .unwrap();
        assert_eq!(doc.get("a"), Some(&Json::Num(1.5)));
        assert_eq!(
            doc.get("b"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Null,
                Json::Str("x\n\"yA".into())
            ]))
        );
        assert_eq!(
            doc.get("nested").unwrap().get("k"),
            Some(&Json::Num(-2000.0))
        );
        assert_eq!(doc.get("empty"), Some(&Json::Arr(vec![])));
        assert!(parse("{ \"unterminated\": ").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("[1, 2,]").is_err());
    }

    #[test]
    fn telemetry_json_snapshot_parses_into_its_three_sections() {
        let telemetry = reis_core::Telemetry::enabled();
        telemetry.count(reis_core::CounterId::Queries, 3);
        telemetry.observe(reis_core::HistogramId::QueryModelledNs, 1_500);
        let doc = parse(&telemetry.json_snapshot()).expect("the snapshot is JSON");
        for section in ["counters", "gauges", "histograms"] {
            assert!(
                matches!(doc.get(section), Some(Json::Obj(fields)) if !fields.is_empty()),
                "section '{section}' missing or empty"
            );
        }
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("reis_queries_total"), Some(&Json::Num(3.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::calibration::{calibrate, measure_pass_fraction};
    use super::fullscale::{estimate_reis, SearchMode};
    use super::report::geomean;
    use reis_core::ReisConfig;
    use reis_workloads::{DatasetProfile, SyntheticDataset};

    fn small_dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(512).with_queries(4), 13)
    }

    #[test]
    fn calibration_produces_monotone_recall_curve_and_plausible_pass_fraction() {
        let dataset = small_dataset();
        let calibration = calibrate(&dataset, 0.47, 10);
        assert!(calibration.pass_fraction > 0.0 && calibration.pass_fraction < 1.0);
        let recalls: Vec<f64> = calibration.recall_curve.iter().map(|&(_, r)| r).collect();
        assert!(
            recalls.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "recall must not drop as nprobe grows: {recalls:?}"
        );
        assert!(*recalls.last().unwrap() > 0.8);
        assert!(measure_pass_fraction(&dataset, 0.0) < 0.05);
    }

    #[test]
    fn full_scale_estimates_follow_the_paper_shapes() {
        let profile = DatasetProfile::wiki_en();
        let ssd1 = ReisConfig::ssd1();
        let ssd2 = ReisConfig::ssd2();
        let bf1 = estimate_reis(&profile, &ssd1, SearchMode::BruteForce, 0.01, 10);
        let bf2 = estimate_reis(&profile, &ssd2, SearchMode::BruteForce, 0.01, 10);
        let ivf1 = estimate_reis(
            &profile,
            &ssd1,
            SearchMode::Ivf {
                nprobe_fraction: 0.02,
            },
            0.01,
            10,
        );
        // SSD2 beats SSD1; IVF beats brute force.
        assert!(bf2.qps > bf1.qps);
        assert!(ivf1.qps > bf1.qps);
        assert!(bf1.energy.total_j() > 0.0);
        assert!(bf1.qps_per_watt > 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }
}
