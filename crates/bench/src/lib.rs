//! # reis-bench — the benchmark harness of the REIS reproduction
//!
//! One binary per table/figure of the paper's evaluation regenerates the
//! corresponding rows or series (see `DESIGN.md` §4 and `EXPERIMENTS.md`).
//! This library holds the shared machinery:
//!
//! * [`calibration`] — functional, scaled-dataset measurements (distance
//!   filter pass fractions, recall-versus-`nprobe` curves) that parameterize
//!   the full-scale models.
//! * [`fullscale`] — the extrapolation of REIS's per-query activity to the
//!   paper's full-scale dataset sizes, priced by `reis-core`'s latency and
//!   energy models.
//! * [`report`] — small helpers for printing figure series as aligned rows.
//!
//! Every experiment prints both the scaled dataset used for functional
//! calibration and the full-scale parameters used for extrapolation, so the
//! provenance of each number is visible in the output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

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
        /// The trained scaled IVF index (reused by figure generators that
        /// need functional searches).
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

    /// The smallest measured nprobe fraction that reaches `target_recall` on
    /// the calibration curve (falls back to the largest fraction measured).
    pub fn nprobe_fraction_for_recall(calibration: &Calibration, target_recall: f64) -> f64 {
        for &(fraction, recall) in &calibration.recall_curve {
            if recall >= target_recall {
                return fraction;
            }
        }
        calibration
            .recall_curve
            .last()
            .map(|&(f, _)| f)
            .unwrap_or(1.0)
    }
}

pub mod fullscale {
    //! Extrapolation of REIS activity to full-scale datasets.

    use reis_core::{EnergyBreakdown, EnergyModel, PerfModel, QueryActivity, ReisConfig};
    use reis_nand::{FlashStats, Nanos};
    use reis_workloads::DatasetProfile;

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
}

pub mod seed_reference {
    //! Byte-at-a-time reference kernels matching the seed implementation.
    //!
    //! The baseline the criterion `kernels` bench measures the u64-word
    //! kernels against. The implementations live in the workspace's kernel crate
    //! ([`reis_kernels::reference`]) next to the word kernels they baseline.

    pub use reis_kernels::reference::{count_per_chunk, hamming, xor};
}

pub mod report {
    //! Formatting helpers shared by the figure binaries.

    /// Print a figure/table header with the experiment id and a description.
    pub fn header(experiment: &str, description: &str) {
        println!("==================================================================");
        println!("{experiment}: {description}");
        println!("==================================================================");
    }

    /// Resolve the output path of a benchmark's JSON artifact: an
    /// `--output PATH` (or `--output=PATH`) command-line argument wins,
    /// then the `REIS_BENCH_OUT` environment variable, then `default`.
    ///
    /// `BENCH_pr*.json` files at the repository root are committed
    /// artifacts (the run a PR shipped with). Benchmarks whose artifact
    /// belongs to an *earlier* PR default to a non-committed,
    /// `.gitignore`d path so a casual re-run never clobbers the recorded
    /// measurement — refreshing one takes an explicit
    /// `--output BENCH_prN.json`. A benchmark introduced by the current PR
    /// may default to its own `BENCH_prN.json`, since that file is exactly
    /// the run it is expected to (re)produce. See `docs/BENCHMARKS.md` for
    /// the regeneration workflow.
    ///
    /// # Panics
    ///
    /// Panics if `--output` is given without a value (or followed by
    /// another flag): silently falling back to the default could overwrite
    /// a committed artifact the flag was meant to protect.
    pub fn output_path(default: &str) -> String {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--output" {
                match args.next() {
                    Some(path) if !path.starts_with("--") => return path,
                    _ => panic!("--output requires a path argument"),
                }
            } else if let Some(path) = arg.strip_prefix("--output=") {
                return path.to_string();
            }
        }
        std::env::var("REIS_BENCH_OUT").unwrap_or_else(|_| default.to_string())
    }

    /// Print one labelled series as `label: v1 v2 v3 …` with fixed precision.
    pub fn series(label: &str, values: &[(String, f64)]) {
        println!("{label}");
        for (name, value) in values {
            println!("    {name:<42} {value:>12.3}");
        }
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
    //! Schema validation of the measured-benchmark JSON artifacts.
    //!
    //! Every figure binary hand-writes its JSON (there is no serializer in
    //! the offline workspace), which historically meant a malformed or
    //! key-renamed artifact could land in the repository — or be uploaded
    //! from CI — unnoticed until a reader choked on it. The
    //! `validate-bench-artifacts` binary runs [`validate_file`] over the
    //! committed `BENCH_pr*.json` files and the freshly produced smoke
    //! artifacts in CI, enforcing the schemas documented in
    //! `docs/BENCHMARKS.md`: required keys, value types, and
    //! `available_cores` present on every measured artifact (it is the key
    //! readers must consult before trusting any scaling column).

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

        /// The human name of the value's type, for error messages.
        pub fn type_name(&self) -> &'static str {
            match self {
                Json::Null => "null",
                Json::Bool(_) => "bool",
                Json::Num(_) => "number",
                Json::Str(_) => "string",
                Json::Arr(_) => "array",
                Json::Obj(_) => "object",
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

    /// The expected type of a required key.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        /// A JSON number.
        Num,
        /// A JSON string.
        Str,
        /// A JSON bool.
        Bool,
        /// A JSON object.
        Obj,
        /// A non-empty JSON array.
        Arr,
    }

    fn check_kind(value: &Json, kind: Kind) -> bool {
        match kind {
            Kind::Num => matches!(value, Json::Num(_)),
            Kind::Str => matches!(value, Json::Str(_)),
            Kind::Bool => matches!(value, Json::Bool(_)),
            Kind::Obj => matches!(value, Json::Obj(_)),
            Kind::Arr => matches!(value, Json::Arr(items) if !items.is_empty()),
        }
    }

    /// The required top-level keys of one artifact family, keyed off the
    /// file name (`BENCH_pr5.json` and `BENCH_adaptive_smoke.json` share a
    /// family, etc.). `None` for file names no schema is known for.
    pub fn required_keys(file_name: &str) -> Option<&'static [(&'static str, Kind)]> {
        const BATCH: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("dataset", Kind::Obj),
            ("kernels", Kind::Obj),
            ("batch_qps", Kind::Obj),
            ("modelled_device_qps", Kind::Num),
        ];
        const INTRA: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("dataset", Kind::Obj),
            ("queries", Kind::Num),
            ("repeats_per_point", Kind::Num),
            ("single_query_latency_us", Kind::Obj),
            ("speedup_at_best_shard_count", Kind::Obj),
        ];
        const UPDATE: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("insert", Kind::Obj),
            ("upsert", Kind::Obj),
            ("delete", Kind::Obj),
            ("search_under_update", Kind::Obj),
            ("compaction", Kind::Obj),
        ];
        const FUSED: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("results_identical_to_sequential", Kind::Bool),
            ("brute_force", Kind::Obj),
            ("ivf_nprobe8", Kind::Obj),
            ("modelled_bf_scan_batch8_us", Kind::Obj),
            ("bf_batch8_sense_reduction", Kind::Num),
        ];
        const ADAPTIVE: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("queries", Kind::Num),
            ("repeats_per_point", Kind::Num),
            ("k", Kind::Num),
            ("partition_invariant", Kind::Bool),
            ("static_baseline", Kind::Obj),
            ("window_sweep", Kind::Arr),
        ];
        const PERSISTENCE: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("results_identical_to_precrash", Kind::Bool),
            ("snapshot", Kind::Obj),
            ("wal", Kind::Obj),
            ("recovery", Kind::Obj),
            ("torn_tail", Kind::Obj),
        ];
        const SCALEOUT: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("results_identical_to_single_device", Kind::Bool),
            ("leaf_sweep", Kind::Arr),
            ("hedging", Kind::Obj),
        ];
        const TELEMETRY: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("results_identical_with_telemetry", Kind::Bool),
            ("fused_batch8", Kind::Obj),
            ("interference", Kind::Obj),
            ("hedge_quantiles", Kind::Obj),
            ("exporters", Kind::Obj),
        ];
        const FAULT: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("results_identical_when_covered", Kind::Bool),
            ("retry_overhead", Kind::Obj),
            ("failure_sweep", Kind::Arr),
        ];
        const SCHEDULER: &[(&str, Kind)] = &[
            ("available_cores", Kind::Num),
            ("mode", Kind::Str),
            ("dataset", Kind::Obj),
            ("batch_formation_wins", Kind::Bool),
            ("pipeline_sweep", Kind::Arr),
        ];
        let base = file_name.rsplit('/').next().unwrap_or(file_name);
        match base {
            "BENCH_pr1.json" => Some(BATCH),
            "BENCH_pr2.json" => Some(INTRA),
            "BENCH_pr3.json" => Some(UPDATE),
            "BENCH_pr4.json" => Some(FUSED),
            "BENCH_pr5.json" => Some(ADAPTIVE),
            "BENCH_pr6.json" => Some(PERSISTENCE),
            "BENCH_pr7.json" => Some(SCALEOUT),
            "BENCH_pr8.json" => Some(TELEMETRY),
            "BENCH_pr9.json" => Some(FAULT),
            "BENCH_pr10.json" => Some(SCHEDULER),
            _ if base.contains("scheduler") => Some(SCHEDULER),
            _ if base.contains("intra_query") => Some(INTRA),
            _ if base.contains("telemetry") => Some(TELEMETRY),
            _ if base.contains("fault") => Some(FAULT),
            _ if base.contains("update") => Some(UPDATE),
            _ if base.contains("fused") => Some(FUSED),
            _ if base.contains("adaptive") => Some(ADAPTIVE),
            _ if base.contains("persistence") => Some(PERSISTENCE),
            _ if base.contains("scaleout") => Some(SCALEOUT),
            _ => None,
        }
    }

    /// Validate one artifact's parsed document against its family schema,
    /// returning every violation (empty = valid).
    pub fn validate(file_name: &str, doc: &Json) -> Vec<String> {
        let base = file_name.rsplit('/').next().unwrap_or(file_name);
        let mut problems = Vec::new();
        if base.contains("kernels-bench") {
            // The criterion-shim emits a flat list of name/ns entries.
            match doc {
                Json::Arr(items) if !items.is_empty() => {
                    for (i, item) in items.iter().enumerate() {
                        if !matches!(item.get("name"), Some(Json::Str(_)))
                            || !matches!(item.get("ns_per_iter"), Some(Json::Num(_)))
                        {
                            problems.push(format!(
                                "entry {i}: expected {{ name: string, ns_per_iter: number }}"
                            ));
                        }
                    }
                }
                _ => problems.push("expected a non-empty array of benchmark entries".into()),
            }
            return problems;
        }
        let Some(required) = required_keys(base) else {
            problems.push(format!(
                "no schema known for '{base}' (see docs/BENCHMARKS.md)"
            ));
            return problems;
        };
        if !matches!(doc, Json::Obj(_)) {
            problems.push(format!(
                "expected a top-level object, got {}",
                doc.type_name()
            ));
            return problems;
        }
        for &(key, kind) in required {
            match doc.get(key) {
                None => problems.push(format!("missing required key '{key}'")),
                Some(value) if !check_kind(value, kind) => problems.push(format!(
                    "key '{key}': expected {kind:?}, got {}",
                    value.type_name()
                )),
                Some(_) => {}
            }
        }
        // Family-specific invariants beyond key presence.
        if let Some(Json::Arr(points)) = doc.get("window_sweep") {
            for (i, point) in points.iter().enumerate() {
                for key in [
                    "window",
                    "fine_entries",
                    "barriers",
                    "modelled_us",
                    "sequential_us",
                    "sharded_us",
                ] {
                    if !matches!(point.get(key), Some(Json::Num(_))) {
                        problems.push(format!("window_sweep[{i}]: missing numeric '{key}'"));
                    }
                }
            }
            if doc.get("partition_invariant") != Some(&Json::Bool(true)) {
                problems.push("partition_invariant must be true".into());
            }
        }
        // Scheduler family: batch formation must win the sweep's top offered
        // load, and every row carries its columns. The pooled-vs-spawn
        // section is history: only the committed `BENCH_pr10.json` carries
        // it (the spawn executor it compares against is gone), so its rules
        // — bit-identity, and pooled no slower than spawn in `mode: "full"`
        // — apply where the key is present.
        if let Some(Json::Arr(points)) = doc.get("pool_window_sweep") {
            if doc.get("results_identical_to_spawn") != Some(&Json::Bool(true)) {
                problems.push("results_identical_to_spawn must be true".into());
            }
            let full = doc.get("mode") == Some(&Json::Str("full".into()));
            for (i, point) in points.iter().enumerate() {
                for key in [
                    "window",
                    "fine_entries",
                    "barriers",
                    "modelled_us",
                    "pooled_us",
                    "spawn_us",
                ] {
                    if !matches!(point.get(key), Some(Json::Num(_))) {
                        problems.push(format!("pool_window_sweep[{i}]: missing numeric '{key}'"));
                    }
                }
                if full {
                    if let (
                        Some(Json::Num(window)),
                        Some(Json::Num(pooled)),
                        Some(Json::Num(spawn)),
                    ) = (
                        point.get("window"),
                        point.get("pooled_us"),
                        point.get("spawn_us"),
                    ) {
                        if (4.0..=32.0).contains(window) && *pooled > *spawn {
                            problems.push(format!(
                                "pool_window_sweep[{i}]: pooled_us ({pooled}) must not exceed \
                                 spawn_us ({spawn}) at window {window} in full mode"
                            ));
                        }
                    }
                }
            }
        }
        if let Some(Json::Arr(points)) = doc.get("pipeline_sweep") {
            if doc.get("batch_formation_wins") != Some(&Json::Bool(true)) {
                problems.push("batch_formation_wins must be true".into());
            }
            for (i, point) in points.iter().enumerate() {
                for key in [
                    "offered_qps",
                    "max_batch",
                    "requests",
                    "completed",
                    "shed",
                    "p50_us",
                    "p99_us",
                    "throughput_qps",
                ] {
                    if !matches!(point.get(key), Some(Json::Num(_))) {
                        problems.push(format!("pipeline_sweep[{i}]: missing numeric '{key}'"));
                    }
                }
            }
        }
        if let Some(torn) = doc.get("torn_tail") {
            if doc.get("results_identical_to_precrash") != Some(&Json::Bool(true)) {
                problems.push("results_identical_to_precrash must be true".into());
            }
            if torn.get("quarantined") != Some(&Json::Bool(true)) {
                problems.push("torn_tail.quarantined must be true".into());
            }
            for (section, keys) in [
                ("snapshot", &["bytes", "write_us", "bytes_per_entry"][..]),
                (
                    "wal",
                    &["ops", "bytes", "logged_ops_per_s", "unlogged_ops_per_s"][..],
                ),
                ("recovery", &["wal_records_replayed", "recover_us"][..]),
            ] {
                let Some(obj) = doc.get(section) else {
                    continue;
                };
                for key in keys {
                    if !matches!(obj.get(key), Some(Json::Num(_))) {
                        problems.push(format!("{section}: missing numeric '{key}'"));
                    }
                }
            }
        }
        // Telemetry family: the enabled-run must be result-identical, and
        // the committed (full-mode) overhead on the fused batch-8 path must
        // stay within the PR 8 budget. Smoke runs on shared CI runners are
        // too noisy to gate on the percentage, so only `mode: "full"`
        // artifacts enforce the bound.
        if let Some(fused8) = doc.get("fused_batch8") {
            if doc.get("results_identical_with_telemetry") != Some(&Json::Bool(true)) {
                problems.push("results_identical_with_telemetry must be true".into());
            }
            for key in ["off_qps", "on_qps", "overhead_pct"] {
                if !matches!(fused8.get(key), Some(Json::Num(_))) {
                    problems.push(format!("fused_batch8: missing numeric '{key}'"));
                }
            }
            if doc.get("mode") == Some(&Json::Str("full".into())) {
                if let Some(Json::Num(pct)) = fused8.get("overhead_pct") {
                    if *pct > 3.0 {
                        problems.push(format!(
                            "fused_batch8.overhead_pct must be <= 3.0 in full mode, got {pct}"
                        ));
                    }
                }
            }
            if let Some(exporters) = doc.get("exporters") {
                for key in ["prometheus_bytes", "json_snapshot_valid"] {
                    if exporters.get(key).is_none() {
                        problems.push(format!("exporters: missing '{key}'"));
                    }
                }
            }
        }
        // The modelled search-vs-mutation interference section (always
        // present in the telemetry family, opt-in for the update family —
        // the committed `BENCH_pr3.json` predates it).
        if let Some(interference) = doc.get("interference") {
            for key in [
                "quiescent_p50_us",
                "quiescent_p95_us",
                "quiescent_p99_us",
                "dirty_p50_us",
                "dirty_p95_us",
                "dirty_p99_us",
                "mutation_p50_us",
                "mutation_p99_us",
            ] {
                if !matches!(interference.get(key), Some(Json::Num(_))) {
                    problems.push(format!("interference: missing numeric '{key}'"));
                }
            }
        }
        // Fault-tolerance family: every covered (full-coverage) answer must
        // be bit-identical to the no-fault run, and each sweep row carries
        // the availability/latency columns.
        if let Some(Json::Arr(points)) = doc.get("failure_sweep") {
            if doc.get("results_identical_when_covered") != Some(&Json::Bool(true)) {
                problems.push("results_identical_when_covered must be true".into());
            }
            for (i, point) in points.iter().enumerate() {
                for key in [
                    "replication",
                    "fail_ppm",
                    "modelled_qps",
                    "fanout_p99_us",
                    "availability",
                    "degraded_queries",
                ] {
                    if !matches!(point.get(key), Some(Json::Num(_))) {
                        problems.push(format!("failure_sweep[{i}]: missing numeric '{key}'"));
                    }
                }
            }
        }
        // The retry/backoff machinery must be free on the healthy path:
        // the PR 9 budget caps the full-mode overhead of running with a
        // zero-rate fault plan at 3% (smoke runs are too noisy to gate).
        if let Some(overhead) = doc.get("retry_overhead") {
            for key in ["healthy_qps", "guarded_qps", "overhead_pct"] {
                if !matches!(overhead.get(key), Some(Json::Num(_))) {
                    problems.push(format!("retry_overhead: missing numeric '{key}'"));
                }
            }
            if doc.get("mode") == Some(&Json::Str("full".into())) {
                if let Some(Json::Num(pct)) = overhead.get("overhead_pct") {
                    if *pct > 3.0 {
                        problems.push(format!(
                            "retry_overhead.overhead_pct must be <= 3.0 in full mode, got {pct}"
                        ));
                    }
                }
            }
        }
        // Per-policy hedge completion quantiles: any `policies` row that
        // carries one quantile must carry the full p50/p95/p99 triple
        // (opt-in for the scaleout family — `BENCH_pr7.json` predates it).
        for section in ["hedging", "hedge_quantiles"] {
            let Some(Json::Arr(policies)) = doc.get(section).and_then(|h| h.get("policies")) else {
                continue;
            };
            let mandatory = section == "hedge_quantiles";
            for (i, policy) in policies.iter().enumerate() {
                if !mandatory && policy.get("completion_p50_us").is_none() {
                    continue;
                }
                for key in [
                    "completion_p50_us",
                    "completion_p95_us",
                    "completion_p99_us",
                ] {
                    if !matches!(policy.get(key), Some(Json::Num(_))) {
                        problems.push(format!("{section}.policies[{i}]: missing numeric '{key}'"));
                    }
                }
            }
        }
        problems
    }

    /// Read, parse and validate one artifact file.
    ///
    /// # Errors
    ///
    /// Returns the list of violations (I/O and parse errors included).
    pub fn validate_file(path: &str) -> Result<(), Vec<String>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => return Err(vec![format!("cannot read: {error}")]),
        };
        let doc = match parse(&text) {
            Ok(doc) => doc,
            Err(error) => return Err(vec![format!("malformed JSON: {error}")]),
        };
        let problems = validate(path, &doc);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod artifact_tests {
    use super::artifacts::{parse, required_keys, validate, Json, Kind};

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
    fn committed_artifacts_validate_and_corruptions_fail() {
        // The real committed artifacts at the repository root must pass.
        for name in [
            "BENCH_pr1.json",
            "BENCH_pr2.json",
            "BENCH_pr3.json",
            "BENCH_pr4.json",
            "BENCH_pr5.json",
            "BENCH_pr6.json",
            "BENCH_pr7.json",
            "BENCH_pr8.json",
            "BENCH_pr9.json",
            "BENCH_pr10.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed artifact readable");
            let doc = parse(&text).expect("committed artifact parses");
            let problems = validate(name, &doc);
            assert!(problems.is_empty(), "{name}: {problems:?}");

            // Dropping any required key must be caught.
            let (first_key, _) = required_keys(name).unwrap()[0];
            if let Json::Obj(ref fields) = doc {
                let stripped = Json::Obj(
                    fields
                        .iter()
                        .filter(|(k, _)| k != first_key)
                        .cloned()
                        .collect(),
                );
                assert!(
                    !validate(name, &stripped).is_empty(),
                    "{name}: dropping '{first_key}' must fail validation"
                );
            }
        }
    }

    #[test]
    fn schema_families_cover_smoke_artifacts_and_reject_unknown() {
        assert_eq!(
            required_keys("BENCH_adaptive_smoke.json"),
            required_keys("BENCH_pr5.json")
        );
        assert_eq!(
            required_keys("BENCH_fused_smoke.json"),
            required_keys("BENCH_pr4.json")
        );
        assert_eq!(
            required_keys("BENCH_update_smoke.json"),
            required_keys("BENCH_pr3.json")
        );
        assert_eq!(
            required_keys("path/to/BENCH_intra_query.json"),
            required_keys("BENCH_pr2.json")
        );
        assert_eq!(
            required_keys("BENCH_persistence_smoke.json"),
            required_keys("BENCH_pr6.json")
        );
        assert_eq!(
            required_keys("BENCH_scaleout_smoke.json"),
            required_keys("BENCH_pr7.json")
        );
        assert_eq!(
            required_keys("BENCH_telemetry_smoke.json"),
            required_keys("BENCH_pr8.json")
        );
        assert_eq!(
            required_keys("BENCH_fault_tolerance_smoke.json"),
            required_keys("BENCH_pr9.json")
        );
        assert_eq!(
            required_keys("BENCH_scheduler_smoke.json"),
            required_keys("BENCH_pr10.json")
        );
        assert!(required_keys("mystery.json").is_none());
        assert!(!validate("mystery.json", &Json::Obj(vec![])).is_empty());
        // A wrongly typed required key is reported with both types.
        let doc = parse(r#"{ "available_cores": "one" }"#).unwrap();
        let problems = validate("BENCH_pr2.json", &doc);
        assert!(problems.iter().any(|p| p.contains("available_cores")));
        // The kernels list validates entry by entry.
        let kernels = parse(r#"[ { "name": "x", "ns_per_iter": 1.0 } ]"#).unwrap();
        assert!(validate("kernels-bench.json", &kernels).is_empty());
        let bad = parse(r#"[ { "name": 3 } ]"#).unwrap();
        assert!(!validate("kernels-bench.json", &bad).is_empty());
        let _ = Kind::Num;
    }

    #[test]
    fn telemetry_family_enforces_overhead_and_quantile_invariants() {
        let doc = parse(
            r#"{ "mode": "full", "results_identical_with_telemetry": false,
                 "fused_batch8": { "off_qps": 100.0, "on_qps": 90.0, "overhead_pct": 10.0 },
                 "hedge_quantiles": { "policies": [ { "deadline": "none" } ] } }"#,
        )
        .unwrap();
        let problems = validate("BENCH_pr8.json", &doc);
        assert!(problems.iter().any(|p| p.contains("overhead_pct must")));
        assert!(problems
            .iter()
            .any(|p| p.contains("results_identical_with_telemetry")));
        assert!(problems.iter().any(|p| p.contains("completion_p50_us")));
        // Smoke artifacts are too noisy to gate on the percentage.
        let smoke = parse(
            r#"{ "mode": "smoke", "results_identical_with_telemetry": true,
                 "fused_batch8": { "off_qps": 100.0, "on_qps": 90.0, "overhead_pct": 10.0 } }"#,
        )
        .unwrap();
        let smoke_problems = validate("BENCH_telemetry_smoke.json", &smoke);
        assert!(!smoke_problems
            .iter()
            .any(|p| p.contains("overhead_pct must")));
        // An update artifact that opts into the interference section must
        // carry the full quantile set; scaleout policy rows that opt into
        // completion quantiles must carry the whole triple.
        let update = parse(r#"{ "interference": { "quiescent_p50_us": 1.0 } }"#).unwrap();
        assert!(validate("BENCH_pr3.json", &update)
            .iter()
            .any(|p| p.contains("dirty_p99_us")));
        let scaleout = parse(
            r#"{ "hedging": { "policies": [
                 { "deadline": "none", "completion_p50_us": 1.0 },
                 { "deadline": "none" } ] } }"#,
        )
        .unwrap();
        let scaleout_problems = validate("BENCH_pr7.json", &scaleout);
        assert!(scaleout_problems
            .iter()
            .any(|p| p.contains("policies[0]") && p.contains("completion_p95_us")));
        assert!(!scaleout_problems.iter().any(|p| p.contains("policies[1]")));
    }

    #[test]
    fn scheduler_family_enforces_identity_and_formation_invariants() {
        // The formation-win flag must be true and sweep rows carry their
        // columns; where the historical pooled-vs-spawn section is present
        // its identity flag must be true and the wall comparison gates
        // full-mode artifacts only.
        let doc = parse(
            r#"{ "mode": "full", "results_identical_to_spawn": false,
                 "batch_formation_wins": false,
                 "pool_window_sweep": [ { "window": 8, "fine_entries": 1, "barriers": 1,
                                          "modelled_us": 1.0, "pooled_us": 20.0,
                                          "spawn_us": 10.0 } ],
                 "pipeline_sweep": [ { "offered_qps": 1000.0 } ] }"#,
        )
        .unwrap();
        let problems = validate("BENCH_pr10.json", &doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("results_identical_to_spawn")));
        assert!(problems.iter().any(|p| p.contains("batch_formation_wins")));
        assert!(problems
            .iter()
            .any(|p| p.contains("pooled_us") && p.contains("must not exceed")));
        assert!(problems
            .iter()
            .any(|p| p.contains("pipeline_sweep[0]") && p.contains("p99_us")));
        // The same slow-pooled point passes in smoke mode (wall-clock noise
        // on shared runners), while the structural checks still apply.
        let smoke = parse(
            r#"{ "available_cores": 1, "mode": "smoke",
                 "dataset": { "entries": 4096, "dim": 768 },
                 "results_identical_to_spawn": true,
                 "batch_formation_wins": true,
                 "pool_window_sweep": [ { "window": 8, "fine_entries": 1, "barriers": 1,
                                          "modelled_us": 1.0, "pooled_us": 20.0,
                                          "spawn_us": 10.0 } ],
                 "pipeline_sweep": [ { "offered_qps": 1000.0, "max_batch": 8,
                                       "requests": 10, "completed": 10, "shed": 0,
                                       "p50_us": 1.0, "p99_us": 2.0,
                                       "throughput_qps": 900.0 } ] }"#,
        )
        .unwrap();
        let smoke_problems = validate("BENCH_scheduler_smoke.json", &smoke);
        assert!(
            smoke_problems.is_empty(),
            "smoke artifact must pass: {smoke_problems:?}"
        );
        // Today's `fig_scheduler` writes the pipeline sweep only.
        let current = parse(
            r#"{ "available_cores": 2, "mode": "smoke",
                 "dataset": { "entries": 4096, "dim": 768 },
                 "batch_formation_wins": true,
                 "pipeline_sweep": [ { "offered_qps": 1000.0, "max_batch": 8,
                                       "requests": 10, "completed": 10, "shed": 0,
                                       "p50_us": 1.0, "p99_us": 2.0,
                                       "throughput_qps": 900.0 } ] }"#,
        )
        .unwrap();
        assert_eq!(
            validate("BENCH_scheduler_smoke.json", &current),
            Vec::<String>::new()
        );
    }

    #[test]
    fn fault_family_enforces_identity_columns_and_overhead() {
        // Full-coverage identity must hold, sweep rows carry the columns,
        // and the healthy-path retry overhead is budgeted in full mode.
        let doc = parse(
            r#"{ "mode": "full", "results_identical_when_covered": false,
                 "retry_overhead": { "healthy_qps": 100.0, "guarded_qps": 90.0,
                                     "overhead_pct": 10.0 },
                 "failure_sweep": [ { "replication": 1 } ] }"#,
        )
        .unwrap();
        let problems = validate("BENCH_pr9.json", &doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("results_identical_when_covered")));
        assert!(problems
            .iter()
            .any(|p| p.contains("overhead_pct must be <= 3.0")));
        assert!(problems
            .iter()
            .any(|p| p.contains("failure_sweep[0]") && p.contains("availability")));
        // Smoke artifacts are too noisy to gate on the percentage.
        let smoke = parse(
            r#"{ "mode": "smoke",
                 "retry_overhead": { "healthy_qps": 100.0, "guarded_qps": 90.0,
                                     "overhead_pct": 10.0 } }"#,
        )
        .unwrap();
        let smoke_problems = validate("BENCH_fault_tolerance_smoke.json", &smoke);
        assert!(!smoke_problems
            .iter()
            .any(|p| p.contains("overhead_pct must")));
    }
}

#[cfg(test)]
mod tests {
    use super::calibration::{calibrate, measure_pass_fraction, nprobe_fraction_for_recall};
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
        let fraction = nprobe_fraction_for_recall(&calibration, 0.5);
        assert!(fraction <= 1.0);
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
        assert!(geomean(&[2.0, 8.0]) - 4.0 < 1e-9);
    }
}
