//! Figure 5: throughput/recall comparison of ANNS algorithm families on the
//! CPU (IVF, BQ IVF, PQ IVF, HNSW, BQ HNSW, LSH), normalized to exhaustive
//! search.
//!
//! This experiment is functional: the indexes of `reis-ann` run on a scaled
//! synthetic wiki_en-profile dataset and both the recall and the wall-clock
//! QPS are measured (so run it with `--release` for meaningful throughput).

use std::time::Instant;

use reis_ann::hnsw::{HnswConfig, HnswIndex};
use reis_ann::ivf::{IvfBqIndex, IvfConfig, IvfIndex};
use reis_ann::lsh::{LshConfig, LshIndex};
use reis_ann::metrics::recall_at_k;
use reis_ann::quantize::{ProductQuantizer, ProductQuantizerConfig};
use reis_ann::rerank;
use reis_ann::{FlatIndex, Metric};
use reis_bench::report;
use reis_workloads::{DatasetProfile, GroundTruth, SyntheticDataset};

const K: usize = 10;

fn main() {
    print!(
        "{}",
        report::header(
            "Figure 5",
            "CPU comparison of ANNS algorithms (QPS normalized to exhaustive search) vs Recall@10",
        )
    );
    let profile = DatasetProfile::wiki_en().scaled(2_048).with_queries(16);
    println!(
        "scaled dataset: {} entries of {} dims ({}x below full scale), {} queries\n",
        profile.scaled_entries,
        profile.dim,
        profile.scale_factor() as u64,
        profile.queries
    );
    let dataset = SyntheticDataset::generate(profile.clone(), 21);
    let truth = GroundTruth::compute(&dataset, K).expect("ground truth");
    let queries = dataset.queries();

    // Exhaustive search baseline.
    let flat = FlatIndex::new(dataset.vectors().to_vec(), Metric::SquaredL2).expect("flat index");
    let start = Instant::now();
    for q in queries {
        flat.search(q, K).expect("flat search");
    }
    let flat_qps = queries.len() as f64 / start.elapsed().as_secs_f64();
    println!("exhaustive search baseline: {flat_qps:.1} QPS (normalized 1.0), recall 1.000\n");

    let nlist = profile.scaled_nlist;
    let ivf = IvfIndex::build(dataset.vectors().to_vec(), IvfConfig::new(nlist)).expect("ivf");
    let bq_ivf = IvfBqIndex::from_ivf(&ivf).expect("bq ivf");
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    // IVF (float) at several nprobe settings.
    for nprobe in [1, 2, 4, 8, nlist / 2, nlist] {
        let nprobe = nprobe.max(1);
        let (recall, qps) = time_queries(queries, &truth, |q| {
            ivf.search(q, K, nprobe)
                .expect("ivf search")
                .iter()
                .map(|n| n.id)
                .collect()
        });
        rows.push((format!("IVF (nlist={nlist}, nprobe={nprobe})"), recall, qps));
    }
    // BQ IVF with reranking.
    for nprobe in [2, 8, nlist] {
        let nprobe = nprobe.max(1);
        let (recall, qps) = time_queries(queries, &truth, |q| {
            bq_ivf
                .search(q, K, nprobe, 10)
                .expect("bq ivf")
                .iter()
                .map(|n| n.id)
                .collect()
        });
        rows.push((
            format!("BQ IVF (nlist={nlist}, nprobe={nprobe})"),
            recall,
            qps,
        ));
    }
    // PQ IVF: product-quantized rerank-free scan of the probed lists.
    let pq = ProductQuantizer::train(
        dataset.vectors(),
        &ProductQuantizerConfig {
            num_subquantizers: 64,
            codebook_size: 64,
            seed: 5,
            train_iterations: 6,
        },
    )
    .expect("pq");
    let codes: Vec<Vec<u8>> = dataset
        .vectors()
        .iter()
        .map(|v| pq.encode(v).expect("encode"))
        .collect();
    let (recall, qps) = time_queries(queries, &truth, |q| {
        let table = pq.distance_table(q).expect("table");
        let clusters = ivf.nearest_clusters(q, nlist / 4).expect("coarse");
        let mut candidates: Vec<(usize, f32)> = Vec::new();
        for c in clusters {
            for &id in &ivf.lists()[c] {
                candidates.push((
                    id,
                    ProductQuantizer::asymmetric_distance(&table, &codes[id]),
                ));
            }
        }
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let ids: Vec<usize> = candidates.iter().take(10 * K).map(|&(id, _)| id).collect();
        rerank::rerank_f32(q, &ids, dataset.vectors(), Metric::SquaredL2, K)
            .expect("rerank")
            .iter()
            .map(|n| n.id)
            .collect()
    });
    rows.push((format!("PQ IVF (nlist={nlist}, m=64)"), recall, qps));

    // HNSW (float) at several ef settings, and BQ HNSW (same graph, binary
    // distance for traversal would change recall little; the paper observes
    // its throughput stays constant, so we report the float graph twice).
    let hnsw = HnswIndex::build(dataset.vectors().to_vec(), HnswConfig::new(32)).expect("hnsw");
    for ef in [16, 64, 256] {
        let (recall, qps) = time_queries(queries, &truth, |q| {
            hnsw.search(q, K, ef)
                .expect("hnsw")
                .iter()
                .map(|n| n.id)
                .collect()
        });
        rows.push((format!("HNSW (M=32, ef={ef})"), recall, qps));
        rows.push((format!("BQ HNSW (M=32, ef={ef})"), recall, qps));
    }

    // LSH.
    let lsh = LshIndex::build(dataset.vectors().to_vec(), LshConfig::new(8, 14)).expect("lsh");
    let (recall, qps) = time_queries(queries, &truth, |q| {
        lsh.search(q, K, true)
            .expect("lsh")
            .iter()
            .map(|n| n.id)
            .collect()
    });
    rows.push((
        "LSH (8 tables, 14 bits, multiprobe)".to_string(),
        recall,
        qps,
    ));

    println!(
        "{:<44} {:>10} {:>16}",
        "configuration", "recall@10", "normalized QPS"
    );
    for (label, recall, qps) in &rows {
        println!("{label:<44} {recall:>10.3} {:>16.2}", qps / flat_qps);
    }
    println!(
        "\nPaper reference: HNSW is the fastest base algorithm, IVF reaches the same recall, \
         BQ boosts IVF throughput substantially, PQ IVF trails BQ IVF, and LSH falls below \
         exhaustive search at high recall."
    );
}

fn time_queries<F>(queries: &[Vec<f32>], truth: &GroundTruth, mut search: F) -> (f64, f64)
where
    F: FnMut(&Vec<f32>) -> Vec<usize>,
{
    let start = Instant::now();
    let mut recall = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        let ids = search(q);
        recall += recall_at_k(&ids, truth.neighbors(qi), K);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (
        recall / queries.len() as f64,
        queries.len() as f64 / elapsed,
    )
}
