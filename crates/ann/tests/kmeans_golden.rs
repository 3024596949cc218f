//! Golden k-means fixture: what `kmeans::train` computes, frozen as data.
//!
//! `fixtures/kmeans-golden-v1.txt` holds, per trained model, CRC32C
//! checksums of the centroid bits and of the assignments, the bits of the
//! inertia, the iteration count, and a checksum of `nearest_centroid` over a
//! set of probe vectors; and for one `ProductQuantizer`, checksums of its
//! codebooks and of the codes it gives the training set. The shapes:
//!
//! * 2,048 × 1,024-d, k 64 — the dimension the benchmark corpus has;
//! * 517 × 37-d, k 13 — dimensions and rows that are no multiple of 4 or
//!   of a block of rows, on a half-integer grid, so that the first
//!   assignment pass (whose centroids are data points) meets tied distances
//!   and the lower centroid index has to win them;
//! * a product quantizer of 4 × 10-d sub-spaces, 24 codes each.
//!
//! A diff means k-means no longer computes what it used to, and every IVF
//! layout built on it moves. Regenerate
//! (`REIS_REGEN_FIXTURES=1 cargo test -p reis-ann --test kmeans_golden`)
//! only for an intended change of the clustering, and say so in the PR.

use std::fmt::Write as _;
use std::path::PathBuf;

use reis_ann::kmeans::{self, KMeansConfig, KMeansModel};
use reis_ann::quantize::{ProductQuantizer, ProductQuantizerConfig};

mod golden;

use golden::{crc_of_f32s, crc_of_indices, dataset, model_line};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/kmeans-golden-v1.txt")
}

fn render_model(document: &mut String, name: &str, model: &KMeansModel, probes: &[Vec<f32>]) {
    document.push_str(&model_line(
        name,
        &model.centroids,
        &model.assignments,
        model.inertia,
        model.iterations,
        probes.iter().map(|p| model.nearest_centroid(p)),
    ));
}

fn document() -> String {
    let mut document = String::new();

    let data = dataset(2_048, 1_024, 80, false, 11);
    let probes = dataset(96, 1_024, 80, false, 12);
    let config = KMeansConfig::new(64).with_seed(7).with_max_iterations(6);
    let model = kmeans::train(&data, &config).expect("train 1024-d");
    render_model(&mut document, "2048x1024-k64", &model, &probes);

    let data = dataset(517, 37, 9, true, 21);
    let probes = dataset(203, 37, 9, true, 22);
    let config = KMeansConfig::new(13).with_seed(3);
    let model = kmeans::train(&data, &config).expect("train 37-d");
    render_model(&mut document, "517x37-k13", &model, &probes);

    let data = dataset(300, 40, 6, false, 31);
    let config = ProductQuantizerConfig {
        num_subquantizers: 4,
        codebook_size: 24,
        seed: 5,
        train_iterations: 8,
    };
    let pq = ProductQuantizer::train(&data, &config).expect("train PQ");
    let codebooks: Vec<Vec<f32>> = (0..24u8)
        .map(|code| pq.decode(&[code; 4]).expect("decode"))
        .collect();
    let codes: Vec<usize> = data
        .iter()
        .flat_map(|v| pq.encode(v).expect("encode"))
        .map(usize::from)
        .collect();
    writeln!(
        document,
        "pq-300x40-m4-k24 codebooks {:08x} codes {:08x}",
        crc_of_f32s(codebooks.iter().map(Vec::as_slice)),
        crc_of_indices(codes),
    )
    .expect("writing to a string");
    document
}

#[test]
fn kmeans_reproduces_the_golden_fixture() {
    let document = document();
    let path = fixture_path();
    if std::env::var("REIS_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &document).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — regenerate with REIS_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        committed, document,
        "k-means drifted from the golden fixture"
    );
}
