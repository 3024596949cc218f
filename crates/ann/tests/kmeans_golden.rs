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
use reis_kernels::crc32c;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/kmeans-golden-v1.txt")
}

/// A deterministic stream of 64-bit words (SplitMix64).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// `n` vectors of `dim` values around `clusters` centres; with `grid` set,
/// every value is a multiple of one half.
fn dataset(n: usize, dim: usize, clusters: usize, grid: bool, seed: u64) -> Vec<Vec<f32>> {
    let mut stream = Stream(seed);
    let centres: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| 4.0 * stream.unit()).collect())
        .collect();
    (0..n)
        .map(|i| {
            let centre = &centres[i % clusters];
            centre
                .iter()
                .map(|&c| {
                    let x = c + stream.unit();
                    if grid {
                        (x * 2.0).round() / 2.0
                    } else {
                        x
                    }
                })
                .collect()
        })
        .collect()
}

fn crc_of_f32s<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u32 {
    let mut state = 0;
    for row in rows {
        for x in row {
            state = reis_kernels::crc32c_extend(state, &x.to_bits().to_le_bytes());
        }
    }
    state
}

fn crc_of_indices(indices: impl IntoIterator<Item = usize>) -> u32 {
    let bytes: Vec<u8> = indices
        .into_iter()
        .flat_map(|i| (i as u32).to_le_bytes())
        .collect();
    crc32c(&bytes)
}

fn render_model(document: &mut String, name: &str, model: &KMeansModel, probes: &[Vec<f32>]) {
    let nearest = probes.iter().map(|p| model.nearest_centroid(p));
    writeln!(
        document,
        "{name} centroids {:08x} assignments {:08x} inertia {:016x} iterations {} nearest {:08x}",
        crc_of_f32s(model.centroids.iter().map(Vec::as_slice)),
        crc_of_indices(model.assignments.iter().copied()),
        model.inertia.to_bits(),
        model.iterations,
        crc_of_indices(nearest),
    )
    .expect("writing to a string");
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
