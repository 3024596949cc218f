//! Criterion micro-benchmarks of the kernels REIS executes: the in-plane
//! XOR + fail-bit-count distance computation, the f32 distance k-means
//! trains with, the quickselect / quicksort selection kernels, binary
//! quantization, and the IVF search variants.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use reis_ann::ivf::{IvfBqIndex, IvfConfig, IvfIndex};
use reis_ann::quantize::BinaryQuantizer;
use reis_ann::topk::{quickselect_by_key, select_k_nearest, Neighbor};
use reis_nand::array::FlashDevice;
use reis_nand::cell::ProgramScheme;
use reis_nand::geometry::{Geometry, PageAddr};
use reis_nand::peripheral::PassFailChecker;
use reis_workloads::{DatasetProfile, SyntheticDataset};

use reis_kernels::reference as bytewise;

fn bench_in_plane_distance(c: &mut Criterion) {
    // A full 16 KB page of 128 binary 1024-d embeddings against one query.
    let page: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    let query: Vec<u8> = (0..128).map(|i| (i * 7 % 256) as u8).collect();
    let broadcast: Vec<u8> = query.iter().cycle().take(16 * 1024).copied().collect();
    c.bench_function("in_plane_xor_popcount_page", |b| {
        b.iter(|| {
            let (mut xored, mut counts) = (Vec::new(), Vec::new());
            reis_kernels::xor_bytes_into(&page, &broadcast, &mut xored);
            reis_kernels::count_per_chunk_into(&xored, 128, &mut counts);
            counts
        })
    });
    // The same sweep with the byte-wise seed kernels: the ratio of these two
    // is the word-kernel speedup. (The fixed benchmark tracks the scan
    // kernel of today's hot path on the same page shape:
    // `kernels.scan_ns_per_page` in `reis-perf`.)
    c.bench_function("in_plane_xor_popcount_page_bytewise", |b| {
        b.iter(|| {
            let xored = bytewise::xor(&page, &broadcast);
            bytewise::count_per_chunk(&xored, 128)
        })
    });
    // Allocation-free fused path the engine actually runs: XOR into a reused
    // buffer, count into a reused buffer.
    let mut xor_buf = Vec::new();
    let mut counts = Vec::new();
    c.bench_function("in_plane_xor_popcount_page_reused_buffers", |b| {
        b.iter(|| {
            reis_kernels::xor_bytes_into(&page, &broadcast, &mut xor_buf);
            reis_kernels::count_per_chunk_into(&xor_buf, 128, &mut counts);
            counts.len()
        })
    });
    // The multi-query fused kernel of the batch executor: one pass over the
    // page words scores 8 resident queries (compare against 8× the
    // single-query number above).
    let queries: Vec<Vec<u8>> = (0..8)
        .map(|q| (0..128).map(|i| ((i * 7 + q * 13) % 256) as u8).collect())
        .collect();
    let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let mut fused_counts = Vec::new();
    c.bench_function("in_plane_fused_8query_page", |b| {
        b.iter(|| {
            reis_kernels::fused_hamming_per_chunk_into(&page, 128, &query_refs, &mut fused_counts);
            fused_counts.len()
        })
    });
    // The kernel the scan core calls once per page: score and filter in one
    // pass, at the widths of a single search and of a batch of 8. The
    // threshold is the default filter's 0.47 share of the 1024 bits.
    let thresholds = [481u32; 8];
    let mut hits = Vec::new();
    for width in [1usize, 8] {
        c.bench_function(&format!("fused_hamming_filter_page_width{width}"), |b| {
            b.iter(|| {
                reis_kernels::fused_hamming_filter_into(
                    &page,
                    128,
                    128,
                    &query_refs[..width],
                    &thresholds[..width],
                    &mut Vec::new(),
                    &mut hits,
                );
                hits.len()
            })
        });
    }
    // The same call as a scan pays it: each iteration scores the next of
    // 256 distinct pages (4 MiB, the size of `bf_single`'s corpus), so the
    // page comes from beyond the private caches rather than from L1.
    let pages: Vec<Vec<u8>> = (0..256)
        .map(|p| {
            (0..16 * 1024)
                .map(|i| ((i * 131 + p * 7) % 251) as u8)
                .collect()
        })
        .collect();
    for width in [1usize, 8] {
        let mut next = pages.iter().cycle();
        c.bench_function(&format!("fused_hamming_filter_4mib_width{width}"), |b| {
            b.iter(|| {
                let page = next.next().expect("the page cycle never ends");
                reis_kernels::fused_hamming_filter_into(
                    black_box(page),
                    128,
                    128,
                    &query_refs[..width],
                    &thresholds[..width],
                    &mut Vec::new(),
                    &mut hits,
                );
                hits.len()
            })
        });
    }
}

fn bench_hamming_kernels(c: &mut Criterion) {
    use reis_ann::vector::{hamming_bytes, BinaryVector};
    let a: Vec<u8> = (0..128).map(|i| (i * 31 + 7) as u8).collect();
    let b_: Vec<u8> = (0..128).map(|i| (i * 17 + 3) as u8).collect();
    let va = BinaryVector::from_packed(1024, a.clone());
    let vb = BinaryVector::from_packed(1024, b_.clone());
    c.bench_function("hamming_1024d_word", |bch| {
        bch.iter(|| hamming_bytes(&a, &b_))
    });
    c.bench_function("hamming_1024d_bytewise", |bch| {
        bch.iter(|| bytewise::hamming(&a, &b_))
    });
    c.bench_function("hamming_1024d_binary_vector", |bch| {
        bch.iter(|| va.hamming_distance(&vb))
    });
    // The rerank's distance: a 1024-d INT8 query against one page slot.
    let query: Vec<i8> = (0..1024).map(|i| (i * 29 + 5) as i8).collect();
    let slot: Vec<u8> = (0..1024).map(|i| (i * 13 + 11) as u8).collect();
    let as_i8: Vec<i8> = slot.iter().map(|&b| b as i8).collect();
    c.bench_function("squared_l2_1024d_int8", |bch| {
        bch.iter(|| reis_kernels::squared_l2_i8(black_box(&query), black_box(&slot[..])))
    });
    c.bench_function("squared_l2_1024d_int8_elementwise", |bch| {
        bch.iter(|| reis_kernels::reference::squared_l2_i8(black_box(&query), black_box(&as_i8)))
    });
}

/// The f32 distance k-means computes: one 1024-d pair, and one vector
/// against 64 packed centroids — a training vector's share of an IVF
/// assignment pass at the benchmark's `nlist`.
fn bench_f32_distance(c: &mut Criterion) {
    let query: Vec<f32> = (0..1024)
        .map(|i| ((i * 37 % 101) as f32) / 50.0 - 1.0)
        .collect();
    let centroids: Vec<Vec<f32>> = (0..64)
        .map(|r| {
            (0..1024)
                .map(|i| ((i * 13 + r * 29) % 97) as f32 / 48.0 - 1.0)
                .collect()
        })
        .collect();
    c.bench_function("squared_l2_f32_1024", |b| {
        b.iter(|| reis_kernels::squared_l2_f32(black_box(&query), black_box(&centroids[0])))
    });
    let packed = reis_kernels::PackedRows::new(&centroids);
    c.bench_function("nearest_f32_64x1024", |b| {
        b.iter(|| packed.nearest(black_box(&query)))
    });
}

fn bench_flash_device_scan(c: &mut Criterion) {
    let mut device = FlashDevice::new(Geometry::tiny(), Default::default());
    let addr = PageAddr::new(0, 0, 0, 0, 0);
    let page: Vec<u8> = (0..4096).map(|i| (i % 200) as u8).collect();
    device
        .program_page(addr, &page, &[], ProgramScheme::EnhancedSlc)
        .unwrap();
    // What the scan's sensing reader does per page: sense by stripe
    // position, build the sensed page in a reused buffer, then XOR, count
    // and check every slot in the peripheral's one pass.
    let (mut sensed, mut hits) = (Vec::new(), Vec::new());
    c.bench_function("flash_device_sense_fused_filter", |b| {
        b.iter(|| {
            device.sense(0).unwrap().sensed_into(&mut sensed);
            PassFailChecker::filter_fused(&sensed, 64, 64, &[&[0x55; 64]], &[256], &mut hits);
            hits.len()
        })
    });
}

fn bench_selection_kernels(c: &mut Criterion) {
    let candidates: Vec<Neighbor> = (0..100_000)
        .map(|i| Neighbor::new(i, ((i * 2654435761) % 1_000_003) as f32))
        .collect();
    c.bench_function("quickselect_100k_keep_100", |b| {
        b.iter_batched(
            || candidates.clone(),
            |mut work| quickselect_by_key(&mut work, 100, |n| n.distance),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("select_k_nearest_100k_top10", |b| {
        b.iter(|| select_k_nearest(&candidates, 10))
    });
}

fn bench_quantization_and_ivf(c: &mut Criterion) {
    let dataset =
        SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(1_024).with_queries(4), 3);
    let quantizer = BinaryQuantizer::fit(dataset.vectors()).unwrap();
    c.bench_function("binary_quantize_1024d", |b| {
        b.iter(|| quantizer.quantize(&dataset.vectors()[0]).unwrap())
    });

    let ivf = IvfIndex::build(dataset.vectors().to_vec(), IvfConfig::new(32)).unwrap();
    let bq = IvfBqIndex::from_ivf(&ivf).unwrap();
    let query = &dataset.queries()[0];
    c.bench_function("ivf_float_search_nprobe4", |b| {
        b.iter(|| ivf.search(query, 10, 4).unwrap())
    });
    c.bench_function("ivf_bq_rerank_search_nprobe4", |b| {
        b.iter(|| bq.search(query, 10, 4, 10).unwrap())
    });
}

criterion_group!(
    kernels,
    bench_in_plane_distance,
    bench_hamming_kernels,
    bench_f32_distance,
    bench_flash_device_scan,
    bench_selection_kernels,
    bench_quantization_and_ivf
);
criterion_main!(kernels);
