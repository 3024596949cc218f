//! Probes: direct timed calls into the lower layers' public functions,
//! sized by the workload's own mean activity, for the traced run. They
//! answer "what does this layer cost on its own" so a layer PR can predict
//! which end-to-end number should move.

use std::hint::black_box;
use std::time::Instant;

use reis::ann::rerank::rerank_int8;
use reis::ann::topk::{distance_index_key, quickselect_by_key};
use reis::ann::{BinaryQuantizer, Int8Quantizer, Int8Vector};
use reis::core::WorkerPool;
use reis::nand::{
    FlashDevice, Geometry, OobEntry, OobLayout, PageAddr, ProgramScheme, TimingParams,
};
use reis_kernels::{crc32c, fused_hamming_filter_into, FusedHit};

use crate::stats;

/// Median nanoseconds per call of `f`, over batches sized to ≈ 1 ms each.
fn median_ns(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 15;
    const BATCH_NS: f64 = 1e6;
    let started = Instant::now();
    f();
    let once_ns = (started.elapsed().as_nanos() as f64).max(1.0);
    let per_batch = ((BATCH_NS / once_ns) as usize).clamp(1, 1_000_000);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&batches)
}

fn pseudo_random_bytes(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// `fused_hamming_filter_into` on one SSD1 page of `slot_bytes`-sized
/// embeddings against `width` queries, at the configured filter threshold
/// share of the dimensionality: nanoseconds per page.
pub fn kernel_scan_ns_per_page(slot_bytes: usize, width: usize, threshold_fraction: f64) -> f64 {
    let page_bytes = Geometry::reis_ssd1().page_size_bytes;
    let page = pseudo_random_bytes(page_bytes, 1);
    let queries: Vec<Vec<u8>> = (0..width)
        .map(|q| pseudo_random_bytes(slot_bytes, 100 + q as u64))
        .collect();
    let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let threshold = (threshold_fraction * (slot_bytes * 8) as f64).round() as u32;
    let thresholds = vec![threshold; width];
    let mut acc = Vec::new();
    let mut hits: Vec<FusedHit> = Vec::new();
    median_ns(|| {
        fused_hamming_filter_into(
            black_box(&page),
            slot_bytes,
            page_bytes / slot_bytes,
            &query_refs,
            &thresholds,
            &mut acc,
            &mut hits,
        );
        black_box(hits.len());
    })
}

/// CRC32C throughput over a 1 MiB buffer, GB/s.
pub fn crc32c_gbps() -> f64 {
    let buffer = pseudo_random_bytes(1 << 20, 2);
    let ns = median_ns(|| {
        black_box(crc32c(black_box(&buffer)));
    });
    buffer.len() as f64 / ns
}

/// `FlashDevice::read_page_into` on a benchmark-built SSD1-geometry device:
/// nanoseconds per page, cycling over one programmed block's pages.
pub fn nand_page_read_ns() -> f64 {
    let geometry = Geometry::reis_ssd1();
    let mut device = FlashDevice::new(geometry, TimingParams::reis_ssd1());
    let data = pseudo_random_bytes(geometry.page_size_bytes, 3);
    let oob = pseudo_random_bytes(geometry.oob_size_bytes, 4);
    let pages: Vec<PageAddr> = (0..geometry.pages_per_block.min(64))
        .map(|page| PageAddr::new(0, 0, 0, 0, page))
        .collect();
    for &addr in &pages {
        if device
            .program_page(addr, &data, &oob, ProgramScheme::EnhancedSlc)
            .is_err()
        {
            return 0.0;
        }
    }
    let (mut data_out, mut oob_out) = (Vec::new(), Vec::new());
    let mut next = 0;
    median_ns(|| {
        let addr = pages[next % pages.len()];
        next += 1;
        black_box(
            device
                .read_page_into(addr, &mut data_out, &mut oob_out)
                .is_ok(),
        );
    })
}

/// `OobLayout::unpack_entry` over a full page's linkage entries:
/// nanoseconds per entry.
pub fn oob_unpack_ns_per_entry(entries_per_page: usize) -> f64 {
    let geometry = Geometry::reis_ssd1();
    let Ok(layout) = OobLayout::new(geometry.oob_size_bytes, entries_per_page) else {
        return 0.0;
    };
    let entries: Vec<OobEntry> = (0..entries_per_page as u32)
        .map(|i| OobEntry {
            dadr: i,
            radr: i * 3,
            tag: i as u8,
        })
        .collect();
    let Ok(packed) = layout.pack(&entries) else {
        return 0.0;
    };
    let per_page = median_ns(|| {
        for offset in 0..entries_per_page {
            black_box(layout.unpack_entry(black_box(&packed), offset).is_ok());
        }
    });
    per_page / entries_per_page.max(1) as f64
}

/// `BinaryQuantizer::quantize` + `Int8Quantizer::quantize` of one query,
/// µs — what every search pays before it touches the device.
pub fn quantize_us(query: &[f32]) -> f64 {
    let binary = BinaryQuantizer::zero_threshold(query.len());
    let int8 = Int8Quantizer::unit_range(query.len());
    median_ns(|| {
        black_box(binary.quantize(black_box(query)).is_ok());
        black_box(int8.quantize(black_box(query)).is_ok());
    }) / 1e3
}

/// `quickselect_by_key` keeping `keep` of `candidates` `(distance, index)`
/// pairs under the total-order key the engine uses, µs.
pub fn select_us(candidates: usize, keep: usize) -> f64 {
    let source: Vec<(u32, u32)> = pseudo_random_bytes(candidates * 2, 5)
        .chunks_exact(2)
        .enumerate()
        .map(|(index, pair)| {
            (
                u32::from(pair[0]) << 1 | u32::from(pair[1] & 1),
                index as u32,
            )
        })
        .collect();
    let mut scratch = source.clone();
    median_ns(|| {
        scratch.copy_from_slice(&source);
        quickselect_by_key(&mut scratch, keep, |&(distance, index)| {
            distance_index_key(distance, index)
        });
        black_box(scratch[0]);
    }) / 1e3
}

/// `rerank_int8` of `candidates` INT8 vectors of `dim` dimensions down to
/// the top `k`, µs.
pub fn rerank_us(candidates: usize, dim: usize, k: usize) -> f64 {
    let vector = |seed: u64| {
        Int8Vector::new(
            pseudo_random_bytes(dim, seed)
                .into_iter()
                .map(|b| b as i8)
                .collect(),
        )
    };
    let database: Vec<Int8Vector> = (0..candidates as u64).map(|i| vector(10 + i)).collect();
    let ids: Vec<usize> = (0..candidates).collect();
    let query = vector(6);
    median_ns(|| {
        black_box(rerank_int8(black_box(&query), &ids, &database, k).is_ok());
    }) / 1e3
}

/// `WorkerPool::scope` spawning `tasks` empty tasks and joining them, µs.
pub fn scope_dispatch_us(pool: &WorkerPool, tasks: usize) -> f64 {
    median_ns(|| {
        let joined = pool.scope(|scope| {
            for _ in 0..tasks {
                scope.spawn(|_| {});
            }
        });
        black_box(joined.is_ok());
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_returns_a_positive_time() {
        assert!(kernel_scan_ns_per_page(128, 1, 0.47) > 0.0);
        assert!(kernel_scan_ns_per_page(128, 8, 0.47) > kernel_scan_ns_per_page(128, 1, 0.47));
        assert!(crc32c_gbps() > 0.0);
        assert!(nand_page_read_ns() > 0.0);
        assert!(oob_unpack_ns_per_entry(128) > 0.0);
        assert!(quantize_us(&vec![0.25; 1024]) > 0.0);
        assert!(select_us(2_000, 100) > 0.0);
        assert!(rerank_us(100, 1024, 10) > 0.0);
        assert!(scope_dispatch_us(&WorkerPool::new(2), 2) > 0.0);
    }
}
