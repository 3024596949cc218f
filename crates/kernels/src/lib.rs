//! # reis-kernels — the distance kernels of the REIS workspace
//!
//! The single home of the kernels the rest of the workspace computes
//! distances with: the word-level XOR/popcount and Hamming-distance kernels
//! of the in-flash scan, the rerank's INT8 squared Euclidean distance, and
//! the f32 squared Euclidean distance the host-side index build (k-means)
//! runs on. `reis-nand`'s peripheral model (the fail-bit counter and
//! inter-latch XOR logic), `reis-ann`'s vector types and distances and
//! `reis-bench`'s baseline measurements all re-export from here, so exactly
//! one implementation of each kernel exists.
//!
//! # Kernel discipline
//!
//! * **One primitive.** Everything counted here is the Hamming distance
//!   between one chunk and one query. Its bodies score blocks of up to
//!   eight (chunk, query) pairs — a slot's words loaded once for a group of
//!   up to eight queries, or, below five queries, several consecutive slots
//!   sharing one block; each pair in its own register accumulator, the
//!   eight reduced together by one transpose. One driver walks a latch
//!   slot-major (chunks outside, queries inside) and hands each block's
//!   totals to the entry point: the filter tests all eight against their
//!   thresholds in one compare, the counters store them. No distance takes
//!   a round trip through memory before it is complete. A set-bit count is
//!   the distance to an all-zero query.
//! * **One dispatch.** Every entry point detects the CPU's instruction-set
//!   level once per call and runs the matching body: baseline scalar code,
//!   scalar with hardware POPCNT, AVX2 (`vpshufb` nibble table + `vpsadbw`)
//!   or AVX-512 (`VPOPCNTQ`, byte-masked tail loads). The CRC, INT8 and f32
//!   bodies hang off the same detection. The tests run *every* body the host supports
//!   against the byte-wise [`mod@reference`], not only the dispatched one.
//! * Exact handling of any length: trailing partial chunks, and chunk sizes
//!   that are no multiple of a word or a vector.
//! * The `_into` variants write into caller-provided buffers, so steady-state
//!   page scans perform no heap allocation here.
//! * **One f32 contract.** [`squared_l2_f32`] is a four-lane fold: lane
//!   `l` sums `(x[i] - y[i])²` over the dimensions `i ≡ l (mod 4)` in
//!   order, a tail sums the last `len % 4` squares in order, and the result
//!   is `(s0 + s1) + (s2 + s3) + tail`. **No FMA**: every subtract,
//!   multiply and add is rounded on its own, in every body, so the same
//!   inputs give the same bits on every CPU (a NaN is a NaN; Rust leaves
//!   its payload unspecified). The bodies differ only in how many rows they
//!   fold against one query at once, each row's four lanes in a register
//!   accumulator of its own: one (portable), eight `__m128` (SSE), sixteen
//!   as two per `__m256` (AVX2), sixteen as four per `__m512` (AVX-512,
//!   from a [`PackedRows`] whose four-row interleave fills a register with
//!   one load). [`squared_l2_f32_rows`], [`nearest_f32`] and
//!   [`PackedRows::nearest`] are the row entry points; a nearest row is the
//!   first one below every earlier distance, so ties go to the lower index
//!   and a NaN never wins. The tests hold every body to the element-wise
//!   [`reference::squared_l2_f32`] bit for bit.
//! * `unsafe` is confined to the `#[target_feature]` bodies and the calls
//!   into them, each of which rests on a run-time feature check.
//!
//! # The fused multi-query kernel
//!
//! [`fused_hamming_per_chunk_into`] scores one sensed page against `B`
//! broadcast queries in a single pass over the page: each chunk is scored
//! against every query while it is cache-hot. This is the software mirror of
//! REIS amortizing a flash sense across a batch of in-flight queries — the
//! page moves through the peripheral once, the per-query XOR + fail-bit
//! count runs `B` times. [`fused_hamming_filter_into`] additionally folds
//! the pass/fail comparison into the same pass: each query carries its own
//! threshold (fixed for the duration of one page window under the windowed
//! adaptive schedule) and only passing [`FusedHit`]s are emitted.
//!
//! # CRC32C
//!
//! [`crc32c`] / [`crc32c_extend`] implement the Castagnoli CRC
//! (polynomial `0x1EDC6F41`, reflected) used by `reis-persist` for both the
//! snapshot section checksums and the WAL frame checksums, so exactly one
//! checksum implementation guards every durable byte. It runs on the SSE4.2
//! `crc32` instruction where the CPU has it and on slicing-by-8 tables
//! (built at compile time) elsewhere, with a bitwise [`reference::crc32c`]
//! baseline the tests verify both against.
//!
//! The element-at-a-time [`mod@reference`] kernels match the seed
//! implementation (and, for f32, the fold `reis-ann` had before it moved
//! here) and are kept solely as the baseline the tests and benchmarks
//! measure against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
mod distance;
mod isa;
mod l2;

pub use distance::Int8;
use distance::Job;
use isa::Isa;
pub use l2::PackedRows;
use l2::Slices;

/// The all-zero query a set-bit count is the distance to.
static ZEROS: [u8; 256] = [0; 256];

/// Set-bit count of a byte slice.
#[inline]
pub fn popcount_bytes(bytes: &[u8]) -> u64 {
    let isa = Isa::detect();
    bytes
        .chunks(ZEROS.len())
        .map(|block| u64::from(distance::pair(isa, block, &ZEROS[..block.len()])))
        .sum()
}

/// Hamming distance between two equally long byte slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn hamming_bytes(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming distance requires equal lengths");
    distance::pair(Isa::detect(), a, b)
}

/// Squared Euclidean distance between two equally long INT8 vectors, exact
/// in `i64`. `b` may be `i8`s or the raw bytes of a flash page slot (see
/// [`Int8`]) — the rerank scores candidates where the page read left them.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_l2_i8<T: Int8>(a: &[i8], b: &[T]) -> i64 {
    assert_eq!(a.len(), b.len(), "distance requires equal dimensionality");
    distance::squared_l2_i8(Isa::detect(), a, b)
}

/// Squared Euclidean distance between two equally long `f32` vectors: the
/// workspace's one definition of it. Lane `l` of a four-lane fold sums
/// `(a[i] - b[i])²` over the dimensions `i ≡ l (mod 4)` in order, a tail
/// sums the last `len % 4` squares in order, and the result is
/// `(s0 + s1) + (s2 + s3) + tail` — every subtract, multiply and add
/// rounded on its own, never fused. Every entry point of the f32 family
/// returns exactly these bits.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_l2_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut out = [0.0];
    l2::distances(Isa::detect(), &Slices(&[a]), b, &mut out);
    out[0]
}

/// `out[i] = squared_l2_f32(rows[i], query)` for every row, several rows
/// folded at once, each in its own register accumulator.
///
/// # Panics
///
/// Panics if a row is not as long as `query`, or `out` not as long as
/// `rows`.
pub fn squared_l2_f32_rows<R: AsRef<[f32]>>(query: &[f32], rows: &[R], out: &mut [f32]) {
    l2::distances(Isa::detect(), &Slices(rows), query, out);
}

/// The row of `rows` nearest to `query` under [`squared_l2_f32`], and its
/// distance — the rule of [`PackedRows::nearest`], for rows not worth
/// packing: the first row below every earlier one, starting from `+∞`, so
/// a tie goes to the lower index, a NaN never wins, and the answer is
/// `(0, +∞)` when no row is below `+∞`.
///
/// # Panics
///
/// Panics if a row is not as long as `query`.
pub fn nearest_f32<R: AsRef<[f32]>>(query: &[f32], rows: &[R]) -> (usize, f32) {
    l2::nearest(Isa::detect(), &Slices(rows), query)
}

/// XOR `a` and `b` into `out` (cleared and resized first), processed as
/// `u64` words with a byte-wise tail.
///
/// # Panics
///
/// Panics if the inputs have different lengths.
#[inline]
pub fn xor_bytes_into(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    assert_eq!(a.len(), b.len(), "latch contents must have identical sizes");
    out.clear();
    out.resize(a.len(), 0);
    let (words_a, rest_a) = a.as_chunks::<8>();
    let (words_b, rest_b) = b.as_chunks::<8>();
    let (words_out, rest_out) = out.as_chunks_mut::<8>();
    for ((x, y), o) in words_a.iter().zip(words_b).zip(words_out) {
        *o = (u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y)).to_le_bytes();
    }
    for ((x, y), o) in rest_a.iter().zip(rest_b).zip(rest_out) {
        *o = x ^ y;
    }
}

/// Count the set bits of every `chunk_bytes`-sized chunk of `latch`,
/// appending one count per chunk into `out` (cleared first). A trailing
/// partial chunk is counted as its own entry.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero.
pub fn count_per_chunk_into(latch: &[u8], chunk_bytes: usize, out: &mut Vec<u32>) {
    assert!(chunk_bytes > 0, "chunk size must be non-zero");
    out.clear();
    out.reserve(latch.len().div_ceil(chunk_bytes));
    let Some(zeros) = ZEROS.get(..chunk_bytes) else {
        // Chunks longer than the zero query: count each on its own.
        out.extend(
            latch
                .chunks(chunk_bytes)
                .map(|chunk| popcount_bytes(chunk) as u32),
        );
        return;
    };
    let job = Job {
        latch,
        chunk_bytes,
        slot_limit: usize::MAX,
        queries: &[zeros],
    };
    distance::scan(Isa::detect(), &job, |_, _, count| out.push(count));
}

/// The shared argument checks of the fused kernels.
fn check_fused(chunk_bytes: usize, queries: &[&[u8]]) {
    assert!(chunk_bytes > 0, "chunk size must be non-zero");
    for query in queries {
        assert_eq!(
            query.len(),
            chunk_bytes,
            "fused queries must match the chunk size"
        );
    }
}

/// Fused multi-query Hamming kernel: score every `chunk_bytes`-sized chunk
/// of `latch` (one sensed page) against each query in a single pass over the
/// page.
///
/// `out` is cleared and filled query-major: the counts of query `q` occupy
/// `out[q * n_chunks .. (q + 1) * n_chunks]`, where
/// `n_chunks = latch.len().div_ceil(chunk_bytes)`, so each query's filter
/// pass works on a contiguous slice. A trailing partial chunk is scored
/// against the prefix of each query, exactly as XOR-ing the page against a
/// query tiled across the whole latch would.
///
/// The result equals running [`count_per_chunk_into`] over the XOR of the
/// page with each query's tiling, one query at a time — but the page is
/// walked once for all queries.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero or any query is not exactly
/// `chunk_bytes` long.
pub fn fused_hamming_per_chunk_into(
    latch: &[u8],
    chunk_bytes: usize,
    queries: &[&[u8]],
    out: &mut Vec<u32>,
) {
    check_fused(chunk_bytes, queries);
    let n_chunks = latch.len().div_ceil(chunk_bytes);
    out.clear();
    out.resize(n_chunks * queries.len(), 0);
    let job = Job {
        latch,
        chunk_bytes,
        slot_limit: usize::MAX,
        queries,
    };
    distance::scan(Isa::detect(), &job, |slot, q, distance| {
        out[q * n_chunks + slot] = distance;
    });
}

/// One passing slot of a threshold-aware fused scan: which query it passed
/// for, which page chunk (slot) it is, and the Hamming distance.
///
/// Hits are emitted chunk-major (ascending slot, then query order), so
/// consecutive hits of different queries on the same slot are adjacent —
/// callers that unpack per-slot metadata (e.g. flash OOB linkage) can reuse
/// the unpacked value across queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedHit {
    /// Index into the `queries` slice the hit belongs to.
    pub query: u32,
    /// Chunk (mini-page slot) index within the scored page.
    pub slot: u32,
    /// Hamming distance between the chunk and the query.
    pub distance: u32,
}

/// Threshold-aware fused multi-query kernel: score the first `slot_limit`
/// `chunk_bytes`-sized chunks of `latch` (one sensed page) against every
/// query in a single pass over the page, and emit only the [`FusedHit`]s
/// whose distance is at or below that query's threshold.
///
/// This fuses [`fused_hamming_per_chunk_into`] with the pass/fail
/// comparison, which is what the windowed adaptive scan wants — each query's
/// threshold is fixed for the duration of one page window, so the comparison
/// can run inside the scoring pass. The kernel scores blocks of up to eight
/// (slot, query) pairs and tests a block's totals against their queries'
/// thresholds in one compare (one `vpcmpuq` on AVX-512), then walks the set
/// bits of the resulting mask, one hit per bit. On AVX-512 a failing
/// distance never leaves the registers: the totals are compared where the
/// reduction left them, and a block with a hit is stored with its failing
/// lanes zeroed. `out` is a reusable hit buffer (cleared here), so
/// steady-state scans allocate nothing.
///
/// `_acc` was the per-query accumulator of an earlier word-major kernel.
/// The register-blocked bodies keep their sums in registers and need none,
/// so it is left untouched; the parameter stays because callers outside the
/// workspace pass it.
///
/// Hits are chunk-major: ascending slot, queries in input order within a
/// slot (see [`FusedHit`]).
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero, any query is not exactly `chunk_bytes`
/// long, or `thresholds.len() != queries.len()`.
pub fn fused_hamming_filter_into(
    latch: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    queries: &[&[u8]],
    thresholds: &[u32],
    _acc: &mut Vec<u32>,
    out: &mut Vec<FusedHit>,
) {
    assert_eq!(
        queries.len(),
        thresholds.len(),
        "one threshold per fused query"
    );
    check_fused(chunk_bytes, queries);
    out.clear();
    let job = Job {
        latch,
        chunk_bytes,
        slot_limit,
        queries,
    };
    distance::filter(Isa::detect(), &job, thresholds, out);
}

/// Fold `bytes` into a running CRC32C state.
///
/// The state is the *finalized* checksum of everything folded so far:
/// `crc32c_extend(crc32c(a), b) == crc32c(a ++ b)`, and the empty-input
/// checksum `0` is the identity state. This is what the WAL reader uses to
/// checksum a frame it consumes in pieces.
#[inline]
pub fn crc32c_extend(state: u32, bytes: &[u8]) -> u32 {
    crc::extend(Isa::detect(), state, bytes)
}

/// CRC32C (Castagnoli) checksum of `bytes`.
///
/// Standard parameters: initial state `0xFFFF_FFFF`, reflected input and
/// output, final XOR `0xFFFF_FFFF` — the known-answer vector
/// `crc32c(b"123456789") == 0xE306_9283` holds.
#[inline]
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_extend(0, bytes)
}

pub mod reference {
    //! Byte-at-a-time reference kernels matching the seed implementation.
    //!
    //! Kept as the single baseline the criterion `kernels` bench and the
    //! figure binaries measure the u64-word kernels against, so reported
    //! speedups always refer to the same code. Never used on a hot path.

    /// Byte-wise XOR (the seed's `XorLogic::xor`).
    pub fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect()
    }

    /// Byte-wise per-chunk popcount (the seed's
    /// `FailBitCounter::count_per_chunk`).
    pub fn count_per_chunk(latch: &[u8], chunk_bytes: usize) -> Vec<u32> {
        latch
            .chunks(chunk_bytes)
            .map(|c| c.iter().map(|b| b.count_ones()).sum())
            .collect()
    }

    /// Byte-wise Hamming distance (the seed's
    /// `BinaryVector::hamming_distance`).
    pub fn hamming(a: &[u8], b: &[u8]) -> u32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum()
    }

    /// Element-wise INT8 squared Euclidean distance, every term in `i64`.
    /// The baseline every level of [`crate::squared_l2_i8`] is tested
    /// against.
    pub fn squared_l2_i8(a: &[i8], b: &[i8]) -> i64 {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (i64::from(x) - i64::from(y)).pow(2))
            .sum()
    }

    /// The f32 squared Euclidean distance as `reis-ann` computed it before
    /// the f32 family moved here — the four-lane fold on two slices,
    /// element by element. The baseline every body of
    /// [`crate::squared_l2_f32`] is tested against, bit for bit.
    pub fn squared_l2_f32(a: &[f32], b: &[f32]) -> f32 {
        let mut aq = a.chunks_exact(4);
        let mut bq = b.chunks_exact(4);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (x, y) in aq.by_ref().zip(bq.by_ref()) {
            let d0 = x[0] - y[0];
            let d1 = x[1] - y[1];
            let d2 = x[2] - y[2];
            let d3 = x[3] - y[3];
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        let mut tail = 0.0f32;
        for (x, y) in aq.remainder().iter().zip(bq.remainder()) {
            tail += (x - y) * (x - y);
        }
        (s0 + s1) + (s2 + s3) + tail
    }

    /// Bitwise CRC32C: one shift-and-conditional-XOR step per input bit,
    /// straight off the polynomial definition. The baseline every body of
    /// [`crate::crc32c`] is tested against.
    pub fn crc32c(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ crate::crc::POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, mul: usize, add: usize) -> Vec<u8> {
        (0..len).map(|i| (i * mul + add) as u8).collect()
    }

    #[test]
    fn word_kernels_match_bytewise_reference_on_odd_tails() {
        for len in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255] {
            let a = pattern(len, 37, 11);
            let b = pattern(len, 101, 3);
            let ref_pop: u64 = a.iter().map(|v| v.count_ones() as u64).sum();
            assert_eq!(popcount_bytes(&a), ref_pop, "len {len}");
            assert_eq!(
                hamming_bytes(&a, &b),
                reference::hamming(&a, &b),
                "len {len}"
            );
            let mut xored = Vec::new();
            xor_bytes_into(&a, &b, &mut xored);
            assert_eq!(xored, reference::xor(&a, &b), "len {len}");
            for chunk in [1usize, 3, 8, 13, 32] {
                let mut got = Vec::new();
                count_per_chunk_into(&a, chunk, &mut got);
                assert_eq!(
                    got,
                    reference::count_per_chunk(&a, chunk),
                    "len {len} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn fused_kernel_matches_per_query_xor_popcount() {
        for page_len in [24usize, 64, 65, 100, 256] {
            for chunk in [8usize, 13, 16, 32] {
                let page = pattern(page_len, 29, 7);
                let queries: Vec<Vec<u8>> = (0..4).map(|q| pattern(chunk, 17 + q, q)).collect();
                let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
                let mut fused = Vec::new();
                fused_hamming_per_chunk_into(&page, chunk, &query_refs, &mut fused);
                let n_chunks = page_len.div_ceil(chunk);
                assert_eq!(fused.len(), n_chunks * queries.len());
                for (q, query) in queries.iter().enumerate() {
                    // Tile the query across the page (restarting at every
                    // chunk boundary, like a broadcast into the cache latch),
                    // XOR, count per chunk — the single-query flow.
                    let tiled: Vec<u8> = (0..page_len).map(|i| query[i % chunk]).collect();
                    let mut xored = Vec::new();
                    xor_bytes_into(&page, &tiled, &mut xored);
                    let expected = reference::count_per_chunk(&xored, chunk);
                    assert_eq!(
                        &fused[q * n_chunks..(q + 1) * n_chunks],
                        &expected[..],
                        "page {page_len} chunk {chunk} query {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_kernel_with_no_queries_clears_output() {
        let mut out = vec![7u32; 5];
        fused_hamming_per_chunk_into(&[1, 2, 3, 4], 2, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fused_kernel_handles_one_query_like_the_single_kernel() {
        let page = pattern(128, 41, 5);
        let query = pattern(16, 9, 2);
        let mut fused = Vec::new();
        fused_hamming_per_chunk_into(&page, 16, &[&query], &mut fused);
        for (c, chunk) in page.chunks(16).enumerate() {
            assert_eq!(fused[c], hamming_bytes(chunk, &query), "chunk {c}");
        }
    }

    #[test]
    fn fused_filter_matches_count_then_filter() {
        for page_len in [24usize, 64, 65, 100, 256] {
            for chunk in [8usize, 13, 16, 32] {
                let page = pattern(page_len, 29, 7);
                let queries: Vec<Vec<u8>> = (0..4).map(|q| pattern(chunk, 17 + q, q)).collect();
                let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
                // Distinct per-query thresholds straddling the typical
                // distance range.
                let thresholds: Vec<u32> = (0..4).map(|q| (chunk as u32) * (2 + q)).collect();
                let n_chunks = page_len.div_ceil(chunk);
                for slot_limit in [0usize, 1, n_chunks / 2, n_chunks, n_chunks + 3] {
                    let mut acc = Vec::new();
                    let mut hits = Vec::new();
                    fused_hamming_filter_into(
                        &page,
                        chunk,
                        slot_limit,
                        &query_refs,
                        &thresholds,
                        &mut acc,
                        &mut hits,
                    );
                    // Reference: the unfused count kernel followed by an
                    // explicit threshold pass, reordered chunk-major.
                    let mut counts = Vec::new();
                    fused_hamming_per_chunk_into(&page, chunk, &query_refs, &mut counts);
                    let mut expected = Vec::new();
                    for slot in 0..n_chunks.min(slot_limit) {
                        for (q, &threshold) in thresholds.iter().enumerate() {
                            let distance = counts[q * n_chunks + slot];
                            if distance <= threshold {
                                expected.push(FusedHit {
                                    query: q as u32,
                                    slot: slot as u32,
                                    distance,
                                });
                            }
                        }
                    }
                    assert_eq!(
                        hits, expected,
                        "page {page_len} chunk {chunk} limit {slot_limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_filter_emits_chunk_major_and_respects_thresholds() {
        // Page of two chunks; query 0 matches chunk 0 exactly, query 1
        // matches chunk 1 exactly. With a threshold of 0 each query passes
        // only its own chunk, in slot order.
        let page = [0xAAu8, 0x55, 0x0F, 0xF0];
        let q0 = [0xAAu8, 0x55];
        let q1 = [0x0Fu8, 0xF0];
        let mut acc = Vec::new();
        let mut hits = Vec::new();
        fused_hamming_filter_into(&page, 2, 2, &[&q0, &q1], &[0, 0], &mut acc, &mut hits);
        assert_eq!(
            hits,
            vec![
                FusedHit {
                    query: 0,
                    slot: 0,
                    distance: 0
                },
                FusedHit {
                    query: 1,
                    slot: 1,
                    distance: 0
                },
            ]
        );
        // No queries: the hit buffer is cleared.
        let mut stale = vec![FusedHit {
            query: 9,
            slot: 9,
            distance: 9,
        }];
        fused_hamming_filter_into(&page, 2, 2, &[], &[], &mut acc, &mut stale);
        assert!(stale.is_empty());
    }

    #[test]
    #[should_panic(expected = "one threshold per fused query")]
    fn fused_filter_rejects_threshold_mismatch() {
        let query = [0u8; 2];
        fused_hamming_filter_into(
            &[1, 2],
            2,
            1,
            &[&query],
            &[],
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn fused_kernel_rejects_zero_chunks() {
        fused_hamming_per_chunk_into(&[1, 2], 0, &[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "must match the chunk size")]
    fn fused_kernel_rejects_mis_sized_queries() {
        let query = [1u8, 2, 3];
        fused_hamming_per_chunk_into(&[1, 2, 3, 4], 2, &[&query], &mut Vec::new());
    }

    #[test]
    fn crc32c_known_answers() {
        // The canonical check vector (RFC 3720 appendix B.4 parameters).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // Empty input is the identity state.
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes (an iSCSI test vector).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 0xFF bytes.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // Ascending 0..=31.
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn crc32c_matches_bitwise_reference_and_extends() {
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 255, 1024] {
            let data = pattern(len, 37, 11);
            assert_eq!(crc32c(&data), reference::crc32c(&data), "len {len}");
            // Folding the same bytes in two pieces at every split point
            // gives the same checksum as one pass.
            for split in [0, len / 3, len / 2, len] {
                let state = crc32c(&data[..split]);
                assert_eq!(
                    crc32c_extend(state, &data[split..]),
                    crc32c(&data),
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn crc32c_detects_single_byte_corruption() {
        let data = pattern(256, 41, 5);
        let clean = crc32c(&data);
        for offset in [0usize, 1, 100, 255] {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupted = data.clone();
                corrupted[offset] ^= flip;
                assert_ne!(
                    crc32c(&corrupted),
                    clean,
                    "flip {flip:#x} at {offset} must change the checksum"
                );
            }
        }
    }

    /// Deterministic noise: a different stream per seed.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// The widths the fused bodies are checked at: none, the narrow widths
    /// whose blocks hold several slots (with slots left over at the end of
    /// the page), one slot against seven and eight queries, and query groups
    /// of eight with remainders of none, one and seven.
    const WIDTHS: [usize; 11] = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33];

    #[test]
    fn every_body_emits_reference_distances_in_slot_then_query_order() {
        let bodies: Vec<Isa> = Isa::supported().collect();
        assert_eq!(bodies.last(), Some(&Isa::detect()));
        // Chunk sizes that are and are not multiples of a word (8), an AVX2
        // vector (32) and an AVX-512 vector (64); nine full chunks — one
        // whole block of eight slots for a single query, and slots left
        // over for every narrow width — and a trailing partial one.
        for chunk in 1usize..=256 {
            let page = noise(chunk * 9 + chunk / 2, chunk as u64);
            let n_chunks = page.len().div_ceil(chunk);
            let all_queries: Vec<Vec<u8>> = (0..33)
                .map(|q| noise(chunk, 1_000 + (chunk * 64 + q) as u64))
                .collect();
            for &isa in &bodies {
                assert_eq!(
                    distance::pair(isa, &page[..chunk], &all_queries[0]),
                    reference::hamming(&page[..chunk], &all_queries[0]),
                    "{isa:?} chunk {chunk}"
                );
            }
            for width in WIDTHS {
                let queries: Vec<&[u8]> = all_queries[..width].iter().map(Vec::as_slice).collect();
                for slot_limit in [0, 1, n_chunks / 2, n_chunks, n_chunks + 3] {
                    // Ascending slot, then query order: the order
                    // `PageBody::score_page`'s one-entry OOB cache relies on.
                    let mut expected = Vec::new();
                    for (slot, bytes) in page.chunks(chunk).take(slot_limit).enumerate() {
                        for (q, query) in queries.iter().enumerate() {
                            let distance = reference::hamming(bytes, &query[..bytes.len()]);
                            expected.push((slot, q, distance));
                        }
                    }
                    let job = Job {
                        latch: &page,
                        chunk_bytes: chunk,
                        slot_limit,
                        queries: &queries,
                    };
                    for &isa in &bodies {
                        let mut got = Vec::with_capacity(expected.len());
                        distance::scan(isa, &job, |slot, q, distance| {
                            got.push((slot, q, distance));
                        });
                        assert_eq!(
                            got, expected,
                            "{isa:?} chunk {chunk} width {width} limit {slot_limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn entry_points_match_the_reference_for_every_chunk_size() {
        let bodies: Vec<Isa> = Isa::supported().collect();
        for chunk in 1usize..=256 {
            let mut page = noise(chunk * 9 + chunk / 2, 7 + chunk as u64);
            let queries: Vec<Vec<u8>> = (0..33)
                .map(|q| noise(chunk, (chunk * 64 + q) as u64))
                .collect();
            // Slot 2 equals query 1, so a threshold of 0 has a hit to keep.
            page[2 * chunk..3 * chunk].copy_from_slice(&queries[1]);
            let n_chunks = page.len().div_ceil(chunk);
            let reference: Vec<Vec<u32>> = page
                .chunks(chunk)
                .map(|bytes| {
                    let prefix = |query: &Vec<u8>| reference::hamming(bytes, &query[..bytes.len()]);
                    queries.iter().map(prefix).collect()
                })
                .collect();

            let mut counts = Vec::new();
            count_per_chunk_into(&page, chunk, &mut counts);
            assert_eq!(counts, reference::count_per_chunk(&page, chunk), "{chunk}");
            let ones: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            assert_eq!(popcount_bytes(&page), ones, "{chunk}");
            assert_eq!(
                hamming_bytes(&page[..chunk], &queries[0]),
                reference::hamming(&page[..chunk], &queries[0]),
                "{chunk}"
            );

            for width in WIDTHS {
                let refs: Vec<&[u8]> = queries[..width].iter().map(Vec::as_slice).collect();
                let mut fused = vec![u32::MAX; 3];
                fused_hamming_per_chunk_into(&page, chunk, &refs, &mut fused);
                assert_eq!(fused.len(), n_chunks * width);
                for q in 0..width {
                    for slot in 0..n_chunks {
                        assert_eq!(fused[q * n_chunks + slot], reference[slot][q]);
                    }
                }
                // Each query's threshold is exactly its distance to one
                // slot: the inclusive edge of the compare.
                let edge: Vec<u32> = (0..width).map(|q| reference[q % n_chunks][q]).collect();
                let mixed: Vec<u32> = (0..width)
                    .map(|q| match q % 4 {
                        0 => 0,
                        1 => u32::MAX,
                        2 => edge[q].saturating_sub(1),
                        _ => chunk as u32 * 4,
                    })
                    .collect();
                for thresholds in [vec![0; width], vec![u32::MAX; width], edge, mixed] {
                    for slot_limit in [0, 1, n_chunks / 2, n_chunks, n_chunks + 3] {
                        let mut expected = Vec::new();
                        for (slot, distances) in reference.iter().take(slot_limit).enumerate() {
                            for (q, &threshold) in thresholds.iter().enumerate() {
                                if distances[q] <= threshold {
                                    expected.push(FusedHit {
                                        query: q as u32,
                                        slot: slot as u32,
                                        distance: distances[q],
                                    });
                                }
                            }
                        }
                        let context = format!("chunk {chunk} width {width} limit {slot_limit}");
                        let mut hits = vec![FusedHit {
                            query: 9,
                            slot: 9,
                            distance: 9,
                        }];
                        fused_hamming_filter_into(
                            &page,
                            chunk,
                            slot_limit,
                            &refs,
                            &thresholds,
                            &mut Vec::new(),
                            &mut hits,
                        );
                        assert_eq!(hits, expected, "{context} {thresholds:?}");
                        if width > 1 && slot_limit > 2 && thresholds[1] == 0 {
                            assert!(hits.iter().any(|h| h.slot == 2 && h.query == 1));
                        }
                        // Every body's own compare and mask walk, not only
                        // the dispatched one.
                        let job = Job {
                            latch: &page,
                            chunk_bytes: chunk,
                            slot_limit,
                            queries: &refs,
                        };
                        for &isa in &bodies {
                            hits.clear();
                            distance::filter(isa, &job, &thresholds, &mut hits);
                            assert_eq!(hits, expected, "{isa:?} {context} {thresholds:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counts_of_chunks_longer_than_the_zero_query() {
        let page = noise(ZEROS.len() * 3 + 41, 5);
        for chunk in [ZEROS.len(), ZEROS.len() + 1, ZEROS.len() * 2 + 7] {
            let mut counts = Vec::new();
            count_per_chunk_into(&page, chunk, &mut counts);
            assert_eq!(counts, reference::count_per_chunk(&page, chunk), "{chunk}");
        }
        let ones: u64 = page.iter().map(|b| u64::from(b.count_ones())).sum();
        assert_eq!(popcount_bytes(&page), ones);
        assert_eq!(popcount_bytes(&[]), 0);
        assert_eq!(hamming_bytes(&[], &[]), 0);
    }

    #[test]
    fn every_level_of_the_int8_distance_matches_the_reference() {
        // Every tail length of every vector width, the dimension the
        // benchmark reranks at, and the block boundary of the `i32` sums.
        let dims = (1..=67).chain([1_024, 4_095, 4_096, 4_097, 8_192]);
        for dim in dims {
            let a: Vec<i8> = noise(dim, dim as u64).iter().map(|&b| b as i8).collect();
            let raw = noise(dim, 77 + dim as u64);
            let b: Vec<i8> = raw.iter().map(|&b| b as i8).collect();
            let want = reference::squared_l2_i8(&a, &b);
            // The extreme: every difference is 255, in both directions.
            let (low, high) = (vec![i8::MIN; dim], vec![i8::MAX; dim]);
            let extreme = 255 * 255 * dim as i64;
            for isa in Isa::supported() {
                assert_eq!(distance::squared_l2_i8(isa, &a, &b), want, "{isa:?} {dim}");
                assert_eq!(
                    distance::squared_l2_i8(isa, &a, &raw),
                    want,
                    "{isa:?} {dim}"
                );
                assert_eq!(distance::squared_l2_i8(isa, &low, &high), extreme);
                assert_eq!(distance::squared_l2_i8(isa, &high, &low), extreme);
                assert_eq!(distance::squared_l2_i8(isa, &a, &a), 0);
            }
            assert_eq!(squared_l2_i8(&a, &raw), want, "{dim}");
        }
        assert_eq!(squared_l2_i8::<u8>(&[], &[]), 0);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn int8_distance_rejects_length_mismatch() {
        squared_l2_i8(&[1, 2], &[1u8]);
    }

    #[test]
    fn every_crc32c_body_matches_the_bitwise_reference() {
        let data = noise(1024, 3);
        for isa in Isa::supported() {
            for len in 0..=data.len() {
                let bytes = &data[..len];
                let want = reference::crc32c(bytes);
                assert_eq!(crc::extend(isa, 0, bytes), want, "{isa:?} len {len}");
                // Folding in two pieces — cut inside a word, at a word
                // boundary and at the ends — equals one pass.
                for split in [0, len / 3, (len / 2) & !7, len] {
                    let state = crc::extend(isa, 0, &bytes[..split]);
                    assert_eq!(
                        crc::extend(isa, state, &bytes[split..]),
                        want,
                        "{isa:?} len {len} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical sizes")]
    fn xor_rejects_length_mismatch() {
        xor_bytes_into(&[1, 2], &[1, 2, 3], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_rejects_length_mismatch() {
        hamming_bytes(&[1, 2], &[1]);
    }
}
