//! The distance primitives, their bodies and their one dispatch.
//!
//! Everything this crate counts is the Hamming distance between one chunk
//! and one query. A [`Body`] computes up to [`LANES`] such distances at a
//! time — one loop over the bytes, each pair in its own register
//! accumulator, the lanes reduced together. [`scan`] walks a latch
//! slot-major (chunks outside, queries inside), hands the bodies their
//! pairs in that order and reports every distance to the caller's `emit`;
//! the public page-level entry points differ only in what `emit` does with
//! a distance. [`pair`] is the primitive on its own.
//!
//! The rerank's INT8 squared Euclidean distance ([`squared_l2_i8`]) goes
//! through the same dispatch with one portable body.

use crate::isa::{Isa, Level};

/// (chunk, query) pairs one body step scores: that many independent
/// accumulators live in registers, and the vector bodies pay one horizontal
/// reduction for all of them.
const LANES: usize = 4;

/// One compiled body of the distance primitive.
trait Body {
    /// Hamming distance between `chunks[lane]` and `queries[lane]`, per
    /// lane, for `N <= LANES` lanes.
    ///
    /// # Panics
    ///
    /// Panics unless all `2 * N` slices are equally long.
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set the body is written in.
    unsafe fn distances<const N: usize>(chunks: [&[u8]; N], queries: [&[u8]; N]) -> [u32; N];
}

/// Work that runs inside one body; [`dispatch`] instantiates it once per
/// instruction-set level.
trait Kernel {
    /// What the work returns.
    type Output;

    /// Do the work with body `B`.
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set of `B`.
    unsafe fn run<B: Body>(self) -> Self::Output;
}

/// Run `kernel` on the body of `isa`: the crate's one selection of a
/// Hamming body.
#[inline(always)]
fn dispatch<K: Kernel>(isa: Isa, kernel: K) -> K::Output {
    match isa.level() {
        // SAFETY: the scalar body instantiated here uses no instruction
        // beyond the compilation target's baseline.
        Level::Portable => unsafe { kernel.run::<Words>() },
        // SAFETY (all three arms): an `Isa` of a level exists only after
        // `Isa::detect` saw `is_x86_feature_detected!` confirm every feature
        // of that level and the levels below it, which are exactly the
        // features the matching function enables.
        #[cfg(target_arch = "x86_64")]
        Level::Sse42 => unsafe { x86::in_sse42(kernel) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::in_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::in_avx512(kernel) },
    }
}

/// The common length of a body step's slices.
#[inline(always)]
fn common_len<const N: usize>(chunks: &[&[u8]; N], queries: &[&[u8]; N]) -> usize {
    const { assert!(N >= 1 && N <= LANES) };
    let len = chunks[0].len();
    assert!(
        chunks.iter().chain(queries).all(|lane| lane.len() == len),
        "the lanes of one step are equally long"
    );
    len
}

/// Set bits of the XOR of two `u64` words.
#[inline(always)]
fn diff_ones(x: &[u8; 8], y: &[u8; 8]) -> u32 {
    (u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y)).count_ones()
}

/// `u64` words four at a time into independent accumulators, then single
/// words, then a byte-wise tail. `count_ones` compiles to the POPCNT
/// instruction wherever the enclosing body enables it.
#[inline(always)]
fn distance_words(a: &[u8], b: &[u8]) -> u32 {
    let (words_a, rest_a) = a.as_chunks::<8>();
    let (words_b, rest_b) = b.as_chunks::<8>();
    let mut quads_a = words_a.chunks_exact(4);
    let mut quads_b = words_b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0u32, 0u32, 0u32, 0u32);
    for (x, y) in quads_a.by_ref().zip(quads_b.by_ref()) {
        s0 += diff_ones(&x[0], &y[0]);
        s1 += diff_ones(&x[1], &y[1]);
        s2 += diff_ones(&x[2], &y[2]);
        s3 += diff_ones(&x[3], &y[3]);
    }
    let mut total = s0 + s1 + s2 + s3;
    for (x, y) in quads_a.remainder().iter().zip(quads_b.remainder()) {
        total += diff_ones(x, y);
    }
    for (x, y) in rest_a.iter().zip(rest_b) {
        total += (x ^ y).count_ones();
    }
    total
}

/// The scalar body: baseline code when instantiated as is, hardware POPCNT
/// when instantiated inside [`x86::in_sse42`].
struct Words;

impl Body for Words {
    #[inline(always)]
    unsafe fn distances<const N: usize>(chunks: [&[u8]; N], queries: [&[u8]; N]) -> [u32; N] {
        common_len(&chunks, &queries);
        let mut totals = [0; N];
        for lane in 0..N {
            totals[lane] = distance_words(chunks[lane], queries[lane]);
        }
        totals
    }
}

/// What one page-level kernel call scores: the first `slot_limit` chunks of
/// `latch`, `chunk_bytes` each (a trailing partial chunk is scored against
/// the prefix of each query), against every query. Queries are at least
/// `chunk_bytes` long and `chunk_bytes` is non-zero — the entry points check
/// both.
pub(crate) struct Job<'a> {
    pub(crate) latch: &'a [u8],
    pub(crate) chunk_bytes: usize,
    pub(crate) slot_limit: usize,
    pub(crate) queries: &'a [&'a [u8]],
}

/// The one page loop: slot-major, queries inside, pairs handed to the body
/// [`LANES`] at a time in emission order, so `emit(slot, query, distance)`
/// fires in ascending slot order and query order within a slot.
struct Scan<'a, E> {
    job: &'a Job<'a>,
    emit: E,
}

impl<E: FnMut(usize, usize, u32)> Kernel for Scan<'_, E> {
    type Output = ();

    #[inline(always)]
    unsafe fn run<B: Body>(self) {
        let Scan { job, mut emit } = self;
        let width = job.queries.len();
        let full = job.latch.len() / job.chunk_bytes;
        let partial = job.latch.len() % job.chunk_bytes;
        let slots = (full + usize::from(partial > 0)).min(job.slot_limit);
        let full = full.min(slots);
        // The full chunks go first; a trailing partial chunk within the
        // limit follows as a run of its own, so the lanes of one step are
        // always equally long.
        for (run, len) in [(0..full, job.chunk_bytes), (full..slots, partial)] {
            let chunk = |slot: usize| &job.latch[slot * job.chunk_bytes..][..len];
            let query = |q: usize| &job.queries[q][..len];
            let (mut slot, mut q) = (run.start, 0);
            let mut next = || {
                let id = (slot, q);
                q += 1;
                if q == width {
                    (slot, q) = (slot + 1, 0);
                }
                id
            };
            let mut left = run.len() * width;
            while left >= LANES {
                let ids = [next(), next(), next(), next()];
                // SAFETY (both calls): this function's caller vouches for
                // the instruction set of `B`.
                let distances =
                    B::distances(ids.map(|(slot, _)| chunk(slot)), ids.map(|(_, q)| query(q)));
                for ((slot, q), distance) in ids.into_iter().zip(distances) {
                    emit(slot, q, distance);
                }
                left -= LANES;
            }
            for _ in 0..left {
                let (slot, q) = next();
                let [distance] = B::distances([chunk(slot)], [query(q)]);
                emit(slot, q, distance);
            }
        }
    }
}

/// Score `job` with the body of `isa`, reporting every (slot, query)
/// distance to `emit` in ascending slot order, query order within a slot.
#[inline]
pub(crate) fn scan(isa: Isa, job: &Job<'_>, emit: impl FnMut(usize, usize, u32)) {
    dispatch(isa, Scan { job, emit });
}

/// The primitive on its own: one chunk, one query.
struct Pair<'a>(&'a [u8], &'a [u8]);

impl Kernel for Pair<'_> {
    type Output = u32;

    #[inline(always)]
    unsafe fn run<B: Body>(self) -> u32 {
        // SAFETY: this function's caller vouches for the instruction set
        // of `B`.
        let [distance] = B::distances([self.0], [self.1]);
        distance
    }
}

/// Hamming distance between `a` and `b` with the body of `isa`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub(crate) fn pair(isa: Isa, a: &[u8], b: &[u8]) -> u32 {
    dispatch(isa, Pair(a, b))
}

/// One INT8 component as a slice holds it: an `i8`, or the byte a flash page
/// stores it as (two's complement). Implemented for exactly these two.
pub trait Int8: Copy + sealed::Sealed {
    /// The component's value.
    fn value(self) -> i8;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for i8 {}
    impl Sealed for u8 {}
}

impl Int8 for i8 {
    #[inline(always)]
    fn value(self) -> i8 {
        self
    }
}

impl Int8 for u8 {
    #[inline(always)]
    fn value(self) -> i8 {
        self as i8
    }
}

/// Elements whose squared differences are summed in `i32` before the sum
/// widens: a difference of two INT8 values is at most 255 in magnitude and
/// 4,096 × 255² < 2³¹.
const I8_BLOCK: usize = 4096;

/// The INT8 squared Euclidean distance. Its one body is portable code —
/// 16-bit differences, products summed in `i32` per block, blocks summed in
/// `i64` — written so that the compiler vectorises it (`vpmaddwd` on x86-64)
/// at whatever width the enclosing instruction-set level allows; as a
/// [`Kernel`] it is compiled once per level and never looks at the Hamming
/// body it is handed.
struct SquaredL2I8<'a, T>(&'a [i8], &'a [T]);

impl<T: Int8> Kernel for SquaredL2I8<'_, T> {
    type Output = i64;

    #[inline(always)]
    unsafe fn run<B: Body>(self) -> i64 {
        let mut total = 0i64;
        for (a, b) in self.0.chunks(I8_BLOCK).zip(self.1.chunks(I8_BLOCK)) {
            let mut sum = 0i32;
            for (&x, &y) in a.iter().zip(b) {
                let d = i16::from(x) - i16::from(y.value());
                sum += i32::from(d) * i32::from(d);
            }
            total += i64::from(sum);
        }
        total
    }
}

/// Squared Euclidean distance between the INT8 vectors `a` and `b`, compiled
/// for the level of `isa`. The slices are equally long — the entry point
/// checks it.
#[inline]
pub(crate) fn squared_l2_i8<T: Int8>(isa: Isa, a: &[i8], b: &[T]) -> i64 {
    dispatch(isa, SquaredL2I8(a, b))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The x86-64 bodies. The helpers are `#[inline(always)]` and carry no
    //! `#[target_feature]` of their own: they exist only inlined into one of
    //! the three `in_*` functions below, whose feature set they then compile
    //! under. For the same reason the code that uses intrinsics is called
    //! directly, not through closures, which would be functions of their
    //! own.

    use std::arch::x86_64::*;

    use super::{common_len, distance_words, Body, Kernel, Words, LANES};

    /// Per-byte set-bit counts of the XOR of the 32 bytes at `a` and at `b`:
    /// each nibble looked up in a 16-entry table with `vpshufb`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and 32 bytes must be readable at both
    /// pointers.
    #[inline(always)]
    unsafe fn diff_counts_avx2(a: *const u8, b: *const u8) -> __m256i {
        let diff = _mm256_xor_si256(_mm256_loadu_si256(a.cast()), _mm256_loadu_si256(b.cast()));
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let nibble = _mm256_set1_epi8(0x0f);
        let low = _mm256_and_si256(diff, nibble);
        let high = _mm256_and_si256(_mm256_srli_epi16::<4>(diff), nibble);
        _mm256_add_epi8(
            _mm256_shuffle_epi8(table, low),
            _mm256_shuffle_epi8(table, high),
        )
    }

    /// Reduce the lanes together: up to four vectors of four partial sums
    /// become one vector of totals with two unpack-adds and one cross-lane
    /// add, instead of a horizontal sum per lane.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn reduce<const N: usize>(partials: [__m256i; N]) -> [u32; N] {
        let mut p = [_mm256_setzero_si256(); LANES];
        p[..N].copy_from_slice(&partials);
        // Per 128-bit half: [p0 half-sum, p1 half-sum], likewise p2 / p3.
        let p01 = _mm256_add_epi64(
            _mm256_unpacklo_epi64(p[0], p[1]),
            _mm256_unpackhi_epi64(p[0], p[1]),
        );
        let p23 = _mm256_add_epi64(
            _mm256_unpacklo_epi64(p[2], p[3]),
            _mm256_unpackhi_epi64(p[2], p[3]),
        );
        // Low halves of both plus high halves of both: [p0, p1, p2, p3].
        let sums = _mm256_add_epi64(
            _mm256_permute2x128_si256::<0x20>(p01, p23),
            _mm256_permute2x128_si256::<0x31>(p01, p23),
        );
        let mut wide = [0u64; LANES];
        _mm256_storeu_si256(wide.as_mut_ptr().cast(), sums);
        let mut totals = [0; N];
        for lane in 0..N {
            totals[lane] = wide[lane] as u32;
        }
        totals
    }

    /// 32 bytes per step — nibble-table byte counts folded into four `u64`
    /// sums per lane by `vpsadbw` — then a scalar tail.
    struct Avx2;

    impl Body for Avx2 {
        #[inline(always)]
        unsafe fn distances<const N: usize>(chunks: [&[u8]; N], queries: [&[u8]; N]) -> [u32; N] {
            let len = common_len(&chunks, &queries);
            let zero = _mm256_setzero_si256();
            let mut sums = [zero; N];
            let mut at = 0;
            while at + 32 <= len {
                for lane in 0..N {
                    // SAFETY: both slices are `len` bytes long (checked by
                    // `common_len`) and `at + 32 <= len`.
                    let counts = diff_counts_avx2(
                        chunks[lane].as_ptr().add(at),
                        queries[lane].as_ptr().add(at),
                    );
                    sums[lane] = _mm256_add_epi64(sums[lane], _mm256_sad_epu8(counts, zero));
                }
                at += 32;
            }
            let mut totals = reduce(sums);
            // Skipped for chunks of whole vectors: the empty tails would
            // still cost each lane its slicing and loop set-up.
            if at < len {
                for lane in 0..N {
                    totals[lane] += distance_words(&chunks[lane][at..], &queries[lane][at..]);
                }
            }
            totals
        }
    }

    /// `VPOPCNTQ` over 64-byte steps and byte-masked loads for the tail; the
    /// eight `u64` sums of a lane are folded to four so both vector bodies
    /// share [`reduce`].
    struct Avx512;

    impl Body for Avx512 {
        #[inline(always)]
        unsafe fn distances<const N: usize>(chunks: [&[u8]; N], queries: [&[u8]; N]) -> [u32; N] {
            let len = common_len(&chunks, &queries);
            let mut sums = [_mm512_setzero_si512(); N];
            let mut at = 0;
            while at + 64 <= len {
                for lane in 0..N {
                    // SAFETY: both slices are `len` bytes long (checked by
                    // `common_len`) and `at + 64 <= len`.
                    let diff = _mm512_xor_si512(
                        _mm512_loadu_si512(chunks[lane].as_ptr().add(at).cast()),
                        _mm512_loadu_si512(queries[lane].as_ptr().add(at).cast()),
                    );
                    sums[lane] = _mm512_add_epi64(sums[lane], _mm512_popcnt_epi64(diff));
                }
                at += 64;
            }
            if at < len {
                let mask: __mmask64 = (1u64 << (len - at)) - 1;
                for lane in 0..N {
                    // SAFETY: `at < len`, and the `len - at` (< 64) bytes
                    // the mask selects lie inside both slices; the bytes
                    // past them are masked off — never read, zero in the
                    // register.
                    let diff = _mm512_xor_si512(
                        _mm512_maskz_loadu_epi8(mask, chunks[lane].as_ptr().add(at).cast()),
                        _mm512_maskz_loadu_epi8(mask, queries[lane].as_ptr().add(at).cast()),
                    );
                    sums[lane] = _mm512_add_epi64(sums[lane], _mm512_popcnt_epi64(diff));
                }
            }
            let mut folded = [_mm256_setzero_si256(); N];
            for lane in 0..N {
                folded[lane] = _mm256_add_epi64(
                    _mm512_castsi512_si256(sums[lane]),
                    _mm512_extracti64x4_epi64::<1>(sums[lane]),
                );
            }
            reduce(folded)
        }
    }

    /// Run `kernel` on the scalar body, compiled with hardware POPCNT.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2 and POPCNT.
    #[target_feature(enable = "sse4.2,popcnt")]
    pub(super) unsafe fn in_sse42<K: Kernel>(kernel: K) -> K::Output {
        kernel.run::<Words>()
    }

    /// Run `kernel` on the AVX2 nibble-table body.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2, POPCNT and AVX2.
    #[target_feature(enable = "sse4.2,popcnt,avx2")]
    pub(super) unsafe fn in_avx2<K: Kernel>(kernel: K) -> K::Output {
        kernel.run::<Avx2>()
    }

    /// Run `kernel` on the AVX-512 `VPOPCNTQ` body.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2, POPCNT, AVX2 and AVX-512 F, BW and
    /// VPOPCNTDQ.
    #[target_feature(enable = "sse4.2,popcnt,avx2,avx512f,avx512bw,avx512vpopcntdq")]
    pub(super) unsafe fn in_avx512<K: Kernel>(kernel: K) -> K::Output {
        kernel.run::<Avx512>()
    }
}
