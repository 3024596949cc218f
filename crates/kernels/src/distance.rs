//! The distance primitives, their bodies and their one dispatch.
//!
//! Everything this crate counts is the Hamming distance between one chunk
//! and one query. A [`Body`] scores one *block* of up to [`LANES`] such
//! distances: `S` slots against a group of `G` queries, each slot's words
//! loaded once for the whole group, each pair in its own register
//! accumulator, and the block's accumulators reduced together into one
//! register of totals. [`Scan`] walks a latch slot-major and cuts it into
//! blocks by the number of queries: up to four queries, consecutive slots
//! share a block (eight slots of one query, four of two, two of three or
//! four, and the slots left over go one per block); more, and each slot is
//! a row of its own with the queries in groups of eight. A [`Sink`] is what
//! an entry point does with a block's totals: [`scan`] hands every distance
//! to a closure in emission order, [`filter`] tests the totals against the
//! queries' thresholds in one compare and writes out only the lanes that
//! pass. [`pair`] is the primitive on its own.
//!
//! The rerank's INT8 squared Euclidean distance ([`squared_l2_i8`]) goes
//! through the same dispatch with one portable body, and so does the f32
//! family of [`crate::l2`]: each [`Body`] names the f32 body of its level.

use std::marker::PhantomData;
use std::ops::Range;

use crate::isa::{Isa, Level};
use crate::l2::{F32Body, Fold};
use crate::FusedHit;

/// (slot, query) pairs one block scores: that many independent accumulators
/// live in registers, the vector bodies reduce them together with one
/// transpose, and the filter tests all of them with one compare.
const LANES: usize = 8;

/// One compiled body of the distance primitive.
pub(crate) trait Body {
    /// The f32 body of the same instruction-set level (see [`crate::l2`]).
    type F32: F32Body;

    /// A block's [`LANES`] totals, where the body keeps them.
    type Totals: Copy;

    /// Hamming distance of every (slot, query) pair of one block: lane
    /// `row * G + g` is `slots[row]` against `queries[g]`, and the lanes
    /// from `S * G` on are zero.
    ///
    /// # Panics
    ///
    /// Panics unless all `S + G` slices are equally long.
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set the body is written in.
    unsafe fn block<const S: usize, const G: usize>(
        slots: [&[u8]; S],
        queries: [&[u8]; G],
    ) -> Self::Totals;

    /// Every lane of `totals`.
    ///
    /// # Safety
    ///
    /// As for [`Body::block`].
    unsafe fn lanes(totals: Self::Totals) -> [u64; LANES];

    /// The lanes below `S * G` at or below their query's threshold, as a
    /// bit mask: lane `row * G + g` is held to `thresholds[g]`.
    ///
    /// # Safety
    ///
    /// As for [`Body::block`].
    #[inline(always)]
    unsafe fn at_most<const S: usize, const G: usize>(
        totals: Self::Totals,
        thresholds: &[u32; G],
    ) -> u8 {
        let lanes = Self::lanes(totals);
        let mut pass = 0;
        for lane in 0..S * G {
            pass |= u8::from(lanes[lane] <= u64::from(thresholds[lane % G])) << lane;
        }
        pass
    }

    /// The lanes of `totals` that `pass` selects, at their lane; the other
    /// lanes may hold anything.
    ///
    /// # Safety
    ///
    /// As for [`Body::block`].
    #[inline(always)]
    unsafe fn passing(totals: Self::Totals, _pass: u8) -> [u64; LANES] {
        Self::lanes(totals)
    }
}

/// Work that runs inside one body; [`dispatch`] instantiates it once per
/// instruction-set level.
pub(crate) trait Kernel {
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
/// body.
#[inline(always)]
pub(crate) fn dispatch<K: Kernel>(isa: Isa, kernel: K) -> K::Output {
    match isa.level() {
        // SAFETY: the scalar bodies instantiated here use no instruction
        // beyond the compilation target's baseline.
        Level::Portable => unsafe { kernel.run::<Words<Fold>>() },
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

/// The common length of a block's slices.
#[inline(always)]
fn common_len<const S: usize, const G: usize>(slots: &[&[u8]; S], queries: &[&[u8]; G]) -> usize {
    const { assert!(S >= 1 && G >= 1 && S * G <= LANES) };
    let len = slots[0].len();
    assert!(
        slots.iter().chain(queries).all(|lane| lane.len() == len),
        "the slices of one block are equally long"
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
/// when instantiated inside [`x86::in_sse42`]. `F` is the f32 body of the
/// same level: the portable fold, or the SSE rows.
struct Words<F>(PhantomData<F>);

impl<F: F32Body> Body for Words<F> {
    type F32 = F;
    type Totals = [u64; LANES];

    #[inline(always)]
    unsafe fn block<const S: usize, const G: usize>(
        slots: [&[u8]; S],
        queries: [&[u8]; G],
    ) -> [u64; LANES] {
        common_len(&slots, &queries);
        let mut totals = [0; LANES];
        for row in 0..S {
            for g in 0..G {
                totals[row * G + g] = u64::from(distance_words(slots[row], queries[g]));
            }
        }
        totals
    }

    #[inline(always)]
    unsafe fn lanes(totals: [u64; LANES]) -> [u64; LANES] {
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

/// What an entry point does with the totals of each block.
trait Sink {
    /// Take one block's totals: lane `row * G + g` is slot `slot + row`
    /// against query `query + g`. Blocks arrive in ascending slot order,
    /// query order within a slot.
    ///
    /// # Safety
    ///
    /// The CPU must support the instruction set of `B`.
    unsafe fn take<B: Body, const S: usize, const G: usize>(
        &mut self,
        slot: usize,
        query: usize,
        totals: B::Totals,
    );
}

/// The one page loop: slot-major, blocks shaped by the number of queries,
/// so a [`Sink`] sees the (slot, query) pairs in ascending slot order and
/// query order within a slot.
struct Scan<'a, K> {
    job: &'a Job<'a>,
    sink: K,
}

impl<K: Sink> Kernel for Scan<'_, K> {
    type Output = ();

    #[inline(always)]
    unsafe fn run<B: Body>(self) {
        let Scan { job, mut sink } = self;
        let full = job.latch.len() / job.chunk_bytes;
        let partial = job.latch.len() % job.chunk_bytes;
        let slots = (full + usize::from(partial > 0)).min(job.slot_limit);
        let full = full.min(slots);
        // The full chunks go first; a trailing partial chunk within the
        // limit follows as a run of its own, so the slices of one block are
        // always equally long.
        for (run, len) in [(0..full, job.chunk_bytes), (full..slots, partial)] {
            let sink = &mut sink;
            // SAFETY (every call below): this function's caller vouches for
            // the instruction set of `B`.
            match job.queries.len() {
                0 => {}
                1 => rows::<B, K, 8, 1>(job, len, run, 0, sink),
                2 => rows::<B, K, 4, 2>(job, len, run, 0, sink),
                3 => rows::<B, K, 2, 3>(job, len, run, 0, sink),
                4 => rows::<B, K, 2, 4>(job, len, run, 0, sink),
                width @ 5..=LANES => group::<B, K>(job, len, run, 0, width, sink),
                width => {
                    for slot in run {
                        for query in (0..width).step_by(LANES) {
                            let count = (width - query).min(LANES);
                            group::<B, K>(job, len, slot..slot + 1, query, count, sink);
                        }
                    }
                }
            }
        }
    }
}

/// [`rows`] of one slot per block against the `count` (one to eight)
/// queries from `query`.
///
/// # Safety
///
/// The CPU must support the instruction set of `B`.
#[inline(always)]
unsafe fn group<B: Body, K: Sink>(
    job: &Job<'_>,
    len: usize,
    run: Range<usize>,
    query: usize,
    count: usize,
    sink: &mut K,
) {
    match count {
        1 => rows::<B, K, 1, 1>(job, len, run, query, sink),
        2 => rows::<B, K, 1, 2>(job, len, run, query, sink),
        3 => rows::<B, K, 1, 3>(job, len, run, query, sink),
        4 => rows::<B, K, 1, 4>(job, len, run, query, sink),
        5 => rows::<B, K, 1, 5>(job, len, run, query, sink),
        6 => rows::<B, K, 1, 6>(job, len, run, query, sink),
        7 => rows::<B, K, 1, 7>(job, len, run, query, sink),
        _ => rows::<B, K, 1, 8>(job, len, run, query, sink),
    }
}

/// Score the first `len` bytes of the slots of `run` against the `G`
/// queries from `query`, `S` consecutive slots per block, and hand each
/// block to `sink`. The slots past the last whole block go one per block,
/// so a page of a few slots costs a few pairs, not a block of eight.
///
/// # Safety
///
/// The CPU must support the instruction set of `B`.
#[inline(always)]
unsafe fn rows<B: Body, K: Sink, const S: usize, const G: usize>(
    job: &Job<'_>,
    len: usize,
    run: Range<usize>,
    query: usize,
    sink: &mut K,
) {
    // Sliced once per run, not once per block.
    let queries: [&[u8]; G] = std::array::from_fn(|g| &job.queries[query + g][..len]);
    let (latch, chunk_bytes) = (job.latch, job.chunk_bytes);
    let whole = run.start + run.len() / S * S;
    for slot in (run.start..whole).step_by(S) {
        let chunk = |row: usize| &latch[(slot + row) * chunk_bytes..][..len];
        let totals = B::block::<S, G>(std::array::from_fn(chunk), queries);
        sink.take::<B, S, G>(slot, query, totals);
    }
    if S > 1 && whole < run.end {
        rows::<B, K, 1, G>(job, len, whole..run.end, query, sink);
    }
}

/// Every distance, in emission order, to a closure `(slot, query, distance)`.
struct Emit<F>(F);

impl<F: FnMut(usize, usize, u32)> Sink for Emit<F> {
    #[inline(always)]
    unsafe fn take<B: Body, const S: usize, const G: usize>(
        &mut self,
        slot: usize,
        query: usize,
        totals: B::Totals,
    ) {
        let lanes = B::lanes(totals);
        for (lane, &distance) in lanes[..S * G].iter().enumerate() {
            (self.0)(slot + lane / G, query + lane % G, distance as u32);
        }
    }
}

/// The pass/fail checker: a block's totals against its queries' thresholds
/// in one compare, and a hit appended for each lane that passes.
struct Filter<'a> {
    thresholds: &'a [u32],
    hits: &'a mut Vec<FusedHit>,
}

impl Sink for Filter<'_> {
    #[inline(always)]
    unsafe fn take<B: Body, const S: usize, const G: usize>(
        &mut self,
        slot: usize,
        query: usize,
        totals: B::Totals,
    ) {
        let bounds = self.thresholds[query..]
            .first_chunk::<G>()
            .expect("every query of a block has a threshold");
        let mut pass = B::at_most::<S, G>(totals, bounds);
        if pass == 0 {
            return;
        }
        let distances = B::passing(totals, pass);
        while pass != 0 {
            let lane = pass.trailing_zeros() as usize;
            self.hits.push(FusedHit {
                query: (query + lane % G) as u32,
                slot: (slot + lane / G) as u32,
                distance: distances[lane] as u32,
            });
            pass &= pass - 1;
        }
    }
}

/// Score `job` with the body of `isa`, reporting every (slot, query)
/// distance to `emit` in ascending slot order, query order within a slot.
#[inline]
pub(crate) fn scan(isa: Isa, job: &Job<'_>, emit: impl FnMut(usize, usize, u32)) {
    dispatch(
        isa,
        Scan {
            job,
            sink: Emit(emit),
        },
    );
}

/// Score `job` with the body of `isa` and append a [`FusedHit`] to `hits`
/// for every (slot, query) distance at or below `thresholds[query]`, in
/// ascending slot order, query order within a slot. `thresholds` holds one
/// entry per query — the entry point checks it.
#[inline]
pub(crate) fn filter(isa: Isa, job: &Job<'_>, thresholds: &[u32], hits: &mut Vec<FusedHit>) {
    dispatch(
        isa,
        Scan {
            job,
            sink: Filter { thresholds, hits },
        },
    );
}

/// The primitive on its own: one chunk, one query.
struct Pair<'a>(&'a [u8], &'a [u8]);

impl Kernel for Pair<'_> {
    type Output = u32;

    #[inline(always)]
    unsafe fn run<B: Body>(self) -> u32 {
        // SAFETY: this function's caller vouches for the instruction set
        // of `B`.
        let [distance, ..] = B::lanes(B::block([self.0], [self.1]));
        distance as u32
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
    use crate::l2::x86 as f32s;

    /// Per-byte set-bit counts of the 32 bytes of `diff`: each nibble looked
    /// up in a 16-entry table with `vpshufb`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn byte_counts_avx2(diff: __m256i) -> __m256i {
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

    /// Reduce a block's accumulators together: each four vectors of four
    /// partial sums become one vector of totals with two unpack-adds and one
    /// cross-lane add, instead of a horizontal sum per lane.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn reduce(p: [__m256i; LANES]) -> [u64; LANES] {
        let mut totals = [0; LANES];
        for half in [0, 4] {
            // Per 128-bit half: [p0 half-sum, p1 half-sum], likewise p2 / p3.
            let p01 = _mm256_add_epi64(
                _mm256_unpacklo_epi64(p[half], p[half + 1]),
                _mm256_unpackhi_epi64(p[half], p[half + 1]),
            );
            let p23 = _mm256_add_epi64(
                _mm256_unpacklo_epi64(p[half + 2], p[half + 3]),
                _mm256_unpackhi_epi64(p[half + 2], p[half + 3]),
            );
            // Low halves of both plus high halves of both: [p0, p1, p2, p3].
            let sums = _mm256_add_epi64(
                _mm256_permute2x128_si256::<0x20>(p01, p23),
                _mm256_permute2x128_si256::<0x31>(p01, p23),
            );
            // SAFETY: `half + 4 <= LANES`, so the 32 bytes stored lie inside
            // `totals`.
            _mm256_storeu_si256(totals.as_mut_ptr().add(half).cast(), sums);
        }
        totals
    }

    /// 32 bytes per step — nibble-table byte counts folded into four `u64`
    /// sums per pair by `vpsadbw` — then a scalar tail.
    struct Avx2;

    impl Body for Avx2 {
        type F32 = f32s::Avx2;
        type Totals = [u64; LANES];

        #[inline(always)]
        unsafe fn block<const S: usize, const G: usize>(
            slots: [&[u8]; S],
            queries: [&[u8]; G],
        ) -> [u64; LANES] {
            let len = common_len(&slots, &queries);
            let zero = _mm256_setzero_si256();
            let mut sums = [zero; LANES];
            let mut at = 0;
            while at + 32 <= len {
                // SAFETY (every load): all slices are `len` bytes long
                // (checked by `common_len`) and `at + 32 <= len`.
                let mut words = [zero; G];
                for g in 0..G {
                    words[g] = _mm256_loadu_si256(queries[g].as_ptr().add(at).cast());
                }
                for (row, slot) in slots.iter().enumerate() {
                    let chunk = _mm256_loadu_si256(slot.as_ptr().add(at).cast());
                    for (g, &word) in words.iter().enumerate() {
                        let counts = byte_counts_avx2(_mm256_xor_si256(chunk, word));
                        let lane = row * G + g;
                        sums[lane] = _mm256_add_epi64(sums[lane], _mm256_sad_epu8(counts, zero));
                    }
                }
                at += 32;
            }
            let mut totals = reduce(sums);
            // Skipped for chunks of whole vectors: the empty tails would
            // still cost each pair its slicing and loop set-up.
            if at < len {
                for row in 0..S {
                    for g in 0..G {
                        totals[row * G + g] +=
                            u64::from(distance_words(&slots[row][at..], &queries[g][at..]));
                    }
                }
            }
            totals
        }

        #[inline(always)]
        unsafe fn lanes(totals: [u64; LANES]) -> [u64; LANES] {
            totals
        }
    }

    /// Add the set bits of every (slot, query) XOR over the 64 bytes at `at`
    /// that `mask` selects to the block's accumulators, each slot's bytes
    /// loaded once for all `G` queries.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F, BW and VPOPCNTDQ, and the bytes
    /// `mask` selects from `at` on must lie inside every slice.
    #[inline(always)]
    unsafe fn step_avx512<const S: usize, const G: usize>(
        sums: &mut [__m512i; LANES],
        slots: &[&[u8]; S],
        queries: &[&[u8]; G],
        at: usize,
        mask: __mmask64,
    ) {
        // SAFETY (every load): the caller vouches for the selected bytes;
        // the bytes past them are masked off — never read, zero in the
        // register.
        let mut words = [_mm512_setzero_si512(); G];
        for g in 0..G {
            words[g] = _mm512_maskz_loadu_epi8(mask, queries[g].as_ptr().add(at).cast());
        }
        for (row, slot) in slots.iter().enumerate() {
            let chunk = _mm512_maskz_loadu_epi8(mask, slot.as_ptr().add(at).cast());
            for (g, &word) in words.iter().enumerate() {
                let lane = row * G + g;
                let diff = _mm512_xor_si512(chunk, word);
                sums[lane] = _mm512_add_epi64(sums[lane], _mm512_popcnt_epi64(diff));
            }
        }
    }

    /// The halves of `a` and `b` summed pairwise: per 128-bit lane,
    /// `[a0 + a1, b0 + b1]`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F.
    #[inline(always)]
    unsafe fn unpack_add(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi64(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b))
    }

    /// The lanes `[0, 2]` of `a` and of `b` plus their lanes `[1, 3]`, in
    /// 128-bit lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F.
    #[inline(always)]
    unsafe fn fold_lanes(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi64(
            _mm512_shuffle_i64x2::<0b10_00_10_00>(a, b),
            _mm512_shuffle_i64x2::<0b11_01_11_01>(a, b),
        )
    }

    /// Reduce a block's eight accumulators of eight `u64` sums into one
    /// vector of eight totals — a transpose-and-add: unpack-adds pair the
    /// accumulators inside each 128-bit lane, two rounds of 128-bit lane
    /// shuffles and adds fold the lanes. Lane `i` of the result is the sum of
    /// `s[i]`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F.
    #[inline(always)]
    unsafe fn transpose_sum(s: [__m512i; LANES]) -> __m512i {
        // Per 128-bit lane k: [s0 pair k, s1 pair k], likewise s2 / s3 …
        let (s01, s23) = (unpack_add(s[0], s[1]), unpack_add(s[2], s[3]));
        let (s45, s67) = (unpack_add(s[4], s[5]), unpack_add(s[6], s[7]));
        // 128-bit lanes: [s0 s1 of pairs 0 + 1], [s0 s1 of pairs 2 + 3],
        // then the same of s2 s3; likewise s4 … s7.
        let (s0123, s4567) = (fold_lanes(s01, s23), fold_lanes(s45, s67));
        // 128-bit lanes: [s0 s1], [s2 s3], [s4 s5], [s6 s7].
        fold_lanes(s0123, s4567)
    }

    /// `VPOPCNTQ` over 64-byte steps and byte-masked loads for the tail; the
    /// eight accumulators of a block are reduced by one transpose, and the
    /// filter's compare is one `vpcmpuq` of the eight totals against the
    /// eight thresholds.
    struct Avx512;

    impl Body for Avx512 {
        type F32 = f32s::Avx512;
        type Totals = __m512i;

        #[inline(always)]
        unsafe fn block<const S: usize, const G: usize>(
            slots: [&[u8]; S],
            queries: [&[u8]; G],
        ) -> __m512i {
            let len = common_len(&slots, &queries);
            let mut sums = [_mm512_setzero_si512(); LANES];
            let mut at = 0;
            // The first step on its own: its adds to the zeroed sums fold
            // away — one vector op in six of a 128-byte chunk's steps.
            if len >= 64 {
                // SAFETY: all slices are `len` bytes long (checked by
                // `common_len`) and `64 <= len`.
                step_avx512(&mut sums, &slots, &queries, 0, !0);
                at = 64;
            }
            while at + 64 <= len {
                // SAFETY: as above, with `at + 64 <= len`.
                step_avx512(&mut sums, &slots, &queries, at, !0);
                at += 64;
            }
            if at < len {
                // SAFETY: `at < len`, and the `len - at` (< 64) bytes the
                // mask selects lie inside every slice.
                step_avx512(&mut sums, &slots, &queries, at, (1 << (len - at)) - 1);
            }
            transpose_sum(sums)
        }

        #[inline(always)]
        unsafe fn lanes(totals: __m512i) -> [u64; LANES] {
            let mut lanes = [0; LANES];
            // SAFETY: `lanes` is the 64 bytes stored.
            _mm512_storeu_si512(lanes.as_mut_ptr().cast(), totals);
            lanes
        }

        #[inline(always)]
        unsafe fn at_most<const S: usize, const G: usize>(
            totals: __m512i,
            thresholds: &[u32; G],
        ) -> u8 {
            // SAFETY: the mask selects the `G` thresholds the array holds;
            // the rest are masked off — never read.
            let group = _mm512_maskz_loadu_epi32(u16::MAX >> (16 - G), thresholds.as_ptr().cast());
            let mut bounds = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(group));
            if S > 1 {
                // Lane `row * G + g` is held to threshold `g`.
                let lane = |i: usize| (i % G) as i64;
                let index = _mm512_setr_epi64(
                    lane(0),
                    lane(1),
                    lane(2),
                    lane(3),
                    lane(4),
                    lane(5),
                    lane(6),
                    lane(7),
                );
                bounds = _mm512_permutexvar_epi64(index, bounds);
            }
            // Only the block's `S * G` lanes: the zero lanes past them would
            // pass any threshold.
            _mm512_mask_cmple_epu64_mask(u8::MAX >> (LANES - S * G), totals, bounds)
        }

        /// Only the passing lanes leave the register: the rest are zeroed
        /// before the block is stored.
        #[inline(always)]
        unsafe fn passing(totals: __m512i, pass: u8) -> [u64; LANES] {
            Self::lanes(_mm512_maskz_mov_epi64(pass, totals))
        }
    }

    /// Run `kernel` on the scalar body, compiled with hardware POPCNT, and
    /// the SSE f32 rows.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2 and POPCNT.
    #[target_feature(enable = "sse4.2,popcnt")]
    pub(super) unsafe fn in_sse42<K: Kernel>(kernel: K) -> K::Output {
        kernel.run::<Words<f32s::Sse>>()
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
