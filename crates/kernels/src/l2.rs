//! The f32 squared Euclidean distance: its one contract, the rows its
//! bodies read, and the bodies.
//!
//! **The contract.** The distance of a row `x` to a query `y`, both `n`
//! long, is a four-lane fold: lane `l` sums `(x[i] - y[i])²` over the
//! dimensions `i ≡ l (mod 4)` below `4⌊n/4⌋` in ascending order, a tail sums
//! the last `n mod 4` squares in order, every sum starting from `+0.0`, and
//! the result is `(s0 + s1) + (s2 + s3) + tail`. Each square is a subtract,
//! a multiply and an add, each rounded on its own — no fused multiply-add
//! anywhere. Every body performs exactly these operations on exactly these
//! operands in exactly this order, so all of them return the same bits (a
//! NaN is a NaN: Rust leaves its payload unspecified).
//!
//! **The bodies** differ only in how many rows they fold at once, each row's
//! four lanes in a register accumulator of its own, so the adds of
//! different rows overlap instead of each waiting on the one before it:
//!
//! * [`Fold`] (portable): one row at a time, the fold as written;
//! * `Sse` (x86-64): eight rows, one `__m128` each;
//! * `Avx2`: sixteen rows, two per `__m256`;
//! * `Avx512`: sixteen rows, four per `__m512`, read from a [`PackedRows`]
//!   whose layout puts the four rows of a register back to back (rows
//!   handed in as slices go through the AVX2 body).
//!
//! They hang off the Hamming bodies' dispatch: each [`Body`] names the f32
//! body of its instruction-set level, and the [`Kernel`]s here run it.

use crate::distance::{dispatch, Body, Kernel};
use crate::isa::Isa;

/// Dimensions one lane step covers: the fold's four lanes.
const QUAD: usize = 4;

/// The most rows one block of any body scores.
const MAX_BLOCK: usize = 16;

/// Where a body reads the rows it scores. Every row is as long as the query
/// — [`distances`] and [`nearest`] check it — so the query's length gives
/// the number of quads (`dim / 4`) and the tail length (`dim % 4`).
pub(crate) trait Rows {
    /// Whether rows `4g .. 4g + 4` keep their quads of one index back to
    /// back — one 64-byte run from [`Rows::quad`] of row `4g` — as a
    /// [`PackedRows`] does.
    const INTERLEAVED: bool;

    /// Number of rows.
    fn count(&self) -> usize;

    /// Whether every row is `len` long.
    fn all_of_length(&self, len: usize) -> bool;

    /// Dimensions `4j .. 4j + 4` of `row`.
    ///
    /// # Safety
    ///
    /// `row < self.count()` and `4j + 4` is at most the rows' length.
    unsafe fn quad(&self, row: usize, j: usize) -> *const f32;

    /// The last `dim % 4` dimensions of `row`.
    fn tail(&self, row: usize, dim: usize) -> &[f32];
}

/// Rows handed in as slices, wherever they live.
pub(crate) struct Slices<'a, R>(pub(crate) &'a [R]);

impl<R: AsRef<[f32]>> Rows for Slices<'_, R> {
    const INTERLEAVED: bool = false;

    #[inline(always)]
    fn count(&self) -> usize {
        self.0.len()
    }

    fn all_of_length(&self, len: usize) -> bool {
        self.0.iter().all(|row| row.as_ref().len() == len)
    }

    #[inline(always)]
    unsafe fn quad(&self, row: usize, j: usize) -> *const f32 {
        // SAFETY: the caller keeps `4j + 4` inside the row.
        self.0[row].as_ref().as_ptr().add(QUAD * j)
    }

    #[inline(always)]
    fn tail(&self, row: usize, dim: usize) -> &[f32] {
        &self.0[row].as_ref()[dim / QUAD * QUAD..]
    }
}

/// Rows packed for scoring many queries against them: the quads of each
/// four consecutive rows interleaved, so that one 64-byte load holds the
/// same four dimensions of four rows — what the AVX-512 body folds in one
/// register. Build it once for a set of rows (k-means builds one per Lloyd
/// iteration over its centroids) and score every query against it with
/// [`PackedRows::nearest`].
#[derive(Debug)]
pub struct PackedRows {
    rows: usize,
    dim: usize,
    /// Group `g`, quad `j`, row `4g + r`: the four floats from
    /// `((g * quads + j) * 4 + r) * 4`. The rows that pad the last group
    /// are zeros.
    quads: Vec<f32>,
    /// The `dim % 4` trailing dimensions of each row, row after row.
    tails: Vec<f32>,
}

impl PackedRows {
    /// Pack `rows`, which must all be equally long.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    pub fn new<R: AsRef<[f32]>>(rows: &[R]) -> PackedRows {
        let dim = rows.first().map_or(0, |row| row.as_ref().len());
        let (quads, tail) = (dim / QUAD, dim % QUAD);
        let groups = rows.len().div_ceil(QUAD);
        let mut packed = PackedRows {
            rows: rows.len(),
            dim,
            quads: vec![0.0; groups * quads * QUAD * QUAD],
            tails: Vec::with_capacity(rows.len() * tail),
        };
        for (index, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "packed rows must be equally long");
            let (group, lane) = (index / QUAD, index % QUAD);
            for (j, quad) in row.chunks_exact(QUAD).enumerate() {
                let at = ((group * quads + j) * QUAD + lane) * QUAD;
                packed.quads[at..at + QUAD].copy_from_slice(quad);
            }
            packed.tails.extend_from_slice(&row[quads * QUAD..]);
        }
        packed
    }

    /// The row nearest to `query` under `reis_kernels::squared_l2_f32`, and
    /// its distance: the first row whose distance is below every earlier
    /// row's, starting from `+∞` — so a tie goes to the lower index, a NaN
    /// distance never wins, and `(0, +∞)` is the answer when no row is
    /// below `+∞` (or there is none).
    ///
    /// # Panics
    ///
    /// Panics if `query` is not as long as the rows.
    pub fn nearest(&self, query: &[f32]) -> (usize, f32) {
        nearest(Isa::detect(), self, query)
    }
}

impl Rows for PackedRows {
    const INTERLEAVED: bool = true;

    #[inline(always)]
    fn count(&self) -> usize {
        self.rows
    }

    fn all_of_length(&self, len: usize) -> bool {
        self.rows == 0 || self.dim == len
    }

    #[inline(always)]
    unsafe fn quad(&self, row: usize, j: usize) -> *const f32 {
        let quads = self.dim / QUAD;
        let at = ((row / QUAD * quads + j) * QUAD + row % QUAD) * QUAD;
        // SAFETY: the caller keeps `row` and `j` in bounds, and the packed
        // groups hold every quad of every row (and of the padding rows).
        self.quads.as_ptr().add(at)
    }

    #[inline(always)]
    fn tail(&self, row: usize, dim: usize) -> &[f32] {
        let tail = dim % QUAD;
        &self.tails[row * tail..][..tail]
    }
}

/// The end of the fold for one row: `(s0 + s1) + (s2 + s3) + tail`, the
/// tail summed from `+0.0` in order.
#[inline(always)]
fn finish(lanes: [f32; QUAD], tail: &[f32], query_tail: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for (x, y) in tail.iter().zip(query_tail) {
        sum += (x - y) * (x - y);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + sum
}

/// One compiled body of the f32 fold.
pub(crate) trait F32Body {
    /// Rows one block scores, at most [`MAX_BLOCK`].
    const BLOCK: usize;

    /// `out[i]` becomes the distance of row `first + i` to `query`, for
    /// every `i < count`.
    ///
    /// # Safety
    ///
    /// The CPU must support the body's instruction set, `first + count` is
    /// at most the number of rows, `count <= Self::BLOCK`, every row is as
    /// long as `query`, and for an interleaved source `first` is a multiple
    /// of four.
    unsafe fn block<S: Rows>(
        rows: &S,
        first: usize,
        count: usize,
        query: &[f32],
        out: &mut [f32; MAX_BLOCK],
    );
}

/// The portable body: the fold as the contract states it, one row at a
/// time.
pub(crate) struct Fold;

impl F32Body for Fold {
    const BLOCK: usize = 8;

    #[inline(always)]
    unsafe fn block<S: Rows>(
        rows: &S,
        first: usize,
        count: usize,
        query: &[f32],
        out: &mut [f32; MAX_BLOCK],
    ) {
        let (query_quads, query_tail) = query.as_chunks::<QUAD>();
        for (i, distance) in out[..count].iter_mut().enumerate() {
            let mut lanes = [0.0f32; QUAD];
            for (j, y) in query_quads.iter().enumerate() {
                // SAFETY: the caller keeps the row in bounds and it is as
                // long as the query, so quad `j` exists.
                let x = &*rows.quad(first + i, j).cast::<[f32; QUAD]>();
                for lane in 0..QUAD {
                    let d = x[lane] - y[lane];
                    lanes[lane] += d * d;
                }
            }
            *distance = finish(lanes, rows.tail(first + i, query.len()), query_tail);
        }
    }
}

/// Score every row of `rows` against `query` with the f32 body of `B`, in
/// blocks, handing each block's distances to `sink` with the index of its
/// first row.
///
/// # Safety
///
/// The CPU must support the instruction set of `B`, and every row is as
/// long as `query`.
#[inline(always)]
unsafe fn score<B: Body, S: Rows>(rows: &S, query: &[f32], mut sink: impl FnMut(usize, &[f32])) {
    let mut out = [0.0f32; MAX_BLOCK];
    let block = B::F32::BLOCK;
    let mut first = 0;
    while first < rows.count() {
        let count = (rows.count() - first).min(block);
        // SAFETY: the caller vouches for the instruction set and the row
        // lengths; blocks start at multiples of `BLOCK` (8 or 16), so at
        // multiples of four.
        B::F32::block(rows, first, count, query, &mut out);
        sink(first, &out[..count]);
        first += block;
    }
}

/// Every row's distance to the query, into `out` (as long as the rows).
struct Distances<'a, S> {
    rows: &'a S,
    query: &'a [f32],
    out: &'a mut [f32],
}

impl<S: Rows> Kernel for Distances<'_, S> {
    type Output = ();

    #[inline(always)]
    unsafe fn run<B: Body>(self) {
        let Distances { rows, query, out } = self;
        // SAFETY: this function's caller vouches for the instruction set of
        // `B`; `distances` checked the row lengths.
        score::<B, S>(rows, query, |first, block| {
            out[first..first + block.len()].copy_from_slice(block);
        });
    }
}

/// The first row with the smallest distance below `+∞`.
struct Nearest<'a, S> {
    rows: &'a S,
    query: &'a [f32],
}

impl<S: Rows> Kernel for Nearest<'_, S> {
    type Output = (usize, f32);

    #[inline(always)]
    unsafe fn run<B: Body>(self) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        // SAFETY: as for `Distances`, `nearest` checked the row lengths.
        score::<B, S>(self.rows, self.query, |first, block| {
            for (i, &distance) in block.iter().enumerate() {
                if distance < best.1 {
                    best = (first + i, distance);
                }
            }
        });
        best
    }
}

/// The bodies read every row up to the query's length.
fn check_lengths<S: Rows>(rows: &S, query: &[f32]) {
    assert!(
        rows.all_of_length(query.len()),
        "distance requires equal dimensionality"
    );
}

/// `out[i]` becomes row `i`'s distance to `query`, with the body of `isa`.
///
/// # Panics
///
/// Panics if a row is not as long as `query`, or `out` not as long as the
/// rows.
#[inline]
pub(crate) fn distances<S: Rows>(isa: Isa, rows: &S, query: &[f32], out: &mut [f32]) {
    check_lengths(rows, query);
    assert_eq!(out.len(), rows.count(), "one distance per row");
    dispatch(isa, Distances { rows, query, out });
}

/// The first row of the smallest distance to `query` below `+∞`, with the
/// body of `isa`; `(0, +∞)` when there is none.
///
/// # Panics
///
/// Panics if a row is not as long as `query`.
#[inline]
pub(crate) fn nearest<S: Rows>(isa: Isa, rows: &S, query: &[f32]) -> (usize, f32) {
    check_lengths(rows, query);
    dispatch(isa, Nearest { rows, query })
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! The x86-64 bodies. Like the Hamming bodies, their helpers are
    //! `#[inline(always)]` with no `#[target_feature]` of their own: they
    //! exist only inlined into one of `distance::x86`'s `in_*` functions
    //! and compile under its feature set. A block's row count picks a
    //! helper instantiated for exactly that many registers.

    use std::arch::x86_64::*;

    use super::{finish, F32Body, Rows, MAX_BLOCK, QUAD};

    /// Fold `R` rows from `first`, one `__m128` accumulator each.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE; the rows `first .. first + R` exist and
    /// are as long as `query`.
    #[inline(always)]
    unsafe fn rows_sse<S: Rows, const R: usize>(
        rows: &S,
        first: usize,
        query: &[f32],
        out: &mut [f32],
    ) {
        let (query_quads, query_tail) = query.as_chunks::<QUAD>();
        let mut sums = [_mm_setzero_ps(); R];
        for (j, y) in query_quads.iter().enumerate() {
            // SAFETY (every load): quad `j` of the query and of each row
            // exists (the caller's row bounds and lengths).
            let y = _mm_loadu_ps(y.as_ptr());
            for (r, sum) in sums.iter_mut().enumerate() {
                let d = _mm_sub_ps(_mm_loadu_ps(rows.quad(first + r, j)), y);
                *sum = _mm_add_ps(*sum, _mm_mul_ps(d, d));
            }
        }
        for (r, sum) in sums.into_iter().enumerate() {
            let mut lanes = [0.0f32; QUAD];
            // SAFETY: `lanes` is the 16 bytes stored.
            _mm_storeu_ps(lanes.as_mut_ptr(), sum);
            out[r] = finish(lanes, rows.tail(first + r, query.len()), query_tail);
        }
    }

    /// Fold `2P` rows from `first`, two per `__m256` accumulator: the low
    /// half holds the lanes of one row, the high half those of the next.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX; as for [`rows_sse`] with `2P` rows, and
    /// for an interleaved source `first` is even.
    #[inline(always)]
    unsafe fn pairs_avx2<S: Rows, const P: usize>(
        rows: &S,
        first: usize,
        query: &[f32],
        out: &mut [f32],
    ) {
        let (query_quads, query_tail) = query.as_chunks::<QUAD>();
        let mut sums = [_mm256_setzero_ps(); P];
        for (j, y) in query_quads.iter().enumerate() {
            // SAFETY (every load): as in `rows_sse`; an interleaved source
            // keeps the quads of rows `2p` and `2p + 1` back to back.
            let y = _mm_loadu_ps(y.as_ptr());
            let y = _mm256_set_m128(y, y);
            for (p, sum) in sums.iter_mut().enumerate() {
                let row = first + 2 * p;
                let x = if S::INTERLEAVED {
                    _mm256_loadu_ps(rows.quad(row, j))
                } else {
                    _mm256_loadu2_m128(rows.quad(row + 1, j), rows.quad(row, j))
                };
                let d = _mm256_sub_ps(x, y);
                *sum = _mm256_add_ps(*sum, _mm256_mul_ps(d, d));
            }
        }
        for (p, sum) in sums.into_iter().enumerate() {
            let mut lanes = [0.0f32; 2 * QUAD];
            // SAFETY: `lanes` is the 32 bytes stored.
            _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
            let (low, high) = lanes.split_at(QUAD);
            for (half, lanes) in [low, high].into_iter().enumerate() {
                let row = first + 2 * p + half;
                let lanes = lanes.try_into().expect("four lanes");
                out[2 * p + half] = finish(lanes, rows.tail(row, query.len()), query_tail);
            }
        }
    }

    /// Fold `4G` rows from an interleaved source, four per `__m512`
    /// accumulator: one 64-byte load per register and quad.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F; the source is interleaved, `first`
    /// is a multiple of four, and otherwise as for [`rows_sse`].
    #[inline(always)]
    unsafe fn fours_avx512<S: Rows, const G: usize>(
        rows: &S,
        first: usize,
        query: &[f32],
        out: &mut [f32],
    ) {
        let (query_quads, query_tail) = query.as_chunks::<QUAD>();
        let mut sums = [_mm512_setzero_ps(); G];
        for (j, y) in query_quads.iter().enumerate() {
            // SAFETY (every load): as in `rows_sse`; the interleaved source
            // keeps the quads of rows `4g .. 4g + 4` back to back.
            let y = _mm512_broadcast_f32x4(_mm_loadu_ps(y.as_ptr()));
            for (g, sum) in sums.iter_mut().enumerate() {
                let d = _mm512_sub_ps(_mm512_loadu_ps(rows.quad(first + QUAD * g, j)), y);
                *sum = _mm512_add_ps(*sum, _mm512_mul_ps(d, d));
            }
        }
        for (g, sum) in sums.into_iter().enumerate() {
            let mut lanes = [0.0f32; QUAD * QUAD];
            // SAFETY: `lanes` is the 64 bytes stored.
            _mm512_storeu_ps(lanes.as_mut_ptr(), sum);
            for (r, lanes) in lanes.chunks_exact(QUAD).enumerate() {
                let row = first + QUAD * g + r;
                let lanes = lanes.try_into().expect("four lanes");
                out[QUAD * g + r] = finish(lanes, rows.tail(row, query.len()), query_tail);
            }
        }
    }

    /// The `count` (at most eight) rows from `first` as one block of
    /// [`rows_sse`].
    ///
    /// # Safety
    ///
    /// As for [`rows_sse`] with `count` rows.
    #[inline(always)]
    unsafe fn sse_block<S: Rows>(
        rows: &S,
        first: usize,
        count: usize,
        query: &[f32],
        out: &mut [f32],
    ) {
        match count {
            0 => {}
            1 => rows_sse::<S, 1>(rows, first, query, out),
            2 => rows_sse::<S, 2>(rows, first, query, out),
            3 => rows_sse::<S, 3>(rows, first, query, out),
            4 => rows_sse::<S, 4>(rows, first, query, out),
            5 => rows_sse::<S, 5>(rows, first, query, out),
            6 => rows_sse::<S, 6>(rows, first, query, out),
            7 => rows_sse::<S, 7>(rows, first, query, out),
            _ => rows_sse::<S, 8>(rows, first, query, out),
        }
    }

    /// Eight rows per block, one `__m128` each.
    pub(crate) struct Sse;

    impl F32Body for Sse {
        const BLOCK: usize = 8;

        #[inline(always)]
        unsafe fn block<S: Rows>(
            rows: &S,
            first: usize,
            count: usize,
            query: &[f32],
            out: &mut [f32; MAX_BLOCK],
        ) {
            sse_block(rows, first, count, query, out);
        }
    }

    /// Sixteen rows per block, two per `__m256`; an odd row left over goes
    /// through [`rows_sse`].
    pub(crate) struct Avx2;

    impl F32Body for Avx2 {
        const BLOCK: usize = 16;

        #[inline(always)]
        unsafe fn block<S: Rows>(
            rows: &S,
            first: usize,
            count: usize,
            query: &[f32],
            out: &mut [f32; MAX_BLOCK],
        ) {
            let paired = count / 2 * 2;
            match count / 2 {
                0 => {}
                1 => pairs_avx2::<S, 1>(rows, first, query, out),
                2 => pairs_avx2::<S, 2>(rows, first, query, out),
                3 => pairs_avx2::<S, 3>(rows, first, query, out),
                4 => pairs_avx2::<S, 4>(rows, first, query, out),
                5 => pairs_avx2::<S, 5>(rows, first, query, out),
                6 => pairs_avx2::<S, 6>(rows, first, query, out),
                7 => pairs_avx2::<S, 7>(rows, first, query, out),
                _ => pairs_avx2::<S, 8>(rows, first, query, out),
            }
            sse_block(
                rows,
                first + paired,
                count - paired,
                query,
                &mut out[paired..],
            );
        }
    }

    /// Sixteen rows per block, four per `__m512`, from a packed source; the
    /// one to three rows past the last whole four go through [`rows_sse`].
    /// Rows handed in as slices take the [`Avx2`] body: they would need four
    /// loads and three inserts per register.
    pub(crate) struct Avx512;

    impl F32Body for Avx512 {
        const BLOCK: usize = 16;

        #[inline(always)]
        unsafe fn block<S: Rows>(
            rows: &S,
            first: usize,
            count: usize,
            query: &[f32],
            out: &mut [f32; MAX_BLOCK],
        ) {
            if !S::INTERLEAVED {
                return Avx2::block(rows, first, count, query, out);
            }
            let grouped = count / QUAD * QUAD;
            match count / QUAD {
                0 => {}
                1 => fours_avx512::<S, 1>(rows, first, query, out),
                2 => fours_avx512::<S, 2>(rows, first, query, out),
                3 => fours_avx512::<S, 3>(rows, first, query, out),
                _ => fours_avx512::<S, 4>(rows, first, query, out),
            }
            sse_block(
                rows,
                first + grouped,
                count - grouped,
                query,
                &mut out[grouped..],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// Deterministic values in `[-8, 8)`, a different stream per seed.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 20) as f32 - 8.0
            })
            .collect()
    }

    /// What the rows of a case hold beyond plain values, one kind per row.
    const SPECIALS: [f32; 9] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::MIN_POSITIVE,
        1.0e-40, // subnormal
        -1.0e-45,
        3.0e38, // its square overflows
        -3.0e38,
    ];

    /// `count` rows of `dim` values; every third row carries one special
    /// value at a dimension that moves with the row (a lane, or the tail),
    /// and rows 5 and 9 (when present) repeat row 1 and its negation, so
    /// that their distances to a zero query tie with row 1's.
    fn rows(count: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rows: Vec<Vec<f32>> = (0..count)
            .map(|r| values(dim, seed * 1_000 + r as u64))
            .collect();
        for (r, row) in rows.iter_mut().enumerate().filter(|(r, _)| r % 3 == 2) {
            if dim > 0 {
                row[(r * 7) % dim] = SPECIALS[(r / 3) % SPECIALS.len()];
            }
        }
        if count > 9 {
            rows[5] = rows[1].clone();
            rows[9] = rows[1].iter().map(|x| -x).collect();
        }
        rows
    }

    /// The nearest-row rule, on distances computed one by one.
    fn reference_nearest(query: &[f32], rows: &[Vec<f32>]) -> (usize, f32) {
        let mut best = (0, f32::INFINITY);
        for (r, row) in rows.iter().enumerate() {
            let distance = reference::squared_l2_f32(row, query);
            if distance < best.1 {
                best = (r, distance);
            }
        }
        best
    }

    /// The bits of each distance, every NaN as the canonical one: Rust
    /// leaves a NaN's payload unspecified (the compiler may swap the
    /// operands of an add), so only NaN-ness is part of the contract.
    fn bits(distances: &[f32]) -> Vec<u32> {
        let canonical = |d: &f32| if d.is_nan() { f32::NAN } else { *d };
        distances.iter().map(canonical).map(f32::to_bits).collect()
    }

    #[test]
    fn every_f32_body_matches_the_fold_bit_for_bit() {
        let bodies: Vec<Isa> = Isa::supported().collect();
        assert_eq!(bodies.last(), Some(&Isa::detect()));
        // Every tail length of every register width, and the dimension the
        // benchmark corpus has.
        for dim in (0..=67).chain([1_024]) {
            let all = rows(40, dim, dim as u64);
            // A plain query, one holding a NaN of its own payload and an
            // infinity, and the zero query the tied rows are built around.
            let mut special = values(dim, 7 + dim as u64);
            if dim > 1 {
                special[dim / 2] = f32::from_bits(0x7FA0_0001);
                special[dim - 1] = f32::NEG_INFINITY;
            }
            let queries = [values(dim, 3 + dim as u64), special, vec![0.0; dim]];
            for count in 0..=all.len() {
                let rows = &all[..count];
                let packed = PackedRows::new(rows);
                for query in &queries {
                    let want: Vec<f32> = rows
                        .iter()
                        .map(|row| reference::squared_l2_f32(row, query))
                        .collect();
                    let want_nearest = reference_nearest(query, rows);
                    for &isa in &bodies {
                        let context = format!("{isa:?} dim {dim} rows {count}");
                        let mut got = vec![f32::NAN; count];
                        distances(isa, &Slices(rows), query, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{context} slices");
                        let (row, distance) = nearest(isa, &Slices(rows), query);
                        assert_eq!(row, want_nearest.0, "{context} slices");
                        assert_eq!(distance.to_bits(), want_nearest.1.to_bits());
                        if count > 0 {
                            got.fill(f32::NAN);
                            distances(isa, &packed, query, &mut got);
                            assert_eq!(bits(&got), bits(&want), "{context} packed");
                            let (row, distance) = nearest(isa, &packed, query);
                            assert_eq!(row, want_nearest.0, "{context} packed");
                            assert_eq!(distance.to_bits(), want_nearest.1.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ties_go_to_the_lower_row_and_nan_never_wins() {
        let dim = 21;
        let base = values(dim, 1);
        let negated: Vec<f32> = base.iter().map(|x| -x).collect();
        let far = vec![100.0f32; dim];
        let nan = vec![f32::NAN; dim];
        let infinite = vec![f32::INFINITY; dim];
        let zero = vec![0.0f32; dim];
        // The tied pair straddles the blocks of every body (8 and 16 rows).
        let mut rows = vec![far.clone(); 40];
        rows[0] = nan.clone();
        rows[17] = negated.clone();
        rows[33] = base.clone();
        for isa in Isa::supported() {
            let packed = PackedRows::new(&rows);
            assert_eq!(nearest(isa, &Slices(&rows), &zero).0, 17, "{isa:?}");
            assert_eq!(nearest(isa, &packed, &zero).0, 17, "{isa:?}");
            // Nothing below +∞: the answer is row 0 at +∞.
            let hopeless = [nan.clone(), infinite.clone(), nan.clone()];
            for answer in [
                nearest(isa, &Slices(&hopeless), &zero),
                nearest(isa, &PackedRows::new(&hopeless), &zero),
                nearest(isa, &Slices(&[] as &[Vec<f32>]), &zero),
            ] {
                assert_eq!(answer, (0, f32::INFINITY), "{isa:?}");
            }
        }
        assert_eq!(
            crate::nearest_f32(&zero, &rows),
            (17, crate::squared_l2_f32(&base, &zero))
        );
        assert_eq!(PackedRows::new(&rows).nearest(&zero).0, 17);
    }

    #[test]
    fn the_pair_is_symmetric_and_matches_the_rows() {
        for dim in [0usize, 1, 3, 4, 5, 37, 1_024] {
            let (a, b) = (values(dim, 11), values(dim, 12));
            let d = crate::squared_l2_f32(&a, &b);
            assert_eq!(d.to_bits(), crate::squared_l2_f32(&b, &a).to_bits());
            assert_eq!(d.to_bits(), reference::squared_l2_f32(&a, &b).to_bits());
            let mut out = [0.0; 2];
            crate::squared_l2_f32_rows(&b, &[&a[..], &b[..]], &mut out);
            assert_eq!(bits(&out), bits(&[d, 0.0]));
        }
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn rows_reject_a_row_of_another_length() {
        crate::nearest_f32(&[1.0, 2.0], &[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn packing_rejects_ragged_rows() {
        PackedRows::new(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
