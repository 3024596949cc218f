//! Row-block parallelism for the host-side index build.
//!
//! k-means and the quantizers run their row-independent passes on every
//! core the host grants. Threads claim fixed-size blocks of slots from one
//! counter and write each slot's result into that slot alone, so a pass
//! computes the same bits whatever the thread count and whichever thread
//! took which block. A block claimed late by a descheduled thread only
//! delays the pass; it never changes what it computes.
//!
//! Whatever depends on order stays with the caller: a sum over rows or an
//! RNG draw is folded from the slots in row order afterwards. A
//! per-dimension sum over rows is split by dimension range, never by rows
//! ([`map_dims`]), so each accumulator still sees every row, in row order.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows a thread claims at a time.
pub(crate) const ROW_BLOCK: usize = 256;

/// Dimensions one job of [`map_dims`] covers: 2 KiB of each row, a run
/// long enough for the hardware prefetcher to stream. Over 1,024-d rows on
/// a 2-vCPU host, jobs of 128 dimensions summed at half the speed of jobs
/// of 512.
const DIM_BLOCK: usize = 512;

/// The fewest rows worth a thread of their own: a build over fewer than
/// twice this many (a unit test, a PQ sub-codebook of a small sample) stays
/// on the caller.
const MIN_ROWS_PER_THREAD: usize = 1_024;

/// How many threads a build over `rows` rows uses: every core the host
/// grants this process, but at least [`MIN_ROWS_PER_THREAD`] rows each.
pub(crate) fn threads_for(rows: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED.get() {
        return forced;
    }
    let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    available.min(rows / MIN_ROWS_PER_THREAD).max(1)
}

/// Call `work(first, block)` for every run of `block_len` consecutive
/// slots (the last may be shorter), where `first` is the index of the
/// run's first slot, on up to `threads` threads. The caller's thread is
/// one of them; with one thread nothing is spawned.
pub(crate) fn for_each_block<T: Send>(
    threads: usize,
    slots: &mut [T],
    block_len: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    // Exactly one claim ever takes each lock: it only hands the block's
    // `&mut` to whichever thread drew its index.
    let blocks: Vec<Mutex<&mut [T]>> = slots.chunks_mut(block_len).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let claim_blocks = || loop {
        // The counter publishes nothing but the index; the block itself
        // passes through its lock.
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(block) = blocks.get(index) else {
            break;
        };
        let mut block = block
            .lock()
            .expect("a block is claimed once, so its lock is never poisoned");
        work(index * block_len, &mut block);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(blocks.len()) {
            scope.spawn(claim_blocks);
        }
        claim_blocks();
    });
}

/// `f(i)` for every `i` in `0..len`, in index order, computed in blocks of
/// `block_len` on up to `threads` threads.
pub(crate) fn map<R: Send>(
    threads: usize,
    len: usize,
    block_len: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    for_each_block(threads, &mut slots, block_len, |first, block| {
        for (i, slot) in (first..).zip(block) {
            *slot = Some(f(i));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every block is claimed"))
        .collect()
}

/// `f(dims)` for consecutive ranges that cover `0..dim`, in dimension
/// order, on up to `threads` threads. A per-dimension reduction over rows
/// split this way adds every row into each accumulator in row order, as
/// one thread would.
pub(crate) fn map_dims<R: Send>(
    threads: usize,
    dim: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    map(threads, dim.div_ceil(DIM_BLOCK), 1, |job| {
        f(job * DIM_BLOCK..dim.min((job + 1) * DIM_BLOCK))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// The thread count [`threads_for`] answers on this test's thread.
        pub(super) static FORCED: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Run `f` with every build pass it starts on exactly `threads`
    /// threads, whatever the host and the row count.
    pub(crate) fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let previous = FORCED.replace(Some(threads));
        let result = f();
        FORCED.set(previous);
        result
    }

    /// `data` with every third row replaced by ±2³⁶ in every dimension,
    /// the sign alternating. Between those rows a running `f64` sum is
    /// large and rounds away the low bits of the rows in between; at the
    /// end the large rows cancel, so a change in the order of additions
    /// shows even in an `f32` mean (a sum of values of one magnitude is
    /// exact in any order).
    pub(crate) fn order_sensitive(mut data: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        for (row, v) in data.iter_mut().enumerate().step_by(3) {
            let sign = if row % 2 == 0 { 1.0 } else { -1.0 };
            v.fill(sign * 2f32.powi(36));
        }
        data
    }

    #[test]
    fn every_slot_is_visited_once_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            for len in [0, 1, 255, 256, 257, 1_000] {
                let got = map(threads, len, ROW_BLOCK, |i| i * 3);
                assert_eq!(got, (0..len).map(|i| i * 3).collect::<Vec<_>>());
                let mut slots = vec![0usize; len];
                for_each_block(threads, &mut slots, 7, |first, block| {
                    for (i, slot) in (first..).zip(block) {
                        *slot += i + 1;
                    }
                });
                assert_eq!(slots, (1..=len).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn dimension_ranges_cover_every_dimension_in_order() {
        for threads in [1, 2, 3] {
            for dim in [0, 1, 511, 512, 513, 1_100] {
                let ranges = map_dims(threads, dim, |dims| dims);
                let covered: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(covered, (0..dim).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn small_builds_stay_on_the_caller() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(2 * MIN_ROWS_PER_THREAD - 1), 1);
        assert_eq!(with_threads(3, || threads_for(10)), 3);
        assert_eq!(threads_for(10), 1, "the override ends with its closure");
    }
}
