//! The benchmark-owned yardstick for host speed.
//!
//! Host times on a shared box wander by several percent between processes
//! and even between seconds. Every measured block is therefore bracketed by
//! a fixed piece of CPU work owned by the benchmark — XOR + popcount over a
//! private 4 MiB buffer — whose duration is recorded with the block
//! (`host.calib_ms`, and the `blocks` log of every result document). The
//! loop deliberately calls nothing from `reis-kernels`: a kernel
//! optimisation must move the measurement, never the yardstick.
//!
//! The yardstick is a reading for whoever looks at a slow run, not a
//! correction: the reported `wall_*` numbers are plain host time. Scaling
//! them by the yardstick was measured (four rounds of ten runs per workload)
//! and made the scan-bound single-query workload steadier (spread 8 % to
//! 4 %) but others noisier — `paper_fullscale`, which never leaves L1, three
//! times noisier — because what drifts on a shared host is the memory
//! system, and the seven workloads lean on it to very different degrees.
//!
//! The loop runs on the client thread alone. The load it stands in for is
//! one closed-loop client whose calls keep about one core busy
//! (`host.cores_busy`). A loop spread over every core was tried first: a
//! background process occupying one of two cores doubled it while the calls,
//! free to move to the idle core, ran at full speed.

use std::hint::black_box;
use std::time::Instant;

const BUFFER_WORDS: usize = (4 << 20) / 8;
/// Sweeps over the buffer per loop; sized so one loop takes ≈ 10 ms.
const PASSES: u64 = 12;
/// A calibration point is the fastest of this many back-to-back loops: the
/// minimum ignores a stray interrupt but still follows sustained slowdowns
/// (frequency, a busy neighbour), which are what the blocks suffer from.
const LOOPS_PER_POINT: usize = 3;

/// The calibration loop and its buffer.
pub struct Calibrator {
    buffer: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with a freshly filled buffer.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer = (0..BUFFER_WORDS)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect();
        Calibrator { buffer }
    }

    fn one_loop_ms(&self) -> f64 {
        let started = Instant::now();
        let mut ones = 0u64;
        for pass in 0..PASSES {
            let key = (pass + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
            for &word in black_box(&self.buffer) {
                ones += u64::from((word ^ key).count_ones());
            }
        }
        black_box(ones);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// One calibration point, in milliseconds.
    pub fn point_ms(&self) -> f64 {
        (0..LOOPS_PER_POINT)
            .map(|_| self.one_loop_ms())
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_does_measurable_work() {
        let calibrator = Calibrator::new();
        assert!(calibrator.point_ms() > 0.0);
    }
}
