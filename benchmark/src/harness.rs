//! The noise-aware measurement loop: blocks of timed calls.
//!
//! A run is a sequence of blocks, each bracketed by points of the host-speed
//! yardstick (see [`crate::calib`]). Throughput and the latency percentiles
//! are the median over blocks of each block's own value; the yardstick's
//! reading is recorded with every block so a slow stretch of the host can be
//! told from a slow program. One closed-loop client thread issues every
//! call.

use std::time::{Duration, Instant};

use crate::calib::Calibrator;
use crate::stats;

/// Latency samples a block keeps; calls past it still count into the
/// throughput. The buffer is allocated up front at this size, so the memory
/// the harness itself holds does not depend on how many calls happened to
/// fit (a microsecond-scale operation otherwise moved `peak_rss_mb` by 15 %
/// from run to run, one buffer doubling more or less).
const MAX_SAMPLES_PER_BLOCK: usize = 65_536;

/// What a workload records into while one block runs.
pub struct Block {
    deadline: Instant,
    latencies_ns: Vec<u64>,
    secondary_ns: Vec<u64>,
    requests: u64,
    busy_ns: u64,
}

impl Block {
    fn new(deadline: Instant) -> Self {
        Block {
            deadline,
            latencies_ns: Vec::with_capacity(MAX_SAMPLES_PER_BLOCK),
            secondary_ns: Vec::new(),
            requests: 0,
            busy_ns: 0,
        }
    }

    /// Whether the block's time slice is still running. Workloads whose
    /// work is fixed by their inputs ignore it.
    pub fn open(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Time one closed-loop call completing `requests` requests: one
    /// latency sample, and the call's time counts as busy time.
    pub fn call<T>(&mut self, requests: u64, f: impl FnOnce() -> T) -> T {
        let (out, ns) = timed(f);
        self.sample(ns);
        self.requests += requests;
        self.busy_ns += ns;
        out
    }

    fn sample(&mut self, ns: u64) {
        if self.latencies_ns.len() < MAX_SAMPLES_PER_BLOCK {
            self.latencies_ns.push(ns);
        }
    }

    /// Like [`Block::call`], but the latency goes to the secondary sample
    /// set (requests that ride along with the primary ones, e.g. the
    /// searches interleaved with a mutation trace).
    pub fn secondary_call<T>(&mut self, requests: u64, f: impl FnOnce() -> T) -> T {
        let (out, ns) = timed(f);
        self.secondary_ns.push(ns);
        self.requests += requests;
        self.busy_ns += ns;
        out
    }

    /// Count host time as busy without a latency sample (an open-loop
    /// replay times its calls itself and reports per-request latencies
    /// through [`Block::completed`]).
    pub fn add_busy(&mut self, ns: u64) {
        self.busy_ns += ns;
    }

    /// Record one completed request with a latency measured by the workload.
    pub fn completed(&mut self, latency_ns: u64) {
        self.sample(latency_ns);
        self.requests += 1;
    }
}

/// Run `f` and return its result with the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// One finished block.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Mean of the two yardstick points around the block, ms.
    pub calib_ms: f64,
    /// Primary latencies, µs, ascending.
    pub latencies_us: Vec<f64>,
    /// Secondary latencies, µs, ascending.
    pub secondary_us: Vec<f64>,
    /// Requests completed in the block.
    pub requests: u64,
    /// Raw host seconds the block's calls took.
    pub busy_s: f64,
    /// Process CPU seconds (user + system, all threads) the block consumed.
    pub cpu_s: f64,
}

impl BlockResult {
    fn from_block(block: Block, cpu_s: f64, before_ms: f64, after_ms: f64) -> Self {
        let to_us = |samples: Vec<u64>| {
            let mut us: Vec<f64> = samples.into_iter().map(|ns| ns as f64 / 1e3).collect();
            stats::sort(&mut us);
            us
        };
        BlockResult {
            calib_ms: (before_ms + after_ms) / 2.0,
            latencies_us: to_us(block.latencies_ns),
            secondary_us: to_us(block.secondary_ns),
            requests: block.requests,
            busy_s: block.busy_ns as f64 / 1e9,
            cpu_s,
        }
    }

    /// Requests per host second.
    pub fn qps(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.requests as f64 / self.busy_s
        } else {
            0.0
        }
    }
}

/// All blocks of one measured phase.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The blocks, in run order.
    pub blocks: Vec<BlockResult>,
}

/// Run `blocks` blocks sharing `seconds` of measuring time. `body` gets the
/// block index and the recorder; calibration points are taken between
/// blocks and are not part of `seconds`.
pub fn measure(
    calibrator: &Calibrator,
    blocks: usize,
    seconds: f64,
    mut body: impl FnMut(usize, &mut Block),
) -> Measurement {
    let slice = Duration::from_secs_f64((seconds / blocks.max(1) as f64).max(0.0));
    let mut results = Vec::with_capacity(blocks);
    let mut before_ms = calibrator.point_ms();
    for index in 0..blocks {
        let cpu_before = process_cpu_seconds();
        let mut block = Block::new(Instant::now() + slice);
        body(index, &mut block);
        let cpu_s = process_cpu_seconds() - cpu_before;
        let after_ms = calibrator.point_ms();
        results.push(BlockResult::from_block(block, cpu_s, before_ms, after_ms));
        before_ms = after_ms;
    }
    Measurement { blocks: results }
}

impl Measurement {
    fn per_block(&self, f: impl Fn(&BlockResult) -> f64) -> Vec<f64> {
        self.blocks.iter().map(f).collect()
    }

    /// The blocks whose index `keep` accepts, as a measurement of their own
    /// (a traced run interleaves blocks of several systems in one phase).
    pub fn select(&self, keep: impl Fn(usize) -> bool) -> Measurement {
        Measurement {
            blocks: self
                .blocks
                .iter()
                .enumerate()
                .filter(|(index, _)| keep(*index))
                .map(|(_, block)| block.clone())
                .collect(),
        }
    }

    /// Process CPU seconds over all blocks.
    pub fn cpu_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.cpu_s).sum()
    }

    /// Throughput: the median block.
    pub fn wall_qps(&self) -> f64 {
        stats::median(&self.per_block(BlockResult::qps))
    }

    /// Throughput over the whole run: all requests over all busy time.
    pub fn whole_run_qps(&self) -> f64 {
        let busy_s = self.busy_s();
        if busy_s > 0.0 {
            self.requests() as f64 / busy_s
        } else {
            0.0
        }
    }

    /// Inter-quartile distance of the blocks' throughput, % of their
    /// median.
    pub fn qps_spread_pct(&self) -> f64 {
        stats::spread_pct(&self.per_block(BlockResult::qps))
    }

    /// Primary latencies pooled over blocks, µs, ascending.
    pub fn pooled_us(&self) -> Vec<f64> {
        stats::pool(self.blocks.iter().map(|b| b.latencies_us.as_slice()))
    }

    /// Secondary latencies pooled over blocks, µs, ascending.
    pub fn pooled_secondary_us(&self) -> Vec<f64> {
        stats::pool(self.blocks.iter().map(|b| b.secondary_us.as_slice()))
    }

    /// Latency percentile `p`, µs: the median over blocks of each
    /// block's own percentile. (Pooling every sample was tried first: one
    /// slow block then owns the pooled tail, and the p95 of a run wandered
    /// 25 % where the median block's wandered 9 %.)
    pub fn percentile_us(&self, p: f64) -> f64 {
        stats::median(&self.per_block(|b| stats::percentile(&b.latencies_us, p)))
    }

    /// Primary latency samples over all blocks.
    pub fn samples(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.latencies_us.len() as u64)
            .sum()
    }

    /// Inter-quartile distance of the blocks' own percentile `p`, % of the
    /// median block's.
    pub fn percentile_spread_pct(&self, p: f64) -> f64 {
        stats::spread_pct(&self.per_block(|b| stats::percentile(&b.latencies_us, p)))
    }

    /// Requests completed over all blocks.
    pub fn requests(&self) -> u64 {
        self.blocks.iter().map(|b| b.requests).sum()
    }

    /// Raw host seconds over all blocks.
    pub fn busy_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.busy_s).sum()
    }

    /// Mean yardstick point, ms.
    pub fn calib_ms(&self) -> f64 {
        stats::mean(&self.per_block(|b| b.calib_ms))
    }

    /// CPU microseconds per request.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s() * 1e6 / self.requests().max(1) as f64
    }

    /// CPU time ÷ busy wall time: how many cores the run really kept busy.
    pub fn cores_busy(&self) -> f64 {
        let busy = self.busy_s();
        if busy > 0.0 {
            self.cpu_s() / busy
        } else {
            0.0
        }
    }
}

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (0 where procfs is unavailable).
pub fn process_cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks, counted after the
    // parenthesised command name, which may itself contain spaces.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after_name) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = after_name.split_whitespace().skip(11);
    let ticks = |field: Option<&str>| field.and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`; 0 where procfs
/// is unavailable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(samples_ns: &[u64], cpu_s: f64) -> BlockResult {
        let mut block = Block::new(Instant::now());
        for &ns in samples_ns {
            block.latencies_ns.push(ns);
            block.requests += 1;
            block.busy_ns += ns;
        }
        BlockResult::from_block(block, cpu_s, 8.0, 10.0)
    }

    #[test]
    fn throughput_is_the_median_block_and_latencies_pool() {
        let measurement = Measurement {
            blocks: vec![
                block(&[1_000_000; 4], 0.0),
                block(&[2_000_000; 4], 0.0),
                block(&[4_000_000; 4], 0.056),
            ],
        };
        assert!((measurement.wall_qps() - 500.0).abs() < 1e-6);
        assert_eq!(measurement.requests(), 12);
        let pooled = measurement.pooled_us();
        assert_eq!((pooled.len(), measurement.samples()), (12, 12));
        assert_eq!(stats::percentile(&pooled, 0.95), 4000.0);
        assert_eq!(measurement.percentile_us(0.5), 2000.0);
        assert_eq!(measurement.percentile_us(0.95), 2000.0);
        assert!((measurement.busy_s() - 0.028).abs() < 1e-12);
        assert!((measurement.cores_busy() - 2.0).abs() < 1e-9);
        assert!((measurement.calib_ms() - 9.0).abs() < 1e-12);
        // 12 requests in 4 + 8 + 16 ms.
        assert!((measurement.whole_run_qps() - 12.0 / 0.028).abs() < 1e-6);
        let odd = measurement.select(|index| index % 2 == 1);
        assert_eq!(odd.blocks.len(), 1);
        assert!((odd.wall_qps() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn measure_runs_every_block_and_times_calls() {
        let calibrator = Calibrator::new();
        let measurement = measure(&calibrator, 2, 0.0, |_, block| {
            block.call(3, || std::hint::black_box(7));
            block.secondary_call(1, || ());
            block.completed(500);
        });
        assert_eq!(measurement.blocks.len(), 2);
        assert_eq!(measurement.requests(), 10);
        assert_eq!(measurement.pooled_us().len(), 4);
        assert_eq!(measurement.pooled_secondary_us().len(), 2);
    }

    #[test]
    fn procfs_readers_report_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
