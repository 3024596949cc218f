//! Latency model of NAND flash operations.
//!
//! The simulator is *functional plus analytic-timing*: data really moves
//! between pages and latches, while elapsed time is accumulated from the
//! parameters in [`TimingParams`]. The default parameters follow Table 3 of
//! the REIS paper and the Flash-Cosmos characterization it builds on
//! (e.g. a 22.5 µs ESP-SLC read).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::cell::{CellMode, ProgramScheme};

/// A simulated duration in nanoseconds.
///
/// `Nanos` is a transparent wrapper over `u64` with saturating arithmetic so
/// long simulations never overflow silently.
///
/// # Examples
///
/// ```
/// use reis_nand::timing::Nanos;
///
/// let t = Nanos::from_micros(22) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 22_500);
/// assert!((t.as_secs_f64() - 22.5e-6).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Create a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Create a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Create a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Create a duration from seconds expressed as a float.
    ///
    /// Negative or non-finite inputs are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Nanos(0);
        }
        Nanos((secs * 1e9).round() as u64)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs.max(1))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Latency and bandwidth parameters of the flash array.
///
/// Defaults correspond to the REIS-SSD1 configuration (Table 3 of the paper);
/// [`TimingParams::reis_ssd2`] adjusts the channel bandwidth for the
/// performance-oriented device. Channel count and plane count live in
/// [`crate::geometry::Geometry`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Read latency (tR) of a page programmed with Enhanced SLC Programming.
    pub t_read_esp_slc: Nanos,
    /// Read latency (tR) of a page programmed in normal SLC mode.
    pub t_read_slc: Nanos,
    /// Read latency (tR) of a page programmed in MLC mode.
    pub t_read_mlc: Nanos,
    /// Read latency (tR) of a page programmed in TLC mode.
    pub t_read_tlc: Nanos,
    /// Read latency (tR) of a page programmed in QLC mode.
    pub t_read_qlc: Nanos,
    /// Program latency (tPROG) of an SLC / ESP-SLC page.
    pub t_prog_slc: Nanos,
    /// Program latency (tPROG) of a TLC page.
    pub t_prog_tlc: Nanos,
    /// Block erase latency (tBERS).
    pub t_erase: Nanos,
    /// Per-command decode/issue overhead inside the die control FSM.
    pub t_command_overhead: Nanos,
    /// Latch-to-latch bitwise operation latency (e.g. XOR of a full page
    /// between the cache latch and the sensing latch).
    pub t_latch_xor: Nanos,
    /// Latency of the on-die fail-bit counter scanning one full page held in
    /// a latch (used by REIS as a popcount engine).
    pub t_fail_bit_count: Nanos,
    /// Latency of the pass/fail comparator checking counted values against a
    /// threshold (used by REIS for distance filtering).
    pub t_pass_fail_check: Nanos,
    /// Bandwidth of one flash channel, in bytes per second.
    pub channel_bandwidth_bps: f64,
    /// Bandwidth of the die I/O interface feeding the page buffers, in bytes
    /// per second (used for Input Broadcasting of the query embedding).
    pub die_io_bandwidth_bps: f64,
}

impl TimingParams {
    /// Timing parameters of the cost-oriented **REIS-SSD1** configuration:
    /// 22.5 µs ESP-SLC tR and 1.2 GB/s per-channel bandwidth.
    pub fn reis_ssd1() -> Self {
        TimingParams {
            t_read_esp_slc: Nanos::from_nanos(22_500),
            t_read_slc: Nanos::from_micros(25),
            t_read_mlc: Nanos::from_micros(55),
            t_read_tlc: Nanos::from_micros(78),
            t_read_qlc: Nanos::from_micros(140),
            t_prog_slc: Nanos::from_micros(200),
            t_prog_tlc: Nanos::from_micros(660),
            t_erase: Nanos::from_millis(3),
            t_command_overhead: Nanos::from_nanos(500),
            t_latch_xor: Nanos::from_micros(2),
            t_fail_bit_count: Nanos::from_micros(3),
            t_pass_fail_check: Nanos::from_micros(1),
            channel_bandwidth_bps: 1.2e9,
            die_io_bandwidth_bps: 1.2e9,
        }
    }

    /// Timing parameters of the performance-oriented **REIS-SSD2**
    /// configuration: identical flash timings but 2.0 GB/s channels.
    pub fn reis_ssd2() -> Self {
        TimingParams {
            channel_bandwidth_bps: 2.0e9,
            die_io_bandwidth_bps: 2.0e9,
            ..TimingParams::reis_ssd1()
        }
    }

    /// Read latency for a page programmed with the given scheme.
    pub fn read_latency(&self, scheme: ProgramScheme) -> Nanos {
        match scheme {
            ProgramScheme::EnhancedSlc => self.t_read_esp_slc,
            ProgramScheme::Ispp(CellMode::Slc) => self.t_read_slc,
            ProgramScheme::Ispp(CellMode::Mlc) => self.t_read_mlc,
            ProgramScheme::Ispp(CellMode::Tlc) => self.t_read_tlc,
            ProgramScheme::Ispp(CellMode::Qlc) => self.t_read_qlc,
        }
    }

    /// Program latency for the given scheme.
    pub fn program_latency(&self, scheme: ProgramScheme) -> Nanos {
        match scheme.cell_mode() {
            CellMode::Slc => self.t_prog_slc,
            CellMode::Mlc => self.t_prog_tlc * 0.6,
            CellMode::Tlc => self.t_prog_tlc,
            CellMode::Qlc => self.t_prog_tlc * 2.0,
        }
    }

    /// Time to move `bytes` across one flash channel.
    pub fn channel_transfer(&self, bytes: usize) -> Nanos {
        Nanos::from_secs_f64(bytes as f64 / self.channel_bandwidth_bps)
    }

    /// Time to move `bytes` across the die I/O interface into a page buffer.
    pub fn die_io_transfer(&self, bytes: usize) -> Nanos {
        Nanos::from_secs_f64(bytes as f64 / self.die_io_bandwidth_bps)
    }

    /// Latency of broadcasting a query embedding of `query_bytes` bytes into
    /// the cache latches of `planes` planes of one die (Input Broadcasting,
    /// Sec. 4.3.2).
    ///
    /// With Multi-Plane IBC (`multi_plane = true`) all planes of the die
    /// latch the broadcast simultaneously, so the cost is paid once; without
    /// it the transfer is repeated per plane.
    pub fn input_broadcast(&self, query_bytes: usize, planes: usize, multi_plane: bool) -> Nanos {
        let single = self.die_io_transfer(query_bytes) + self.t_command_overhead;
        if multi_plane {
            single
        } else {
            single * planes.max(1) as u64
        }
    }

    /// Latency of one in-plane distance computation step over a sensed page:
    /// XOR between cache and sensing latch, fail-bit count, and (optionally)
    /// the pass/fail threshold check used for distance filtering.
    pub fn in_plane_distance(&self, with_filter_check: bool) -> Nanos {
        let base = self.t_latch_xor + self.t_fail_bit_count;
        if with_filter_check {
            base + self.t_pass_fail_check
        } else {
            base
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::reis_ssd1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_nanos(500);
        assert_eq!((a + b).as_nanos(), 10_500);
        assert_eq!((a - b).as_nanos(), 9_500);
        assert_eq!((b - a).as_nanos(), 0, "subtraction saturates at zero");
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 4).as_nanos(), 2_500);
        assert_eq!(
            (a / 0).as_nanos(),
            10_000,
            "division by zero clamps divisor to one"
        );
        let total: Nanos = vec![a, b, a].into_iter().sum();
        assert_eq!(total.as_nanos(), 20_500);
    }

    #[test]
    fn nanos_display_scales_units() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(22).to_string(), "22.000us");
        assert_eq!(Nanos::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Nanos::from_secs_f64(1.5).to_string(), "1.500s");
    }

    #[test]
    fn from_secs_clamps_invalid_values() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn esp_read_matches_paper_parameter() {
        let t = TimingParams::reis_ssd1();
        assert_eq!(
            t.read_latency(ProgramScheme::EnhancedSlc).as_nanos(),
            22_500
        );
        assert!(t.read_latency(ProgramScheme::Ispp(CellMode::Tlc)) > t.t_read_esp_slc);
    }

    #[test]
    fn ssd2_has_faster_channels_same_flash() {
        let t1 = TimingParams::reis_ssd1();
        let t2 = TimingParams::reis_ssd2();
        assert!(t2.channel_bandwidth_bps > t1.channel_bandwidth_bps);
        assert_eq!(t1.t_read_esp_slc, t2.t_read_esp_slc);
        assert!(t2.channel_transfer(16384) < t1.channel_transfer(16384));
    }

    #[test]
    fn multi_plane_ibc_amortizes_broadcast() {
        let t = TimingParams::reis_ssd2();
        let without = t.input_broadcast(16 * 1024, 4, false);
        let with = t.input_broadcast(16 * 1024, 4, true);
        assert!(without > with);
        // Without MPIBC the cost scales with the number of planes.
        assert_eq!(without.as_nanos(), with.as_nanos() * 4);
    }

    #[test]
    fn filter_check_adds_latency() {
        let t = TimingParams::default();
        assert!(t.in_plane_distance(true) > t.in_plane_distance(false));
    }

    #[test]
    fn program_latency_grows_with_density() {
        let t = TimingParams::default();
        let slc = t.program_latency(ProgramScheme::EnhancedSlc);
        let tlc = t.program_latency(ProgramScheme::Ispp(CellMode::Tlc));
        let qlc = t.program_latency(ProgramScheme::Ispp(CellMode::Qlc));
        assert!(slc < tlc && tlc < qlc);
    }
}
