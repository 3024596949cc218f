//! Read-error injection model.
//!
//! Pages programmed with conventional ISPP exhibit a non-zero raw bit error
//! rate that normally requires controller-side ECC. REIS avoids that data
//! movement for the embedding partition by using Enhanced SLC Programming
//! (ESP), which is error-free. The simulator injects transient bit errors on
//! reads of non-ESP pages so that tests can demonstrate (i) why in-plane
//! computation on TLC data without ECC would corrupt distances and (ii) that
//! the ESP partition needs no correction.
//!
//! The error process is driven by a small deterministic [`SplitMix64`]
//! generator owned by the device, so simulations are reproducible without
//! pulling a random-number dependency into the library.

use serde::{Deserialize, Serialize};

use crate::cell::ProgramScheme;

/// A tiny, deterministic 64-bit pseudo-random generator (SplitMix64).
///
/// Used only for read-error injection; statistical quality far exceeds what
/// the error model needs and the generator is trivially serializable, which
/// keeps device snapshots reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[0, bound)`; returns 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x5EED_5EED_5EED_5EED)
    }
}

/// Raw-bit-error injection model for page reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityModel {
    /// Global multiplier applied to every scheme's raw bit error rate.
    /// `1.0` reproduces the nominal rates; `0.0` disables error injection.
    pub ber_scale: f64,
}

impl ReliabilityModel {
    /// Nominal model (scale 1.0).
    pub fn nominal() -> Self {
        ReliabilityModel { ber_scale: 1.0 }
    }

    /// Effective raw bit error rate of a read for the given scheme.
    pub fn effective_ber(&self, scheme: ProgramScheme) -> f64 {
        scheme.raw_bit_error_rate() * self.ber_scale
    }

    /// Draw the raw bit errors of one read of a `page_bytes`-byte page into
    /// `flips` (cleared first) as bit positions within the page: the device's
    /// one routine for deciding which bits a read gets wrong.
    ///
    /// The number of errors is the expectation `bits × BER`, with the
    /// fractional remainder resolved by one Bernoulli draw; error positions
    /// are uniform. This keeps the cost O(errors) rather than O(bits) while
    /// preserving the expected error count. A position may be drawn twice,
    /// in which case applying the list flips that bit back. (Positions are
    /// `u32`: a flash page is far below 2³² bits.)
    pub fn draw_read_errors(
        &self,
        page_bytes: usize,
        scheme: ProgramScheme,
        rng: &mut SplitMix64,
        flips: &mut Vec<u32>,
    ) {
        flips.clear();
        let ber = self.effective_ber(scheme);
        if ber <= 0.0 || page_bytes == 0 {
            return;
        }
        let bits = page_bytes as u64 * 8;
        let expected = bits as f64 * ber;
        let mut count = expected.floor() as usize;
        if rng.next_f64() < expected.fract() {
            count += 1;
        }
        flips.extend((0..count).map(|_| rng.next_below(bits) as u32));
    }

    /// Flip bits of `data` in place according to the scheme's error rate and
    /// return the number of bits flipped: [`Self::draw_read_errors`] over
    /// `data.len()` bytes, then [`apply_read_errors`]. `flips` is the
    /// caller's reusable list and holds the drawn positions afterwards.
    pub fn inject_read_errors(
        &self,
        data: &mut [u8],
        scheme: ProgramScheme,
        rng: &mut SplitMix64,
        flips: &mut Vec<u32>,
    ) -> usize {
        self.draw_read_errors(data.len(), scheme, rng, flips);
        apply_read_errors(data, flips);
        flips.len()
    }
}

/// Flip the bits of `data` at the positions [`ReliabilityModel::draw_read_errors`]
/// drew for a page of `data.len()` bytes.
///
/// # Panics
///
/// Panics if a position lies outside `data`.
pub fn apply_read_errors(data: &mut [u8], flips: &[u32]) {
    for &bit in flips {
        data[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

impl Default for ReliabilityModel {
    fn default() -> Self {
        ReliabilityModel::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellMode;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn esp_pages_never_see_errors() {
        let model = ReliabilityModel::nominal();
        let mut rng = SplitMix64::new(1);
        let mut data = vec![0xAA; 16 * 1024];
        let flips = model.inject_read_errors(
            &mut data,
            ProgramScheme::EnhancedSlc,
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(flips, 0);
        assert!(data.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn tlc_pages_accumulate_errors_at_expected_rate() {
        let model = ReliabilityModel::nominal();
        let mut rng = SplitMix64::new(99);
        let scheme = ProgramScheme::Ispp(CellMode::Tlc);
        let mut total_flips = 0usize;
        let mut flips = Vec::new();
        let reads = 50usize;
        let page = 16 * 1024usize;
        for _ in 0..reads {
            let mut data = vec![0u8; page];
            total_flips += model.inject_read_errors(&mut data, scheme, &mut rng, &mut flips);
        }
        let expected = reads as f64 * page as f64 * 8.0 * scheme.raw_bit_error_rate();
        let observed = total_flips as f64;
        assert!(
            (observed - expected).abs() < expected * 0.5 + 5.0,
            "observed {observed} flips, expected about {expected}"
        );
        assert!(total_flips > 0);
    }

    #[test]
    fn error_free_model_disables_injection() {
        let model = ReliabilityModel { ber_scale: 0.0 };
        let mut rng = SplitMix64::default();
        let mut data = vec![0u8; 4096];
        let flips = model.inject_read_errors(
            &mut data,
            ProgramScheme::Ispp(CellMode::Qlc),
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(flips, 0);
    }

    #[test]
    fn injection_actually_mutates_buffer() {
        // Use an artificially large scale so a small buffer sees errors.
        let model = ReliabilityModel { ber_scale: 1e3 };
        let mut rng = SplitMix64::new(5);
        let mut data = vec![0u8; 1024];
        let mut flips = Vec::new();
        let count = model.inject_read_errors(
            &mut data,
            ProgramScheme::Ispp(CellMode::Tlc),
            &mut rng,
            &mut flips,
        );
        assert!(count > 0);
        assert_eq!(count, flips.len());
        // The list is the whole difference: applying it again restores the
        // buffer.
        apply_read_errors(&mut data, &flips);
        assert!(data.iter().all(|&b| b == 0));
    }
}
