//! SSD configuration presets.

use serde::{Deserialize, Serialize};

use reis_nand::{Geometry, TimingParams};

use crate::cores::CoreParams;
use crate::dram::DramParams;
use crate::ecc::EccParams;
use crate::hybrid::HybridPolicy;

/// Complete configuration of a simulated SSD.
///
/// The two presets mirror Table 3 of the paper: [`SsdConfig::ssd1`] is the
/// cost-oriented PM9A3-class device, [`SsdConfig::ssd2`] the
/// performance-oriented Micron-9400-class device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Human-readable name of the configuration.
    pub name: &'static str,
    /// Flash array geometry.
    pub geometry: Geometry,
    /// Flash timing/bandwidth parameters.
    pub timing: TimingParams,
    /// Internal DRAM parameters.
    pub dram: DramParams,
    /// Embedded core parameters.
    pub cores: CoreParams,
    /// ECC engine parameters.
    pub ecc: EccParams,
    /// SLC/TLC partitioning policy.
    pub hybrid: HybridPolicy,
}

impl SsdConfig {
    /// The cost-oriented **REIS-SSD1** configuration (8 channels, 2 planes
    /// per die, 1.2 GB/s channels, 1 GB DRAM).
    pub fn ssd1() -> Self {
        SsdConfig {
            name: "REIS-SSD1",
            geometry: Geometry::reis_ssd1(),
            timing: TimingParams::reis_ssd1(),
            dram: DramParams::one_gigabyte(),
            cores: CoreParams::cortex_r8(),
            ecc: EccParams::ldpc(),
            hybrid: HybridPolicy::reis(),
        }
    }

    /// The performance-oriented **REIS-SSD2** configuration (16 channels,
    /// 4 planes per die, 2.0 GB/s channels, 2 GB DRAM).
    pub fn ssd2() -> Self {
        SsdConfig {
            name: "REIS-SSD2",
            geometry: Geometry::reis_ssd2(),
            timing: TimingParams::reis_ssd2(),
            dram: DramParams::two_gigabytes(),
            cores: CoreParams::cortex_r8(),
            ecc: EccParams::ldpc(),
            hybrid: HybridPolicy::reis(),
        }
    }

    /// A miniature configuration for unit tests (tiny geometry, tiny DRAM).
    pub fn tiny() -> Self {
        SsdConfig {
            name: "tiny",
            geometry: Geometry::tiny(),
            timing: TimingParams::reis_ssd1(),
            dram: DramParams {
                capacity_bytes: 4 << 20,
                ..DramParams::one_gigabyte()
            },
            cores: CoreParams::cortex_r8(),
            ecc: EccParams::ldpc(),
            hybrid: HybridPolicy::reis(),
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::ssd1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggregate internal flash bandwidth in bytes per second (channel count
    /// × per-channel bandwidth).
    fn internal_bandwidth_bps(config: &SsdConfig) -> f64 {
        config.geometry.channels as f64 * config.timing.channel_bandwidth_bps
    }

    #[test]
    fn presets_match_table3_relationships() {
        let s1 = SsdConfig::ssd1();
        let s2 = SsdConfig::ssd2();
        assert_eq!(s1.geometry.channels, 8);
        assert_eq!(s2.geometry.channels, 16);
        // SSD2 has 2x the channels at ~1.7x the bandwidth each => > 3x total.
        assert!(internal_bandwidth_bps(&s2) > 3.0 * internal_bandwidth_bps(&s1) / 1.2);
        assert!(s2.dram.capacity_bytes > s1.dram.capacity_bytes);
        assert_eq!(s1.cores.num_cores, 4);
    }

    #[test]
    fn ssd2_internal_bandwidth_is_32_gbps() {
        // The paper quotes 32 GB/s of internal bandwidth for REIS-SSD2.
        let s2 = SsdConfig::ssd2();
        assert!((internal_bandwidth_bps(&s2) - 32.0e9).abs() < 1e6);
    }
}
