//! Energy model of the in-storage retrieval system.
//!
//! Energy is attributed per operation from the flash statistics collected by
//! the device model, plus DRAM traffic, embedded-core busy time and the
//! controller's static power over the query's duration. The per-operation
//! values follow the Flash-Cosmos characterization and commodity-SSD power
//! specifications the paper's methodology cites; what matters for the
//! paper's claims is the ~30× gap between SSD-level power and the host CPU
//! baseline, which these defaults reproduce.

use serde::{Deserialize, Serialize};

use reis_nand::{FlashStats, Nanos};

/// Per-operation energy parameters of the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Energy of one page sense (array to latch), in microjoules.
    pub read_uj_per_page: f64,
    /// Energy of one page program, in microjoules.
    pub program_uj_per_page: f64,
    /// Energy of one block erase, in microjoules.
    pub erase_uj_per_block: f64,
    /// Energy of one inter-latch XOR over a full page, in microjoules.
    pub xor_uj_per_page: f64,
    /// Energy of one fail-bit-counter scan over a full page, in microjoules.
    pub bit_count_uj_per_page: f64,
    /// Energy of one pass/fail comparator pass, in microjoules.
    pub pass_fail_uj: f64,
    /// Energy of one Input Broadcast, in microjoules.
    pub broadcast_uj: f64,
    /// Channel transfer energy, picojoules per byte.
    pub channel_pj_per_byte: f64,
    /// Internal DRAM energy, picojoules per byte.
    pub dram_pj_per_byte: f64,
    /// Active power of one embedded core, watts.
    pub core_active_w: f64,
    /// Static / idle power of the SSD (controller, DRAM refresh, peripheral
    /// circuitry), watts.
    pub static_power_w: f64,
}

impl EnergyParams {
    /// Defaults for a data-center NVMe SSD.
    pub fn commodity_ssd() -> Self {
        EnergyParams {
            read_uj_per_page: 45.0,
            program_uj_per_page: 180.0,
            erase_uj_per_block: 1500.0,
            xor_uj_per_page: 2.0,
            bit_count_uj_per_page: 2.5,
            pass_fail_uj: 0.2,
            broadcast_uj: 3.0,
            channel_pj_per_byte: 4.0,
            dram_pj_per_byte: 20.0,
            core_active_w: 0.35,
            static_power_w: 2.5,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::commodity_ssd()
    }
}

/// Energy of one query, broken down by component (joules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Flash array operations (reads, programs, erases).
    pub flash_array_j: f64,
    /// In-plane compute (XOR, bit counting, pass/fail checks, broadcasts).
    pub in_plane_j: f64,
    /// Flash channel transfers.
    pub channel_j: f64,
    /// Internal DRAM traffic.
    pub dram_j: f64,
    /// Embedded core kernels.
    pub cores_j: f64,
    /// Static power integrated over the query latency.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.flash_array_j
            + self.in_plane_j
            + self.channel_j
            + self.dram_j
            + self.cores_j
            + self.static_j
    }
}

/// The energy model: turns operation counts into joules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Create a model from per-operation parameters.
    pub fn new(params: EnergyParams) -> Self {
        EnergyModel { params }
    }

    /// Energy of a query given the flash activity it caused, the DRAM bytes
    /// it moved, the time the embedded core was busy and the total elapsed
    /// latency.
    pub fn query_energy(
        &self,
        flash: &FlashStats,
        dram_bytes: u64,
        core_busy: Nanos,
        elapsed: Nanos,
    ) -> EnergyBreakdown {
        let p = &self.params;
        EnergyBreakdown {
            flash_array_j: (flash.page_reads as f64 * p.read_uj_per_page
                + flash.page_programs as f64 * p.program_uj_per_page
                + flash.block_erases as f64 * p.erase_uj_per_block)
                * 1e-6,
            in_plane_j: (flash.xor_ops as f64 * p.xor_uj_per_page
                + flash.bit_count_ops as f64 * p.bit_count_uj_per_page
                + flash.pass_fail_ops as f64 * p.pass_fail_uj
                + flash.broadcast_ops as f64 * p.broadcast_uj)
                * 1e-6,
            channel_j: flash.channel_bytes() as f64 * p.channel_pj_per_byte * 1e-12,
            dram_j: dram_bytes as f64 * p.dram_pj_per_byte * 1e-12,
            cores_j: p.core_active_w * core_busy.as_secs_f64(),
            static_j: p.static_power_w * elapsed.as_secs_f64(),
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(EnergyParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(page_reads: u64, xor_ops: u64, bytes: u64) -> FlashStats {
        FlashStats {
            page_reads,
            xor_ops,
            bit_count_ops: xor_ops,
            bytes_to_controller: bytes,
            ..FlashStats::default()
        }
    }

    #[test]
    fn energy_scales_with_activity() {
        let model = EnergyModel::default();
        let small = model.query_energy(
            &stats(10, 10, 1_000),
            1_000,
            Nanos::from_micros(10),
            Nanos::from_micros(100),
        );
        let large = model.query_energy(
            &stats(1000, 1000, 100_000),
            100_000,
            Nanos::from_micros(100),
            Nanos::from_millis(1),
        );
        assert!(large.total_j() > small.total_j());
        assert!(small.total_j() > 0.0);
        assert!(small.flash_array_j > 0.0);
        assert!(small.in_plane_j > 0.0);
        assert!(small.channel_j > 0.0);
        assert!(small.dram_j > 0.0);
        assert!(small.cores_j > 0.0);
        assert!(small.static_j > 0.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let model = EnergyModel::default();
        let b = model.query_energy(
            &stats(50, 50, 5_000),
            2_000,
            Nanos::from_micros(20),
            Nanos::from_micros(500),
        );
        let manual =
            b.flash_array_j + b.in_plane_j + b.channel_j + b.dram_j + b.cores_j + b.static_j;
        assert!((b.total_j() - manual).abs() < 1e-15);
    }

    #[test]
    fn ssd_power_is_an_order_of_magnitude_below_a_server_cpu() {
        // The paper attributes the 55x energy-efficiency gain largely to the
        // ~30x lower power of the SSD versus the dual-socket CPU baseline
        // (hundreds of watts). Sanity-check the order of magnitude here.
        let model = EnergyModel::default();
        let b = model.query_energy(
            &stats(1000, 1000, 1_000_000),
            1_000_000,
            Nanos::from_millis(1),
            Nanos::from_millis(2),
        );
        // Back-to-back queries at 2 ms each.
        let power = b.total_j() / Nanos::from_millis(2).as_secs_f64();
        assert!(
            power < 40.0,
            "SSD average power {power} W should stay well below a server CPU"
        );
        assert!(power > 0.5);
    }
}
