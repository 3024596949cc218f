//! Model of ICE, the prior in-flash vector-search accelerator (Fig. 10).
//!
//! ICE computes vector similarity inside 3D-NAND dies, but to do so without
//! error correction it stores data in an error-tolerant format that blows up
//! 4-bit-quantized embeddings by 8× (32× for 8-bit), and it does not provide
//! document retrieval or REIS's distance filtering / pipelining. The model
//! charges per-query cost from the number of flash pages the amplified
//! representation forces it to scan, using the same parallelism rules as the
//! REIS latency model, so the comparison isolates exactly the effects the
//! paper attributes the speedup to.

use serde::{Deserialize, Serialize};

use reis_core::ReisConfig;
use reis_nand::{Nanos, ProgramScheme};
use reis_workloads::DatasetProfile;

/// Which ICE variant is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IceVariant {
    /// The published design: 4-bit quantization stored in the 8×
    /// error-tolerant format (32 bits of flash per dimension).
    Published,
    /// The idealised ICE-ESP of Sec. 6.4: ESP removes the error-tolerant
    /// blow-up but the 4-bit quantization remains (4 bits per dimension).
    EspIdeal,
}

impl IceVariant {
    /// Flash bits consumed per embedding dimension.
    pub fn bits_per_dimension(&self) -> usize {
        match self {
            IceVariant::Published => 32,
            IceVariant::EspIdeal => 4,
        }
    }
}

/// Analytic model of ICE on top of a given SSD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IceModel {
    config: ReisConfig,
    variant: IceVariant,
}

impl IceModel {
    /// Create the model for an SSD configuration and an ICE variant.
    pub fn new(config: ReisConfig, variant: IceVariant) -> Self {
        IceModel { config, variant }
    }

    /// Flash pages ICE must scan to evaluate `entries` embeddings of the
    /// profile's dimensionality.
    pub fn pages_for_entries(&self, profile: &DatasetProfile, entries: u64) -> u64 {
        let bits_per_entry = (profile.dim * self.variant.bits_per_dimension()) as u64;
        let page_bits = (self.config.ssd.geometry.page_size_bytes * 8) as u64;
        (entries * bits_per_entry).div_ceil(page_bits)
    }

    /// Per-query latency for a search that evaluates `entries` embeddings
    /// (all of them for brute force; the probed clusters for IVF) and
    /// returns `k` results.
    pub fn query_latency(&self, profile: &DatasetProfile, entries: u64, k: usize) -> Nanos {
        let geom = &self.config.ssd.geometry;
        let timing = &self.config.ssd.timing;
        let pages = self.pages_for_entries(profile, entries);
        let rounds = pages.div_ceil(geom.total_planes() as u64);
        // In-flash similarity evaluation per page (sense + on-die compute).
        let sense = timing.read_latency(ProgramScheme::EnhancedSlc);
        let compute = timing.in_plane_distance(false);
        let scan = (sense + compute) * rounds;
        // All per-page results cross the channels (no distance filtering):
        // one candidate record (distance + id) per evaluated embedding.
        let record_bytes = 8u64;
        let bytes_per_channel = entries * record_bytes / geom.channels as u64;
        let transfer =
            Nanos::from_secs_f64(bytes_per_channel as f64 / timing.channel_bandwidth_bps);
        // Host-side selection of the top-k and (unaccelerated) document
        // fetches through the conventional read path.
        let host_select = Nanos::from_secs_f64(entries as f64 * 2.0 / 50.0e9);
        let doc_fetch = Nanos::from_secs_f64(
            (k * profile.doc_bytes) as f64 / self.config.ssd.timing.channel_bandwidth_bps,
        ) + timing.read_latency(ProgramScheme::Ispp(reis_nand::CellMode::Tlc))
            * k as u64;
        scan + transfer + host_select + doc_fetch
    }

    /// Queries per second for the same setting.
    pub fn qps(&self, profile: &DatasetProfile, entries: u64, k: usize) -> f64 {
        let secs = self.query_latency(profile, entries, k).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            1.0 / secs
        }
    }

    /// Number of embeddings an IVF search evaluates when probing `nprobe` of
    /// `nlist` clusters (coarse centroids plus the probed lists).
    pub fn ivf_entries(profile: &DatasetProfile, nprobe: usize) -> u64 {
        let probed_fraction = (nprobe as f64 / profile.full_nlist as f64).min(1.0);
        profile.full_nlist as u64 + (profile.full_entries as f64 * probed_fraction) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_ice_scans_8x_more_pages_than_its_esp_ideal() {
        let profile = DatasetProfile::wiki_en();
        let published = IceModel::new(ReisConfig::ssd1(), IceVariant::Published);
        let esp = IceModel::new(ReisConfig::ssd1(), IceVariant::EspIdeal);
        let n = profile.full_entries;
        let ratio = published.pages_for_entries(&profile, n) as f64
            / esp.pages_for_entries(&profile, n) as f64;
        assert!(
            (ratio - 8.0).abs() < 0.01,
            "page ratio {ratio} should be ~8x"
        );
    }

    #[test]
    fn latency_grows_with_evaluated_entries() {
        let profile = DatasetProfile::hotpotqa();
        let model = IceModel::new(ReisConfig::ssd2(), IceVariant::Published);
        let narrow = model.query_latency(&profile, IceModel::ivf_entries(&profile, 64), 10);
        let wide = model.query_latency(&profile, IceModel::ivf_entries(&profile, 1024), 10);
        let brute = model.query_latency(&profile, profile.full_entries, 10);
        assert!(narrow < wide);
        assert!(wide < brute);
        assert!(model.qps(&profile, profile.full_entries, 10) > 0.0);
    }

    #[test]
    fn esp_variant_is_faster_but_still_pays_for_4bit_codes() {
        let profile = DatasetProfile::nq();
        let published = IceModel::new(ReisConfig::ssd1(), IceVariant::Published);
        let esp = IceModel::new(ReisConfig::ssd1(), IceVariant::EspIdeal);
        let n = profile.full_entries;
        let t_published = published.query_latency(&profile, n, 10);
        let t_esp = esp.query_latency(&profile, n, 10);
        assert!(t_esp < t_published);
        // The 4-bit representation still reads 4x the pages a 1-bit (REIS)
        // layout would, so the ESP ideal cannot reach a quarter of the
        // published latency... it is bounded by the shared transfer costs.
        assert!(t_esp.as_secs_f64() > t_published.as_secs_f64() / 8.0);
    }

    #[test]
    fn variant_bit_widths_match_the_paper() {
        assert_eq!(IceVariant::Published.bits_per_dimension(), 32);
        assert_eq!(IceVariant::EspIdeal.bits_per_dimension(), 4);
    }
}
