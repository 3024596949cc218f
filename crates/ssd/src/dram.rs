//! The SSD-internal DRAM.
//!
//! Modern SSDs carry roughly 1 GB of DRAM per TB of flash (0.1 % of the
//! capacity). The controller keeps the L2P mapping table and frequently
//! accessed pages there; REIS additionally places the R-DB and R-IVF records
//! and the Temporal Top Lists in it (Sec. 4.1.4, 4.2.1). This module tracks
//! named allocations against the DRAM capacity and models the latency of
//! staging data in it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use reis_nand::Nanos;

use crate::error::{Result, SsdError};

/// Capacity and latency parameters of the internal DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramParams {
    /// Usable capacity in bytes.
    pub capacity_bytes: usize,
    /// Latency of one random access (row activation + column access).
    pub access_latency: Nanos,
    /// Sustained bandwidth for streaming transfers, bytes per second.
    pub bandwidth_bps: f64,
}

impl DramParams {
    /// Parameters for a 1 GB internal DRAM (REIS-SSD1-class device).
    pub fn one_gigabyte() -> Self {
        DramParams {
            capacity_bytes: 1 << 30,
            access_latency: Nanos::from_nanos(50),
            bandwidth_bps: 8.0e9,
        }
    }

    /// Parameters for a 2 GB internal DRAM (REIS-SSD2-class device).
    pub fn two_gigabytes() -> Self {
        DramParams {
            capacity_bytes: 2 << 30,
            ..DramParams::one_gigabyte()
        }
    }
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams::one_gigabyte()
    }
}

/// The internal DRAM: capacity tracking plus an access cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InternalDram {
    params: DramParams,
    allocations: BTreeMap<String, usize>,
    /// Sum of `allocations`, maintained by [`InternalDram::allocate`] and
    /// [`InternalDram::release`] — the only two mutators of the map — so
    /// the capacity check does not walk every named allocation.
    used: usize,
    bytes_written: u64,
}

impl InternalDram {
    /// Create a DRAM with the given parameters and no allocations.
    pub fn new(params: DramParams) -> Self {
        InternalDram {
            params,
            allocations: BTreeMap::new(),
            used: 0,
            bytes_written: 0,
        }
    }

    /// Total bytes currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Bytes still available for allocation.
    pub fn free_bytes(&self) -> usize {
        self.params.capacity_bytes.saturating_sub(self.used_bytes())
    }

    /// Size of a named allocation, if present.
    pub fn allocation(&self, name: &str) -> Option<usize> {
        self.allocations.get(name).copied()
    }

    /// Reserve `bytes` under `name`, replacing any previous allocation with
    /// the same name.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::DramExhausted`] if the allocation does not fit.
    pub fn allocate(&mut self, name: &str, bytes: usize) -> Result<()> {
        let existing = self.allocations.get(name).copied().unwrap_or(0);
        let free_without_existing = self.free_bytes() + existing;
        if bytes > free_without_existing {
            return Err(SsdError::DramExhausted {
                requested_bytes: bytes,
                available_bytes: free_without_existing,
            });
        }
        match self.allocations.get_mut(name) {
            Some(slot) => *slot = bytes,
            None => {
                self.allocations.insert(name.to_string(), bytes);
            }
        }
        self.used = self.used - existing + bytes;
        Ok(())
    }

    /// Add `bytes` to the allocation `name` (created if absent): how an
    /// allocation shared by many records — one per region, say — accounts
    /// one more. It fails exactly when a fresh allocation of `bytes` under
    /// a name of its own would.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::DramExhausted`] (`bytes` requested against the
    /// free bytes) if the growth does not fit.
    pub fn grow(&mut self, name: &str, bytes: usize) -> Result<()> {
        let free = self.free_bytes();
        if bytes > free {
            return Err(SsdError::DramExhausted {
                requested_bytes: bytes,
                available_bytes: free,
            });
        }
        match self.allocations.get_mut(name) {
            Some(slot) => *slot += bytes,
            None => {
                self.allocations.insert(name.to_string(), bytes);
            }
        }
        self.used += bytes;
        Ok(())
    }

    /// Take `bytes` back from the allocation `name`: the inverse of
    /// [`InternalDram::grow`]. The allocation stays, possibly empty; at
    /// most its size is taken, and an unknown name is a no-op.
    pub fn shrink(&mut self, name: &str, bytes: usize) {
        if let Some(slot) = self.allocations.get_mut(name) {
            let taken = bytes.min(*slot);
            *slot -= taken;
            self.used -= taken;
        }
    }

    /// Release a named allocation. Releasing an unknown name is a no-op.
    pub fn release(&mut self, name: &str) {
        if let Some(bytes) = self.allocations.remove(name) {
            self.used -= bytes;
        }
    }

    /// Latency of writing `bytes` to DRAM (one access latency plus the
    /// streaming transfer time) and account the traffic.
    pub fn write(&mut self, bytes: usize) -> Nanos {
        self.bytes_written += bytes as u64;
        self.params.access_latency + Nanos::from_secs_f64(bytes as f64 / self.params.bandwidth_bps)
    }

    /// Total bytes written since construction.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The running total against a reference that sums the map on
        /// every call, as `used_bytes` itself did before the total existed:
        /// the same usage after every step, and `DramExhausted` at the same
        /// call with the same numbers.
        #[test]
        fn running_total_matches_a_summing_reference(
            ops in proptest::collection::vec((0u8..4, 0usize..6, 0usize..400), 1..200),
        ) {
            const CAPACITY: usize = 1000;
            let mut dram = InternalDram::new(DramParams {
                capacity_bytes: CAPACITY,
                ..DramParams::one_gigabyte()
            });
            let mut reference: BTreeMap<String, usize> = BTreeMap::new();
            for (op, name, bytes) in ops {
                let name = format!("region{name}");
                if op == 0 {
                    dram.release(&name);
                    reference.remove(&name);
                } else {
                    // Three in four steps allocate; names repeat, so many of
                    // them replace an allocation of a different size.
                    let others: usize = reference
                        .iter()
                        .filter(|(other, _)| **other != name)
                        .map(|(_, &size)| size)
                        .sum();
                    let expected = if bytes > CAPACITY - others {
                        Err(SsdError::DramExhausted {
                            requested_bytes: bytes,
                            available_bytes: CAPACITY - others,
                        })
                    } else {
                        reference.insert(name.clone(), bytes);
                        Ok(())
                    };
                    prop_assert_eq!(dram.allocate(&name, bytes), expected);
                }
                let sum: usize = reference.values().sum();
                prop_assert_eq!(dram.used_bytes(), sum);
                prop_assert_eq!(dram.free_bytes(), CAPACITY - sum);
                prop_assert_eq!(dram.allocation(&name), reference.get(&name).copied());
            }
        }
    }

    #[test]
    fn allocations_respect_capacity() {
        let mut dram = InternalDram::new(DramParams {
            capacity_bytes: 1000,
            ..DramParams::one_gigabyte()
        });
        dram.allocate("ftl", 600).unwrap();
        assert_eq!(dram.used_bytes(), 600);
        assert_eq!(dram.free_bytes(), 400);
        assert!(matches!(
            dram.allocate("ttl", 500),
            Err(SsdError::DramExhausted {
                requested_bytes: 500,
                available_bytes: 400
            })
        ));
        dram.allocate("ttl", 400).unwrap();
        assert_eq!(dram.free_bytes(), 0);
        dram.release("ftl");
        assert_eq!(dram.free_bytes(), 600);
        assert_eq!(dram.allocation("ttl"), Some(400));
        assert_eq!(dram.allocation("ftl"), None);
    }

    #[test]
    fn reallocating_a_name_replaces_it() {
        let mut dram = InternalDram::new(DramParams {
            capacity_bytes: 1000,
            ..DramParams::one_gigabyte()
        });
        dram.allocate("r-ivf", 800).unwrap();
        // Shrinking an existing allocation must succeed even though 900 fresh
        // bytes would not fit next to the old 800.
        dram.allocate("r-ivf", 900).unwrap();
        assert_eq!(dram.used_bytes(), 900);
    }

    #[test]
    fn access_latency_scales_with_size() {
        let mut dram = InternalDram::new(DramParams::one_gigabyte());
        let small = dram.write(64);
        let large = dram.write(1 << 20);
        assert!(large > small);
        assert_eq!(dram.bytes_written(), 64 + (1 << 20));
        assert!(small >= DramParams::one_gigabyte().access_latency);
    }

    #[test]
    fn reference_capacities_differ() {
        assert!(
            DramParams::two_gigabytes().capacity_bytes > DramParams::one_gigabyte().capacity_bytes
        );
    }
}
