//! The SSD controller.
//!
//! [`SsdController`] owns the flash device and every controller-side
//! resource REIS drives: the coarse-grained FTL (R-DB), the page allocator,
//! the internal DRAM, the ECC engine and the maintenance manager that
//! reclaims invalidated blocks. It manages database regions — reserve,
//! program, read through ECC, release, reclaim — and lends the flash array
//! to the REIS engine (in `reis-core`), which drives it directly for
//! in-storage search. Conventional block I/O is not modelled.

use reis_nand::{FlashDevice, Nanos, Scratch};

use crate::allocator::{PageAllocator, StripedRegion};
use crate::config::SsdConfig;
use crate::dram::InternalDram;
use crate::ecc::EccEngine;
use crate::error::Result;
use crate::ftl::CoarseFtl;
use crate::hybrid::{HybridPolicy, RegionKind};
use crate::maintenance::MaintenanceManager;

/// One flash page as the controller's read path hands it on: borrowed from
/// the device, not copied (see [`SsdController::read_region_page_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReadView<'a> {
    /// Page payload, a full page: the page as programmed when the read took
    /// no raw errors or the decoder corrected them, the page as sensed —
    /// raw errors included — otherwise.
    pub data: &'a [u8],
    /// The OOB bytes of the page.
    pub oob: &'a [u8],
    /// Total latency: flash read, channel transfer, ECC and DRAM staging.
    pub latency: Nanos,
    /// Whether ECC fully corrected the raw read (`true` without ECC).
    pub corrected: bool,
}

/// The controller's one flash read: have the device sense the page at stripe
/// position `stripe` and move
/// it over the channel (it draws and counts the read's bit errors and lends
/// the stored page next to them), decode it when an ECC engine is given, and
/// lend out the bytes the decode leaves. A read without raw errors, or one
/// the decoder corrected, is the page as programmed, lent where the device
/// stores it — or, because the device keeps a page without the zeros behind
/// its programmed bytes, padded into `staging` when it was programmed short.
/// Only a read whose errors survive — the decoder gave up, or an
/// error-injecting scheme was read without ECC — pays for the errored bytes:
/// the page as sensed is built in `staging`. Takes the fields it touches so
/// that callers can go on using the controller's other resources while they
/// hold the view.
fn read_decoded<'d>(
    device: &'d mut FlashDevice,
    ecc: Option<&mut EccEngine>,
    staging: &'d mut Vec<u8>,
    stripe: usize,
) -> Result<PageReadView<'d>> {
    let page = device.read_page_view(stripe)?;
    let mut latency = page.meta.latency;
    let mut corrected = true;
    let mut clean = page.flips.is_empty();
    if let Some(ecc) = ecc {
        let outcome = ecc.decode_page(page.meta.bit_errors);
        latency += outcome.latency;
        corrected = outcome.corrected;
        clean |= corrected;
    }
    let data = if !clean {
        page.sensed_into(staging);
        staging
    } else if page.stored.len() < page.page_size {
        page.stored_into(staging);
        staging
    } else {
        page.stored
    };
    Ok(PageReadView {
        data,
        oob: page.oob,
        latency,
        corrected,
    })
}

/// The simulated SSD controller.
#[derive(Debug, PartialEq)]
pub struct SsdController {
    config: SsdConfig,
    device: FlashDevice,
    coarse_ftl: CoarseFtl,
    allocator: PageAllocator,
    dram: InternalDram,
    ecc: EccEngine,
    /// Where [`read_decoded`] builds the pages it cannot lend from the
    /// device; overwritten by the next such read.
    staging: Scratch<Vec<u8>>,
    maintenance: MaintenanceManager,
}

impl SsdController {
    /// Create a controller (and its flash device) from a configuration.
    pub fn new(config: SsdConfig) -> Self {
        let device = FlashDevice::new(config.geometry, config.timing);
        let allocator = PageAllocator::new(&config.geometry);
        SsdController {
            config,
            device,
            coarse_ftl: CoarseFtl::new(),
            allocator,
            dram: InternalDram::new(config.dram),
            ecc: EccEngine::new(config.ecc),
            staging: Scratch::default(),
            maintenance: MaintenanceManager::new(),
        }
    }

    /// The configuration this controller was built from.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The SLC/TLC partitioning policy.
    pub fn hybrid_policy(&self) -> HybridPolicy {
        self.config.hybrid
    }

    /// Immutable access to the flash device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable access to the flash device (used by the in-storage engine).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    /// Immutable access to the internal DRAM.
    pub fn dram(&self) -> &InternalDram {
        &self.dram
    }

    /// Mutable access to the internal DRAM.
    pub fn dram_mut(&mut self) -> &mut InternalDram {
        &mut self.dram
    }

    /// Immutable access to the coarse-grained FTL (R-DB).
    pub fn coarse_ftl(&self) -> &CoarseFtl {
        &self.coarse_ftl
    }

    /// Mutable access to the coarse-grained FTL (R-DB).
    pub fn coarse_ftl_mut(&mut self) -> &mut CoarseFtl {
        &mut self.coarse_ftl
    }

    /// Immutable access to the ECC engine.
    pub fn ecc(&self) -> &EccEngine {
        &self.ecc
    }

    /// Reserve a physically contiguous, plane-striped region of `pages`
    /// pages for a database region, accounting its DRAM bookkeeping under
    /// `name`. The region's kind only matters when it is programmed or read.
    ///
    /// Released regions are recycled first: a previously released stripe
    /// range is handed out again once every page in it has been erased
    /// (compaction reclaims fully-invalid blocks, which is what makes the
    /// pages reprogrammable; the allocator keeps the still-programmed ones
    /// apart, so they cost a reservation nothing). Only if no released
    /// window qualifies does the reservation fall back to never-touched
    /// pages.
    ///
    /// # Errors
    ///
    /// * [`SsdError::OutOfSpace`](crate::SsdError::OutOfSpace) if the flash
    ///   array cannot fit the region.
    /// * [`SsdError::DramExhausted`](crate::SsdError::DramExhausted) if the
    ///   bookkeeping does not fit in DRAM.
    pub fn reserve_region(&mut self, name: &str, pages: usize) -> Result<StripedRegion> {
        // Region bookkeeping lives in DRAM next to the R-DB record.
        self.reserve_pages(pages, |dram| {
            dram.allocate(name, crate::ftl::COARSE_RECORD_BYTES)
        })
    }

    /// [`SsdController::reserve_region`] for a region without a name of its
    /// own: its bookkeeping record is added to the shared DRAM allocation
    /// `account` ([`InternalDram::grow`]). DRAM use, and when and with which
    /// numbers a reservation fails, are those of a reservation under a
    /// fresh name. A database's append segments are reserved this way, so
    /// an append names nothing.
    ///
    /// # Errors
    ///
    /// As [`SsdController::reserve_region`].
    pub fn reserve_region_in(&mut self, account: &str, pages: usize) -> Result<StripedRegion> {
        self.reserve_pages(pages, |dram| {
            dram.grow(account, crate::ftl::COARSE_RECORD_BYTES)
        })
    }

    /// Reserve `pages` pages, recycled ones first, then account their
    /// bookkeeping with `account`; a failed accounting hands the pages
    /// back.
    fn reserve_pages(
        &mut self,
        pages: usize,
        account: impl FnOnce(&mut InternalDram) -> Result<()>,
    ) -> Result<StripedRegion> {
        let region = match self.allocator.reserve_recycled(pages) {
            Some(region) => region,
            None => self.allocator.reserve(pages)?,
        };
        if let Err(error) = account(&mut self.dram) {
            self.allocator.release(&region, false);
            return Err(error);
        }
        Ok(region)
    }

    /// Release a database region: its still-programmed pages are marked
    /// invalid for block reclamation, its stripes return to the allocator's
    /// free list, and its DRAM bookkeeping under `name` is freed.
    ///
    /// The pages stay physically programmed until
    /// [`SsdController::reclaim_invalid_blocks`] erases the blocks they
    /// complete; only then can the stripes actually be recycled. Stripes
    /// that were never programmed are reusable at once.
    pub fn release_region(&mut self, name: &str, region: &StripedRegion) {
        self.release_pages(region);
        self.dram.release(name);
    }

    /// Release a region reserved with [`SsdController::reserve_region_in`]:
    /// as [`SsdController::release_region`], with its bookkeeping record
    /// taken back from the shared allocation `account`.
    pub fn release_region_in(&mut self, account: &str, region: &StripedRegion) {
        self.release_pages(region);
        self.dram.shrink(account, crate::ftl::COARSE_RECORD_BYTES);
    }

    fn release_pages(&mut self, region: &StripedRegion) {
        // Hand the region back as maximal runs of equally programmed pages.
        let mut run = StripedRegion {
            start: region.start,
            len: 0,
        };
        let mut run_programmed = false;
        for stripe in region.start..region.start + region.len {
            let programmed = self.device.is_programmed(stripe);
            if let (true, Ok(addr)) = (programmed, self.config.geometry.stripe_addr(stripe)) {
                self.maintenance.mark_invalid(addr);
            }
            if programmed != run_programmed {
                self.allocator.release(&run, run_programmed);
                run = StripedRegion {
                    start: stripe,
                    len: 0,
                };
                run_programmed = programmed;
            }
            run.len += 1;
        }
        self.allocator.release(&run, run_programmed);
    }

    /// Erase every block whose programmed pages have all been invalidated
    /// (see [`MaintenanceManager::reclaim_invalid_blocks`]), returning the
    /// number of blocks erased and the total erase latency. Released
    /// stripes in the erased blocks become reusable.
    ///
    /// # Errors
    ///
    /// Propagates flash erase errors.
    pub fn reclaim_invalid_blocks(&mut self) -> Result<(usize, Nanos)> {
        let (erased, latency) = self.maintenance.reclaim_invalid_blocks(&mut self.device)?;
        for &block in &erased {
            for stripe in self.config.geometry.block_stripes(block) {
                self.allocator.mark_erased(stripe);
            }
        }
        Ok((erased.len(), latency))
    }

    /// Program one page of a database region with the scheme mandated by the
    /// hybrid policy for its kind, returning the program latency. The device
    /// keeps `data` as the stored page
    /// ([`FlashDevice::program_page_owned`]): build it at its programmed
    /// length and it is not copied again.
    ///
    /// # Errors
    ///
    /// Propagates flash programming errors (already-programmed page,
    /// oversized payload, invalid address).
    pub fn program_region_page(
        &mut self,
        region: &StripedRegion,
        offset: usize,
        kind: RegionKind,
        data: Vec<u8>,
        oob: &[u8],
    ) -> Result<Nanos> {
        let addr = region.page_at(&self.config.geometry, offset)?;
        let scheme = self.config.hybrid.scheme_for(kind);
        Ok(self.device.program_page_owned(addr, data, oob, scheme)?)
    }

    /// Read one page of a database region through the controller without
    /// copying it: the page is sensed, moved over the channel, ECC-decoded
    /// when the region's programming scheme requires it and staged in
    /// controller DRAM — all counted and timed — and the returned view
    /// borrows the bytes where they already are. Rerank and document fetch
    /// score and copy the one slot they need out of it.
    ///
    /// # Errors
    ///
    /// Propagates flash read errors.
    pub fn read_region_page_view(
        &mut self,
        region: &StripedRegion,
        offset: usize,
        kind: RegionKind,
    ) -> Result<PageReadView<'_>> {
        self.read_page_view(region.stripe_at(offset)?, kind)
    }

    /// [`SsdController::read_region_page_view`] of the page at stripe
    /// position `stripe` (as [`SsdController::scan_region_page`] hands it
    /// back): counted, timed and decoded the same way.
    ///
    /// # Errors
    ///
    /// Propagates flash read errors.
    pub fn read_page_view(&mut self, stripe: usize, kind: RegionKind) -> Result<PageReadView<'_>> {
        let ecc = self.config.hybrid.needs_ecc(kind).then_some(&mut self.ecc);
        let mut view = read_decoded(&mut self.device, ecc, &mut self.staging.0, stripe)?;
        // Staging the page in controller DRAM before it moves to the host.
        view.latency += self.dram.write(view.data.len());
        Ok(view)
    }

    /// Borrow the stored bytes of a region page for a read-only scan shard:
    /// the page's stripe position, the user data and the OOB bytes.
    ///
    /// Unlike [`SsdController::read_region_page_view`] this stages nothing
    /// in DRAM and records no statistics — shard workers account their own
    /// flash activity locally and the engine folds it back into the device
    /// (`FlashDevice::absorb_stats`) after the shards join. It is only exact
    /// for regions whose programming scheme reads error-free (the ESP-SLC
    /// embedding regions the in-plane scan targets).
    ///
    /// # Errors
    ///
    /// * [`SsdError::RegionOutOfBounds`](crate::SsdError::RegionOutOfBounds)
    ///   if the offset exceeds the region.
    /// * Flash errors for unprogrammed pages.
    pub fn scan_region_page(
        &self,
        region: &StripedRegion,
        offset: usize,
    ) -> Result<(usize, &[u8], &[u8])> {
        let stripe = region.stripe_at(offset)?;
        let (data, oob, _scheme) = self.device.stored_page(stripe)?;
        Ok((stripe, data, oob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::EccParams;
    use crate::error::SsdError;
    use proptest::prelude::*;
    use reis_nand::reliability::{ReliabilityModel, SplitMix64};
    use reis_nand::FlashStats;
    use std::collections::BTreeSet;

    fn controller() -> SsdController {
        SsdController::new(SsdConfig::tiny())
    }

    /// Every activity counter the controller keeps: flash operations, DRAM
    /// bytes written and ECC pages decoded.
    fn counters(ssd: &SsdController) -> (FlashStats, u64, u64) {
        (
            *ssd.device().stats(),
            ssd.dram().bytes_written(),
            ssd.ecc().pages_decoded(),
        )
    }

    /// A read view's payload, latency and ECC outcome, copied out.
    fn owned(view: PageReadView<'_>) -> (Vec<u8>, Nanos, bool) {
        (view.data.to_vec(), view.latency, view.corrected)
    }

    #[test]
    fn region_lifecycle_program_and_read_with_policy_schemes() {
        let mut ssd = controller();
        let emb = ssd.reserve_region("db0/embeddings", 4).unwrap();
        let docs = ssd.reserve_region("db0/documents", 4).unwrap();
        ssd.program_region_page(
            &emb,
            0,
            RegionKind::BinaryEmbeddings,
            vec![0xAB; 4096],
            &[1, 2, 3],
        )
        .unwrap();
        ssd.program_region_page(&docs, 0, RegionKind::Documents, vec![0xCD; 4096], &[])
            .unwrap();
        let emb_read = ssd
            .read_region_page_view(&emb, 0, RegionKind::BinaryEmbeddings)
            .unwrap();
        assert_eq!(emb_read.data[0], 0xAB);
        let doc_read = ssd
            .read_region_page_view(&docs, 0, RegionKind::Documents)
            .unwrap();
        assert_eq!(doc_read.data[0], 0xCD);
        // Only the document (TLC) read goes through ECC.
        assert_eq!(ssd.ecc().pages_decoded(), 1);
        // The regions are disjoint and tracked by the allocator.
        assert_eq!(
            ssd.allocator.free_pages(),
            ssd.config().geometry.total_pages() - 8
        );
    }

    /// The copy-out read the controller shipped before the borrowed view,
    /// rebuilt beside the device's read path: the stored page copied and
    /// errored by a mirror of the device's error stream (`rng`, seeded as
    /// the device is, under the model it uses), the sense and the channel
    /// transfer counted into `flash` and timed by hand, decode, and on a
    /// successful correction the stored page copied over the staging
    /// buffer. Drives `ssd`'s ECC and DRAM but not its flash. Returns
    /// `(data, oob, latency, corrected, bit_errors)`.
    fn copy_out_read(
        ssd: &mut SsdController,
        (rng, flash): (&mut SplitMix64, &mut FlashStats),
        region: &StripedRegion,
        offset: usize,
        kind: RegionKind,
    ) -> (Vec<u8>, Vec<u8>, Nanos, bool, usize) {
        let (geometry, timing) = (ssd.config.geometry, ssd.config.timing);
        let stripe = region.stripe_at(offset).unwrap();
        let (stored, oob, scheme) = ssd.device.stored_page(stripe).unwrap();
        let (stored, oob) = (stored.to_vec(), oob.to_vec());
        let mut data = stored.clone();
        data.resize(geometry.page_size_bytes, 0);
        let bit_errors =
            ReliabilityModel::nominal().inject_read_errors(&mut data, scheme, rng, &mut Vec::new());
        let bytes = data.len() + oob.len();
        flash.page_reads += 1;
        flash.injected_bit_errors += bit_errors as u64;
        flash.bytes_to_controller += bytes as u64;
        let mut latency = timing.read_latency(scheme)
            + timing.t_command_overhead
            + timing.channel_transfer(bytes);
        let mut corrected = true;
        if ssd.config.hybrid.needs_ecc(kind) {
            let outcome = ssd.ecc.decode_page(bit_errors);
            latency += outcome.latency;
            corrected = outcome.corrected;
            if corrected && bit_errors > 0 {
                data = stored;
            }
        }
        latency += ssd.dram.write(data.len());
        (data, oob, latency, corrected, bit_errors)
    }

    #[test]
    fn borrowed_read_equals_the_copy_out_read_it_replaced() {
        // A TLC page of the tiny geometry takes 3 or 4 raw bit errors per
        // read; a decoder that corrects 3 leaves the 4-error reads
        // uncorrectable, so both ECC outcomes occur.
        let config = SsdConfig {
            ecc: EccParams {
                correctable_bits_per_page: 3,
                ..EccParams::ldpc()
            },
            ..SsdConfig::tiny()
        };
        // Twins: same configuration, same fixed error-injection seed. The
        // old one only lends its stored pages, ECC and DRAM to the copy-out
        // read; its error stream and flash counters are mirrored here.
        let mut old = SsdController::new(config);
        let mut new = SsdController::new(config);
        const PAGES: usize = 32;
        let kinds = [RegionKind::Documents, RegionKind::BinaryEmbeddings];
        let mut regions = Vec::new();
        for (k, kind) in kinds.into_iter().enumerate() {
            let mut region = None;
            for ssd in [&mut old, &mut new] {
                let reserved = ssd.reserve_region(&format!("db0/{k}"), PAGES).unwrap();
                for page in 0..PAGES {
                    let data: Vec<u8> = (0..4096).map(|i| (i * 7 + page * 13 + k) as u8).collect();
                    let oob = [page as u8, k as u8, 0xEE];
                    ssd.program_region_page(&reserved, page, kind, data, &oob)
                        .unwrap();
                }
                region = Some(reserved);
            }
            regions.push((kind, region.unwrap()));
        }
        assert_eq!(old, new);
        let (mut rng, mut flash) = (SplitMix64::new(0xC0FFEE), *old.device.stats());

        let (mut corrected_reads, mut uncorrectable_reads) = (0, 0);
        for page in 0..PAGES {
            for (kind, region) in &regions {
                let (data, oob, latency, corrected, bit_errors) =
                    copy_out_read(&mut old, (&mut rng, &mut flash), region, page, *kind);
                let view = new.read_region_page_view(region, page, *kind).unwrap();
                assert_eq!(view.data, &data[..], "{kind:?} page {page}");
                assert_eq!(view.oob, &oob[..]);
                assert_eq!(view.latency, latency);
                assert_eq!(view.corrected, corrected);
                let lent = view.data.as_ptr();

                // What the view lends: the stored page itself unless the
                // read's errors survived, and then a page that differs from
                // it in exactly the injected bits.
                let stripe = region.stripe_at(page).unwrap();
                let (stored, _, _) = new.device.stored_page(stripe).unwrap();
                let differing: u32 = data
                    .iter()
                    .zip(stored)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                match (*kind, corrected) {
                    (RegionKind::Documents, true) => {
                        assert!(bit_errors > 0 && bit_errors <= 3);
                        assert_eq!(
                            lent,
                            stored.as_ptr(),
                            "corrected reads lend the stored page"
                        );
                        corrected_reads += 1;
                    }
                    (RegionKind::Documents, false) => {
                        assert!(bit_errors > 3);
                        assert_eq!(differing as usize, bit_errors);
                        uncorrectable_reads += 1;
                    }
                    _ => {
                        assert_eq!(bit_errors, 0);
                        assert_eq!(lent, stored.as_ptr(), "ESP-SLC reads clean");
                    }
                }

                // Flash, ECC and DRAM counters.
                let mut expected = counters(&old);
                expected.0 = flash;
                assert_eq!(expected, counters(&new));
            }
        }
        assert_eq!(corrected_reads + uncorrectable_reads, PAGES);
        assert!(corrected_reads > 0 && uncorrectable_reads > 0);

        // The error streams are at the same position: the next draws land on
        // the same bits.
        let (_, tlc) = &regions[0];
        let scheme = config.hybrid.scheme_for(RegionKind::Documents);
        let mut next = Vec::new();
        ReliabilityModel::nominal().draw_read_errors(
            config.geometry.page_size_bytes,
            scheme,
            &mut rng,
            &mut next,
        );
        assert!(!next.is_empty());
        let view = new.device.sense(tlc.stripe_at(0).unwrap()).unwrap();
        assert_eq!(view.flips, &next[..]);

        // A copy of the view is that view.
        let copied = copy_out_read(
            &mut old,
            (&mut rng, &mut flash),
            tlc,
            1,
            RegionKind::Documents,
        );
        let view = new
            .read_region_page_view(tlc, 1, RegionKind::Documents)
            .unwrap();
        assert_eq!(owned(view), (copied.0, copied.2, copied.3));
    }

    /// A page programmed short reads through the controller like a twin
    /// programmed with the same bytes padded to the page size — whether the
    /// decoder corrects the read (the view is the programmed page, padded)
    /// or gives up (the view is the page as sensed).
    #[test]
    fn short_programmed_pages_read_like_padded_ones() {
        let config = SsdConfig {
            ecc: EccParams {
                correctable_bits_per_page: 3,
                ..EccParams::ldpc()
            },
            ..SsdConfig::tiny()
        };
        let page_size = config.geometry.page_size_bytes;
        let mut short = SsdController::new(config);
        let mut padded = SsdController::new(config);
        const PAGES: usize = 24;
        let kind = RegionKind::Int8Embeddings;
        let mut region = StripedRegion::EMPTY;
        for (ssd, pad) in [(&mut short, false), (&mut padded, true)] {
            region = ssd.reserve_region("db0/int8", PAGES).unwrap();
            for page in 0..PAGES {
                let mut data: Vec<u8> = (0..1 + page * 170).map(|i| (i * 5 + page) as u8).collect();
                if pad {
                    data.resize(page_size, 0);
                }
                ssd.program_region_page(&region, page, kind, data, &[page as u8])
                    .unwrap();
            }
        }
        let (mut corrected_reads, mut uncorrectable_reads) = (0, 0);
        for page in 0..PAGES {
            let a = short.read_region_page_view(&region, page, kind).unwrap();
            let b = padded.read_region_page_view(&region, page, kind).unwrap();
            assert_eq!(a.data.len(), page_size);
            assert_eq!(a, b, "page {page}");
            if a.corrected {
                let programmed = 1 + page * 170;
                assert!((0..programmed).all(|i| a.data[i] == (i * 5 + page) as u8));
                assert!(a.data[programmed..].iter().all(|&byte| byte == 0));
                corrected_reads += 1;
            } else {
                uncorrectable_reads += 1;
            }
            let mut activity = counters(&short);
            // The padded twin moved more bytes when it programmed.
            activity.0.bytes_from_controller = padded.device().stats().bytes_from_controller;
            assert_eq!(activity, counters(&padded));
        }
        assert!(corrected_reads > 0 && uncorrectable_reads > 0);
    }

    /// The staging buffer and the device's list of flips are scratch: twins
    /// that served the same reads in different orders — so that one last
    /// staged a short page, the other an uncorrectable one — hold the same
    /// data, counters and error-stream position, and compare equal.
    #[test]
    fn what_the_last_read_left_in_scratch_is_not_state() {
        let config = SsdConfig {
            ecc: EccParams {
                correctable_bits_per_page: 0,
                ..EccParams::ldpc()
            },
            ..SsdConfig::tiny()
        };
        let short_kind = RegionKind::BinaryEmbeddings;
        let tlc_kind = RegionKind::Documents;
        let build = || {
            let mut ssd = SsdController::new(config);
            let short = ssd.reserve_region("db0/short", 1).unwrap();
            let tlc = ssd.reserve_region("db0/tlc", 1).unwrap();
            ssd.program_region_page(&short, 0, short_kind, vec![0x3C; 40], &[])
                .unwrap();
            ssd.program_region_page(&tlc, 0, tlc_kind, vec![0x99; 4096], &[])
                .unwrap();
            (ssd, short, tlc)
        };
        let ((mut a, short, tlc), (mut b, _, _)) = (build(), build());

        let uncorrectable = owned(a.read_region_page_view(&tlc, 0, tlc_kind).unwrap());
        assert!(!uncorrectable.2);
        assert_ne!(uncorrectable.0, [0x99; 4096]);
        let padded = owned(a.read_region_page_view(&short, 0, short_kind).unwrap());
        assert_eq!((&padded.0[..40], padded.0.len()), (&[0x3C; 40][..], 4096));
        assert_eq!(
            owned(b.read_region_page_view(&short, 0, short_kind).unwrap()),
            padded
        );
        assert_eq!(
            owned(b.read_region_page_view(&tlc, 0, tlc_kind).unwrap()),
            uncorrectable
        );

        assert_eq!((&a.staging.0, &b.staging.0), (&padded.0, &uncorrectable.0));
        assert!(a == b);
    }

    #[test]
    fn scan_region_page_borrows_stored_bytes_without_counting() {
        let mut ssd = controller();
        let region = ssd.reserve_region("db0/embeddings", 2).unwrap();
        ssd.program_region_page(
            &region,
            1,
            RegionKind::BinaryEmbeddings,
            vec![0x5A; 4096],
            &[9, 8, 7],
        )
        .unwrap();
        let before = counters(&ssd);
        let (stripe, data, oob) = ssd.scan_region_page(&region, 1).unwrap();
        assert_eq!(stripe, region.start + 1);
        assert_eq!(data.len(), ssd.config().geometry.page_size_bytes);
        assert_eq!(data[0], 0x5A);
        assert_eq!(&oob[..3], &[9, 8, 7]);
        // A shard read records nothing; the shard's own stats are merged
        // back through the device's absorb_stats instead.
        assert_eq!(counters(&ssd), before);
        assert!(ssd.scan_region_page(&region, 0).is_err(), "unprogrammed");
    }

    #[test]
    fn read_at_a_resolved_address_equals_the_region_read() {
        let mut ssd = controller();
        let region = ssd.reserve_region("db0/embeddings", 2).unwrap();
        let kind = RegionKind::BinaryEmbeddings;
        ssd.program_region_page(&region, 1, kind, vec![0x3C; 4096], &[4, 2])
            .unwrap();
        let (stripe, _, _) = ssd.scan_region_page(&region, 1).unwrap();
        let delta = |ssd: &SsdController, (flash, dram, ecc): (FlashStats, u64, u64)| {
            let (now_flash, now_dram, now_ecc) = counters(ssd);
            (
                now_flash.delta_since(&flash),
                now_dram - dram,
                now_ecc - ecc,
            )
        };
        let before = counters(&ssd);
        let by_region = owned(ssd.read_region_page_view(&region, 1, kind).unwrap());
        let region_cost = delta(&ssd, before);
        let before = counters(&ssd);
        let by_addr = owned(ssd.read_page_view(stripe, kind).unwrap());
        assert_eq!(by_addr, by_region);
        assert_eq!(delta(&ssd, before), region_cost);
        assert_eq!(region_cost.0.page_reads, 1);
    }

    /// The flash activity a twin recorded, folded into a controller that
    /// was built the same way, leaves both devices with the same counters —
    /// the way a sharded scan hands its tally back.
    #[test]
    fn activity_snapshot_absorb_roundtrip() {
        let build = || {
            let mut ssd = controller();
            let region = ssd.reserve_region("db0/documents", 2).unwrap();
            for page in 0..2 {
                ssd.program_region_page(&region, page, RegionKind::Documents, vec![1u8; 512], &[])
                    .unwrap();
            }
            (ssd, region)
        };
        let ((mut primary, region), (mut replica, _)) = (build(), build());
        let before = *replica.device().stats();
        for page in 0..2 {
            replica
                .read_region_page_view(&region, page, RegionKind::Documents)
                .unwrap();
        }
        let delta = replica.device().stats().delta_since(&before);
        assert_eq!(delta.page_reads, 2);
        assert!(delta.bytes_to_controller > 0);
        primary.device_mut().absorb_stats(&delta);
        assert_eq!(primary.device().stats(), replica.device().stats());
    }

    proptest! {
        /// The allocator learns of programs and erases from the controller
        /// instead of asking the device at every reservation. Its choice
        /// must stay the one the asking rule made: the lowest window of
        /// released stripes that the *device* reports unprogrammed, else the
        /// watermark.
        #[test]
        fn recycling_agrees_with_what_the_device_holds(
            ops in proptest::collection::vec((0u8..5, 1usize..7, 0usize..8), 1..120),
        ) {
            let mut ssd = controller();
            let geometry = ssd.config().geometry;
            let mut held: Vec<(String, StripedRegion)> = Vec::new();
            let mut released: BTreeSet<usize> = BTreeSet::new();
            let mut watermark = 0usize;
            for (step, (op, pages, pick)) in ops.into_iter().enumerate() {
                match op {
                    // Reserve, and program none, some or all of the pages.
                    0..=2 => {
                        let unprogrammed = |stripe: usize| {
                            !ssd.device().is_programmed(stripe)
                        };
                        let window = released.iter().copied().find(|&start| {
                            (start..start + pages)
                                .all(|stripe| released.contains(&stripe) && unprogrammed(stripe))
                        });
                        if window.is_none() && watermark + pages > geometry.total_pages() {
                            continue;
                        }
                        let name = format!("r{step}");
                        let region = ssd.reserve_region(&name, pages).unwrap();
                        match window {
                            Some(start) => prop_assert_eq!(region.start, start),
                            None => {
                                prop_assert_eq!(region.start, watermark);
                                watermark += pages;
                            }
                        }
                        for stripe in region.start..region.start + pages {
                            released.remove(&stripe);
                        }
                        let programmed = [0, pages.min(pick), pages][op as usize];
                        for offset in 0..programmed {
                            ssd.program_region_page(&region, offset, RegionKind::Documents, vec![7; 16], &[])
                                .unwrap();
                        }
                        held.push((name, region));
                    }
                    3 if !held.is_empty() => {
                        let (name, region) = held.swap_remove(pick % held.len());
                        ssd.release_region(&name, &region);
                        released.extend(region.start..region.start + region.len);
                    }
                    _ => {
                        ssd.reclaim_invalid_blocks().unwrap();
                    }
                }
                prop_assert_eq!(ssd.allocator.free_pages(), geometry.total_pages() - watermark + released.len());
            }
        }
    }

    proptest! {
        /// Regions reserved under one shared allocation account DRAM as
        /// regions reserved under a fresh name each did: the same usage
        /// after every call, `DramExhausted` (and `OutOfSpace`) at the same
        /// call with the same numbers, the same regions handed out, and a
        /// release of everything gives back exactly what was reserved.
        #[test]
        fn shared_region_accounting_matches_a_name_per_region(
            ops in proptest::collection::vec((0u8..3, 1usize..12, 0usize..64), 1..80),
            capacity_records in 3usize..14,
        ) {
            const ACCOUNT: &str = "db1/segments";
            let record = crate::ftl::COARSE_RECORD_BYTES;
            // Room for a few records next to a base allocation, so both
            // DRAM and (at 256 pages) flash run out along the way.
            let config = SsdConfig {
                dram: crate::dram::DramParams {
                    capacity_bytes: 100 + capacity_records * record,
                    ..crate::dram::DramParams::one_gigabyte()
                },
                ..SsdConfig::tiny()
            };
            let (mut named, mut shared) = (SsdController::new(config), SsdController::new(config));
            for ssd in [&mut named, &mut shared] {
                ssd.dram_mut().allocate("db1/update-state", 100).unwrap();
            }
            shared.dram_mut().allocate(ACCOUNT, 0).unwrap();
            let base = named.dram().used_bytes();
            let mut live: Vec<(String, StripedRegion)> = Vec::new();
            for (fresh, (op, pages, pick)) in ops.into_iter().enumerate() {
                if op == 0 && !live.is_empty() {
                    let (name, region) = live.remove(pick % live.len());
                    named.release_region(&name, &region);
                    shared.release_region_in(ACCOUNT, &region);
                } else {
                    let name = format!("db1/seg{fresh}");
                    let reserved = named.reserve_region(&name, pages);
                    prop_assert_eq!(&shared.reserve_region_in(ACCOUNT, pages), &reserved);
                    if let Ok(region) = reserved {
                        live.push((name, region));
                    }
                }
                prop_assert_eq!(named.dram().used_bytes(), shared.dram().used_bytes());
                prop_assert_eq!(
                    shared.dram().allocation(ACCOUNT),
                    Some(live.len() * record)
                );
            }
            for (name, region) in live.drain(..) {
                named.release_region(&name, &region);
                shared.release_region_in(ACCOUNT, &region);
            }
            prop_assert_eq!(named.dram().used_bytes(), base);
            prop_assert_eq!(shared.dram().used_bytes(), base);
            prop_assert_eq!(shared.dram().allocation(ACCOUNT), Some(0));
            prop_assert_eq!(named.allocator.free_pages(), shared.allocator.free_pages());
        }
    }

    #[test]
    fn reserve_region_fails_when_flash_is_full() {
        let mut ssd = controller();
        let total = ssd.config().geometry.total_pages();
        ssd.reserve_region("big", total).unwrap();
        assert!(matches!(
            ssd.reserve_region("more", 1),
            Err(SsdError::OutOfSpace { .. })
        ));
    }
}
