//! The flash array: pages, blocks, planes, dies and the whole device.
//!
//! [`FlashDevice`] is the functional-plus-timing model of the NAND flash
//! array of one SSD. Every operation both mutates the simulated state (page
//! contents, erase counters, the read-error stream) and returns the
//! simulated latency of the operation, so higher layers can compose
//! latencies with or without pipelining while relying on functionally
//! correct data.

use serde::{Deserialize, Serialize};

use crate::cell::ProgramScheme;
use crate::error::{NandError, Result};
use crate::geometry::{BlockAddr, Geometry, PageAddr};
use crate::reliability::{apply_read_errors, ReliabilityModel, SplitMix64};
use crate::stats::FlashStats;
use crate::timing::{Nanos, TimingParams};

/// One programmed flash page: user data, OOB bytes and programming scheme.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Page {
    /// The user data as programmed: the bytes the program supplied, without
    /// the zeros that fill the rest of the page. A read pads them to a full
    /// page ([`PageView::stored_into`]); a page holding one embedding costs
    /// neither a page of memory to keep nor a page of memory traffic to
    /// read.
    data: Vec<u8>,
    /// The OOB area as programmed: empty for a page programmed without OOB
    /// bytes (every INT8 and document page), which reads lend the device's
    /// one zeroed OOB area for instead of keeping a zeroed copy per page.
    oob: Vec<u8>,
    scheme: ProgramScheme,
}

/// Pages per chunk of the [`PageStore`]: the unit in which it commits
/// memory. A chunk (56 KiB) stays below glibc's default mmap threshold
/// (128 KiB), so chunks come from the heap and are reused across devices
/// like any small allocation, instead of being mapped and unmapped — which
/// would also move the threshold every later allocation is placed by.
const CHUNK_PAGES: usize = 1024;

/// Every page of the device, in stripe order ([`Geometry::stripe_index`]):
/// the order in which regions are laid out and every scan, rerank and fetch
/// walks them, so finding a page is one index. The table is committed a
/// chunk of [`CHUNK_PAGES`] pages at a time, on the first program into the
/// chunk — a full table of an SSD1 device would take about 235 MB however
/// little it stored. A slot is `None` until programmed and after an erase,
/// which frees the page's bytes.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct PageStore {
    chunks: Vec<Option<Box<[Option<Page>]>>>,
}

impl PageStore {
    fn new(geometry: &Geometry) -> Self {
        PageStore {
            chunks: vec![None; geometry.total_pages().div_ceil(CHUNK_PAGES)],
        }
    }

    /// The programmed page at `stripe`, if there is one.
    fn get(&self, stripe: usize) -> Option<&Page> {
        let chunk = self.chunks.get(stripe / CHUNK_PAGES)?.as_deref()?;
        chunk.get(stripe % CHUNK_PAGES)?.as_ref()
    }

    /// The slot of the page at `stripe`, its chunk committed first if need
    /// be.
    fn slot(&mut self, stripe: usize) -> &mut Option<Page> {
        let chunk = self.chunks[stripe / CHUNK_PAGES]
            .get_or_insert_with(|| vec![None; CHUNK_PAGES].into_boxed_slice());
        &mut chunk[stripe % CHUNK_PAGES]
    }
}

/// The OOB area a read lends for a page whose stored OOB is `oob`: the
/// device's zeroed area when the page was programmed without OOB bytes.
fn lent_oob<'a>(oob: &'a [u8], zero_oob: &'a [u8]) -> &'a [u8] {
    if oob.is_empty() {
        zero_oob
    } else {
        oob
    }
}

/// The error of a read at `stripe` that found no page: the page there was
/// never programmed (or erased since), or the position is off the device.
fn not_programmed(geometry: &Geometry, stripe: usize) -> NandError {
    geometry
        .stripe_addr(stripe)
        .map_or_else(|e| e, NandError::PageNotProgrammed)
}

/// A reusable buffer that is no part of its owner's state: it compares equal
/// to any other, so two devices (or controllers) that hold the same data and
/// counters are equal whatever their last read left in scratch.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Scratch<T>(pub T);

impl<T> PartialEq for Scratch<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Scratch<T> {}

/// Metadata of a page read whose payload was written into caller-supplied
/// buffers (the allocation-free variant of [`PageReadout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReadMeta {
    /// The scheme the page was programmed with.
    pub scheme: ProgramScheme,
    /// Number of raw bit errors injected into this read.
    pub bit_errors: usize,
    /// Simulated latency of the read: the sense, plus the channel transfer
    /// when the page went to the controller.
    pub latency: Nanos,
}

/// A page read, borrowed from the device instead of copied out of it (see
/// [`FlashDevice::sense`] and [`FlashDevice::read_page_view`]): the sensed
/// page is the stored page plus the bit positions this read got wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageView<'a> {
    /// The user data as programmed, without the zeros that fill the rest of
    /// the page — padded to the page size, it is what a read without raw
    /// errors delivers and what a successful ECC decode yields, by
    /// definition. A modelling backdoor for the controller's ECC path: no
    /// real channel carries it.
    pub stored: &'a [u8],
    /// The OOB bytes of the page.
    pub oob: &'a [u8],
    /// The raw bit errors of this read, as bit positions within the page
    /// (`meta.bit_errors` of them; a position listed twice flips back).
    pub flips: &'a [u32],
    /// Size of the full page in bytes: what the plane sensed.
    pub page_size: usize,
    /// Scheme, injected bit errors and latency of the read.
    pub meta: PageReadMeta,
}

impl PageView<'_> {
    /// Write the page as programmed into `out` (cleared first): the stored
    /// bytes followed by zeros up to the page size.
    pub fn stored_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(self.stored);
        out.resize(self.page_size, 0);
    }

    /// Write the page as sensed into `out` (cleared first): the page as
    /// programmed with this read's bit errors applied — the bytes the
    /// plane's in-plane computation and the channel see.
    pub fn sensed_into(&self, out: &mut Vec<u8>) {
        self.stored_into(out);
        apply_read_errors(out, self.flips);
    }
}

/// Result of a full page read that reaches the SSD controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageReadout {
    /// The (possibly error-injected) user data of the page.
    pub data: Vec<u8>,
    /// The OOB bytes of the page.
    pub oob: Vec<u8>,
    /// The scheme the page was programmed with.
    pub scheme: ProgramScheme,
    /// Number of raw bit errors injected into this read.
    pub bit_errors: usize,
    /// Simulated latency of the read, including the channel transfer.
    pub latency: Nanos,
}

/// The functional + timing model of an SSD's NAND flash array.
///
/// # Examples
///
/// ```
/// use reis_nand::array::FlashDevice;
/// use reis_nand::cell::ProgramScheme;
/// use reis_nand::geometry::{Geometry, PageAddr};
///
/// # fn main() -> Result<(), reis_nand::error::NandError> {
/// let geometry = Geometry::tiny();
/// let mut device = FlashDevice::new(geometry, Default::default());
/// let addr = PageAddr::new(0, 0, 0, 0, 0);
/// let data = vec![0xA5; geometry.page_size_bytes];
/// device.program_page(addr, &data, &[], ProgramScheme::EnhancedSlc)?;
/// let readout = device.read_page(addr)?;
/// assert_eq!(readout.data, data);
/// assert_eq!(readout.bit_errors, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct FlashDevice {
    geometry: Geometry,
    timing: TimingParams,
    reliability: ReliabilityModel,
    rng: SplitMix64,
    store: PageStore,
    /// Erase cycles per block, indexed by [`FlashDevice::block_index`].
    erase_counts: Vec<u64>,
    stats: FlashStats,
    /// The bit errors of the most recent read, as drawn.
    flips: Scratch<Vec<u32>>,
    /// A zeroed OOB area, lent as the OOB of every page programmed without
    /// OOB bytes.
    zero_oob: Vec<u8>,
}

impl FlashDevice {
    /// Create a device with the given geometry and timing parameters, the
    /// nominal reliability model, and a fixed error-injection seed.
    pub fn new(geometry: Geometry, timing: TimingParams) -> Self {
        Self::with_reliability(geometry, timing, ReliabilityModel::nominal(), 0xC0FFEE)
    }

    /// Create a device with full control over the reliability model and the
    /// error-injection seed.
    pub fn with_reliability(
        geometry: Geometry,
        timing: TimingParams,
        reliability: ReliabilityModel,
        seed: u64,
    ) -> Self {
        FlashDevice {
            geometry,
            timing,
            reliability,
            rng: SplitMix64::new(seed),
            store: PageStore::new(&geometry),
            erase_counts: vec![0; geometry.total_blocks()],
            stats: FlashStats::new(),
            flips: Scratch::default(),
            zero_oob: vec![0; geometry.oob_size_bytes],
        }
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Reset the operation counters (the stored data is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::new();
    }

    /// Merge externally measured operation counters into this device's
    /// statistics. Scan shards read stored pages without touching the
    /// device; the activity they performed is folded back here so the
    /// device's counters stay authoritative.
    pub fn absorb_stats(&mut self, delta: &FlashStats) {
        self.stats.accumulate(delta);
    }

    /// The stripe position of a valid page address.
    fn stripe_of(&self, addr: PageAddr) -> Result<usize> {
        self.geometry.check_page(addr)?;
        Ok(self.geometry.stripe_index(addr))
    }

    /// The dense index of a valid block address: plane by plane, in
    /// [`Geometry::plane_index`] order.
    fn block_index(&self, addr: BlockAddr) -> Result<usize> {
        self.geometry.check_plane(addr.plane_addr())?;
        let plane = self.geometry.plane_index(addr.plane_addr());
        if addr.block >= self.geometry.blocks_per_plane {
            return Err(NandError::BlockOutOfRange(addr));
        }
        Ok(plane * self.geometry.blocks_per_plane + addr.block)
    }

    /// Whether the page at stripe position `stripe` has been programmed
    /// since its block was last erased (`false` off the device).
    pub fn is_programmed(&self, stripe: usize) -> bool {
        self.store.get(stripe).is_some()
    }

    /// Erase a block, clearing all of its pages and bumping its erase count.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn erase_block(&mut self, addr: BlockAddr) -> Result<Nanos> {
        let block = self.block_index(addr)?;
        // Only slots that hold a page are touched: an erase commits no chunk.
        for stripe in self.geometry.block_stripes(addr) {
            if self.store.get(stripe).is_some() {
                *self.store.slot(stripe) = None;
            }
        }
        self.erase_counts[block] += 1;
        self.stats.block_erases += 1;
        Ok(self.timing.t_erase + self.timing.t_command_overhead)
    }

    /// Number of erase cycles a block has seen (0 if never touched).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn erase_count(&self, addr: BlockAddr) -> Result<u64> {
        Ok(self.erase_counts[self.block_index(addr)?])
    }

    /// Program a page with user data and OOB metadata using `scheme`: a
    /// copy of `data` programmed by [`FlashDevice::program_page_owned`].
    ///
    /// The returned latency includes the channel transfer of the data into
    /// the die and the program time of the chosen scheme.
    ///
    /// # Errors
    ///
    /// * [`NandError::AddressOutOfRange`] for an invalid address.
    /// * [`NandError::PageAlreadyProgrammed`] if the page was not erased
    ///   since its last program (NAND pages cannot be overwritten in place).
    /// * [`NandError::DataTooLarge`] / [`NandError::OobTooLarge`] if the data
    ///   or OOB payload exceed the page / OOB capacity.
    pub fn program_page(
        &mut self,
        addr: PageAddr,
        data: &[u8],
        oob: &[u8],
        scheme: ProgramScheme,
    ) -> Result<Nanos> {
        self.program_page_owned(addr, data.to_vec(), oob, scheme)
    }

    /// [`FlashDevice::program_page`] of a page the caller built and hands
    /// over: the device keeps `data` itself as the stored page, shrunk to
    /// its length if it has spare capacity, so a page built at its
    /// programmed length is never copied. Bytes, OOB, counters, latency and
    /// errors are those of [`FlashDevice::program_page`].
    ///
    /// # Errors
    ///
    /// As [`FlashDevice::program_page`].
    pub fn program_page_owned(
        &mut self,
        addr: PageAddr,
        mut data: Vec<u8>,
        oob: &[u8],
        scheme: ProgramScheme,
    ) -> Result<Nanos> {
        let stripe = self.stripe_of(addr)?;
        if data.len() > self.geometry.page_size_bytes {
            return Err(NandError::DataTooLarge {
                provided: data.len(),
                capacity: self.geometry.page_size_bytes,
            });
        }
        if oob.len() > self.geometry.oob_size_bytes {
            return Err(NandError::OobTooLarge {
                provided: oob.len(),
                capacity: self.geometry.oob_size_bytes,
            });
        }
        let slot = self.store.slot(stripe);
        if slot.is_some() {
            return Err(NandError::PageAlreadyProgrammed(addr));
        }
        let mut stored_oob = Vec::new();
        if !oob.is_empty() {
            stored_oob.resize(self.geometry.oob_size_bytes, 0);
            stored_oob[..oob.len()].copy_from_slice(oob);
        }
        let bytes = data.len() + oob.len();
        data.shrink_to_fit();
        *slot = Some(Page {
            data,
            oob: stored_oob,
            scheme,
        });

        self.stats.page_programs += 1;
        self.stats.bytes_from_controller += bytes as u64;
        let transfer = self.timing.channel_transfer(bytes);
        Ok(transfer + self.timing.program_latency(scheme) + self.timing.t_command_overhead)
    }

    /// Sense the page at stripe position `stripe` — the one array read of
    /// the device: draw the read's bit errors from the device's error
    /// stream, count the sense (`page_reads`, `injected_bit_errors`) and lend
    /// out the stored page next to the list of bits this read got wrong.
    /// `meta.latency` is the sense latency; nothing moves over the channel.
    /// This is the read half of REIS's in-plane distance computation: whoever
    /// computes on the sensed bytes materialises them
    /// ([`PageView::sensed_into`]).
    ///
    /// The errors of a read never land in the array: the stored page stays
    /// as programmed, and the next read draws its own.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page at stripe
    /// position `stripe` holds no data, or [`NandError::AddressOutOfRange`]
    /// for a position off the device.
    pub fn sense(&mut self, stripe: usize) -> Result<PageView<'_>> {
        self.read(stripe, false)
    }

    /// Read the page at stripe position `stripe` all the way to the
    /// controller without copying it: [`FlashDevice::sense`] plus the channel
    /// transfer of user data and OOB bytes, counted (`bytes_to_controller`)
    /// and timed. Every other page read to the controller is a copy of this
    /// one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense`].
    pub fn read_page_view(&mut self, stripe: usize) -> Result<PageView<'_>> {
        self.read(stripe, true)
    }

    /// A sense, moved to the controller when `transfer` is set.
    fn read(&mut self, stripe: usize, transfer: bool) -> Result<PageView<'_>> {
        let Page { data, oob, scheme } = self
            .store
            .get(stripe)
            .ok_or_else(|| not_programmed(&self.geometry, stripe))?;
        let oob = lent_oob(oob, &self.zero_oob);
        let (scheme, page_size) = (*scheme, self.geometry.page_size_bytes);
        self.reliability
            .draw_read_errors(page_size, scheme, &mut self.rng, &mut self.flips.0);
        let bit_errors = self.flips.0.len();
        self.stats.page_reads += 1;
        self.stats.injected_bit_errors += bit_errors as u64;
        let mut latency = self.timing.read_latency(scheme) + self.timing.t_command_overhead;
        if transfer {
            let bytes = page_size + self.geometry.oob_size_bytes;
            self.stats.bytes_to_controller += bytes as u64;
            latency += self.timing.channel_transfer(bytes);
        }
        Ok(PageView {
            stored: data,
            oob,
            flips: &self.flips.0,
            page_size,
            meta: PageReadMeta {
                scheme,
                bit_errors,
                latency,
            },
        })
    }

    /// [`FlashDevice::read_page_view`] materialised into fresh buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense`].
    pub fn read_page(&mut self, addr: PageAddr) -> Result<PageReadout> {
        let (mut data, mut oob) = (Vec::new(), Vec::new());
        let meta = self.read_page_into(addr, &mut data, &mut oob)?;
        Ok(PageReadout {
            data,
            oob,
            scheme: meta.scheme,
            bit_errors: meta.bit_errors,
            latency: meta.latency,
        })
    }

    /// [`FlashDevice::read_page_view`] materialised into caller-supplied
    /// buffers (which are cleared first): the page as sensed, built straight
    /// into `data`, so a pooled readout loop performs no per-page heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense`].
    pub fn read_page_into(
        &mut self,
        addr: PageAddr,
        data: &mut Vec<u8>,
        oob: &mut Vec<u8>,
    ) -> Result<PageReadMeta> {
        let stripe = self.stripe_of(addr)?;
        let view = self.read_page_view(stripe)?;
        view.sensed_into(data);
        oob.clear();
        oob.extend_from_slice(view.oob);
        Ok(view.meta)
    }

    /// Borrow the stored contents of the page at stripe position `stripe`
    /// (user data, OOB bytes and the programming scheme) without copying,
    /// error injection, timing, or statistics. The user data is lent as
    /// programmed: the bytes [`FlashDevice::program_page`] was given,
    /// without the zeros that fill the rest of the page.
    ///
    /// This is the readout primitive of read-only scan shards: shard
    /// workers share the device immutably, compute distances on the lent
    /// bytes, and account their flash activity in shard-local
    /// [`FlashStats`] that the controller absorbs afterwards. Because no
    /// error injection happens here, callers must only use it for schemes
    /// whose reads are error-free (ESP-SLC) if they need bit-identical
    /// results to [`FlashDevice::sense`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::read_page_view`].
    pub fn stored_page(&self, stripe: usize) -> Result<(&[u8], &[u8], ProgramScheme)> {
        let page = self.store.get(stripe);
        page.map(|page| {
            (
                &page.data[..],
                lent_oob(&page.oob, &self.zero_oob),
                page.scheme,
            )
        })
        .ok_or_else(|| not_programmed(&self.geometry, stripe))
    }

    /// Whether reads of pages programmed with `scheme` are error-free on
    /// this device (no raw bit errors to inject). Scan sharding relies on
    /// this to guarantee that its read-only page accesses produce exactly
    /// the bytes a sense would.
    pub fn read_is_error_free(&self, scheme: ProgramScheme) -> bool {
        self.reliability.effective_ber(scheme) <= 0.0
    }

    /// Number of currently programmed pages in a block (0 for a block that
    /// was never touched or was erased). Garbage collection uses this to
    /// decide when every live page of a block has been invalidated and the
    /// block can be reclaimed by an erase.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn programmed_pages_in_block(&self, addr: BlockAddr) -> Result<usize> {
        self.block_index(addr)?;
        Ok(self
            .geometry
            .block_stripes(addr)
            .filter(|&stripe| self.is_programmed(stripe))
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellMode;
    use crate::peripheral::PassFailChecker;

    fn device() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), TimingParams::default())
    }

    fn page0() -> PageAddr {
        PageAddr::new(0, 0, 0, 0, 0)
    }

    /// The owning program stores the caller's buffer at its length — so a
    /// short page costs its bytes, not a page, of resident memory — and
    /// leaves the bytes, OOB, counters, latency and errors the copying
    /// program leaves.
    #[test]
    fn an_owned_page_is_stored_at_its_length_and_programs_like_a_copied_one() {
        let tlc = ProgramScheme::Ispp(CellMode::Tlc);
        let (mut copied, mut owned) = (device(), device());
        let short: Vec<u8> = (0..300).map(|i| (i * 7) as u8).collect();
        let oob = [1, 2, 3];
        let a = PageAddr::new(0, 1, 0, 0, 0);
        let b = PageAddr::new(1, 0, 1, 2, 3);
        let stripe_of = |addr| Geometry::tiny().stripe_index(addr);

        let copy_latency = copied.program_page(a, &short, &oob, tlc).unwrap();
        // A buffer with spare capacity is shrunk to its length.
        let mut spare = Vec::with_capacity(4 * short.len());
        spare.extend_from_slice(&short);
        assert_eq!(
            owned.program_page_owned(a, spare, &oob, tlc).unwrap(),
            copy_latency
        );
        // A buffer built at its length is kept as it is, not copied.
        let exact = short[..64].to_vec();
        let exact_at = exact.as_ptr();
        copied
            .program_page(b, &short[..64], &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        owned
            .program_page_owned(b, exact, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        let kept = owned.store.get(stripe_of(b)).unwrap();
        assert_eq!(kept.data.as_ptr(), exact_at);

        for device in [&copied, &owned] {
            for addr in [a, b] {
                let page = device.store.get(stripe_of(addr)).unwrap();
                assert_eq!(page.data.capacity(), page.data.len());
            }
        }
        assert_eq!(copied.stats(), owned.stats());
        assert_eq!(owned.stats().page_programs, 2);
        assert_eq!(
            copied, owned,
            "same stored pages, OOB, counters and error stream"
        );
        assert_eq!(copied.read_page(a).unwrap(), owned.read_page(a).unwrap());

        // The same errors, and a refused program stores nothing.
        let too_large = vec![0; Geometry::tiny().page_size_bytes + 1];
        assert_eq!(
            owned.program_page_owned(page0(), too_large.clone(), &[], tlc),
            copied.program_page(page0(), &too_large, &[], tlc)
        );
        assert_eq!(
            owned.program_page_owned(a, short.clone(), &[], tlc),
            Err(NandError::PageAlreadyProgrammed(a))
        );
        assert_eq!(copied, owned);
    }

    #[test]
    fn program_then_read_roundtrips_data_and_oob() {
        let mut dev = device();
        let data = vec![0x3C; 4096];
        let oob = vec![0x11; 64];
        dev.program_page(page0(), &data, &oob, ProgramScheme::EnhancedSlc)
            .unwrap();
        let readout = dev.read_page(page0()).unwrap();
        assert_eq!(readout.data, data);
        assert_eq!(&readout.oob[..64], &oob[..]);
        assert_eq!(readout.bit_errors, 0);
        assert!(readout.latency > Nanos::ZERO);
    }

    /// A page programmed without OOB bytes keeps none: it reads the zeroed
    /// OOB area every other page reads, and is charged the full area on its
    /// way to the controller, like a page whose OOB was programmed.
    #[test]
    fn a_page_without_oob_lends_the_zeroed_area() {
        let mut dev = device();
        let geometry = Geometry::tiny();
        let (bare, tagged) = (page0(), PageAddr { page: 1, ..page0() });
        let scheme = ProgramScheme::EnhancedSlc;
        dev.program_page(bare, &[0x5A; 100], &[], scheme).unwrap();
        dev.program_page(tagged, &[0x5A; 100], &[7], scheme)
            .unwrap();
        let bare_stripe = geometry.stripe_index(bare);
        assert!(dev.store.get(bare_stripe).unwrap().oob.is_empty());
        let zeroed = vec![0; geometry.oob_size_bytes];
        assert_eq!(dev.stored_page(bare_stripe).unwrap().1, &zeroed[..]);

        let before = dev.stats().bytes_to_controller;
        let bare_read = dev.read_page(bare).unwrap();
        let charged = dev.stats().bytes_to_controller - before;
        let tagged_read = dev.read_page(tagged).unwrap();
        assert_eq!(bare_read.oob, zeroed);
        assert_eq!(tagged_read.oob[0], 7);
        assert_eq!(tagged_read.oob.len(), geometry.oob_size_bytes);
        assert_eq!(
            charged,
            (geometry.page_size_bytes + geometry.oob_size_bytes) as u64
        );
        assert_eq!(
            dev.stats().bytes_to_controller - before,
            2 * charged,
            "both pages move the same bytes"
        );
        assert_eq!(bare_read.latency, tagged_read.latency);
    }

    #[test]
    fn reprogramming_without_erase_is_rejected() {
        let mut dev = device();
        let data = vec![1u8; 16];
        dev.program_page(page0(), &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        assert!(matches!(
            dev.program_page(page0(), &data, &[], ProgramScheme::EnhancedSlc),
            Err(NandError::PageAlreadyProgrammed(_))
        ));
        dev.erase_block(page0().block_addr()).unwrap();
        dev.program_page(page0(), &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        assert_eq!(dev.erase_count(page0().block_addr()).unwrap(), 1);
    }

    #[test]
    fn reading_unprogrammed_page_fails() {
        let mut dev = device();
        assert!(matches!(
            dev.read_page(page0()),
            Err(NandError::PageNotProgrammed(_))
        ));
    }

    #[test]
    fn oversized_payloads_are_rejected() {
        let mut dev = device();
        let too_big = vec![0u8; 4097];
        assert!(matches!(
            dev.program_page(page0(), &too_big, &[], ProgramScheme::EnhancedSlc),
            Err(NandError::DataTooLarge { .. })
        ));
        let oob_too_big = vec![0u8; 257];
        assert!(matches!(
            dev.program_page(
                page0(),
                &[0u8; 16],
                &oob_too_big,
                ProgramScheme::EnhancedSlc
            ),
            Err(NandError::OobTooLarge { .. })
        ));
    }

    #[test]
    fn in_plane_distance_flow_computes_hamming_distances() {
        let mut dev = device();
        // 32-byte binary embeddings, 128 per 4 KB page.
        let emb_bytes = 32usize;
        let mut page = Vec::with_capacity(4096);
        for i in 0..(4096 / emb_bytes) {
            // Embedding i = i-th byte pattern.
            page.extend(std::iter::repeat_n((i % 256) as u8, emb_bytes));
        }
        dev.program_page(page0(), &page, &[], ProgramScheme::EnhancedSlc)
            .unwrap();

        // Sense the page, then XOR, count and check every slot against the
        // broadcast query in the peripheral's one pass.
        let mut sensed = Vec::new();
        dev.sense(0).unwrap().sensed_into(&mut sensed);
        let mut hits = Vec::new();
        let query = vec![0u8; emb_bytes];
        PassFailChecker::filter_fused(
            &sensed,
            emb_bytes,
            4096 / emb_bytes,
            &[&query],
            &[u32::MAX],
            &mut hits,
        );
        assert_eq!(hits.len(), 4096 / emb_bytes);
        // Against an all-zero query the Hamming distance of embedding i is
        // popcount(i) * emb_bytes.
        for (i, hit) in hits.iter().enumerate() {
            let expected = (i as u8).count_ones() * emb_bytes as u32;
            assert_eq!((hit.slot, hit.distance), (i as u32, expected));
        }
    }

    #[test]
    fn tlc_reads_inject_errors_esp_reads_do_not() {
        let geometry = Geometry::tiny();
        let mut dev = FlashDevice::with_reliability(
            geometry,
            TimingParams::default(),
            ReliabilityModel { ber_scale: 1e3 },
            7,
        );
        let data = vec![0u8; 4096];
        let tlc_addr = page0();
        let esp_addr = PageAddr::new(0, 0, 0, 0, 1);
        dev.program_page(tlc_addr, &data, &[], ProgramScheme::Ispp(CellMode::Tlc))
            .unwrap();
        dev.program_page(esp_addr, &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        let mut tlc_errors = 0usize;
        for _ in 0..5 {
            tlc_errors += dev.read_page(tlc_addr).unwrap().bit_errors;
            assert_eq!(dev.read_page(esp_addr).unwrap().bit_errors, 0);
        }
        assert!(tlc_errors > 0, "scaled TLC BER should corrupt some reads");
        assert!(dev.stats().injected_bit_errors > 0);
    }

    #[test]
    fn a_controller_read_leaves_the_latch_and_the_array_as_it_found_them() {
        // Three pages of one plane: the in-plane operand, and two pages the
        // controller reads — one with raw errors, one programmed short.
        let esp_addr = page0();
        let tlc_addr = PageAddr::new(0, 0, 0, 0, 1);
        let short_addr = PageAddr::new(0, 0, 0, 0, 2);
        let g = Geometry::tiny();
        let (esp_stripe, tlc_stripe) = (g.stripe_index(esp_addr), g.stripe_index(tlc_addr));
        // The in-plane flow on the operand: every 64-byte slot against a
        // query of ones.
        let counts = |dev: &mut FlashDevice| {
            let (mut sensed, mut hits) = (Vec::new(), Vec::new());
            dev.sense(esp_stripe).unwrap().sensed_into(&mut sensed);
            PassFailChecker::filter_fused(&sensed, 64, 64, &[&[0xFF; 64]], &[u32::MAX], &mut hits);
            hits.iter().map(|hit| hit.distance).collect::<Vec<_>>()
        };
        // A device and its twin: the same programs and in-plane operations.
        let build = || {
            let mut dev = FlashDevice::with_reliability(
                g,
                TimingParams::default(),
                ReliabilityModel { ber_scale: 1e3 },
                7,
            );
            dev.program_page(esp_addr, &[0x0F; 4096], &[1], ProgramScheme::EnhancedSlc)
                .unwrap();
            dev.program_page(
                tlc_addr,
                &[0xA5; 4096],
                &[2],
                ProgramScheme::Ispp(CellMode::Tlc),
            )
            .unwrap();
            dev.program_page(short_addr, &[0x77; 100], &[3], ProgramScheme::EnhancedSlc)
                .unwrap();
            assert_eq!(counts(&mut dev), vec![64 * 4; 64]);
            dev
        };
        let (mut dev, mut twin) = (build(), build());

        let view = dev.read_page_view(tlc_stripe).unwrap();
        assert!(view.meta.bit_errors > 0);
        assert_eq!((view.stored, view.oob[0]), (&[0xA5; 4096][..], 2));
        let mut sensed = Vec::new();
        view.sensed_into(&mut sensed);
        assert_ne!(sensed, view.stored, "the flips reach whoever asks for them");
        let readout = dev.read_page(short_addr).unwrap();
        assert_eq!(readout.data.len(), 4096);
        assert_eq!(
            (&readout.data[..100], readout.oob[0]),
            (&[0x77; 100][..], 3)
        );
        assert!(readout.data[100..].iter().all(|&b| b == 0));

        assert_eq!(dev.stored_page(tlc_stripe).unwrap().0, &[0xA5; 4096][..]);
        // The in-plane flow goes on as it was.
        assert_eq!(counts(&mut dev), vec![64 * 4; 64]);

        // The list of flips is scratch, not state: a twin that served the
        // same reads in the other order — the last read of `dev` had none —
        // is the same device.
        counts(&mut twin);
        twin.read_page(short_addr).unwrap();
        assert_eq!(twin.read_page(tlc_addr).unwrap().data, sensed);
        assert_ne!(twin.flips.0, dev.flips.0);
        assert!(twin == dev);
    }

    /// On a page that takes raw errors, a sense and a controller read of
    /// twin devices yield the same sensed bytes and OOB: they differ in
    /// exactly the channel transfer of the page and its OOB area, and leave
    /// the error streams where the next draws agree.
    #[test]
    fn a_sense_is_a_controller_read_without_the_transfer() {
        let g = Geometry::tiny();
        let tlc = PageAddr::new(1, 0, 1, 2, 3);
        let stripe = g.stripe_index(tlc);
        let build = || {
            let mut dev = FlashDevice::with_reliability(
                g,
                TimingParams::default(),
                ReliabilityModel { ber_scale: 1e3 },
                11,
            );
            let data: Vec<u8> = (0..3000).map(|i| (i * 7) as u8).collect();
            dev.program_page(tlc, &data, &[0xAB], ProgramScheme::Ispp(CellMode::Tlc))
                .unwrap();
            dev.reset_stats();
            dev
        };
        let (mut sensed_dev, mut read_dev) = (build(), build());
        let bytes = g.page_size_bytes + g.oob_size_bytes;
        let (mut sensed, mut read) = (Vec::new(), Vec::new());
        for reads in 1..=3 {
            let sense = sensed_dev.sense(stripe).unwrap();
            sense.sensed_into(&mut sensed);
            let (sense_oob, sense_meta) = (sense.oob.to_vec(), sense.meta);
            let view = read_dev.read_page_view(stripe).unwrap();
            view.sensed_into(&mut read);
            assert!(view.meta.bit_errors > 0);
            assert_eq!((&sensed, &sense_oob[..]), (&read, view.oob));
            assert_eq!(
                sense_meta.latency + TimingParams::default().channel_transfer(bytes),
                view.meta.latency
            );
            assert_eq!(sense_meta.bit_errors, view.meta.bit_errors);
            let mut moved = *sensed_dev.stats();
            moved.bytes_to_controller += (reads * bytes) as u64;
            assert_eq!(&moved, read_dev.stats());
        }
        // The next draws land on the same bits, whichever way they go.
        let next = read_dev.sense(stripe).unwrap().flips.to_vec();
        assert_eq!(sensed_dev.read_page_view(stripe).unwrap().flips, &next[..]);
    }

    #[test]
    fn esp_reads_are_faster_than_tlc_reads() {
        let mut dev = device();
        let data = vec![0u8; 256];
        let esp = PageAddr::new(0, 0, 0, 0, 0);
        let tlc = PageAddr::new(0, 0, 0, 0, 1);
        dev.program_page(esp, &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.program_page(tlc, &data, &[], ProgramScheme::Ispp(CellMode::Tlc))
            .unwrap();
        let t_esp = dev.read_page(esp).unwrap().latency;
        let t_tlc = dev.read_page(tlc).unwrap().latency;
        assert!(t_esp < t_tlc);
    }

    #[test]
    fn stats_track_operations() {
        let mut dev = device();
        let before = *dev.stats();
        dev.program_page(page0(), &[1u8; 128], &[2u8; 8], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.read_page(page0()).unwrap();
        dev.sense(0).unwrap();
        dev.erase_block(page0().block_addr()).unwrap();
        let delta = dev.stats().delta_since(&before);
        assert_eq!(delta.page_programs, 1);
        assert_eq!(delta.page_reads, 2);
        assert_eq!(delta.block_erases, 1);
        assert!(delta.bytes_to_controller > 0);
        assert!(delta.bytes_from_controller > 0);
        dev.reset_stats();
        assert_eq!(dev.stats().page_reads, 0);
    }

    /// Pages of every plane read back alike by address and by stripe,
    /// through the stored and the counted read; an erase clears exactly its
    /// block, which takes programs again.
    #[test]
    fn pages_read_alike_by_address_and_by_stripe_and_an_erase_clears_one_block() {
        let g = Geometry::tiny();
        // Pages 0 and 1 of blocks 0 and 1 of every plane.
        let pages: Vec<PageAddr> = (0..g.total_pages())
            .map(|stripe| g.stripe_addr(stripe).unwrap())
            .filter(|addr| addr.block < 2 && addr.page < 2)
            .collect();
        let data = |addr: PageAddr| vec![addr.page as u8; 64 + g.stripe_index(addr)];
        let build = || {
            let mut dev = device();
            for &addr in &pages {
                let oob = [addr.block as u8, 0xEE];
                dev.program_page(addr, &data(addr), &oob, ProgramScheme::EnhancedSlc)
                    .unwrap();
            }
            dev
        };
        let mut dev = build();
        for &addr in &pages {
            let stripe = g.stripe_index(addr);
            let (before, readout) = (*dev.stats(), dev.read_page(addr).unwrap());
            let after = *dev.stats();
            let view = dev.read_page_view(stripe).unwrap();
            let by_stripe = (view.stored.to_vec(), view.oob.to_vec(), view.meta.latency);
            assert_eq!(dev.stats().delta_since(&after), after.delta_since(&before));
            assert_eq!(
                by_stripe,
                (data(addr), readout.oob.clone(), readout.latency)
            );
            let (stored, oob, _) = dev.stored_page(stripe).unwrap();
            assert_eq!((stored, oob), (&by_stripe.0[..], &by_stripe.1[..]));
            assert_eq!(
                (&readout.data[..stored.len()], &oob[..2]),
                (stored, &[addr.block as u8, 0xEE][..])
            );
        }

        let erased = BlockAddr::new(1, 0, 1, 0);
        dev.erase_block(erased).unwrap();
        for &addr in &pages {
            let stored = dev
                .stored_page(g.stripe_index(addr))
                .map(|page| page.0.to_vec());
            if addr.block_addr() == erased {
                assert_eq!(stored, Err(NandError::PageNotProgrammed(addr)));
                assert_eq!(dev.read_page(addr), Err(NandError::PageNotProgrammed(addr)));
            } else {
                assert_eq!(stored, Ok(data(addr)));
            }
        }
        assert_eq!(dev.programmed_pages_in_block(erased), Ok(0));
        assert_eq!(dev.erase_count(erased), Ok(1));
        for stripe in g.block_stripes(erased) {
            let addr = g.stripe_addr(stripe).unwrap();
            dev.program_page(addr, &[7; 8], &[], ProgramScheme::EnhancedSlc)
                .unwrap();
        }
        assert_eq!(dev.programmed_pages_in_block(erased), Ok(g.pages_per_block));

        // Erasing a block that was never programmed changes nothing but its
        // erase count (and the erase counter).
        let (mut dev, twin) = (build(), build());
        let untouched = BlockAddr::new(0, 1, 0, 3);
        dev.erase_block(untouched).unwrap();
        assert_eq!(dev.erase_count(untouched), Ok(1));
        let block = dev.block_index(untouched).unwrap();
        dev.erase_counts[block] = 0;
        dev.stats.block_erases -= 1;
        assert!(dev == twin);
    }

    #[test]
    fn the_store_commits_only_the_chunks_that_were_programmed() {
        let g = Geometry::reis_ssd1();
        let mut dev = FlashDevice::new(g, TimingParams::default());
        for stripe in [CHUNK_PAGES - 1, CHUNK_PAGES, g.total_pages() - 1] {
            let (addr, data) = (g.stripe_addr(stripe).unwrap(), [stripe as u8; 16]);
            dev.program_page(addr, &data, &[], ProgramScheme::EnhancedSlc)
                .unwrap();
            assert_eq!(dev.stored_page(stripe).unwrap().0, data);
        }
        assert_eq!(dev.store.chunks.iter().flatten().count(), 3);
        assert_eq!(std::mem::size_of::<[Option<Page>; CHUNK_PAGES]>(), 56 << 10);
        assert!(!dev.is_programmed(CHUNK_PAGES + 1));
        assert!(matches!(
            dev.stored_page(g.total_pages()),
            Err(NandError::AddressOutOfRange { what: "stripe", .. })
        ));
    }
}
