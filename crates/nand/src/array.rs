//! The flash array: pages, blocks, planes, dies and the whole device.
//!
//! [`FlashDevice`] is the functional-plus-timing model of the NAND flash
//! array of one SSD. Every operation both mutates the simulated state (page
//! contents, latch contents, erase counters) and returns the simulated
//! latency of the operation, so higher layers can compose latencies with or
//! without pipelining while relying on functionally correct data.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::cell::ProgramScheme;
use crate::error::{NandError, Result};
use crate::geometry::{BlockAddr, Geometry, PageAddr, PlaneAddr};
use crate::latch::{Latch, PageBuffer};
use crate::peripheral::{FailBitCounter, XorLogic};
use crate::reliability::{apply_read_errors, ReliabilityModel, SplitMix64};
use crate::stats::FlashStats;
use crate::timing::{Nanos, TimingParams};

/// One physical flash page: user data, OOB bytes and programming state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Page {
    /// The user data as programmed: the bytes the program supplied, without
    /// the zeros that fill the rest of the page. A sense pads them to a full
    /// page in the latch; a page holding one embedding costs neither a page
    /// of memory to keep nor a page of memory traffic to read.
    data: Option<Vec<u8>>,
    oob: Option<Vec<u8>>,
    scheme: Option<ProgramScheme>,
}

impl Page {
    fn is_programmed(&self) -> bool {
        self.data.is_some()
    }

    fn reset(&mut self) {
        self.data = None;
        self.oob = None;
        self.scheme = None;
    }
}

/// One erase block: a run of pages plus its program/erase cycle counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Block {
    pages: Vec<Page>,
    erase_count: u64,
}

impl Block {
    fn new(pages_per_block: usize) -> Self {
        Block {
            pages: vec![Page::default(); pages_per_block],
            erase_count: 0,
        }
    }
}

/// One plane: lazily allocated blocks plus the plane's page buffer.
///
/// Blocks are held behind [`Arc`] with copy-on-write mutation
/// ([`Arc::make_mut`]), so a cloned device shares its programmed blocks
/// with the original until one of them writes. The batch-search workers
/// that cloned devices are gone; today only three unit tests clone one
/// (two in the SSD controller, one in this module). ROADMAP item 10
/// replaces this store with per-region or per-block arenas and drops the
/// `Arc` and the device `Clone`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Plane {
    buffer: PageBuffer,
    blocks: Vec<Option<Arc<Block>>>,
}

impl Plane {
    fn new(addr: PlaneAddr, geometry: &Geometry) -> Self {
        Plane {
            buffer: PageBuffer::new(addr, geometry.page_size_bytes),
            blocks: vec![None; geometry.blocks_per_plane],
        }
    }

    fn block_mut(&mut self, block: usize, pages_per_block: usize) -> &mut Block {
        Arc::make_mut(
            self.blocks[block].get_or_insert_with(|| Arc::new(Block::new(pages_per_block))),
        )
    }

    fn block(&self, block: usize) -> Option<&Block> {
        self.blocks.get(block).and_then(|b| b.as_deref())
    }
}

/// The programmed contents of the page at `addr` within a plane's `blocks`:
/// user data as programmed, OOB bytes, programming scheme. Takes the blocks
/// alone so that a sense can fill the plane's buffer while it holds them.
fn programmed_page(
    blocks: &[Option<Arc<Block>>],
    addr: PageAddr,
) -> Result<(&[u8], &[u8], ProgramScheme)> {
    let page = blocks
        .get(addr.block)
        .and_then(|block| block.as_deref())
        .map(|block| &block.pages[addr.page])
        .ok_or(NandError::PageNotProgrammed(addr))?;
    let data = page
        .data
        .as_deref()
        .ok_or(NandError::PageNotProgrammed(addr))?;
    Ok((
        data,
        page.oob.as_deref().unwrap_or(&[]),
        page.scheme.unwrap_or_default(),
    ))
}

/// Count one array sense that took `bit_errors` raw errors — into the latch
/// or on its way to the controller — and return its latency.
fn count_sense(
    stats: &mut FlashStats,
    timing: &TimingParams,
    scheme: ProgramScheme,
    bit_errors: usize,
) -> Nanos {
    stats.page_reads += 1;
    stats.injected_bit_errors += bit_errors as u64;
    timing.read_latency(scheme) + timing.t_command_overhead
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
    /// Simulated latency of the read, including the channel transfer.
    pub latency: Nanos,
}

/// A page read that reached the SSD controller, borrowed from the device
/// instead of copied out of it (see [`FlashDevice::read_page_view`]): the
/// sensed page is the stored page plus the bit positions this read got
/// wrong.
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
    /// Size of the full page in bytes: what the channel moved.
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
    /// programmed with this read's bit errors applied — byte for byte what
    /// [`FlashDevice::sense_page`] at the same position of the error stream
    /// leaves in the plane's sensing latch.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashDevice {
    geometry: Geometry,
    timing: TimingParams,
    reliability: ReliabilityModel,
    rng: SplitMix64,
    planes: Vec<Plane>,
    stats: FlashStats,
    /// The bit errors of the most recent read, as drawn.
    flips: Scratch<Vec<u32>>,
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
        let planes = geometry
            .planes()
            .map(|addr| Plane::new(addr, &geometry))
            .collect();
        FlashDevice {
            geometry,
            timing,
            reliability,
            rng: SplitMix64::new(seed),
            planes,
            stats: FlashStats::new(),
            flips: Scratch::default(),
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

    fn plane_index(&self, addr: PlaneAddr) -> Result<usize> {
        self.geometry.check_plane(addr)?;
        Ok(self.geometry.plane_index(addr))
    }

    /// Immutable access to the page buffer of a plane.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid plane address.
    pub fn page_buffer(&self, addr: PlaneAddr) -> Result<&PageBuffer> {
        let idx = self.plane_index(addr)?;
        Ok(&self.planes[idx].buffer)
    }

    /// Whether a page has been programmed since its block was last erased.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid page address.
    pub fn is_programmed(&self, addr: PageAddr) -> Result<bool> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        Ok(self.planes[idx]
            .block(addr.block)
            .map(|b| b.pages[addr.page].is_programmed())
            .unwrap_or(false))
    }

    /// Erase a block, clearing all of its pages and bumping its erase count.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn erase_block(&mut self, addr: BlockAddr) -> Result<Nanos> {
        self.geometry.check_plane(addr.plane_addr())?;
        if addr.block >= self.geometry.blocks_per_plane {
            return Err(NandError::BlockOutOfRange(addr));
        }
        let pages_per_block = self.geometry.pages_per_block;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let block = self.planes[idx].block_mut(addr.block, pages_per_block);
        for page in &mut block.pages {
            page.reset();
        }
        block.erase_count += 1;
        self.stats.block_erases += 1;
        Ok(self.timing.t_erase + self.timing.t_command_overhead)
    }

    /// Number of erase cycles a block has seen (0 if never touched).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn erase_count(&self, addr: BlockAddr) -> Result<u64> {
        self.geometry.check_plane(addr.plane_addr())?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        Ok(self.planes[idx]
            .block(addr.block)
            .map(|b| b.erase_count)
            .unwrap_or(0))
    }

    /// Program a page with user data and OOB metadata using `scheme`.
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
        self.geometry.check_page(addr)?;
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
        let pages_per_block = self.geometry.pages_per_block;
        let oob_size = self.geometry.oob_size_bytes;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let block = self.planes[idx].block_mut(addr.block, pages_per_block);
        let page = &mut block.pages[addr.page];
        if page.is_programmed() {
            return Err(NandError::PageAlreadyProgrammed(addr));
        }
        let mut stored_oob = vec![0u8; oob_size];
        stored_oob[..oob.len()].copy_from_slice(oob);
        page.data = Some(data.to_vec());
        page.oob = Some(stored_oob);
        page.scheme = Some(scheme);

        self.stats.page_programs += 1;
        self.stats.bytes_from_controller += (data.len() + oob.len()) as u64;
        let transfer = self.timing.channel_transfer(data.len() + oob.len());
        Ok(transfer + self.timing.program_latency(scheme) + self.timing.t_command_overhead)
    }

    /// Sense a page into its plane's sensing latch without transferring it to
    /// the controller, injecting the read's bit errors there. This is the
    /// read half of REIS's in-plane distance computation.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page holds no data, or
    /// [`NandError::AddressOutOfRange`] for an invalid address.
    pub fn sense_page(&mut self, addr: PageAddr) -> Result<Nanos> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        // Split-borrow the plane so the stored page (immutable) can be copied
        // into the plane's buffer (mutable) without cloning it first: a scan
        // re-senses thousands of pages into the same latch buffers.
        let Plane { buffer, blocks } = &mut self.planes[idx];
        let (data, oob, scheme) = programmed_page(blocks, addr)?;
        let latch = buffer.load_sensing_copy(data, oob);
        let bit_errors =
            self.reliability
                .inject_read_errors(latch, scheme, &mut self.rng, &mut self.flips.0);
        Ok(count_sense(
            &mut self.stats,
            &self.timing,
            scheme,
            bit_errors,
        ))
    }

    /// Read a page all the way to the controller without copying it: draw
    /// the read's bit errors, count and time the sense and the channel
    /// transfer of user data and OOB bytes exactly as a sense into the latch
    /// followed by a transfer would, and lend out the stored page next to
    /// the list of bits this read got wrong. Every other page read to the
    /// controller is a copy of this one.
    ///
    /// Nothing is copied and the plane's page buffer is left as it was: the
    /// errors of a read must not land in the array, and a list of positions
    /// keeps them out of it as well as a latch full of flipped bytes does.
    /// Whoever needs the errored bytes materialises them
    /// ([`PageView::sensed_into`]); the in-plane operations, which compute
    /// on the latch, go through [`FlashDevice::sense_page`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense_page`].
    pub fn read_page_view(&mut self, addr: PageAddr) -> Result<PageView<'_>> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let (stored, oob, scheme) = programmed_page(&self.planes[idx].blocks, addr)?;
        let page_size = self.geometry.page_size_bytes;
        self.reliability
            .draw_read_errors(page_size, scheme, &mut self.rng, &mut self.flips.0);
        let bit_errors = self.flips.0.len();
        let sense_latency = count_sense(&mut self.stats, &self.timing, scheme, bit_errors);
        let bytes = page_size + oob.len();
        self.stats.bytes_to_controller += bytes as u64;
        Ok(PageView {
            stored,
            oob,
            flips: &self.flips.0,
            page_size,
            meta: PageReadMeta {
                scheme,
                bit_errors,
                latency: sense_latency + self.timing.channel_transfer(bytes),
            },
        })
    }

    /// [`FlashDevice::read_page_view`] materialised into fresh buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense_page`].
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
    /// Same conditions as [`FlashDevice::sense_page`].
    pub fn read_page_into(
        &mut self,
        addr: PageAddr,
        data: &mut Vec<u8>,
        oob: &mut Vec<u8>,
    ) -> Result<PageReadMeta> {
        let view = self.read_page_view(addr)?;
        view.sensed_into(data);
        oob.clear();
        oob.extend_from_slice(view.oob);
        Ok(view.meta)
    }

    /// Read only the OOB bytes of a page to the controller.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense_page`].
    pub fn read_oob(&mut self, addr: PageAddr) -> Result<(Vec<u8>, Nanos)> {
        let sense_latency = self.sense_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let oob = self.planes[idx].buffer.oob().unwrap_or(&[]).to_vec();
        self.stats.bytes_to_controller += oob.len() as u64;
        let latency = sense_latency + self.timing.channel_transfer(oob.len());
        Ok((oob, latency))
    }

    /// Broadcast a query payload into the cache latches of every plane of one
    /// die (Input Broadcasting). With `multi_plane` set, all planes latch the
    /// payload simultaneously (MPIBC), paying the die-I/O transfer only once.
    ///
    /// # Errors
    ///
    /// * [`NandError::AddressOutOfRange`] for an invalid channel/die.
    /// * [`NandError::InvalidBroadcastPayload`] if the payload does not
    ///   evenly divide the page size.
    pub fn input_broadcast(
        &mut self,
        channel: usize,
        die: usize,
        payload: &[u8],
        multi_plane: bool,
    ) -> Result<Nanos> {
        self.geometry.check_plane(PlaneAddr::new(channel, die, 0))?;
        for plane in 0..self.geometry.planes_per_die {
            let idx = self
                .geometry
                .plane_index(PlaneAddr::new(channel, die, plane));
            self.planes[idx].buffer.broadcast_into_cache(payload)?;
        }
        self.stats.broadcast_ops += 1;
        self.stats.bytes_from_controller += if multi_plane {
            payload.len() as u64
        } else {
            (payload.len() * self.geometry.planes_per_die) as u64
        };
        Ok(self
            .timing
            .input_broadcast(payload.len(), self.geometry.planes_per_die, multi_plane))
    }

    /// XOR the cache latch (query copies) into the sensing latch (database
    /// embeddings) of one plane, storing the result in the data latch.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the plane has not both sensed a
    /// page and received a broadcast.
    pub fn xor_latches(&mut self, addr: PlaneAddr) -> Result<Nanos> {
        let idx = self.plane_index(addr)?;
        self.planes[idx].buffer.xor_cache_into_data()?;
        self.stats.xor_ops += 1;
        Ok(self.timing.t_latch_xor)
    }

    /// Run the fail-bit counter over the data latch of one plane, producing
    /// one set-bit count per `chunk_bytes` chunk (i.e. one Hamming distance
    /// per stored embedding).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the data latch is empty.
    pub fn count_fail_bits(
        &mut self,
        addr: PlaneAddr,
        chunk_bytes: usize,
    ) -> Result<(Vec<u32>, Nanos)> {
        let mut counts = Vec::new();
        let latency = self.count_fail_bits_into(addr, chunk_bytes, &mut counts)?;
        Ok((counts, latency))
    }

    /// Allocation-free variant of [`FlashDevice::count_fail_bits`]: the
    /// counts are written into `out` (cleared first), so a page-scan loop can
    /// reuse one buffer for every page.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the data latch is empty.
    pub fn count_fail_bits_into(
        &mut self,
        addr: PlaneAddr,
        chunk_bytes: usize,
        out: &mut Vec<u32>,
    ) -> Result<Nanos> {
        let idx = self.plane_index(addr)?;
        let data = self.planes[idx].buffer.read_latch(Latch::Data)?;
        FailBitCounter::count_per_chunk_into(data, chunk_bytes, out);
        self.stats.bit_count_ops += 1;
        Ok(self.timing.t_fail_bit_count)
    }

    /// Transfer `bytes` from a die to the controller over its channel,
    /// returning only the latency (the caller already holds the data, e.g.
    /// TTL entries assembled from latch contents).
    pub fn transfer_to_controller(&mut self, bytes: usize) -> Nanos {
        self.stats.bytes_to_controller += bytes as u64;
        self.timing.channel_transfer(bytes)
    }

    /// Borrow the stored contents of a page (user data, OOB bytes and the
    /// programming scheme) without copying, error injection, timing, or
    /// statistics. The user data is lent as programmed: the bytes
    /// [`FlashDevice::program_page`] was given, without the zeros that fill
    /// the rest of the page.
    ///
    /// This is the readout primitive of read-only scan shards
    /// (see [`crate::sharding`]): shard workers share the device immutably,
    /// compute distances in worker-owned latch scratch instead of the
    /// plane's page buffer, and account their flash activity in shard-local
    /// [`FlashStats`] that the controller absorbs
    /// afterwards. Because no error injection happens here, callers must
    /// only use it for schemes whose reads are error-free (ESP-SLC) if they
    /// need bit-identical results to the latch-based read path.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page holds no data, or
    /// [`NandError::AddressOutOfRange`] for an invalid address.
    pub fn stored_page(&self, addr: PageAddr) -> Result<(&[u8], &[u8], ProgramScheme)> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        programmed_page(&self.planes[idx].blocks, addr)
    }

    /// Whether reads of pages programmed with `scheme` are error-free on
    /// this device (no raw bit errors to inject). Scan sharding relies on
    /// this to guarantee that its read-only page accesses produce exactly
    /// the bytes a latch-based sense would.
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
        self.geometry.check_plane(addr.plane_addr())?;
        if addr.block >= self.geometry.blocks_per_plane {
            return Err(NandError::BlockOutOfRange(addr));
        }
        let idx = self.geometry.plane_index(addr.plane_addr());
        Ok(self.planes[idx]
            .block(addr.block)
            .map(|b| b.pages.iter().filter(|p| p.is_programmed()).count())
            .unwrap_or(0))
    }

    /// Read the raw XOR of two programmed pages, as the randomizer logic
    /// would produce it, without going through the latches. Primarily a
    /// verification aid for tests.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if either page is empty.
    pub fn xor_pages(&self, a: PageAddr, b: PageAddr) -> Result<Vec<u8>> {
        let read = |addr: PageAddr| -> Result<Vec<u8>> {
            let mut page = self.stored_page(addr)?.0.to_vec();
            page.resize(self.geometry.page_size_bytes, 0);
            Ok(page)
        };
        Ok(XorLogic::xor(&read(a)?, &read(b)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellMode;

    fn device() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), TimingParams::default())
    }

    fn page0() -> PageAddr {
        PageAddr::new(0, 0, 0, 0, 0)
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

        let query = vec![0u8; emb_bytes];
        dev.input_broadcast(0, 0, &query, true).unwrap();
        dev.sense_page(page0()).unwrap();
        dev.xor_latches(page0().plane_addr()).unwrap();
        let (counts, _) = dev
            .count_fail_bits(page0().plane_addr(), emb_bytes)
            .unwrap();
        assert_eq!(counts.len(), 4096 / emb_bytes);
        // Against an all-zero query the Hamming distance of embedding i is
        // popcount(i) * emb_bytes.
        for (i, &count) in counts.iter().enumerate() {
            let expected = (i as u8).count_ones() * emb_bytes as u32;
            assert_eq!(count, expected, "embedding {i}");
        }
    }

    #[test]
    fn broadcast_reaches_all_planes_of_a_die() {
        let mut dev = device();
        dev.input_broadcast(1, 1, &[0xEE; 64], false).unwrap();
        for plane in 0..Geometry::tiny().planes_per_die {
            let buf = dev.page_buffer(PlaneAddr::new(1, 1, plane)).unwrap();
            let cache = buf.read_latch(Latch::Cache).unwrap();
            assert!(cache.iter().all(|&b| b == 0xEE));
        }
    }

    #[test]
    fn mpibc_is_cheaper_but_functionally_identical() {
        let mut with = device();
        let mut without = device();
        let t_with = with.input_broadcast(0, 0, &[1u8; 128], true).unwrap();
        let t_without = without.input_broadcast(0, 0, &[1u8; 128], false).unwrap();
        assert!(t_with < t_without);
        for plane in 0..Geometry::tiny().planes_per_die {
            let a = with
                .page_buffer(PlaneAddr::new(0, 0, plane))
                .unwrap()
                .read_latch(Latch::Cache)
                .unwrap()
                .to_vec();
            let b = without
                .page_buffer(PlaneAddr::new(0, 0, plane))
                .unwrap()
                .read_latch(Latch::Cache)
                .unwrap()
                .to_vec();
            assert_eq!(a, b);
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
        let mut dev = FlashDevice::with_reliability(
            Geometry::tiny(),
            TimingParams::default(),
            ReliabilityModel { ber_scale: 1e3 },
            7,
        );
        // Three pages of one plane: the in-plane operand, and two pages the
        // controller reads — one with raw errors, one programmed short.
        let esp_addr = page0();
        let tlc_addr = PageAddr::new(0, 0, 0, 0, 1);
        let short_addr = PageAddr::new(0, 0, 0, 0, 2);
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
        dev.input_broadcast(0, 0, &[0xFF; 64], true).unwrap();
        dev.sense_page(esp_addr).unwrap();
        dev.xor_latches(esp_addr.plane_addr()).unwrap();
        let buffer = dev.page_buffer(esp_addr.plane_addr()).unwrap().clone();
        let mut twin = dev.clone();

        let view = dev.read_page_view(tlc_addr).unwrap();
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

        assert_eq!(dev.page_buffer(esp_addr.plane_addr()).unwrap(), &buffer);
        assert_eq!(dev.stored_page(tlc_addr).unwrap().0, &[0xA5; 4096][..]);
        // The in-plane flow goes on from where it was.
        let (counts, _) = dev.count_fail_bits(esp_addr.plane_addr(), 64).unwrap();
        assert!(counts.iter().all(|&c| c == 64 * 4));

        // The list of flips is scratch, not state: a twin that served the
        // same reads in the other order — its last read had none — is the
        // same device.
        twin.read_page(short_addr).unwrap();
        assert_eq!(twin.read_page(tlc_addr).unwrap().data, sensed);
        twin.count_fail_bits(esp_addr.plane_addr(), 64).unwrap();
        assert_ne!(twin.flips.0, dev.flips.0);
        assert!(twin == dev);
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
        dev.read_oob(page0()).unwrap();
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

    #[test]
    fn xor_pages_matches_manual_xor() {
        let mut dev = device();
        let a_addr = PageAddr::new(0, 0, 0, 0, 0);
        let b_addr = PageAddr::new(0, 0, 0, 0, 1);
        let a = vec![0b1111_0000u8; 4096];
        let b = vec![0b1010_1010u8; 4096];
        dev.program_page(a_addr, &a, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.program_page(b_addr, &b, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        let x = dev.xor_pages(a_addr, b_addr).unwrap();
        assert!(x.iter().all(|&v| v == 0b0101_1010));
    }
}
