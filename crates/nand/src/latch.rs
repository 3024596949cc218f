//! Per-plane page buffer and its latches.
//!
//! Every plane owns a page buffer made of several latches (Sec. 2.3 of the
//! paper): the *sensing latch* receives data sensed from the flash array
//! during a read, the *cache latch* allows the next read to overlap with
//! transferring the previous page out, and one or more *data latches* are
//! used when programming multi-bit cells or, in REIS, to hold the result of
//! the in-plane XOR between the query embedding and the database embeddings.

use serde::{Deserialize, Serialize};

use crate::error::{NandError, Result};
use crate::geometry::PlaneAddr;
use crate::peripheral::xor_bytes_into;

/// Identifies one of the latches inside a page buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Latch {
    /// The sensing latch, filled by a page read.
    Sensing,
    /// The data latch, used for programming and as the XOR destination.
    Data,
    /// The cache latch, used for read-page-cache mode and for holding the
    /// broadcast query embedding.
    Cache,
}

impl Latch {
    fn name(&self) -> &'static str {
        match self {
            Latch::Sensing => "sensing",
            Latch::Data => "data",
            Latch::Cache => "cache",
        }
    }
}

/// The page buffer of one plane: sensing, data and cache latches plus the
/// out-of-band bytes of the most recently sensed page.
///
/// # Examples
///
/// ```
/// use reis_nand::latch::{Latch, PageBuffer};
/// use reis_nand::geometry::PlaneAddr;
///
/// let mut buf = PageBuffer::new(PlaneAddr::new(0, 0, 0), 4096);
/// buf.broadcast_into_cache(&[0xAB; 128]).unwrap();
/// buf.load_sensing_copy(&[0xCD; 4096], &[0; 64]);
/// buf.xor_cache_into_data().unwrap();
/// assert_eq!(buf.read_latch(Latch::Data).unwrap()[0], 0xAB ^ 0xCD);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageBuffer {
    plane: PlaneAddr,
    page_size: usize,
    sensing: Option<Vec<u8>>,
    data: Option<Vec<u8>>,
    cache: Option<Vec<u8>>,
    oob: Option<Vec<u8>>,
}

impl PageBuffer {
    /// Create an empty page buffer for the plane at `plane` with pages of
    /// `page_size` bytes.
    pub fn new(plane: PlaneAddr, page_size: usize) -> Self {
        PageBuffer {
            plane,
            page_size,
            sensing: None,
            data: None,
            cache: None,
            oob: None,
        }
    }

    /// Copy sensed page data (and its OOB bytes) into the sensing latch,
    /// reusing the latch's existing buffers, and return the latch so the
    /// device can inject the read's bit errors in place. This models the
    /// array-to-latch sensing step of a page read; any previous
    /// sensing-latch contents are overwritten. A multi-page scan re-senses
    /// into the same plane buffer without allocating per page.
    ///
    /// `data` is the programmed prefix of the page — at most a page — and
    /// the latch is zero-filled behind it: the latch always holds a full
    /// page, but a sense reads only what was written.
    pub fn load_sensing_copy(&mut self, data: &[u8], oob: &[u8]) -> &mut [u8] {
        debug_assert!(data.len() <= self.page_size);
        let oob_buf = self.oob.get_or_insert_with(Vec::new);
        oob_buf.clear();
        oob_buf.extend_from_slice(oob);
        let sensing = self.sensing.get_or_insert_with(Vec::new);
        sensing.clear();
        sensing.extend_from_slice(data);
        sensing.resize(self.page_size, 0);
        sensing
    }

    /// Contents of the sensing latch, if a page has been sensed.
    pub fn sensing(&self) -> Option<&[u8]> {
        self.sensing.as_deref()
    }

    /// OOB bytes of the most recently sensed page.
    pub fn oob(&self) -> Option<&[u8]> {
        self.oob.as_deref()
    }

    /// Fill the cache latch by repeating `payload` until the page size is
    /// reached (Input Broadcasting of the query embedding, Sec. 4.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::InvalidBroadcastPayload`] if the payload is empty
    /// or does not evenly divide the page size, since misaligned copies would
    /// not line up with the database embeddings for the subsequent XOR.
    pub fn broadcast_into_cache(&mut self, payload: &[u8]) -> Result<()> {
        if payload.is_empty() || !self.page_size.is_multiple_of(payload.len()) {
            return Err(NandError::InvalidBroadcastPayload {
                payload_len: payload.len(),
                page_size: self.page_size,
            });
        }
        let copies = self.page_size / payload.len();
        let mut cache = self.cache.take().unwrap_or_default();
        cache.clear();
        cache.reserve(self.page_size);
        for _ in 0..copies {
            cache.extend_from_slice(payload);
        }
        self.cache = Some(cache);
        Ok(())
    }

    /// XOR the cache latch into the sensing latch, storing the result in the
    /// data latch (REIS step 3: bitwise difference between the query and the
    /// database embeddings).
    ///
    /// The XOR runs over `u64` words and reuses the data latch's existing
    /// buffer, so repeated per-page XORs during a scan allocate nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if either source latch is empty.
    pub fn xor_cache_into_data(&mut self) -> Result<()> {
        let sensing = self.sensing.as_ref().ok_or(NandError::LatchEmpty {
            latch: Latch::Sensing.name(),
            plane: self.plane,
        })?;
        let cache = self.cache.as_ref().ok_or(NandError::LatchEmpty {
            latch: Latch::Cache.name(),
            plane: self.plane,
        })?;
        let mut out = self.data.take().unwrap_or_default();
        xor_bytes_into(sensing, cache, &mut out);
        self.data = Some(out);
        Ok(())
    }

    /// Read out the contents of a latch.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the latch holds no data.
    pub fn read_latch(&self, latch: Latch) -> Result<&[u8]> {
        let contents = match latch {
            Latch::Sensing => self.sensing.as_deref(),
            Latch::Data => self.data.as_deref(),
            Latch::Cache => self.cache.as_deref(),
        };
        contents.ok_or(NandError::LatchEmpty {
            latch: latch.name(),
            plane: self.plane,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer() -> PageBuffer {
        PageBuffer::new(PlaneAddr::new(1, 0, 1), 1024)
    }

    #[test]
    fn broadcast_fills_whole_page_with_copies() {
        let mut buf = buffer();
        let payload = [0x5A_u8; 128];
        buf.broadcast_into_cache(&payload).unwrap();
        let cache = buf.read_latch(Latch::Cache).unwrap();
        assert_eq!(cache.len(), 1024);
        assert!(cache.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn broadcast_rejects_misaligned_payload() {
        let mut buf = buffer();
        let err = buf.broadcast_into_cache(&[0u8; 100]).unwrap_err();
        assert!(matches!(
            err,
            NandError::InvalidBroadcastPayload {
                payload_len: 100,
                ..
            }
        ));
        let err = buf.broadcast_into_cache(&[]).unwrap_err();
        assert!(matches!(
            err,
            NandError::InvalidBroadcastPayload { payload_len: 0, .. }
        ));
    }

    #[test]
    fn xor_computes_bitwise_difference() {
        let mut buf = buffer();
        buf.broadcast_into_cache(&[0b1010_1010u8; 64]).unwrap();
        buf.load_sensing_copy(&[0b1100_1100u8; 1024], &[1, 2, 3]);
        buf.xor_cache_into_data().unwrap();
        let data = buf.read_latch(Latch::Data).unwrap();
        assert!(data.iter().all(|&b| b == 0b0110_0110));
        assert_eq!(buf.oob(), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn xor_requires_both_latches() {
        let mut buf = buffer();
        assert!(matches!(
            buf.xor_cache_into_data(),
            Err(NandError::LatchEmpty {
                latch: "sensing",
                ..
            })
        ));
        buf.load_sensing_copy(&[0; 1024], &[]);
        assert!(matches!(
            buf.xor_cache_into_data(),
            Err(NandError::LatchEmpty { latch: "cache", .. })
        ));
    }

    #[test]
    fn read_latch_reports_empty_latches() {
        let mut buf = buffer();
        assert!(buf.read_latch(Latch::Data).is_err());
        buf.load_sensing_copy(&[9; 1024], &[]);
        assert_eq!(buf.read_latch(Latch::Sensing).unwrap()[0], 9);
        assert!(buf.read_latch(Latch::Cache).is_err());
    }
}
