//! The hand-rolled binary wire format.
//!
//! Everything durable — snapshot sections and WAL record payloads — is
//! encoded through [`ByteWriter`] and decoded through [`ByteReader`]:
//! little-endian fixed-width integers, `f32` as its IEEE-754 bit pattern,
//! and variable-length byte strings with a `u32` length prefix. No
//! reflection, no derive magic, no silent format drift: the bytes on
//! storage are exactly the calls made here, which is what lets the golden
//! fixture test pin the format.

use crate::error::{PersistError, Result};

/// Append-only encoder of the wire format.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer that encodes into `buf`, cleared first: its capacity is
    /// reused, so an encoder called once per record allocates only when a
    /// record outgrows every earlier one.
    pub fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes with no framing (the caller's layout fixes the
    /// length).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }

    /// Append a `u32` count followed by each value (little-endian).
    pub fn put_u32_slice(&mut self, values: &[u32]) {
        self.put_u32(values.len() as u32);
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Append a `u32` count followed by each `f32` bit pattern: the values
    /// are written as one run into a region sized for all of them.
    pub fn put_f32_slice(&mut self, values: &[f32]) {
        self.put_u32(values.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + 4 * values.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(4).zip(values) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Cursor-based decoder of the wire format. Every accessor bounds-checks
/// and returns [`PersistError::Malformed`] instead of panicking — corrupt
/// bytes must never take the process down.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader consumed everything.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Malformed(format!(
                "need {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a `u32`-counted slice of `u32` values.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>> {
        let count = self.get_u32()? as usize;
        let bytes = self.take(count.checked_mul(4).ok_or_else(|| {
            PersistError::Malformed(format!("u32 slice count {count} overflows"))
        })?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Read a `u32`-counted slice of `f32` values.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        Ok(self
            .get_u32_vec()?
            .into_iter()
            .map(f32::from_bits)
            .collect())
    }

    /// Fail unless the reader consumed every byte — decoding must account
    /// for the whole payload, or the format drifted.
    pub fn expect_end(&self) -> Result<()> {
        if !self.is_empty() {
            return Err(PersistError::Malformed(format!(
                "{} trailing bytes after a complete decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_u32((-0.0f32).to_bits());
        w.put_u32(f32::NAN.to_bits());
        w.put_bytes(b"chunk");
        w.put_u32_slice(&[1, u32::MAX]);
        w.put_f32_slice(&[1.5, -2.25e-8]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_u32().unwrap(), (-0.0f32).to_bits());
        assert!(f32::from_bits(r.get_u32().unwrap()).is_nan());
        assert_eq!(r.get_bytes().unwrap(), b"chunk");
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, u32::MAX]);
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.5, -2.25e-8]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();
        // Cut into the payload: the length prefix promises more than exists.
        let mut r = ByteReader::new(&bytes[..6]);
        assert!(matches!(r.get_bytes(), Err(PersistError::Malformed(_))));
        // A bogus huge count must not allocate or wrap.
        let mut huge = ByteWriter::new();
        huge.put_u32(u32::MAX);
        let huge = huge.into_bytes();
        assert!(matches!(
            ByteReader::new(&huge).get_u32_vec(),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(r.expect_end().is_err());
        r.get_u8().unwrap();
        r.expect_end().unwrap();
    }
}
