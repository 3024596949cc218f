//! Vector representations used throughout the retrieval stack.
//!
//! Text embeddings start life as high-dimensional `f32` vectors (768–8192
//! dimensions in the models the paper surveys). REIS stores two derived
//! representations: a *binary* vector (one bit per dimension, the form the
//! in-plane XOR/popcount engine consumes) and an *INT8* vector used by the
//! reranking kernel on the SSD's embedded cores.

use reis_kernels::squared_l2_i8;
use serde::{Deserialize, Serialize};

/// Hamming distance between two equally long packed bit vectors — the
/// workspace's single word-parallel kernel ([`reis_kernels::hamming_bytes`]),
/// re-exported where the vector types live.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub use reis_kernels::hamming_bytes;

/// Set-bit count of a packed bit vector, processed as `u64` words with a
/// byte-wise tail; uses the hardware POPCNT instruction when the CPU has it
/// (delegates to the workspace kernel crate, [`reis_kernels`]).
#[inline]
pub fn popcount(bytes: &[u8]) -> u32 {
    reis_kernels::popcount_bytes(bytes) as u32
}

/// A binary-quantized embedding: one bit per dimension, packed into bytes.
///
/// Bit `d` of the vector is stored in byte `d / 8`, bit position `d % 8`
/// (least-significant first), so a 1024-dimension embedding occupies exactly
/// 128 bytes — the mini-page granularity used by REIS.
///
/// # Examples
///
/// ```
/// use reis_ann::vector::BinaryVector;
///
/// let v = BinaryVector::from_bits(&[true, false, true, true]);
/// assert_eq!(v.dim(), 4);
/// assert_eq!(v.count_ones(), 3);
/// assert_eq!(v.as_bytes(), &[0b1101]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BinaryVector {
    dim: usize,
    bytes: Vec<u8>,
}

impl BinaryVector {
    /// Create a binary vector from individual bit values.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (d, &bit) in bits.iter().enumerate() {
            if bit {
                bytes[d / 8] |= 1 << (d % 8);
            }
        }
        BinaryVector {
            dim: bits.len(),
            bytes,
        }
    }

    /// Create a binary vector of `dim` dimensions from pre-packed bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short to hold `dim` bits.
    pub fn from_packed(dim: usize, bytes: Vec<u8>) -> Self {
        assert!(
            bytes.len() * 8 >= dim,
            "{} bytes cannot hold {dim} bits",
            bytes.len()
        );
        BinaryVector { dim, bytes }
    }

    /// Dimensionality (number of bits) of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed byte representation (length `ceil(dim / 8)`).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of set bits (word-parallel popcount).
    pub fn count_ones(&self) -> u32 {
        popcount(&self.bytes)
    }

    /// Hamming distance to another binary vector of the same dimensionality,
    /// computed over `u64` words (the software mirror of the in-plane
    /// XOR + fail-bit-count engine).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn hamming_distance(&self, other: &BinaryVector) -> u32 {
        assert_eq!(
            self.dim, other.dim,
            "hamming distance requires equal dimensionality"
        );
        hamming_bytes(&self.bytes, &other.bytes)
    }
}

/// An INT8 scalar-quantized embedding used for reranking.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Int8Vector {
    values: Vec<i8>,
}

impl Int8Vector {
    /// Create an INT8 vector from raw components.
    pub fn new(values: Vec<i8>) -> Self {
        Int8Vector { values }
    }

    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// The raw INT8 components.
    pub fn as_slice(&self) -> &[i8] {
        &self.values
    }

    /// Squared Euclidean distance to another INT8 vector, exact in `i64`
    /// ([`reis_kernels::squared_l2_i8`]).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn squared_l2(&self, other: &Int8Vector) -> i64 {
        squared_l2_i8(&self.values, &other.values)
    }

    /// Squared Euclidean distance to an INT8 embedding stored as raw bytes
    /// (each byte reinterpreted as `i8`), e.g. a slot borrowed directly from
    /// a flash page readout: the same kernel as [`Int8Vector::squared_l2`].
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` differs from the vector's dimensionality.
    pub fn squared_l2_raw(&self, raw: &[u8]) -> i64 {
        squared_l2_i8(&self.values, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bits_and_bit_access_agree() {
        let bits = vec![true, false, false, true, true, false, true, false, true];
        let v = BinaryVector::from_bits(&bits);
        assert_eq!(v.dim(), 9);
        // Bit `d` lives in byte `d / 8`, least-significant bit first.
        assert_eq!(v.as_bytes(), &[0b0101_1001, 0b0000_0001]);
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = BinaryVector::from_bits(&[true, true, false, false]);
        let b = BinaryVector::from_bits(&[true, false, true, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn hamming_distance_requires_same_dim() {
        let a = BinaryVector::from_bits(&[true; 8]);
        let b = BinaryVector::from_bits(&[true; 9]);
        a.hamming_distance(&b);
    }

    #[test]
    fn packed_roundtrip() {
        let v = BinaryVector::from_packed(16, vec![0xFF, 0x01]);
        assert_eq!(v.count_ones(), 9);
        assert_eq!(v.dim(), 16);
        assert_eq!(v.as_bytes(), &[0xFF, 0x01]);
    }

    #[test]
    fn int8_distances() {
        let a = Int8Vector::new(vec![1, -2, 3]);
        let b = Int8Vector::new(vec![-1, 2, 3]);
        assert_eq!(a.squared_l2(&b), (4 + 16));
    }

    #[test]
    fn squared_l2_raw_matches_vector_distance_for_all_tail_lengths() {
        for dim in 1..=67usize {
            let a = Int8Vector::new(
                (0..dim)
                    .map(|i| ((i * 37) as i64 % 255 - 127) as i8)
                    .collect(),
            );
            let b_vals: Vec<i8> = (0..dim)
                .map(|i| ((i * 91 + 13) as i64 % 255 - 127) as i8)
                .collect();
            let raw: Vec<u8> = b_vals.iter().map(|&v| v as u8).collect();
            let b = Int8Vector::new(b_vals);
            assert_eq!(a.squared_l2_raw(&raw), a.squared_l2(&b), "dim {dim}");
        }
    }

    #[test]
    fn word_kernels_match_bitwise_reference_for_odd_dims() {
        for dim in [1usize, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256] {
            let bits_a: Vec<bool> = (0..dim).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let bits_b: Vec<bool> = (0..dim).map(|i| (i * 11 + 1) % 3 == 0).collect();
            let a = BinaryVector::from_bits(&bits_a);
            let b = BinaryVector::from_bits(&bits_b);
            let expected_ones = bits_a.iter().filter(|&&x| x).count() as u32;
            let expected_dist = bits_a.iter().zip(&bits_b).filter(|(x, y)| x != y).count() as u32;
            assert_eq!(a.count_ones(), expected_ones, "dim {dim}");
            assert_eq!(a.hamming_distance(&b), expected_dist, "dim {dim}");
        }
    }

    #[test]
    fn int8_distance_handles_extreme_values_without_overflow() {
        let a = Int8Vector::new(vec![i8::MIN; 8192]);
        let b = Int8Vector::new(vec![i8::MAX; 8192]);
        let d = a.squared_l2(&b);
        assert_eq!(d, 8192i64 * 255 * 255);
    }

    #[test]
    fn one_kibibyte_dimension_embedding_is_a_mini_page() {
        // A 1024-d binary embedding is 128 bytes: 128 of them fill a 16 KB page.
        let embedding = BinaryVector::from_bits(&[true; 1024]);
        assert_eq!(16 * 1024 / embedding.as_bytes().len(), 128);
    }
}
