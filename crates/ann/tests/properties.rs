//! Property-based tests of the ANNS algorithm library.

use proptest::prelude::*;
use reis_ann::distance::{cosine_distance, inner_product, squared_l2};
use reis_ann::quantize::{BinaryQuantizer, Int8Quantizer};
use reis_ann::topk::{select_k_nearest, Neighbor};
use reis_ann::vector::BinaryVector;
use reis_ann::{FlatIndex, Metric};

fn vector_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, dim)
}

proptest! {
    /// Squared L2 distance is symmetric, non-negative and zero iff identical.
    #[test]
    fn squared_l2_is_a_premetric(a in vector_strategy(16), b in vector_strategy(16)) {
        let d_ab = squared_l2(&a, &b);
        let d_ba = squared_l2(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-3);
        prop_assert!(d_ab >= 0.0);
        prop_assert!(squared_l2(&a, &a) == 0.0);
    }

    /// Cosine distance lies in [0, 2] and inner product is bilinear in sign.
    #[test]
    fn cosine_distance_is_bounded(a in vector_strategy(12), b in vector_strategy(12)) {
        let d = cosine_distance(&a, &b);
        prop_assert!((-1e-4..=2.0001).contains(&d));
        let neg: Vec<f32> = b.iter().map(|x| -x).collect();
        prop_assert!((inner_product(&a, &b) + inner_product(&a, &neg)).abs() < 1e-2);
    }

    /// Hamming distance between binary quantizations never exceeds the
    /// dimensionality and is zero for identical inputs.
    #[test]
    fn binary_quantization_hamming_bounds(a in vector_strategy(64), b in vector_strategy(64)) {
        let q = BinaryQuantizer::zero_threshold(64);
        let qa = q.quantize(&a).unwrap();
        let qb = q.quantize(&b).unwrap();
        prop_assert!(qa.hamming_distance(&qb) <= 64);
        prop_assert_eq!(qa.hamming_distance(&qa), 0);
    }

    /// INT8 quantization followed by dequantization stays within one
    /// quantization step per dimension.
    #[test]
    fn int8_reconstruction_error_is_bounded(data in proptest::collection::vec(vector_strategy(8), 4..20)) {
        let q = Int8Quantizer::fit(&data).unwrap();
        for v in &data {
            let rec = q.dequantize(&q.quantize(v).unwrap());
            for (x, r) in v.iter().zip(rec.iter()) {
                // One step = max deviation / 127; allow a 1.5-step slack for rounding.
                prop_assert!((x - r).abs() <= 20.0 / 127.0 * 1.5 + 1e-3);
            }
        }
    }

    /// Flat search always returns results sorted by distance, never returns
    /// more than k results, and the nearest result is at least as close as
    /// every other database vector.
    #[test]
    fn flat_search_invariants(
        data in proptest::collection::vec(vector_strategy(6), 2..40),
        k in 1usize..10,
    ) {
        let index = FlatIndex::new(data.clone(), Metric::SquaredL2).unwrap();
        let query = data[0].clone();
        let hits = index.search(&query, k).unwrap();
        prop_assert!(hits.len() <= k);
        prop_assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        let best = hits[0].distance;
        for v in &data {
            prop_assert!(best <= squared_l2(&query, v) + 1e-4);
        }
    }

    /// select_k_nearest agrees with a full sort for arbitrary candidate sets.
    #[test]
    fn quickselect_matches_full_sort(
        distances in proptest::collection::vec(0.0f32..1e6, 1..200),
        k in 1usize..20,
    ) {
        let candidates: Vec<Neighbor> =
            distances.iter().enumerate().map(|(i, &d)| Neighbor::new(i, d)).collect();
        let got = select_k_nearest(&candidates, k);
        let mut sorted = candidates.clone();
        sorted.sort();
        sorted.truncate(k.min(candidates.len()));
        prop_assert_eq!(got, sorted);
    }

    /// Packed binary vectors round-trip through bytes.
    #[test]
    fn binary_vector_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..256)) {
        let v = BinaryVector::from_bits(&bits);
        let restored = BinaryVector::from_packed(bits.len(), v.as_bytes().to_vec());
        prop_assert_eq!(v, restored);
    }

    /// The binary quantizer packs its comparisons straight into bytes; the
    /// result is the vector `from_bits` builds from the same comparisons,
    /// for every tail length — values equal to their threshold and NaNs
    /// (both quantize to 0) included.
    #[test]
    fn binary_quantizer_packs_what_from_bits_packs(
        values in proptest::collection::vec((-2i8..3, -2i8..3, any::<bool>()), 1..258),
    ) {
        let thresholds: Vec<f32> = values.iter().map(|&(_, t, _)| f32::from(t) / 2.0).collect();
        let vector: Vec<f32> = values
            .iter()
            .map(|&(v, _, nan)| if nan && v == 2 { f32::NAN } else { f32::from(v) / 2.0 })
            .collect();
        let bits: Vec<bool> = vector.iter().zip(&thresholds).map(|(v, t)| v > t).collect();
        let quantized = BinaryQuantizer::from_thresholds(thresholds).quantize(&vector).unwrap();
        prop_assert_eq!(quantized, BinaryVector::from_bits(&bits));
    }

    /// The u64-word hamming/popcount kernels match the bit-by-bit reference
    /// for every dimensionality 1..=256, odd tails included.
    #[test]
    fn word_kernels_match_bitwise_reference_for_all_dims(seed in any::<u64>()) {
        // Cheap deterministic bit stream derived from the seed so each case
        // exercises different contents at every dimensionality.
        let mut state = seed;
        let mut next_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 63) == 1
        };
        for dim in 1usize..=256 {
            let bits_a: Vec<bool> = (0..dim).map(|_| next_bit()).collect();
            let bits_b: Vec<bool> = (0..dim).map(|_| next_bit()).collect();
            let a = BinaryVector::from_bits(&bits_a);
            let b = BinaryVector::from_bits(&bits_b);
            let ref_ones = bits_a.iter().filter(|&&x| x).count() as u32;
            let ref_dist = bits_a.iter().zip(&bits_b).filter(|(x, y)| x != y).count() as u32;
            prop_assert_eq!(a.count_ones(), ref_ones, "count_ones at dim {}", dim);
            prop_assert_eq!(a.hamming_distance(&b), ref_dist, "hamming at dim {}", dim);
            prop_assert_eq!(a.hamming_distance(&a), 0, "self distance at dim {}", dim);
        }
    }
}
