//! Property-based tests for the NAND flash device simulator.

use proptest::prelude::*;
use reis_nand::array::FlashDevice;
use reis_nand::cell::{CellMode, ProgramScheme};
use reis_nand::geometry::{Geometry, PageAddr};
use reis_nand::oob::{OobEntry, OobLayout};
use reis_nand::peripheral::{FusedHit, PassFailChecker};
use reis_nand::reliability::ReliabilityModel;
use reis_nand::timing::{Nanos, TimingParams};

proptest! {
    /// Programming a page and reading it back through the ESP-SLC path must
    /// return exactly the programmed bytes (zero-BER guarantee).
    #[test]
    fn esp_program_read_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..4096)) {
        let mut dev = FlashDevice::new(Geometry::tiny(), TimingParams::default());
        let addr = PageAddr::new(0, 0, 0, 0, 0);
        dev.program_page(addr, &data, &[], ProgramScheme::EnhancedSlc).unwrap();
        let readout = dev.read_page(addr).unwrap();
        prop_assert_eq!(&readout.data[..data.len()], &data[..]);
        prop_assert_eq!(readout.bit_errors, 0);
        // Unwritten tail of the page reads back as zeroes.
        prop_assert!(readout.data[data.len()..].iter().all(|&b| b == 0));
    }

    /// The in-plane flow — sense, then XOR + fail-bit count in the
    /// peripheral — must compute the same Hamming distances as a software
    /// popcount over the XOR of query and embeddings.
    #[test]
    fn in_plane_distance_matches_software_hamming(
        seed_bytes in proptest::collection::vec(any::<u8>(), 32),
        query in proptest::collection::vec(any::<u8>(), 32),
    ) {
        let geometry = Geometry::tiny();
        let mut dev = FlashDevice::new(geometry, TimingParams::default());
        let addr = PageAddr::new(1, 0, 1, 0, 0);
        let emb_bytes = 32usize;
        let n_embeddings = 4096 / emb_bytes;
        // Derive each embedding from the seed bytes by rotation so embeddings differ.
        let mut page = Vec::with_capacity(4096);
        let mut expected = Vec::with_capacity(n_embeddings);
        for i in 0..n_embeddings {
            let emb: Vec<u8> = (0..emb_bytes)
                .map(|j| seed_bytes[(i + j) % emb_bytes].rotate_left((i % 8) as u32))
                .collect();
            let dist: u32 = emb
                .iter()
                .zip(query.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            expected.push(dist);
            page.extend_from_slice(&emb);
        }
        dev.program_page(addr, &page, &[], ProgramScheme::EnhancedSlc).unwrap();
        let mut sensed = Vec::new();
        dev.sense(geometry.stripe_index(addr)).unwrap().sensed_into(&mut sensed);
        let mut hits = Vec::new();
        PassFailChecker::filter_fused(
            &sensed, emb_bytes, n_embeddings, &[&query], &[u32::MAX], &mut hits,
        );
        let counts: Vec<u32> = hits.iter().map(|hit| hit.distance).collect();
        prop_assert_eq!(counts, expected);
    }

    /// The device keeps a page as programmed, without its zero padding, and
    /// a read lends it with the list of bits the read got wrong. A page
    /// programmed with `len` bytes must nevertheless read exactly like (a) a
    /// twin programmed with the same bytes padded to the page size and (b)
    /// a twin that senses the page and moves the sensed bytes over the
    /// channel: the same page-sized bytes with a zero tail, error injection
    /// drawn over the whole page, the same bytes to the controller, the same
    /// latency, the same counters — and the error stream at the same
    /// position after every read. (The padded twin's own record of the page
    /// differs by construction and its program moved more bytes from the
    /// controller, so the counters are reset after programming and the
    /// devices are compared through everything a read can observe or move.)
    #[test]
    fn short_program_reads_like_its_padded_twin(
        data in proptest::collection::vec(any::<u8>(), 1..4097),
        tlc in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let geometry = Geometry::tiny();
        let page_size = geometry.page_size_bytes;
        // A BER scaled until a TLC read of the tiny page takes raw errors.
        let device = || FlashDevice::with_reliability(
            geometry,
            TimingParams::default(),
            ReliabilityModel { ber_scale: 1e3 },
            seed,
        );
        let (mut short, mut padded, mut sensed) = (device(), device(), device());
        let scheme = if tlc {
            ProgramScheme::Ispp(CellMode::Tlc)
        } else {
            ProgramScheme::EnhancedSlc
        };
        let addr = PageAddr::new(1, 0, 1, 2, 3);
        let stripe = geometry.stripe_index(addr);
        let mut full = data.clone();
        full.resize(page_size, 0);
        short.program_page(addr, &data, &[0xAB, 0xCD], scheme).unwrap();
        padded.program_page(addr, &full, &[0xAB, 0xCD], scheme).unwrap();
        sensed.program_page(addr, &data, &[0xAB, 0xCD], scheme).unwrap();
        for device in [&mut short, &mut padded, &mut sensed] {
            device.reset_stats();
        }

        // Shard readers are lent the bytes that were programmed.
        prop_assert_eq!(short.stored_page(stripe).unwrap().0, &data[..]);
        prop_assert_eq!(padded.stored_page(stripe).unwrap().0, &full[..]);

        let transfer = page_size + geometry.oob_size_bytes;
        let (mut sensed_a, mut sensed_b) = (Vec::new(), Vec::new());
        let mut errors = 0;
        for reads in 1..=4 {
            let a = short.read_page_view(stripe).unwrap();
            let b = padded.read_page_view(stripe).unwrap();
            prop_assert_eq!(a.stored, &data[..]);
            prop_assert_eq!((a.flips, a.page_size), (b.flips, b.page_size));
            prop_assert_eq!(a.flips.len(), a.meta.bit_errors);
            a.sensed_into(&mut sensed_a);
            b.sensed_into(&mut sensed_b);
            prop_assert_eq!(&sensed_a, &sensed_b);
            // Every flipped bit is a listed one, and a bit listed twice
            // flipped back.
            let flipped: u32 = sensed_a.iter().zip(&full).map(|(x, y)| (x ^ y).count_ones()).sum();
            prop_assert!(flipped as usize <= a.meta.bit_errors);
            prop_assert_eq!(flipped as usize % 2, a.meta.bit_errors % 2);

            // The twin that senses, then moves the sensed page itself.
            let c = sensed.sense(stripe).unwrap();
            let latency = c.meta.latency + TimingParams::default().channel_transfer(transfer);
            c.sensed_into(&mut sensed_b);
            prop_assert_eq!(&sensed_b, &sensed_a);
            prop_assert_eq!(c.oob, a.oob);
            prop_assert_eq!(a.oob, b.oob);
            prop_assert_eq!(a.meta, b.meta);
            prop_assert_eq!(a.meta.latency, latency);
            errors += a.meta.bit_errors;
            prop_assert_eq!(short.stats(), padded.stats());
            let mut moved = *sensed.stats();
            moved.bytes_to_controller += (reads * transfer) as u64;
            prop_assert_eq!(short.stats(), &moved);
            // The array keeps the page as programmed.
            prop_assert_eq!(short.stored_page(stripe).unwrap().0, &data[..]);
        }
        prop_assert_eq!(errors > 0, tlc, "only the TLC reads inject errors");
        prop_assert_eq!(short.stats().bytes_to_controller, 4 * transfer as u64);
        // The error streams are at the same position: the next reads agree
        // too, whichever way they go, and the in-plane path senses the same
        // bytes.
        let (mut oob_a, mut oob_b) = (Vec::new(), Vec::new());
        sensed.read_page_into(addr, &mut sensed_a, &mut oob_a).unwrap();
        for device in [&mut short, &mut padded] {
            let c = device.sense(stripe).unwrap();
            c.sensed_into(&mut sensed_b);
            oob_b.clear();
            oob_b.extend_from_slice(c.oob);
            prop_assert_eq!((&sensed_b, &oob_b), (&sensed_a, &oob_a));
        }
        prop_assert_eq!(short.read_page(addr).unwrap(), padded.read_page(addr).unwrap());
    }

    /// The fail-bit counts per chunk — the distances to an all-zero query,
    /// every one passing a threshold of `u32::MAX` — sum to the total count.
    #[test]
    fn chunk_counts_sum_to_total(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        chunk in 1usize..256,
    ) {
        let zeros = vec![0u8; chunk];
        let slots = data.len().div_ceil(chunk);
        let mut hits = Vec::new();
        PassFailChecker::filter_fused(&data, chunk, slots, &[&zeros], &[u32::MAX], &mut hits);
        prop_assert_eq!(hits.len(), slots);
        let total: u64 = hits.iter().map(|hit| u64::from(hit.distance)).sum();
        prop_assert_eq!(total, reis_kernels::popcount_bytes(&data));
    }

    /// Pass/fail filtering never passes an entry above the threshold and
    /// never drops one at or below it.
    #[test]
    fn pass_fail_is_exact_threshold_partition(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        query in proptest::collection::vec(any::<u8>(), 1..64),
        threshold in 0u32..520,
    ) {
        let chunk = query.len();
        let slots = data.len().div_ceil(chunk);
        let mut hits = Vec::new();
        PassFailChecker::filter_fused(&data, chunk, slots, &[&query], &[threshold], &mut hits);
        let passing: Vec<(u32, u32)> = data
            .chunks(chunk)
            .map(|c| c.iter().zip(&query).map(|(a, b)| (a ^ b).count_ones()).sum::<u32>())
            .enumerate()
            .filter(|&(_, distance)| distance <= threshold)
            .map(|(slot, distance)| (slot as u32, distance))
            .collect();
        let hits: Vec<(u32, u32)> = hits.iter().map(|hit| (hit.slot, hit.distance)).collect();
        prop_assert_eq!(hits, passing);
    }

    /// The in-plane kernel, filling a reused hit buffer, matches the
    /// byte-wise reference for arbitrary lengths (including odd tails) and
    /// chunk sizes: against an all-zero query at a threshold of `u32::MAX`,
    /// every chunk passes with its set-bit count as its distance.
    #[test]
    fn word_kernels_and_into_variants_match_reference(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        chunk in 1usize..200,
    ) {
        let reference: Vec<(u32, u32)> = data
            .chunks(chunk)
            .map(|c| c.iter().map(|b| b.count_ones()).sum())
            .enumerate()
            .map(|(slot, count)| (slot as u32, count))
            .collect();
        let zeros = vec![0u8; chunk];
        let stale = FusedHit { query: 9, slot: 9, distance: 9 };
        let mut reused = vec![stale; 3];
        PassFailChecker::filter_fused(&data, chunk, usize::MAX, &[&zeros], &[u32::MAX], &mut reused);
        let got: Vec<(u32, u32)> = reused.iter().map(|hit| (hit.slot, hit.distance)).collect();
        prop_assert_eq!(got, reference);
    }

    /// OOB entry packing and unpacking round-trips arbitrary linkage data.
    #[test]
    fn oob_layout_roundtrip(
        entries in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u8>()).prop_map(|(dadr, radr, tag)| OobEntry { dadr, radr, tag }),
            1..64,
        )
    ) {
        let layout = OobLayout::new(2208, entries.len()).unwrap();
        let packed = layout.pack(&entries).unwrap();
        let unpacked = layout.unpack(&packed).unwrap();
        prop_assert_eq!(unpacked, entries);
    }

    /// Page addresses survive a round trip through their stripe position
    /// on the test geometry and both reference geometries.
    #[test]
    fn page_index_roundtrip_reference_geometries(
        channel in 0usize..16,
        die in 0usize..16,
        plane in 0usize..4,
        block in 0usize..64,
        page in 0usize..256,
    ) {
        for geom in [Geometry::tiny(), Geometry::reis_ssd1(), Geometry::reis_ssd2()] {
            let addr = PageAddr::new(
                channel % geom.channels,
                die % geom.dies_per_channel,
                plane % geom.planes_per_die,
                block % geom.blocks_per_plane,
                page % geom.pages_per_block,
            );
            let stripe = geom.stripe_index(addr);
            prop_assert!(stripe < geom.total_pages());
            prop_assert_eq!(geom.stripe_addr(stripe).unwrap(), addr);
        }
    }

    /// Simulated durations compose sensibly: a sum of parts is never shorter
    /// than its longest part (saturating arithmetic, no overflow wrap).
    #[test]
    fn nanos_sum_bounds(parts in proptest::collection::vec(0u64..1_000_000_000_000, 1..20)) {
        let durations: Vec<Nanos> = parts.iter().copied().map(Nanos::from_nanos).collect();
        let total: Nanos = durations.iter().copied().sum();
        let max = durations.iter().copied().fold(Nanos::ZERO, Nanos::max);
        prop_assert!(total >= max);
    }
}
