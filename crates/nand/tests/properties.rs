//! Property-based tests for the NAND flash device simulator.

use proptest::prelude::*;
use reis_nand::array::FlashDevice;
use reis_nand::cell::{CellMode, ProgramScheme};
use reis_nand::geometry::{Geometry, PageAddr};
use reis_nand::oob::{OobEntry, OobLayout};
use reis_nand::peripheral::{FailBitCounter, PassFailChecker, XorLogic};
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

    /// The in-plane XOR + fail-bit-counter flow must compute the same Hamming
    /// distances as a software popcount over the XOR of query and embeddings.
    #[test]
    fn in_plane_distance_matches_software_hamming(
        seed_bytes in proptest::collection::vec(any::<u8>(), 32),
        query in proptest::collection::vec(any::<u8>(), 32),
    ) {
        let mut dev = FlashDevice::new(Geometry::tiny(), TimingParams::default());
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
        dev.input_broadcast(addr.channel, addr.die, &query, true).unwrap();
        dev.sense_page(addr).unwrap();
        dev.xor_latches(addr.plane_addr()).unwrap();
        let (counts, _) = dev.count_fail_bits(addr.plane_addr(), emb_bytes).unwrap();
        prop_assert_eq!(counts, expected);
    }

    /// The device keeps a page as programmed, without its zero padding, and
    /// a controller read lends it with the list of bits the read got wrong
    /// instead of filling the plane's latch. A page programmed with `len`
    /// bytes must nevertheless read exactly like (a) a twin programmed with
    /// the same bytes padded to the page size and (b) a twin that senses the
    /// page into its latch and moves the latch over the channel: the same
    /// page-sized bytes with a zero tail, error injection drawn over the
    /// whole page, the same bytes to the controller, the same latency, the
    /// same counters — and the error stream at the same position after every
    /// read. (The padded twin's own record of the page differs by
    /// construction and its program moved more bytes from the controller,
    /// so the counters are reset after programming and the devices are
    /// compared through everything a read can observe or move.)
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
        let (mut short, mut padded, mut latched) = (device(), device(), device());
        let scheme = if tlc {
            ProgramScheme::Ispp(CellMode::Tlc)
        } else {
            ProgramScheme::EnhancedSlc
        };
        let addr = PageAddr::new(1, 0, 1, 2, 3);
        let mut full = data.clone();
        full.resize(page_size, 0);
        short.program_page(addr, &data, &[0xAB, 0xCD], scheme).unwrap();
        padded.program_page(addr, &full, &[0xAB, 0xCD], scheme).unwrap();
        latched.program_page(addr, &data, &[0xAB, 0xCD], scheme).unwrap();
        for device in [&mut short, &mut padded, &mut latched] {
            device.reset_stats();
        }

        // Shard readers are lent the bytes that were programmed.
        prop_assert_eq!(short.stored_page(addr).unwrap().0, &data[..]);
        prop_assert_eq!(padded.stored_page(addr).unwrap().0, &full[..]);

        let untouched = short.page_buffer(addr.plane_addr()).unwrap().clone();
        let (mut sensed_a, mut sensed_b) = (Vec::new(), Vec::new());
        let mut errors = 0;
        for _ in 0..4 {
            let a = short.read_page_view(addr).unwrap();
            let b = padded.read_page_view(addr).unwrap();
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

            // The twin that goes through its latch.
            let latency = latched.sense_page(addr).unwrap()
                + latched.transfer_to_controller(page_size + geometry.oob_size_bytes);
            let latch = latched.page_buffer(addr.plane_addr()).unwrap();
            prop_assert_eq!(latch.sensing().unwrap(), &sensed_a[..]);
            prop_assert_eq!(latch.oob().unwrap(), a.oob);
            prop_assert_eq!(a.oob, b.oob);
            prop_assert_eq!(a.meta, b.meta);
            prop_assert_eq!(a.meta.latency, latency);
            errors += a.meta.bit_errors;
            prop_assert_eq!(short.stats(), padded.stats());
            prop_assert_eq!(short.stats(), latched.stats());
            // A controller read leaves the plane's page buffer alone.
            prop_assert_eq!(short.page_buffer(addr.plane_addr()).unwrap(), &untouched);
        }
        prop_assert_eq!(errors > 0, tlc, "only the TLC reads inject errors");
        prop_assert_eq!(
            short.stats().bytes_to_controller,
            4 * (page_size + geometry.oob_size_bytes) as u64
        );
        // The error streams are at the same position: the next reads agree
        // too, whichever way they go, and the in-plane path sees the same
        // latch.
        prop_assert_eq!(short.sense_page(addr).unwrap(), padded.sense_page(addr).unwrap());
        latched.read_page_into(addr, &mut sensed_a, &mut sensed_b).unwrap();
        for device in [&short, &padded] {
            let latch = device.page_buffer(addr.plane_addr()).unwrap();
            prop_assert_eq!(latch.sensing().unwrap(), &sensed_a[..]);
            prop_assert_eq!(latch.oob().unwrap(), &sensed_b[..]);
        }
        prop_assert_eq!(short.read_page(addr).unwrap(), padded.read_page(addr).unwrap());
        prop_assert_eq!(short.xor_pages(addr, addr).unwrap(), vec![0u8; page_size]);
    }

    /// The fail-bit counter's chunked counts always sum to the total count.
    #[test]
    fn chunk_counts_sum_to_total(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        chunk in 1usize..256,
    ) {
        let per_chunk = FailBitCounter::count_per_chunk(&data, chunk);
        let total: u64 = per_chunk.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(total, FailBitCounter::count_total(&data));
    }

    /// Pass/fail filtering never passes an entry above the threshold and
    /// never drops one at or below it.
    #[test]
    fn pass_fail_is_exact_threshold_partition(
        counts in proptest::collection::vec(any::<u32>(), 0..512),
        threshold in any::<u32>(),
    ) {
        let passes = PassFailChecker::passes(&counts, threshold);
        prop_assert_eq!(passes.len(), counts.len());
        for (c, p) in counts.iter().zip(passes.iter()) {
            prop_assert_eq!(*p, *c <= threshold);
        }
        prop_assert_eq!(
            PassFailChecker::pass_count(&counts, threshold),
            passes.iter().filter(|&&p| p).count()
        );
    }

    /// The word-level popcount/XOR kernels and their buffer-reusing `_into`
    /// variants match the byte-wise reference for arbitrary lengths
    /// (including odd tails) and chunk sizes.
    #[test]
    fn word_kernels_and_into_variants_match_reference(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        chunk in 1usize..200,
        threshold in any::<u32>(),
    ) {
        // Popcount per chunk against a bit-by-bit reference.
        let reference: Vec<u32> = data
            .chunks(chunk)
            .map(|c| c.iter().map(|b| b.count_ones()).sum())
            .collect();
        prop_assert_eq!(&FailBitCounter::count_per_chunk(&data, chunk), &reference);
        let mut reused = vec![0xFFFF_FFFFu32; 3];
        FailBitCounter::count_per_chunk_into(&data, chunk, &mut reused);
        prop_assert_eq!(&reused, &reference);

        // Word-level XOR against the byte-wise reference, both variants.
        let other: Vec<u8> = data.iter().map(|b| b.rotate_left(3)).collect();
        let xor_ref: Vec<u8> = data.iter().zip(&other).map(|(a, b)| a ^ b).collect();
        prop_assert_eq!(&XorLogic::xor(&data, &other), &xor_ref);
        let mut xor_out = vec![0u8; 7];
        XorLogic::xor_into(&data, &other, &mut xor_out);
        prop_assert_eq!(&xor_out, &xor_ref);

        // The fused filter agrees with the Vec<bool> checker.
        let flags = PassFailChecker::passes(&reference, threshold);
        let mut fused = Vec::new();
        let passed = PassFailChecker::filter_passing(&reference, threshold, |slot, count| {
            fused.push((slot, count));
        });
        prop_assert_eq!(passed, flags.iter().filter(|&&p| p).count());
        for (slot, count) in fused {
            prop_assert!(flags[slot]);
            prop_assert_eq!(count, reference[slot]);
        }
    }

    /// XOR is an involution: applying it twice restores the original buffer.
    #[test]
    fn xor_is_involution(
        a in proptest::collection::vec(any::<u8>(), 1..1024),
        b_seed in any::<u8>(),
    ) {
        let b: Vec<u8> = a.iter().map(|x| x.wrapping_add(b_seed)).collect();
        let once = XorLogic::xor(&a, &b);
        let twice = XorLogic::xor(&once, &b);
        prop_assert_eq!(twice, a);
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

    /// Page addresses survive a round trip through the dense page index for
    /// both reference geometries.
    #[test]
    fn page_index_roundtrip_reference_geometries(index in 0usize..100_000) {
        for geom in [Geometry::reis_ssd1(), Geometry::reis_ssd2()] {
            let idx = index % geom.total_pages();
            let addr = geom.page_at(idx);
            prop_assert_eq!(geom.page_index(addr), idx);
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
