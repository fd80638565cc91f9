//! Property-based tests for the bit-level substrate of `ca-ram-core`:
//! packing round-trips, match-processor equivalence with a naive reference,
//! RAM-mode/search consistency, and masked home-bucket enumeration.

use ca_ram_core::array::MemoryArray;
use ca_ram_core::bits::{low_mask, read_bits, write_bits};
use ca_ram_core::index::{buckets_for_masked_search, BitSelect, IndexGenerator, RangeSelect};
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::matchproc::MatchProcessorBank;
use proptest::prelude::*;

/// Reference enumeration of a masked key's homes: scatter every combination
/// of the don't-care hash bits over the key, hash each image, then sort and
/// deduplicate. `buckets_for_masked_search` must return exactly this list.
fn scatter_oracle(key: &SearchKey, generator: &dyn IndexGenerator) -> Vec<u64> {
    let Some(consumed) = generator.consumed_bits() else {
        return vec![generator.index(key.value())];
    };
    let free = key.dont_care() & consumed & low_mask(key.bits());
    let n = free.count_ones();
    let mut out = Vec::with_capacity(1 << n);
    for combo in 0u64..(1 << n) {
        let mut value = key.value();
        let mut rest = free;
        let mut i = 0u32;
        while rest != 0 {
            let p = rest.trailing_zeros();
            if combo >> i & 1 == 1 {
                value |= 1 << p;
            }
            rest &= rest - 1;
            i += 1;
        }
        out.push(generator.index(value));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A bit-selection (`positions` folded into `0..bits`, duplicates dropped)
/// or field (`low`/`count` folded into range) generator over a `bits`-wide
/// key.
fn generator_for(
    bits: u32,
    range: bool,
    positions: &[u32],
    low: u32,
    count: u32,
) -> Box<dyn IndexGenerator> {
    if range {
        let count = 1 + (count - 1) % bits.min(63);
        return Box::new(RangeSelect::new(low % (bits - count + 1), count));
    }
    let mut seen = 0u128;
    let picked: Vec<u32> = positions
        .iter()
        .map(|p| p % bits)
        .filter(|&p| {
            let fresh = seen & 1 << p == 0;
            seen |= 1 << p;
            fresh
        })
        .collect();
    Box::new(BitSelect::new(picked))
}

/// Keeps at most `limit` of the hash-consumed bits of `mask`, so the
/// enumeration stays within the 2^20-home limit.
fn trim_hash_dont_cares(mask: u128, consumed: u128, limit: u32) -> u128 {
    let mut hashed = mask & consumed;
    let mut kept = 0u128;
    for _ in 0..limit {
        if hashed == 0 {
            break;
        }
        kept |= hashed & hashed.wrapping_neg();
        hashed &= hashed - 1;
    }
    (mask & !consumed) | kept
}

#[test]
fn direct_home_enumeration_handles_the_extremes() {
    // n = 0: an unmasked key, and a mask that misses every hash bit.
    let g = RangeSelect::new(8, 12);
    for key in [
        SearchKey::new(0x000A_BCDE, 32),
        SearchKey::with_mask(0x000A_BC00, 0xFF, 32),
    ] {
        let homes = buckets_for_masked_search(&key, &g);
        assert_eq!(homes, vec![g.index(key.value())]);
        assert_eq!(homes, scatter_oracle(&key, &g));
    }
    // n = 20, the largest enumeration the assert admits.
    let g = BitSelect::new((0..40).step_by(2).collect());
    let key = SearchKey::with_mask(0, low_mask(40), 40);
    let homes = buckets_for_masked_search(&key, &g);
    assert_eq!(homes.len(), 1 << 20);
    assert_eq!(homes, scatter_oracle(&key, &g));
}

#[test]
#[should_panic(expected = "21 don't-care hash bits")]
fn direct_home_enumeration_rejects_more_than_20_free_bits() {
    let g = RangeSelect::new(0, 21);
    let _ = buckets_for_masked_search(&SearchKey::with_mask(0, low_mask(21), 32), &g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_home_enumeration_equals_scatter_oracle(
        bits in 1u32..=128,
        range in any::<bool>(),
        positions in prop::collection::vec(0u32..128, 1..64),
        low in 0u32..128,
        count in 1u32..64,
        raw_value in any::<u128>(),
        raw_mask in any::<u128>(),
        limit in 0u32..=12,
    ) {
        let g = generator_for(bits, range, &positions, low, count);
        let consumed = g.consumed_bits().expect("bit selections report consumed bits");
        let mask = trim_hash_dont_cares(raw_mask & low_mask(bits), consumed, limit);
        let key = SearchKey::with_mask(raw_value & low_mask(bits) & !mask, mask, bits);
        let homes = buckets_for_masked_search(&key, g.as_ref());
        prop_assert_eq!(&homes, &scatter_oracle(&key, g.as_ref()));
        prop_assert_eq!(homes.len(), 1usize << (mask & consumed).count_ones());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_fields_round_trip(
        offset in 0usize..192,
        width in 0u32..=128,
        value in any::<u128>(),
        backdrop in any::<u64>(),
    ) {
        let mut words = vec![backdrop; 5];
        prop_assume!(offset + width as usize <= words.len() * 64);
        let original = words.clone();
        write_bits(&mut words, offset, width, value);
        // The field reads back (truncated to width)...
        prop_assert_eq!(read_bits(&words, offset, width), value & low_mask(width));
        // ...and every bit outside the field is untouched.
        for probe in 0..(words.len() * 64) {
            if probe >= offset && probe < offset + width as usize {
                continue;
            }
            prop_assert_eq!(
                read_bits(&words, probe, 1),
                read_bits(&original, probe, 1),
                "bit {} disturbed", probe
            );
        }
    }

    #[test]
    fn adjacent_fields_do_not_interfere(
        widths in prop::collection::vec(1u32..48, 1..6),
        values in prop::collection::vec(any::<u128>(), 6),
    ) {
        let mut words = vec![0u64; 8];
        let mut offset = 0usize;
        let fields: Vec<(usize, u32, u128)> = widths
            .iter()
            .zip(&values)
            .map(|(&w, &v)| {
                let f = (offset, w, v & low_mask(w));
                offset += w as usize;
                f
            })
            .collect();
        for &(o, w, v) in &fields {
            write_bits(&mut words, o, w, v);
        }
        for &(o, w, v) in &fields {
            prop_assert_eq!(read_bits(&words, o, w), v);
        }
    }

    #[test]
    fn record_layout_round_trips(
        key_bits in 1u32..=128,
        ternary in any::<bool>(),
        data_bits in 0u32..=64,
        raw_value in any::<u128>(),
        raw_mask in any::<u128>(),
        raw_data in any::<u64>(),
        slot in 0u32..4,
    ) {
        let layout = RecordLayout::new(key_bits, ternary, data_bits);
        let value = raw_value & low_mask(key_bits);
        let mask = if ternary { raw_mask & low_mask(key_bits) } else { 0 };
        let data = if data_bits == 64 { raw_data } else { raw_data & ((1u64 << data_bits) - 1) };
        let record = Record::new(TernaryKey::ternary(value, mask, key_bits), data);
        let mut row = vec![0u64; (layout.slot_bits() as usize * 4).div_ceil(64)];
        layout.encode_slot(&mut row, slot, &record);
        prop_assert_eq!(layout.decode_slot(&row, slot), record);
    }

    #[test]
    fn match_processor_equals_naive_reference(
        stored in prop::collection::vec((any::<u32>(), any::<u32>()), 1..20),
        probe_value in any::<u32>(),
        probe_mask in any::<u32>(),
    ) {
        let layout = RecordLayout::new(32, true, 0);
        let slots = u32::try_from(stored.len()).expect("<= 20");
        let mut row = vec![0u64; (layout.slot_bits() as usize * stored.len()).div_ceil(64)];
        let mut valid = 0u128;
        let mut records = Vec::new();
        for (i, &(v, m)) in stored.iter().enumerate() {
            let rec = Record::new(
                TernaryKey::ternary(u128::from(v), u128::from(m), 32),
                0,
            );
            #[allow(clippy::cast_possible_truncation)]
            layout.encode_slot(&mut row, i as u32, &rec);
            valid |= 1 << i;
            records.push(rec);
        }
        let bank = MatchProcessorBank::new(layout);
        let search = SearchKey::with_mask(
            u128::from(probe_value & !probe_mask),
            u128::from(probe_mask),
            32,
        );
        let hw = bank.match_row(&row, valid, slots, &search);
        // Naive reference: first stored key matching under ternary rules.
        let reference = records.iter().position(|r| r.key.matches(&search));
        #[allow(clippy::cast_possible_truncation)]
        let reference = reference.map(|i| i as u32);
        prop_assert_eq!(hw.first_match, reference);
        // The match vector is exactly the set of matching slots.
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(hw.match_vector >> i & 1 == 1, r.key.matches(&search));
        }
    }

    #[test]
    fn pipelined_match_invariant_under_processor_count(
        stored in prop::collection::vec(any::<u16>(), 1..32),
        probe in any::<u16>(),
        processors in 1u32..40,
    ) {
        let layout = RecordLayout::new(16, false, 0);
        let slots = u32::try_from(stored.len()).expect("<= 32");
        let mut row = vec![0u64; (16 * stored.len()).div_ceil(64)];
        let mut valid = 0u128;
        for (i, &v) in stored.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            layout.encode_slot(&mut row, i as u32, &Record::new(TernaryKey::binary(u128::from(v), 16), 0));
            valid |= 1 << i;
        }
        let bank = MatchProcessorBank::new(layout);
        let key = SearchKey::new(u128::from(probe), 16);
        let full = bank.match_row(&row, valid, slots, &key);
        let (piped, passes) = bank.match_row_pipelined(&row, valid, slots, &key, processors);
        prop_assert_eq!(piped.first_match, full.first_match);
        prop_assert!(passes >= 1);
        prop_assert!(passes <= slots.div_ceil(processors));
    }

    #[test]
    fn ram_mode_word_round_trip(
        rows in 1u64..32,
        row_bits in 1u32..300,
        writes in prop::collection::vec((any::<u64>(), any::<u64>()), 1..40),
    ) {
        let mut array = MemoryArray::new(rows, row_bits);
        let words = array.total_words();
        let mut model = std::collections::HashMap::new();
        for &(addr, value) in &writes {
            let addr = addr % words;
            array.write_word(addr, value).expect("in range");
            model.insert(addr, value);
        }
        for (&addr, &value) in &model {
            prop_assert_eq!(array.read_word(addr).expect("in range"), value);
        }
    }
}
