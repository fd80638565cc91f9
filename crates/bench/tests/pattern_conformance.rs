//! Conformance of pattern-compiled tables across backends.
//!
//! The pattern compiler emits a `TableConfig` + index generator; this test
//! instantiates the core engine-conformance suite over tables built from
//! compiled plans — once on a raw `CaRamTable`, once wrapped as the sole
//! database of a `SubsystemEngine`, and against a `SortedTcam` baseline
//! loaded with the same lowered entries — so the compiled layouts obey the
//! full `SearchEngine` contract (insert/search/delete round-trips, batch ≡
//! serial ≡ parallel bit-equivalence, stats and occupancy accounting).

use std::collections::BTreeSet;

use ca_ram_bench::SubsystemEngine;
use ca_ram_cam::SortedTcam;
use ca_ram_core::engine::conformance::{check_engine, Probe};
use ca_ram_core::key::SearchKey;
use ca_ram_core::oracle::ReferenceModel;
use ca_ram_core::pattern::{compile, GeometryHint, Pattern, QueryPlan};
use ca_ram_workloads::dictionary;
use ca_ram_workloads::packet::{
    self, classifier_spec, ClassifierRule, FiveTuple, PacketClassConfig, PortMatch,
};

/// Classifier rules that each lower to exactly one ternary entry (no port
/// ranges), pairwise disjoint (distinct src /16 networks), probed with a
/// member header of each. The index generator samples the top `rows_log2`
/// key bits, which lie inside every rule's cared src /16, so each record
/// stores exactly one home copy and `check_engine`'s occupancy accounting
/// holds. The src networks differ in their top 6 bits, so at the default
/// 2^6-row geometry every rule has its own home bucket.
fn classifier_probes() -> Vec<Probe> {
    (0..12u32)
        .map(|i| {
            let rule = ClassifierRule {
                src: (((i + 1) << 26) | (0x0A << 16), 16),
                dst: (0xC0A8_0000, 16),
                sport: PortMatch::Exact(u16::try_from(1000 + i).expect("small")),
                dport: PortMatch::Exact(443),
                proto: Some(6),
                action: u64::from(100 + i),
            };
            let spec = classifier_spec();
            let entries = spec.lower(&rule.to_pattern()).expect("rule lowers");
            assert_eq!(entries.len(), 1, "no-range rules lower to one entry");
            let member = FiveTuple {
                src: rule.src.0 | 0x1234,
                dst: rule.dst.0 | (0x0100 + i),
                sport: 1000 + u16::try_from(i).expect("small"),
                dport: 443,
                proto: 6,
            };
            assert!(rule.matches(&member));
            Probe {
                record: ca_ram_core::layout::Record::new(entries[0], rule.action),
                probe: SearchKey::new(member.pack(), 128),
            }
        })
        .collect()
}

fn classifier_misses() -> Vec<SearchKey> {
    // Headers outside every rule's src /16 (in the home bucket of the rule
    // whose src network starts 0x2C).
    (0..6u32)
        .map(|i| {
            SearchKey::new(
                FiveTuple {
                    src: 0x2C00_0000 | i,
                    dst: 0xC0A8_0001,
                    sport: 1000,
                    dport: 80,
                    proto: 6,
                }
                .pack(),
                128,
            )
        })
        .collect()
}

#[test]
fn compiled_five_tuple_table_passes_engine_conformance() {
    let plan = compile(&classifier_spec(), &GeometryHint::default()).expect("compiles");
    let mut table = plan.build_table().expect("builds");
    let probes = classifier_probes();
    let homes: BTreeSet<u64> = probes.iter().map(|p| table.home_bucket(&p.probe)).collect();
    assert_eq!(homes.len(), probes.len(), "every rule has its own home");
    check_engine(&mut table, &probes, &classifier_misses());
}

/// The packet-class benchmark's table: 500 rules (seed 7, source
/// prefixes at least /14) on 2^11 rows of 16 slots, queried with a
/// 4,096-packet flow trace of which 0.8 is drawn from the rules. The
/// top-of-key index is `src[31..21]`, inside every rule's cared source
/// prefix, so each lowered entry is stored once and a lookup fetches
/// about one row. Indexing the tops of every field instead stores 29,417
/// copies and costs ~258 row fetches per lookup.
#[test]
fn packet_class_rules_store_one_copy_and_cost_about_one_row_fetch() {
    let plan = compile(
        &classifier_spec(),
        &GeometryHint {
            rows_log2: 11,
            slots_per_row: 16,
            data_bits: 32,
        },
    )
    .expect("compiles");
    let mut table = plan.build_table().expect("builds");
    let mut model = ReferenceModel::new(128);
    let rules = packet::generate(&PacketClassConfig {
        rules: 500,
        min_src_len: 14,
        seed: 7,
    });
    let mut entries = 0u64;
    for r in &rules {
        let records = plan
            .lower_entry(&r.to_pattern(), r.action)
            .expect("generated rules lower");
        for rec in &records {
            table.insert(*rec).expect("fits");
        }
        model.insert_compiled(&records);
        entries += records.len() as u64;
    }
    assert_eq!(entries, 2_552, "lowered entries");
    assert_eq!(
        table.record_count() + table.overflow_count() as u64,
        entries,
        "one stored copy per lowered entry"
    );

    let trace = packet::flow_trace(&rules, 4_096, 0.8, 7 ^ 0xF10);
    let mut accesses = 0u64;
    for p in &trace {
        let key = SearchKey::new(p.pack(), 128);
        let outcome = plan
            .lower_query(&Pattern::Exact { value: p.pack() })
            .expect("exact headers lower")
            .execute(&table);
        let got = outcome.hit.map(|h| h.data);
        let expected = model.expected(&key);
        assert!(
            expected.admits(got),
            "{p:?} answered {got:?}, model accepts {:?}",
            expected.accepted
        );
        accesses += u64::from(outcome.memory_accesses);
    }
    #[allow(clippy::cast_precision_loss)]
    let per_query = accesses as f64 / trace.len() as f64;
    assert!(
        per_query <= 2.0,
        "packet lookups cost {per_query:.2} accesses each"
    );
}

#[test]
fn compiled_five_tuple_subsystem_passes_engine_conformance() {
    let plan = compile(&classifier_spec(), &GeometryHint::default()).expect("compiles");
    let table = plan.build_table().expect("builds");
    let mut engine = SubsystemEngine::new(table);
    check_engine(&mut engine, &classifier_probes(), &classifier_misses());
}

#[test]
fn sorted_tcam_baseline_passes_conformance_on_lowered_entries() {
    // The CAM baseline stores the same lowered ternary entries; the
    // conformance contract must hold there too (priority = care count for
    // disjoint rules, so each probe still has one unambiguous owner).
    let mut tcam = SortedTcam::new(256, 128);
    check_engine(&mut tcam, &classifier_probes(), &classifier_misses());
}

#[test]
fn compiled_dictionary_table_passes_engine_conformance() {
    let plan =
        compile(&dictionary::dictionary_spec(8, 2), &GeometryHint::default()).expect("compiles");
    let mut table = plan.build_table().expect("builds");
    let words: Vec<String> = ["aardvark", "bassoon!", "cladding", "dispatch"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let probes: Vec<Probe> = words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            Probe::exact(
                dictionary::pack_word(w),
                64,
                u64::try_from(i).expect("small"),
            )
        })
        .collect();
    let misses = vec![
        SearchKey::new(dictionary::pack_word("zzzzzzzz"), 64),
        SearchKey::new(dictionary::pack_word("aardvarj"), 64),
    ];
    check_engine(&mut table, &probes, &misses);

    // Beyond the exact contract: after reinserting, the compiled probe
    // ladder resolves a 1-substitution typo through QueryPlan::execute.
    for p in &probes {
        table.insert(p.record).expect("fits");
    }
    let ladder: QueryPlan = plan
        .lower_query(&Pattern::NearestMatch {
            value: dictionary::pack_word("aardvarj"),
            max_distance: 1,
        })
        .expect("ladder lowers");
    let outcome = ladder.execute(&table);
    assert_eq!(outcome.hit.map(|h| h.data), Some(0), "typo resolves");
}

/// The nearest-match index must spread lowercase words over many home
/// buckets. Lowercase ASCII fixes the top two bits of every byte, so an
/// index built from those bits sends every word to one home and each ladder
/// rung walks the whole reach chain (thousands of row fetches per query).
#[test]
fn dictionary_index_spreads_words_and_keeps_typo_queries_cheap() {
    let plan = compile(
        &dictionary::dictionary_spec(8, 2),
        &GeometryHint {
            rows_log2: 11,
            slots_per_row: 8,
            data_bits: 32,
        },
    )
    .expect("compiles");
    let mut table = plan.build_table().expect("builds");
    let words = dictionary::generate(&dictionary::DictionaryConfig::scaled(5_000));
    let mut homes = BTreeSet::new();
    for (i, w) in words.iter().enumerate() {
        let value = dictionary::pack_word(w);
        homes.insert(table.home_bucket(&SearchKey::new(value, 64)));
        for rec in plan
            .lower_entry(&Pattern::Exact { value }, u64::try_from(i).expect("small"))
            .expect("words lower")
        {
            table.insert(rec).expect("fits");
        }
    }
    assert!(
        homes.len() >= 1_000,
        "5,000 words share only {} home buckets",
        homes.len()
    );

    let typos = dictionary::typo_trace(&words, 500, 2, 0x7E0);
    let mut accesses = 0u64;
    for t in &typos {
        let outcome = plan
            .lower_query(&Pattern::NearestMatch {
                value: dictionary::pack_word(&t.query),
                max_distance: 2,
            })
            .expect("ladder lowers")
            .execute(&table);
        assert!(outcome.hit.is_some(), "{t:?} is within distance 2");
        accesses += u64::from(outcome.memory_accesses);
    }
    #[allow(clippy::cast_precision_loss)]
    let per_query = accesses as f64 / typos.len() as f64;
    assert!(
        per_query <= 100.0,
        "typo queries cost {per_query:.1} accesses each"
    );
}
