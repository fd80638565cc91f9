//! End-to-end telemetry integration: sink events emitted by the table,
//! subsystem, and controller must agree with the untraced search results,
//! and the registry export must round-trip through its own validator.

use std::sync::Arc;

use ca_ram_core::controller::{simulate_with_sink, QueueModelConfig};
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, SearchOutcome, TableConfig};
use ca_ram_core::telemetry::{
    parse_json, to_json, to_prometheus, validate_json, HistogramSink, JsonValue, MetricsRegistry,
    ProbeSummary, Stage, TelemetrySink, TraceBuffer, TraceEvent,
};
use ca_ram_core::CaRamSubsystem;

/// A probing table with 40 records over 16 buckets of 4 slots; the keys
/// spread evenly, so no bucket spills.
fn table() -> CaRamTable {
    let layout = RecordLayout::new(16, false, 16);
    let mut config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
    config.overflow = OverflowPolicy::Probe { max_steps: 16 };
    let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap();
    for i in 0..40u64 {
        let key = TernaryKey::binary(u128::from(i) | 0x100, 16);
        t.insert(Record::new(key, i * 10)).unwrap();
    }
    t
}

fn probe_keys() -> Vec<SearchKey> {
    // Present keys, plus misses below and above the stored range.
    (0..48u64)
        .map(|i| SearchKey::new(u128::from(i) | 0x100, 16))
        .chain((0..8u64).map(|i| SearchKey::new(u128::from(i), 16)))
        .collect()
}

/// A 16-bit-key table of `1 << rows_log2` rows with `slots` slots per
/// slice row, indexed by the low `rows_log2` key bits.
fn build(
    rows_log2: u32,
    slots: u32,
    ternary: bool,
    arrangement: Arrangement,
    overflow: OverflowPolicy,
) -> CaRamTable {
    let layout = RecordLayout::new(16, ternary, 16);
    let config = TableConfig {
        rows_log2,
        row_bits: slots * layout.slot_bits(),
        layout,
        arrangement,
        probe: ProbePolicy::Linear,
        overflow,
    };
    CaRamTable::new(config, Box::new(RangeSelect::new(0, rows_log2))).unwrap()
}

/// 40 distinct values crowded onto six low-bit patterns, so their home
/// buckets spill.
fn crowded_values() -> impl Iterator<Item = u128> {
    (0..40u128).map(|i| (i << 4) | (i % 6))
}

fn fill_crowded(mut t: CaRamTable) -> CaRamTable {
    for (v, data) in crowded_values().zip(0u64..) {
        t.insert(Record::new(TernaryKey::binary(v, 16), data))
            .unwrap();
    }
    assert!(t.spilled_records() > 0 || t.overflow_count() > 0);
    t
}

/// Nested ternary records (don't-cares on the top bits, above the index)
/// inserted least specific first, so slot order is not priority order;
/// one delete and a backfill switch the table to full-scan mode, which
/// must pick the most specific match rather than the first in the chain.
fn full_scan_table() -> CaRamTable {
    let mut t = build(
        4,
        4,
        true,
        Arrangement::Horizontal(1),
        OverflowPolicy::Probe { max_steps: 16 },
    );
    for (v, data) in crowded_values().take(12).zip(0u64..) {
        for top_dc_bits in [4u32, 2, 0] {
            let dc = ((1u128 << top_dc_bits) - 1) << 12;
            let key = TernaryKey::ternary(v, dc, 16);
            t.insert(Record::new(key, data * 10 + u64::from(top_dc_bits)))
                .unwrap();
        }
    }
    let exact = TernaryKey::binary(crowded_values().next().unwrap(), 16);
    assert_eq!(t.delete(&exact), 1);
    t.insert(Record::new(exact, 1)).unwrap();
    assert!(t.full_scan() && t.spilled_records() > 0);
    t
}

/// A named, deterministic table builder.
type Shape = (&'static str, fn() -> CaRamTable);

/// The table shapes the probe loop serves: reach-chain probing, both
/// overflow areas, full-scan mode after deletes, and a two-slice
/// horizontal arrangement.
fn shapes() -> [Shape; 5] {
    [
        ("probing", table),
        ("parallel-area", || {
            fill_crowded(build(
                2,
                4,
                false,
                Arrangement::Horizontal(1),
                OverflowPolicy::ParallelArea { capacity: 64 },
            ))
        }),
        ("victim-slice", || {
            fill_crowded(build(
                2,
                4,
                false,
                Arrangement::Horizontal(1),
                OverflowPolicy::VictimSlice {
                    rows_log2: 3,
                    row_bits: 4 * RecordLayout::new(16, false, 16).slot_bits(),
                },
            ))
        }),
        ("full-scan", full_scan_table),
        ("two-slice", || {
            fill_crowded(build(
                4,
                2,
                false,
                Arrangement::Horizontal(2),
                OverflowPolicy::Probe { max_steps: 16 },
            ))
        }),
    ]
}

/// `probe_keys`, plus every crowded value as a hit, a miss, and two
/// masked keys: don't-cares over two index bits (four homes) and over
/// bits above the index (one home).
fn wide_probe_keys() -> Vec<SearchKey> {
    let mut keys = probe_keys();
    for v in crowded_values() {
        keys.push(SearchKey::new(v, 16));
        keys.push(SearchKey::new(v | 0x8000, 16));
        keys.push(SearchKey::with_mask(v, 0x3, 16));
        keys.push(SearchKey::with_mask(v, 0x300, 16));
    }
    keys
}

/// Home buckets of `key` in a [`build`] table: each don't-care index bit
/// doubles them.
fn home_count(t: &CaRamTable, key: &SearchKey) -> u64 {
    1 << (key.dont_care() & u128::from(t.logical_buckets() - 1)).count_ones()
}

/// Records stage events and summaries; `deep` picks the sink depth.
struct TraceLog {
    deep: bool,
    events: TraceBuffer,
}

impl TelemetrySink for TraceLog {
    fn wants_match_vectors(&self) -> bool {
        self.deep
    }

    fn stage(&self, stage: Stage, detail: u64) {
        self.events.stage(stage, detail);
    }

    fn search_complete(&self, summary: &ProbeSummary) {
        self.events.search_complete(summary);
    }
}

/// The events `run` makes `table` report through a sink of the given
/// depth.
fn trace_of(table: &mut CaRamTable, deep: bool, run: impl FnOnce(&CaRamTable)) -> Vec<TraceEvent> {
    let log = Arc::new(TraceLog {
        deep,
        events: TraceBuffer::new(1 << 20),
    });
    table.set_telemetry_sink(Arc::clone(&log) as _);
    run(table);
    assert_eq!(log.events.dropped(), 0);
    log.events.events()
}

#[test]
fn traced_outcomes_match_untraced_for_both_sink_depths() {
    let keys = wide_probe_keys();
    for (name, build_shape) in shapes() {
        let plain = build_shape();
        let expected: Vec<_> = keys.iter().map(|k| plain.search(k)).collect();
        for (k, e) in keys.iter().zip(&expected) {
            assert_eq!(*e, plain.search_baseline(k), "{name}: {k:?}");
        }
        let hits = expected.iter().filter(|o| o.hit.is_some()).count() as u64;

        for deep in [false, true] {
            let mut traced = build_shape();
            let sink = Arc::new(if deep {
                HistogramSink::deep()
            } else {
                HistogramSink::new()
            });
            traced.set_telemetry_sink(Arc::clone(&sink) as _);
            let got: Vec<_> = keys.iter().map(|k| traced.search(k)).collect();
            assert_eq!(got, expected, "{name} deep={deep}");

            let snap = sink.snapshot();
            assert_eq!(snap.stats.searches, expected.len() as u64, "{name}");
            assert_eq!(snap.stats.hits, hits, "{name} deep={deep}");
            assert_eq!(snap.probe_length.count(), expected.len() as u64);
            assert_eq!(snap.row_fetches.count(), expected.len() as u64);
            // Every search fetches at least one row.
            assert!(snap.stats.memory_accesses >= expected.len() as u64);
            if deep {
                // Deep mode fires hash + row-fetch stages for every search
                // and match popcounts for every fetched row.
                assert_eq!(
                    snap.stage_counts[Stage::Hash.index()],
                    expected.len() as u64
                );
                assert_eq!(
                    snap.stage_counts[Stage::RowFetch.index()],
                    snap.stats.memory_accesses
                );
                assert!(!snap.match_popcount.is_empty());
                assert_eq!(snap.stage_counts[Stage::Extract.index()], hits);
            } else {
                assert_eq!(snap.stage_counts, [0; 5]);
                assert!(snap.match_popcount.is_empty());
            }

            // A traced batch reports what the per-key searches did.
            let per_key = sink.snapshot();
            sink.reset();
            assert_eq!(traced.search_batch(&keys), expected, "{name} deep={deep}");
            assert_eq!(sink.snapshot(), per_key, "{name} deep={deep}");

            // Clearing the sink restores the untraced path.
            traced.clear_telemetry_sink();
            let after: Vec<_> = keys.iter().map(|k| traced.search(k)).collect();
            assert_eq!(after, expected, "{name}");
            assert_eq!(sink.snapshot().stats.searches, expected.len() as u64);
        }
    }
}

#[test]
fn deep_trace_accounts_for_every_row_fetch() {
    let keys = wide_probe_keys();
    for (name, build_shape) in shapes() {
        let mut t = build_shape();
        let mut outcomes = Vec::new();
        let events = trace_of(&mut t, true, |t| {
            outcomes.extend(keys.iter().map(|k| t.search(k)));
        });
        let horizontal = t.config().arrangement.factors().0 as usize;
        let has_area = !matches!(t.config().overflow, OverflowPolicy::Probe { .. });
        let runs: Vec<_> = events
            .split_inclusive(|e| matches!(e, TraceEvent::SearchComplete(_)))
            .collect();
        assert_eq!(runs.len(), keys.len(), "{name}");
        for ((key, outcome), run) in keys.iter().zip(&outcomes).zip(runs) {
            let homes = home_count(&t, key);
            let Some((TraceEvent::SearchComplete(summary), stages)) = run.split_last() else {
                panic!("{name} {key:?}: run must end in a summary: {run:?}");
            };
            assert_eq!(summary.hit, outcome.hit.is_some(), "{name} {key:?}");
            assert_eq!(summary.row_fetches, u64::from(outcome.memory_accesses));
            assert_eq!(summary.homes, homes, "{name} {key:?}");

            // Hash, then one RowFetch and a Match per horizontal slice for
            // each fetch, the overflow probe, and Extract exactly on a hit.
            let mut shape = vec![Stage::Hash];
            for _ in 0..outcome.memory_accesses {
                shape.push(Stage::RowFetch);
                shape.extend(std::iter::repeat_n(Stage::Match, horizontal));
            }
            if has_area {
                shape.push(Stage::OverflowProbe);
            }
            if outcome.hit.is_some() {
                shape.push(Stage::Extract);
            }
            let stages: Vec<(Stage, u64)> = stages
                .iter()
                .map(|e| match e {
                    TraceEvent::Stage(s, d) => (*s, *d),
                    other => panic!("{name} {key:?}: unexpected {other:?}"),
                })
                .collect();
            let names: Vec<Stage> = stages.iter().map(|(s, _)| *s).collect();
            assert_eq!(names, shape, "{name} {key:?}");
            assert_eq!(stages[0].1, homes, "{name} {key:?}");
            if let Some(hit) = outcome.hit {
                assert_eq!(stages.last(), Some(&(Stage::Extract, u64::from(hit.slot))));
            }
        }
    }
}

#[test]
fn probe_length_is_the_resolving_rung() {
    let summary_of = |t: &mut CaRamTable, v: u128| {
        let mut outcome = None;
        let events = trace_of(t, false, |t| {
            outcome = Some(t.search(&SearchKey::new(v, 16)))
        });
        let [TraceEvent::SearchComplete(summary)] = events[..] else {
            panic!("one summary expected: {events:?}");
        };
        let outcome: SearchOutcome = outcome.unwrap();
        assert_eq!(summary.row_fetches, u64::from(outcome.memory_accesses));
        (summary.hit, summary.probe_length, outcome.memory_accesses)
    };

    // One slot per bucket and every key homed on bucket 0: the chain
    // holds 0x00, 0x10 and 0x20 at rungs 0, 1 and 2.
    let mut chain = build(
        2,
        1,
        false,
        Arrangement::Horizontal(1),
        OverflowPolicy::Probe { max_steps: 3 },
    );
    for v in [0x00, 0x10, 0x20] {
        chain
            .insert(Record::new(TernaryKey::binary(v, 16), 1))
            .unwrap();
    }
    // First-match mode stops at the winning rung; a miss walks the chain.
    assert_eq!(summary_of(&mut chain, 0x10), (true, 1, 2));
    assert_eq!(summary_of(&mut chain, 0x20), (true, 2, 3));
    assert_eq!(summary_of(&mut chain, 0x30), (false, 2, 3));
    // Full-scan mode walks the whole chain but still reports the winner.
    chain.force_full_scan();
    assert_eq!(summary_of(&mut chain, 0x10), (true, 1, 3));
    assert_eq!(summary_of(&mut chain, 0x30), (false, 2, 3));

    // An overflow-area hit resolves at rung 0.
    let mut area = build(
        2,
        1,
        false,
        Arrangement::Horizontal(1),
        OverflowPolicy::ParallelArea { capacity: 4 },
    );
    for v in [0x00, 0x10] {
        area.insert(Record::new(TernaryKey::binary(v, 16), 1))
            .unwrap();
    }
    assert_eq!(area.overflow_count(), 1);
    assert_eq!(summary_of(&mut area, 0x10), (true, 0, 1));

    // So does an overflow-area record that outranks a main-array hit
    // found further down the chain. RAM-mode writes put a 12-care-bit
    // match for 0x10 in bucket 1 and extend home 0's reach to it; the
    // exact 0x10 spilled to the area.
    let mut outranked = build(
        2,
        1,
        true,
        Arrangement::Horizontal(1),
        OverflowPolicy::ParallelArea { capacity: 4 },
    );
    for v in [0x00, 0x10] {
        outranked
            .insert(Record::new(TernaryKey::binary(v, 16), 1))
            .unwrap();
    }
    let slice = &mut outranked.slices_mut()[0];
    let wider = Record::new(TernaryKey::ternary(0x10, 0xF00, 16), 2);
    slice.append_record(1, &wider).unwrap();
    let mut aux = slice.aux(0);
    aux.reach = 1;
    slice.set_aux(0, aux);
    let key = SearchKey::new(0x10, 16);
    let outcome = outranked.search(&key);
    assert!(outcome.hit.is_some_and(|h| h.from_overflow), "{outcome:?}");
    assert_eq!(outcome, outranked.search_baseline(&key));
    // Rung 1 is fetched (2 accesses), yet the summary reports rung 0, in
    // both scan modes.
    assert_eq!(summary_of(&mut outranked, 0x10), (true, 0, 2));
    outranked.force_full_scan();
    assert_eq!(outranked.search(&key), outcome);
    assert_eq!(summary_of(&mut outranked, 0x10), (true, 0, 2));
}

#[test]
fn traced_batch_emits_the_per_key_event_stream() {
    let keys = wide_probe_keys();
    for (name, build_shape) in shapes() {
        for deep in [false, true] {
            let per_key = trace_of(&mut build_shape(), deep, |t| {
                for k in &keys {
                    let _ = t.search(k);
                }
            });
            let batched = trace_of(&mut build_shape(), deep, |t| {
                let _ = t.search_batch(&keys);
            });
            assert!(per_key.len() >= keys.len(), "{name} deep={deep}");
            assert_eq!(batched, per_key, "{name} deep={deep}");
        }
    }
}

#[test]
fn insert_emits_occupancy_events() {
    let layout = RecordLayout::new(16, false, 16);
    let mut config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
    config.overflow = OverflowPolicy::Probe { max_steps: 16 };
    let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap();
    let buffer = Arc::new(TraceBuffer::new(1024));
    t.set_telemetry_sink(Arc::clone(&buffer) as _);

    // All twelve keys share the low index bits, so they pile into the
    // same home bucket and spill to probed neighbours.
    for i in 0..12u64 {
        let key = TernaryKey::binary(u128::from(i) << 4 | 0x3, 16);
        t.insert(Record::new(key, i)).unwrap();
    }
    let occupancies: Vec<u32> = buffer
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::InsertOccupancy(o) => Some(o),
            _ => None,
        })
        .collect();
    assert_eq!(occupancies.len(), 12);
    // Occupancy observed at insert counts the record just placed.
    assert!(occupancies.iter().all(|&o| o >= 1));
    assert!(occupancies.iter().any(|&o| o > 1));
}

#[test]
fn subsystem_pump_reports_queue_depth() {
    let mut sub = CaRamSubsystem::new();
    let id = sub.add_database("t", table());
    let sink = HistogramSink::shared();
    sub.set_telemetry_sink(id, Arc::clone(&sink) as _);

    let port = sub.request_port(id);
    for key in probe_keys().into_iter().take(6) {
        sub.store_request(port, key).unwrap();
    }
    sub.pump();

    let snap = sink.snapshot();
    assert_eq!(snap.stats.searches, 6);
    // The controller samples the backlog once per pump per database; the
    // single sample is the full six-request backlog (histogram sums are
    // exact even though bucket bounds are powers of two).
    assert_eq!(snap.queue_depth.count(), 1);
    assert_eq!(snap.queue_depth.sum(), 6);
}

#[test]
fn controller_simulation_feeds_queue_histograms() {
    let sink = HistogramSink::shared();
    let requests = (0..512u32).map(|i| i % 8);
    let report = simulate_with_sink(QueueModelConfig::fig8_ip_lookup(), requests, sink.as_ref())
        .expect("valid config");
    assert_eq!(report.completed, 512);

    let snap = sink.snapshot();
    assert!(snap.queue_depth.count() > 0);
    assert_eq!(snap.queue_wait.count(), 512);
}

#[test]
fn registry_export_round_trips_through_validator() {
    let mut traced = table();
    let sink = Arc::new(HistogramSink::deep());
    traced.set_telemetry_sink(Arc::clone(&sink) as _);
    for key in probe_keys() {
        let _ = traced.search(&key);
    }

    let mut registry = MetricsRegistry::new();
    registry.record_snapshot("test-table", &sink.snapshot());

    let json = to_json(&registry);
    let scopes = validate_json(&json).expect("export must satisfy its own schema");
    assert_eq!(scopes, 1);

    let parsed = parse_json(&json).expect("export must parse");
    let schema = parsed.get("schema").and_then(JsonValue::as_str);
    assert_eq!(schema, Some(ca_ram_core::telemetry::SCHEMA));

    let prom = to_prometheus(&registry);
    assert!(prom.contains("caram_probe_length_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains("caram_searches"));
}
