//! The two pattern-compiled workloads.
//!
//! - `packet-class`: 500 five-tuple rules compiled at 2^11 rows x 16 slots
//!   and an 80%-hit flow trace; one probe per plan. Reference: the
//!   repository's `ReferenceModel` over the compiled entries.
//! - `spell-d2`: 5,000 eight-letter words queried with distance-2 typos
//!   through nearest-match ladders. Reference: a brute-force scan of the
//!   word list (character distance, then the first ladder rung each
//!   candidate matches).
//!
//! One lookup is `CompiledPlan::lower_query` followed by
//! `QueryPlan::execute`, because a user pays for both.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ca_ram_core::engine::{EngineOutcome, SearchEngine};
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::oracle::ReferenceModel;
use ca_ram_core::pattern::{compile, CompiledPlan, GeometryHint, Pattern, QueryPlan};
use ca_ram_core::table::CaRamTable;
use ca_ram_workloads::dictionary::{self, DictionaryConfig};
use ca_ram_workloads::packet::{self, PacketClassConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::calib::Calibration;
use crate::load::repeat_for;
use crate::stats::{median, now_ns, peak_rss_mb, quantile, ratio, scaled, PerItem};
use crate::trace::{EngineCalls, SpanLog, Traced, NO_PARENT, SPAN_CAPACITY};
use crate::{Check, Metrics, Options, Scale, Workload};

/// Plans lowered per timed group in the traced run (lowering one exact
/// query takes well under 1 us).
const LOWER_GROUP: usize = 64;
/// Rounds the measuring budget is split into.
const ROUNDS: u32 = 12;
/// Queries timed after each run of the calibration kernel (a few
/// milliseconds of queries).
const QUERY_BURST: usize = 16;

struct Sizes {
    entries: usize,
    queries: usize,
    /// Entries the write phase replaces.
    churn_set: usize,
    /// Replaces timed after each calibration (about a millisecond's worth
    /// or more).
    write_burst: usize,
}

fn sizes(workload: Workload, scale: Scale) -> Sizes {
    match (workload, scale) {
        (Workload::PacketClass, Scale::Full) => Sizes {
            entries: 500,
            queries: 4_096,
            churn_set: 32,
            write_burst: 1,
        },
        (_, Scale::Full) => Sizes {
            entries: 5_000,
            queries: 1_024,
            churn_set: 1_024,
            write_burst: 8,
        },
        (_, Scale::Tiny) => Sizes {
            entries: 100,
            queries: 128,
            churn_set: 100,
            write_burst: 1,
        },
    }
}

/// A compiled, loaded workload: the plan, its table, and each logical
/// entry's lowered records.
struct Loaded {
    plan: CompiledPlan,
    table: CaRamTable,
    entries: Vec<Vec<Record>>,
}

fn load(plan: CompiledPlan, logical: Vec<(Pattern, u64)>) -> Result<Loaded, String> {
    let mut table = plan.build_table().map_err(|e| e.to_string())?;
    let mut entries = Vec::with_capacity(logical.len());
    for (pattern, data) in &logical {
        let records = plan
            .lower_entry(pattern, *data)
            .map_err(|e| format!("lowering entry {data}: {e}"))?;
        for r in &records {
            table
                .insert(*r)
                .map_err(|e| format!("inserting entry {data}: {e}"))?;
        }
        entries.push(records);
    }
    Ok(Loaded {
        plan,
        table,
        entries,
    })
}

/// The workload's inputs: what to load and what to ask.
struct Inputs {
    logical: Vec<(Pattern, u64)>,
    queries: Vec<Pattern>,
    words: Vec<String>,
}

/// The rule set, the dictionary and each one's query set are fixed
/// snapshots generated from this seed (the seed of ROADMAP's
/// measurements of these workloads); the benchmark seed orders the
/// queries and picks the entries the write phase replaces.
const CONTENT_SEED: u64 = 7;

fn inputs(workload: Workload, sz: &Sizes) -> Inputs {
    let seed = CONTENT_SEED;
    if workload == Workload::PacketClass {
        let rules = packet::generate(&PacketClassConfig {
            rules: sz.entries,
            min_src_len: 14,
            seed,
        });
        let queries = packet::flow_trace(&rules, sz.queries, 0.8, seed ^ 0xF10)
            .iter()
            .map(|p| Pattern::Exact { value: p.pack() })
            .collect();
        Inputs {
            logical: rules.iter().map(|r| (r.to_pattern(), r.action)).collect(),
            queries,
            words: Vec::new(),
        }
    } else {
        let words = dictionary::generate(&DictionaryConfig {
            words: sz.entries,
            word_len: 8,
            seed: seed ^ 0xD1C7,
        });
        let queries = dictionary::typo_trace(&words, sz.queries, 2, seed ^ 0x7E0)
            .iter()
            .map(|t| Pattern::NearestMatch {
                value: dictionary::pack_word(&t.query),
                max_distance: 2,
            })
            .collect();
        Inputs {
            logical: words
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let value = dictionary::pack_word(w);
                    (Pattern::Exact { value }, i as u64)
                })
                .collect(),
            queries,
            words,
        }
    }
}

/// One set-up: generate, compile and load. Its scaled time is pushed
/// onto `setup_secs`; the query set and the word list come back beside
/// it.
fn set_up(
    workload: Workload,
    sz: &Sizes,
    cal: &mut Calibration,
    setup_secs: &mut Vec<f64>,
) -> Result<(Loaded, Vec<Pattern>, Vec<String>), String> {
    let scale = cal.scale();
    let t = Instant::now();
    let inp = inputs(workload, sz);
    let loaded = load(compile_for(workload)?, inp.logical)?;
    setup_secs.push(t.elapsed().as_secs_f64() * scale);
    Ok((loaded, inp.queries, inp.words))
}

fn compile_for(workload: Workload) -> Result<CompiledPlan, String> {
    let (spec, slots_per_row) = if workload == Workload::PacketClass {
        (packet::classifier_spec(), 16)
    } else {
        (dictionary::dictionary_spec(8, 2), 8)
    };
    compile(
        &spec,
        &GeometryHint {
            rows_log2: 11,
            slots_per_row,
            data_bits: 32,
        },
    )
    .map_err(|e| e.to_string())
}

/// Payloads an answer may carry; empty means the query must miss.
type Accepted = Vec<u64>;

/// packet-class: the reference model's admitted winners per query.
fn packet_reference(loaded: &Loaded, queries: &[Pattern]) -> Vec<Accepted> {
    let bits = loaded.plan.spec().key_bits();
    let mut model = ReferenceModel::new(bits);
    for records in &loaded.entries {
        model.insert_compiled(records);
    }
    queries
        .iter()
        .map(|q| {
            let Pattern::Exact { value } = q else {
                unreachable!("packet queries are exact headers")
            };
            let e = model.expected(&SearchKey::new(*value, bits));
            if e.matches == 0 {
                Vec::new()
            } else {
                e.accepted
            }
        })
        .collect()
}

/// Character (Hamming) distance between a word and a packed query.
fn char_distance(word: &str, query: &[u8]) -> usize {
    word.bytes().zip(query).filter(|(a, b)| a != *b).count()
}

/// spell-d2: words within the character budget, narrowed to those whose
/// first matching ladder rung comes earliest. The lowered ladder is
/// checked against a brute-force scan as the reference is built: every
/// word within the budget must match some rung, and the earliest rung
/// must hold only words at the minimum distance. A query whose ladder
/// fails either is recorded as a failed check, so an answer in the
/// accepted set is always a nearest word whatever `lower_query` does.
fn dictionary_reference(
    loaded: &Loaded,
    queries: &[Pattern],
    words: &[String],
    check: &mut Check,
) -> Vec<Accepted> {
    queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let Pattern::NearestMatch {
                value,
                max_distance,
            } = q
            else {
                unreachable!("dictionary queries are nearest-match")
            };
            let query = value.to_le_bytes();
            let probes = loaded
                .plan
                .lower_query(q)
                .expect("typo ladders lower")
                .probes()
                .to_vec();
            let mut best: Option<(usize, Vec<u64>)> = None;
            let mut nearest = usize::MAX;
            let mut uncovered = None;
            for (i, w) in words.iter().enumerate() {
                let distance = char_distance(w, &query);
                if distance > *max_distance as usize {
                    continue;
                }
                nearest = nearest.min(distance);
                let stored = TernaryKey::binary(dictionary::pack_word(w), 64);
                let Some(rung) = probes.iter().position(|p| stored.matches(p)) else {
                    uncovered.get_or_insert(i);
                    continue;
                };
                match &mut best {
                    Some((r, acc)) if *r == rung => acc.push(i as u64),
                    Some((r, _)) if *r < rung => {}
                    _ => best = Some((rung, vec![i as u64])),
                }
            }
            let accepted = best.map(|(_, acc)| acc).unwrap_or_default();
            #[allow(clippy::cast_possible_truncation)] // word indices
            let far = accepted
                .iter()
                .find(|&&i| char_distance(&words[i as usize], &query) != nearest);
            check.record(uncovered.is_none() && far.is_none(), || {
                format!(
                    "spell-d2 query {qi}: ladder of {} probes misses word {uncovered:?} \
                     within distance {max_distance}, or its first matching rung holds \
                     word {far:?} farther than the nearest ({nearest})",
                    probes.len()
                )
            });
            accepted
        })
        .collect()
}

fn admits(accepted: &[u64], o: &EngineOutcome) -> bool {
    match o.hit {
        None => accepted.is_empty(),
        Some(h) => accepted.contains(&h.data),
    }
}

/// One lookup as a user issues it: lower, then execute.
fn lookup(plan: &CompiledPlan, table: &dyn SearchEngine, q: &Pattern) -> EngineOutcome {
    plan.lower_query(q).expect("queries lower").execute(table)
}

/// Checks every query once; returns total memory accesses.
fn verify(loaded: &Loaded, queries: &[Pattern], want: &[Accepted], check: &mut Check) -> u64 {
    let mut accesses = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let o = lookup(&loaded.plan, &loaded.table, q);
        accesses += u64::from(o.memory_accesses);
        check.record(admits(&want[i], &o), || {
            format!(
                "query {i}: got {:?}, want one of {:?}",
                o.hit.map(|h| h.data),
                want[i]
            )
        });
    }
    accesses
}

/// Runs `packet-class` or `spell-d2`.
///
/// # Errors
///
/// A compile or load failure.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(opts: &Options, m: &mut Metrics, check: &mut Check) -> Result<String, String> {
    let sz = sizes(opts.workload, opts.scale);
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut setup_secs = Vec::new();
    let mut cal = Calibration::new();
    let (loaded, mut queries, words) = set_up(opts.workload, &sz, &mut cal, &mut setup_secs)?;
    // One table's footprint: read before any other copy or the reference
    // exists.
    m.set_noted(
        "peak_rss_mb",
        peak_rss_mb(),
        "VmHWM after the first set-up".into(),
    );
    queries.shuffle(&mut SmallRng::seed_from_u64(opts.seed));
    let want = if opts.workload == Workload::PacketClass {
        packet_reference(&loaded, &queries)
    } else {
        dictionary_reference(&loaded, &queries, &words, check)
    };
    let n = queries.len();
    let accesses = verify(&loaded, &queries, &want, check);
    m.set("accesses_per_lookup", accesses as f64 / n as f64);
    let stored = loaded.table.record_count() + loaded.table.overflow_count() as u64;
    let lowered: usize = loaded.entries.iter().map(Vec::len).sum();
    m.set(
        "copies_per_entry",
        stored as f64 / loaded.entries.len() as f64,
    );
    let sizes_line = format!(
        "entries={} lowered={lowered} stored_copies={stored} queries={n}",
        loaded.entries.len(),
    );
    if opts.trace {
        trace_layers(opts, loaded, &queries, m);
        return Ok(sizes_line);
    }

    // A delete switches a table to full-reach scans for good, so writes go
    // to their own copy and never change what reads measure.
    let mut churn = set_up(opts.workload, &sz, &mut cal, &mut setup_secs)?.0;
    let mut churner = Churner::new(&churn, sz.churn_set, opts.seed);
    let round = budget / ROUNDS;
    let mut latency = PerItem::new(n);
    let mut writes = PerItem::new(churner.candidates.len());
    let mut i = 0usize;
    // Every phase gets a slice of each round, so each one samples the
    // whole run rather than one stretch of machine load.
    for _ in 0..ROUNDS {
        // Closed loop: every query timed on its own, the query set cycled
        // in the seed's order.
        repeat_for(round.mul_f64(0.6), || {
            let scale = cal.scale();
            for _ in 0..QUERY_BURST {
                let q = i % n;
                let t0 = now_ns();
                let o = lookup(&loaded.plan, &loaded.table, &queries[q]);
                latency.push(q, scaled(now_ns() - t0, scale));
                check.record(admits(&want[q], &o), || format!("query {q} in closed loop"));
                i += 1;
            }
        });

        // Set-up, repeated: built and dropped, so set-ups sample the whole
        // run like every other phase.
        let start = Instant::now();
        loop {
            drop(set_up(opts.workload, &sz, &mut cal, &mut setup_secs)?);
            if start.elapsed() >= round.mul_f64(0.1) {
                break;
            }
        }

        // Writes: replace logical entries, one timed write each.
        repeat_for(round.mul_f64(0.3), || {
            let scale = cal.scale();
            for _ in 0..sz.write_burst {
                let (e, ns) = churner.replace(&mut churn, check);
                writes.push(e, scaled(ns, scale));
            }
        });
    }

    m.set_noted(
        "setup_s",
        median(&mut setup_secs),
        format!("median of {} set-ups", setup_secs.len()),
    );
    // Each query's time is its slow-state (p90) figure over its repeats,
    // so both metrics cover the same fixed query set on every seed.
    let mut slow = latency.slow_times_us();
    let total_us: f64 = slow.iter().sum();
    let note = format!(
        "{} queries, each its p90 over {} timings in all",
        slow.len(),
        latency.count()
    );
    m.set_noted(
        "lookups_per_s",
        slow.len() as f64 * 1e6 / total_us,
        format!("{note}; queries over their summed time"),
    );
    m.set_noted("lookup_p50_us", median(&mut slow), note.clone());
    m.info(
        "lookup_p99_us",
        quantile(&mut slow, 0.99).unwrap_or(0.0),
        "us",
        &note,
    );
    let mut slow = writes.slow_times_us();
    let note = format!(
        "{} logical entries replaced, each its p90 over {} replaces in all",
        slow.len(),
        writes.count()
    );
    m.set_noted("write_p50_us", median(&mut slow), note.clone());
    m.info(
        "write_p99_us",
        quantile(&mut slow, 0.99).unwrap_or(0.0),
        "us",
        &note,
    );
    cal.report(m);
    // The churned table must still give every right answer.
    verify(&churn, &queries, &want, check);
    Ok(sizes_line)
}

/// Picks the logical entries the write phase replaces: a fixed set of
/// `size` entries whose lowered keys no other entry shares (a shared key
/// would delete both), replaced in a seed-shuffled order. The set is part
/// of the workload's snapshot, so a costly entry is in it on every seed.
struct Churner {
    candidates: Vec<usize>,
    next: usize,
}

impl Churner {
    fn new(loaded: &Loaded, size: usize, seed: u64) -> Self {
        let mut key_uses: HashMap<TernaryKey, usize> = HashMap::new();
        for r in loaded.entries.iter().flatten() {
            *key_uses.entry(r.key).or_default() += 1;
        }
        let mut candidates: Vec<usize> = (0..loaded.entries.len())
            .filter(|&e| loaded.entries[e].iter().all(|r| key_uses[&r.key] == 1))
            .collect();
        candidates.shuffle(&mut SmallRng::seed_from_u64(CONTENT_SEED));
        candidates.truncate(size);
        candidates.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xC4_0E));
        assert!(!candidates.is_empty(), "some entry has unshared keys");
        Self {
            candidates,
            next: 0,
        }
    }

    /// Replaces the next entry (delete every lowered key, insert the
    /// records again); returns its index in the churn set and the time
    /// that took.
    fn replace(&mut self, loaded: &mut Loaded, check: &mut Check) -> (usize, u64) {
        let slot = self.next % self.candidates.len();
        let e = self.candidates[slot];
        self.next += 1;
        let records = &loaded.entries[e];
        let t0 = now_ns();
        let removed: u32 = records.iter().map(|r| loaded.table.delete(&r.key)).sum();
        let inserted = records
            .iter()
            .try_for_each(|r| loaded.table.insert(*r).map(|_| ()));
        let elapsed = now_ns() - t0;
        check.record(
            removed as usize >= records.len() && inserted.is_ok(),
            || {
                format!(
                    "entry {e}: deleted {removed} of {} keys, re-insert {inserted:?}",
                    records.len()
                )
            },
        );
        (slot, elapsed)
    }
}

/// The traced run: lowering, plan execution and the table searches under
/// it, each timed from outside; and the cost of tracing itself.
#[allow(clippy::cast_precision_loss)]
fn trace_layers(opts: &Options, loaded: Loaded, queries: &[Pattern], m: &mut Metrics) {
    let budget = Duration::from_secs_f64(opts.seconds);
    let spans = Arc::new(SpanLog::new(SPAN_CAPACITY));
    let calls = Arc::new(EngineCalls::default());
    let enabled = Arc::new(AtomicBool::new(true));
    let Loaded { plan, table, .. } = loaded;
    let traced = Traced::new(
        table,
        Arc::clone(&calls),
        Arc::clone(&spans),
        Arc::clone(&enabled),
    );

    // Pattern layer: lowering timed per group, each execute on its own,
    // with the table searches under it timed by the adapter.
    let (mut lower_ns, mut execute_ns, mut child_ns) = (0u64, 0u64, 0u64);
    let mut executed = 0u64;
    let mut probe_keys: Vec<SearchKey> = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    // Whole passes over the query set, so the counts repeat for a seed.
    while executed == 0 || start.elapsed() < budget.mul_f64(0.4) {
        for group in queries.chunks(LOWER_GROUP) {
            let id = spans.open("pattern.lower_group", NO_PARENT, 0);
            let t0 = now_ns();
            let plans: Vec<QueryPlan> = group
                .iter()
                .map(|q| plan.lower_query(q).expect("queries lower"))
                .collect();
            lower_ns += now_ns() - t0;
            spans.close(id);
            for p in &plans {
                request += 1;
                if probe_keys.len() < 1 << 16 {
                    probe_keys.extend_from_slice(p.probes());
                }
                let root = spans.open("pattern.query", NO_PARENT, request);
                let id = spans.open("pattern.execute", root, request);
                let before = calls.search_ns.load(Ordering::Relaxed);
                let t0 = now_ns();
                let o = SpanLog::under(id, request, || p.execute(&traced));
                execute_ns += now_ns() - t0;
                child_ns += calls.search_ns.load(Ordering::Relaxed) - before;
                spans.close(id);
                spans.close(root);
                std::hint::black_box(o);
                executed += 1;
            }
        }
    }
    let searches = calls.searches.load(Ordering::Relaxed);
    let hits = calls.hits.load(Ordering::Relaxed);
    let accesses = calls.accesses.load(Ordering::Relaxed);
    let search_ns = ratio(calls.search_ns.load(Ordering::Relaxed) as f64, searches);
    m.set_noted(
        "pattern.lower_ns",
        ratio(lower_ns as f64, executed),
        format!("{executed} queries"),
    );
    m.set("pattern.execute_ns", ratio(execute_ns as f64, executed));
    m.set("pattern.probes_per_query", ratio(searches as f64, executed));
    m.set(
        "pattern.wasted_probe_ratio",
        ratio((searches - hits) as f64, searches),
    );
    m.set(
        "pattern.self_ns",
        ratio(execute_ns.saturating_sub(child_ns) as f64, executed),
    );
    m.set_noted("table.search_ns", search_ns, format!("{searches} searches"));
    let per_search = ratio(accesses as f64, searches);
    m.set("table.accesses_per_search", per_search);
    m.set("table.hit_ratio", ratio(hits as f64, searches));

    // Slice layer: each probe's home-row bucket search, replayed in groups.
    let table = traced.inner();
    let rows_log2 = table.config().rows_log2;
    let (horizontal, _) = table.config().arrangement.factors();
    let slices = table.slices();
    let mut probe_ns = Vec::new();
    for group in probe_keys.chunks(LOWER_GROUP) {
        let t0 = now_ns();
        let mut found = 0usize;
        for k in group {
            let bucket = table.home_bucket(k);
            let first = (bucket >> rows_log2) as usize * horizontal as usize;
            let row = bucket & ((1 << rows_log2) - 1);
            found += (first..first + horizontal as usize)
                .filter(|&s| slices[s].search_bucket(row, k).is_some())
                .count();
        }
        probe_ns.push((now_ns() - t0) as f64 / group.len() as f64);
        std::hint::black_box(found);
    }
    let probe = median(&mut probe_ns);
    m.set_noted(
        "slice.bucket_probe_ns",
        probe,
        format!("median of {} groups", probe_ns.len()),
    );
    m.set("table.self_ns", search_ns - per_search * probe);

    // Tracing overhead: closed-loop passes with the adapter timing on/off.
    let pass_len = (queries.len() / 8).max(1);
    let pass = |on: bool, from: usize| {
        enabled.store(on, Ordering::Relaxed);
        let t = Instant::now();
        for q in queries.iter().cycle().skip(from).take(pass_len) {
            std::hint::black_box(lookup(&plan, &traced, q));
        }
        t.elapsed().as_secs_f64()
    };
    let mut overhead = Vec::new();
    let start = Instant::now();
    let mut from = 0;
    while start.elapsed() < budget.mul_f64(0.4) || overhead.len() < 3 {
        let (off, on) = if overhead.len() % 2 == 0 {
            let off = pass(false, from);
            (off, pass(true, from))
        } else {
            let on = pass(true, from);
            (pass(false, from), on)
        };
        overhead.push((on / off - 1.0) * 100.0);
        from = (from + pass_len) % queries.len();
    }
    m.set_noted(
        "trace.overhead_pct",
        median(&mut overhead),
        format!("median of {} paired passes", overhead.len()),
    );
    spans.dump(opts);
}
