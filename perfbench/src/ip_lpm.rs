//! `ip-lpm`: the paper's headline study. The AS1103-scale synthetic BGP
//! table loads into Table 2's design A in LPM order; uniform
//! member-address lookups run through `search_batch_into`.
//!
//! The reference is an independent longest-prefix matcher (one hash set
//! per prefix length) built from the generated prefixes.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ca_ram_bench::designs::{build_ip_table, ip_designs, load_prefixes};
use ca_ram_bench::driver::{bgp_config, AS1103_PREFIXES};
use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::SearchKey;
use ca_ram_core::layout::Record;
use ca_ram_core::table::{CaRamTable, SearchOutcome};
use ca_ram_workloads::bgp::generate;
use ca_ram_workloads::prefix::Ipv4Prefix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calibration;
use crate::load::repeat_for;
use crate::stats::{
    block_medians_us, median, now_ns, p50_p99_us, peak_rss_mb, quantile, scaled, slow_rate,
    slow_time, PerItem,
};
use crate::trace::{EngineCalls, SpanLog, Traced, SPAN_CAPACITY};
use crate::{Check, Metrics, Options, Scale};

/// Keys timed as one group where a single call is shorter than 1 us.
const GROUP: usize = 64;
/// Keys per latency sample (one `search` takes well under 1 us).
const LATENCY_GROUP: usize = 16;
/// Route replaces per write block (about a millisecond of writes).
const WRITE_BLOCK: usize = 64;
/// Latency groups timed after each calibration (about a millisecond).
const GROUPS_PER_CAL: usize = 256;
/// Rounds the measuring budget is split into.
const ROUNDS: u32 = 12;
/// Set-ups kept loaded: all but the last serve reads, the last takes
/// writes.
const KEEP: usize = 4;

struct Sizes {
    prefixes: usize,
    trace: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            prefixes: AS1103_PREFIXES,
            trace: 1 << 16,
        },
        Scale::Tiny => Sizes {
            prefixes: 4_000,
            trace: 2_048,
        },
    }
}

/// The winning prefix of one lookup, as `(network, length)`.
type Answer = Option<(u32, u32)>;

/// Independent longest-prefix matcher over the generated prefixes.
struct LpmReference {
    by_len: Vec<HashSet<u32>>,
}

impl LpmReference {
    fn new(prefixes: &[Ipv4Prefix]) -> Self {
        let mut by_len = vec![HashSet::new(); 33];
        for p in prefixes {
            by_len[usize::from(p.len())].insert(p.addr());
        }
        Self { by_len }
    }

    fn lookup(&self, addr: u32) -> Answer {
        (0..=32u32).rev().find_map(|len| {
            let net = if len == 0 {
                0
            } else {
                addr & (u32::MAX << (32 - len))
            };
            self.by_len[len as usize]
                .contains(&net)
                .then_some((net, len))
        })
    }
}

#[allow(clippy::cast_possible_truncation)] // 32-bit keys
fn answer(o: &SearchOutcome) -> Answer {
    o.hit
        .map(|h| (h.record.key.value() as u32, h.record.key.care_count()))
}

/// Order-sensitive fold of a pass's answers, compared against the
/// reference's fold after every timed pass.
fn fold(acc: u64, a: Answer) -> u64 {
    let v = a.map_or(u64::MAX, |(net, len)| u64::from(net) << 6 | u64::from(len));
    acc.wrapping_mul(0x100_0000_01B3).wrapping_add(v)
}

/// The routing table is a fixed snapshot (the generator's own seed), as a
/// router's table is; the benchmark seed draws the lookups and updates.
/// One call is one set-up; its scaled time is pushed onto `setup_secs`.
fn build(
    n: usize,
    cal: &mut Calibration,
    setup_secs: &mut Vec<f64>,
) -> (Vec<Ipv4Prefix>, CaRamTable) {
    let scale = cal.scale();
    let t = Instant::now();
    let prefixes = generate(&bgp_config(n, None));
    let mut table = build_ip_table(&ip_designs()[0]);
    load_prefixes(&mut table, &prefixes, &vec![1.0; prefixes.len()]);
    setup_secs.push(t.elapsed().as_secs_f64() * scale);
    (prefixes, table)
}

/// Uniform lookups: a uniformly drawn prefix, then a random member of it.
fn member_keys(prefixes: &[Ipv4Prefix], n: usize, seed: u64) -> Vec<SearchKey> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    (0..n)
        .map(|_| {
            let p = &prefixes[rng.gen_range(0..prefixes.len())];
            SearchKey::new(u128::from(p.random_member(&mut rng)), 32)
        })
        .collect()
}

/// Checks every answer of one pass; returns total memory accesses.
fn verify(table: &CaRamTable, keys: &[SearchKey], expected: &[Answer], check: &mut Check) -> u64 {
    let mut accesses = 0u64;
    let mut i = 0;
    table.search_batch_into(keys, |o| {
        accesses += u64::from(o.memory_accesses);
        let got = answer(&o);
        check.record(got == expected[i], || {
            format!(
                "ip-lpm key {:#010x}: got {got:?}, want {:?}",
                keys[i].value(),
                expected[i]
            )
        });
        i += 1;
    });
    accesses
}

/// Runs the workload.
///
/// # Errors
///
/// Never: set-up of this workload cannot fail on valid sizes.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(opts: &Options, m: &mut Metrics, check: &mut Check) -> Result<String, String> {
    let sz = sizes(opts.scale);
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut setup_secs = Vec::new();
    let mut cal = Calibration::new();
    let (prefixes, first) = build(sz.prefixes, &mut cal, &mut setup_secs);
    // One table's footprint: read before any other copy or the reference
    // exists.
    m.set_noted(
        "peak_rss_mb",
        peak_rss_mb(),
        "VmHWM after the first set-up".into(),
    );
    let mut tables = vec![first];
    let copies = if opts.trace { 1 } else { KEEP };
    for _ in 1..copies {
        tables.push(build(sz.prefixes, &mut cal, &mut setup_secs).1);
    }
    let reference = LpmReference::new(&prefixes);
    let keys = member_keys(&prefixes, sz.trace, opts.seed);
    let expected: Vec<Answer> = keys
        .iter()
        .map(|k| reference.lookup(u32::try_from(k.value()).expect("32-bit key")))
        .collect();
    let want_fold = expected.iter().fold(0, |acc, &a| fold(acc, a));
    let n = keys.len();
    let accesses = tables
        .iter()
        .map(|t| verify(t, &keys, &expected, check))
        .last()
        .unwrap_or(0);
    let stored = tables[0].record_count() + tables[0].overflow_count() as u64;
    m.set("accesses_per_lookup", accesses as f64 / n as f64);
    m.set("copies_per_entry", stored as f64 / prefixes.len() as f64);
    let sizes_line = format!(
        "prefixes={} design=A lookups_per_pass={n} tables={}",
        prefixes.len(),
        tables.len()
    );
    if opts.trace {
        let table = tables.pop().expect("at least one set-up");
        trace_layers(opts, table, &keys, accesses, m);
        return Ok(sizes_line);
    }

    // The last table takes the writes: a delete switches a table to
    // full-reach scans for good, which would change what reads measure.
    let mut churn = tables.pop().expect("at least two set-ups");
    let reads = tables;
    let round = budget / ROUNDS;
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x0DE1_E7E5);
    let (mut rates, mut write_ns) = (Vec::new(), Vec::new());
    let mut latency = PerItem::new(n / LATENCY_GROUP);
    let mut cursor = 0usize;
    // Every phase gets a slice of each round, so each one samples the
    // whole run rather than one stretch of machine load.
    for _ in 0..ROUNDS {
        // Throughput: whole-trace batch passes over each read table.
        repeat_for(round.mul_f64(0.4), || {
            for t in &reads {
                let scale = cal.scale();
                let pass = Instant::now();
                let mut acc = 0u64;
                t.search_batch_into(&keys, |o| acc = fold(acc, answer(&o)));
                rates.push(n as f64 / (pass.elapsed().as_secs_f64() * scale));
                if acc == want_fold {
                    check.passed(n as u64);
                } else {
                    verify(t, &keys, &expected, check);
                }
            }
        });

        // Latency: groups of LATENCY_GROUP single searches, each group a
        // fixed slice of the trace timed again on every cycle.
        let mut outs = [None; LATENCY_GROUP];
        repeat_for(round.mul_f64(0.25), || {
            let scale = cal.scale();
            for _ in 0..GROUPS_PER_CAL {
                let t0 = now_ns();
                for (j, out) in outs.iter_mut().enumerate() {
                    *out = answer(&reads[0].search(&keys[cursor + j]));
                }
                latency.push(cursor / LATENCY_GROUP, scaled(now_ns() - t0, scale));
                for (j, got) in outs.iter().enumerate() {
                    let k = cursor + j;
                    check.record(*got == expected[k], || format!("ip-lpm latency key {k}"));
                }
                cursor = (cursor + LATENCY_GROUP) % n;
            }
        });

        // Set-up, repeated: built and dropped, so set-ups sample the whole
        // run like every other phase.
        repeat_for(round.mul_f64(0.1), || {
            drop(build(sz.prefixes, &mut cal, &mut setup_secs));
        });

        // Writes: one write replaces a route (withdraw, then re-announce
        // in LPM order), timed as a unit.
        repeat_for(round.mul_f64(0.25), || {
            let scale = cal.scale();
            for _ in 0..WRITE_BLOCK {
                let p = prefixes[rng.gen_range(0..prefixes.len())];
                let key = p.to_ternary_key();
                let t0 = now_ns();
                let removed = churn.delete(&key);
                let inserted = churn.insert_sorted(Record::new(key, 0));
                write_ns.push(scaled(now_ns() - t0, scale));
                check.record(removed > 0 && inserted.is_ok(), || {
                    format!("ip-lpm replace {p}: removed {removed}, insert {inserted:?}")
                });
            }
        });
    }

    m.set_noted(
        "setup_s",
        median(&mut setup_secs),
        format!("median of {} set-ups", setup_secs.len()),
    );
    let passes = rates.len();
    let p50 = quantile(&mut rates, 0.5).unwrap_or(0.0);
    m.set_noted(
        "lookups_per_s",
        slow_rate(&mut rates),
        format!(
            "p10 of {passes} passes of {n} lookups over {} tables; p50 {p50:.0}",
            reads.len()
        ),
    );
    let group = LATENCY_GROUP as f64;
    let mut slow = latency.slow_times_us();
    let note = format!(
        "{} groups of {LATENCY_GROUP} single searches, each group's p90 over {} timings; \
         per search",
        slow.len(),
        latency.count()
    );
    m.set_noted("lookup_p50_us", median(&mut slow) / group, note.clone());
    m.info(
        "lookup_p99_us",
        quantile(&mut slow, 0.99).unwrap_or(0.0) / group,
        "us",
        &note,
    );
    let mut blocks = block_medians_us(&write_ns, WRITE_BLOCK);
    let (_, p99, count) = p50_p99_us(&write_ns);
    m.set_noted(
        "write_p50_us",
        slow_time(&mut blocks),
        format!(
            "p90 of the medians of {} blocks of {WRITE_BLOCK} route replaces \
             (delete + insert_sorted), {count} in all",
            blocks.len()
        ),
    );
    m.info(
        "write_p99_us",
        p99,
        "us",
        &format!("{count} route replaces"),
    );
    cal.report(m);
    // The churned table must answer exactly as before the churn.
    verify(&churn, &keys, &expected, check);
    Ok(sizes_line)
}

/// The traced run: per-layer costs of the lookup path, and the cost of
/// tracing itself.
#[allow(clippy::cast_precision_loss)]
fn trace_layers(
    opts: &Options,
    table: CaRamTable,
    keys: &[SearchKey],
    accesses: u64,
    m: &mut Metrics,
) {
    let budget = Duration::from_secs_f64(opts.seconds);
    let spans = Arc::new(SpanLog::new(SPAN_CAPACITY));
    let enabled = Arc::new(AtomicBool::new(false));
    let calls = Arc::new(EngineCalls::default());
    let traced = Traced::new(table, calls, Arc::clone(&spans), Arc::clone(&enabled));
    let table = traced.inner();
    let n = keys.len();

    // slice: the home-row bucket probe, replayed through search_bucket.
    let rows_log2 = table.config().rows_log2;
    let (horizontal, _) = table.config().arrangement.factors();
    let homes: Vec<(usize, u64)> = keys
        .iter()
        .map(|k| {
            let bucket = table.home_bucket(k);
            let v = usize::try_from(bucket >> rows_log2).expect("slice group fits usize");
            (v * horizontal as usize, bucket & ((1 << rows_log2) - 1))
        })
        .collect();
    let slices = table.slices();
    let mut probe_ns = Vec::new();
    let mut search_ns = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget.mul_f64(0.4) {
        for (chunk_keys, chunk_homes) in keys.chunks(GROUP).zip(homes.chunks(GROUP)) {
            let id = spans.open("slice.probe_group", crate::trace::NO_PARENT, 0);
            let t0 = now_ns();
            let mut hits = 0usize;
            for (k, &(first, row)) in chunk_keys.iter().zip(chunk_homes) {
                hits += (first..first + horizontal as usize)
                    .find(|&s| slices[s].search_bucket(row, k).is_some())
                    .is_some() as usize;
            }
            let t1 = now_ns();
            spans.close(id);
            std::hint::black_box(hits);
            probe_ns.push((t1 - t0) as f64 / chunk_keys.len() as f64);
            let id = spans.open("table.search_group", crate::trace::NO_PARENT, 0);
            let t0 = now_ns();
            let mut acc = 0u64;
            for k in chunk_keys {
                acc = fold(acc, answer(&table.search(k)));
            }
            let t1 = now_ns();
            spans.close(id);
            std::hint::black_box(acc);
            search_ns.push((t1 - t0) as f64 / chunk_keys.len() as f64);
        }
    }
    let probe = median(&mut probe_ns);
    let search = median(&mut search_ns);
    let per_search = accesses as f64 / n as f64;
    m.set_noted(
        "slice.bucket_probe_ns",
        probe,
        format!("median of {} groups of {GROUP}", probe_ns.len()),
    );
    m.set_noted(
        "table.search_ns",
        search,
        format!("median of {} groups of {GROUP}", search_ns.len()),
    );
    m.set("table.accesses_per_search", per_search);
    m.set("table.hit_ratio", 1.0);
    m.set("table.self_ns", search - per_search * probe);

    // Tracing overhead: the batch path through the adapter, timing on vs
    // off, alternated pass by pass.
    let mut ratios = Vec::new();
    let mut out = Vec::new();
    let mut pass = |on: bool| {
        enabled.store(on, Ordering::Relaxed);
        let t = Instant::now();
        for chunk in keys.chunks(GROUP) {
            SearchEngine::search_batch_into(&traced, chunk, &mut out);
        }
        t.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed() < budget.mul_f64(0.4) || ratios.len() < 5 {
        let (off, on) = if round % 2 == 0 {
            let off = pass(false);
            (off, pass(true))
        } else {
            let on = pass(true);
            (pass(false), on)
        };
        ratios.push((on / off - 1.0) * 100.0);
        round += 1;
    }
    m.set_noted(
        "trace.overhead_pct",
        median(&mut ratios),
        format!("median of {} paired batch passes", ratios.len()),
    );
    spans.dump(opts);
}
