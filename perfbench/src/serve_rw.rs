//! `serve-rw`: a `SearchService` over two shards (one per core), each a
//! `DurableTable` (`SyncPolicy::Flush`, group commit, `auto_commit` off)
//! preloaded with its share of 200k exact-match 64-bit records. One
//! generator thread sends 90% searches, 5% inserts of new keys and 5%
//! deletes of keys it inserted earlier, open loop: once at a fixed
//! reference rate, then on the rate ladder for `sustained_rps`.
//!
//! The reference is a model in the generator, advanced only by admitted
//! writes. Every operation on one key routes to one FIFO shard, so the
//! model sees them in the order the shard applies them.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::storage::{DurableOptions, DurableTable, IndexSpec, SyncPolicy, TableSpec};
use ca_ram_core::table::{Arrangement, OverflowPolicy, TableConfig};
use ca_ram_service::{
    route_shard, BatchTicket, Completion, SearchService, ServiceConfig, ServiceOp, ServiceReply,
    Ticket,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calibration;
use crate::load::{due_by, due_ns, repeat_for, rung_at_or_below, sleep_to_next_tick, Ladder};
use crate::stats::{
    block_medians_us, median, now_ns, p50_p99_us, peak_rss_mb, quantile, ratio, scaled, slow_rate,
    slow_time,
};
use crate::trace::{CallTimes, EngineCalls, SpanLog, Traced, NO_PARENT, SPAN_CAPACITY};
use crate::{Check, Metrics, Options, Scale};

/// Shards, one per core of the reference box.
const SHARDS: usize = 2;
/// Record slots per row.
const SLOTS_PER_ROW: u32 = 8;
/// The fixed reference rate, requests per second.
const REFERENCE_RPS: f64 = 2_000.0;
/// Keys per request in the closed-loop read phase.
const BATCH: usize = 64;
/// Batches the closed-loop read client keeps in flight.
const IN_FLIGHT: usize = 8;
/// Batches per timed pass of the closed-loop read phase.
const PASS_BATCHES: usize = 32;
/// Closed-loop mixed requests sent per run of the calibration kernel.
const CAL_EVERY: usize = 32;
/// Reference-rate blocks the first half of the budget is split into.
const ROUNDS: u32 = 10;
/// Most ladder steps a run takes (the search usually converges sooner).
const LADDER_STEPS: u32 = 16;
/// Closed-loop reads per latency block (a few milliseconds).
const READ_BLOCK: usize = 256;
/// Closed-loop writes per latency block (a few tens of milliseconds).
const WRITE_BLOCK: usize = 32;

struct Sizes {
    records: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes { records: 200_000 },
        Scale::Tiny => Sizes { records: 2_000 },
    }
}

/// The payload stored with `key`.
fn data_of(key: u64) -> u64 {
    key.rotate_left(17) ^ 0xDA7A
}

fn record(key: u64) -> Record {
    Record::new(TernaryKey::binary(u128::from(key), 64), data_of(key))
}

/// One shard's table: 3x slot headroom over its share, low-bit index.
fn shard_spec(records: usize) -> TableSpec {
    let layout = RecordLayout::new(64, false, 64);
    let buckets = (records * 3).div_ceil(SLOTS_PER_ROW as usize).max(16);
    let rows_log2 = buckets.next_power_of_two().trailing_zeros();
    TableSpec {
        config: TableConfig {
            rows_log2,
            row_bits: SLOTS_PER_ROW * layout.slot_bits(),
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe {
                max_steps: u32::MAX,
            },
        },
        index: IndexSpec::RangeSelect {
            low: 0,
            count: rows_log2,
        },
    }
}

/// The generator's model of the key set: what is live, what it inserted,
/// and recently deleted keys (read to check that deletes took effect).
struct Model {
    live: Vec<u64>,
    position: HashMap<u64, usize>,
    inserted: Vec<u64>,
    deleted: VecDeque<u64>,
    rng: SmallRng,
}

/// One generated operation and the answer it must get.
#[derive(Clone, Copy)]
enum Op {
    Search { key: u64, hit: bool },
    Insert(u64),
    Delete { key: u64, slot: usize },
}

impl Model {
    fn new(keys: &[u64], seed: u64) -> Self {
        Self {
            live: keys.to_vec(),
            position: keys.iter().enumerate().map(|(i, &k)| (k, i)).collect(),
            inserted: Vec::new(),
            deleted: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0x5E_4E),
        }
    }

    fn read_key(&mut self) -> Op {
        let key = if !self.deleted.is_empty() && self.rng.gen_range(0..10) == 0 {
            self.deleted[self.rng.gen_range(0..self.deleted.len())]
        } else {
            self.live[self.rng.gen_range(0..self.live.len())]
        };
        Op::Search {
            key,
            hit: self.position.contains_key(&key),
        }
    }

    /// The next operation: 90% search, 5% insert, 5% delete.
    fn next(&mut self) -> Op {
        match self.rng.gen_range(0..100) {
            0..=89 => self.read_key(),
            90..=94 => self.fresh_insert(),
            _ if self.inserted.is_empty() => self.fresh_insert(),
            _ => {
                let slot = self.rng.gen_range(0..self.inserted.len());
                Op::Delete {
                    key: self.inserted[slot],
                    slot,
                }
            }
        }
    }

    fn fresh_insert(&mut self) -> Op {
        loop {
            let key: u64 = self.rng.gen();
            if !self.position.contains_key(&key) {
                return Op::Insert(key);
            }
        }
    }

    /// Applies an admitted write.
    fn admit(&mut self, op: Op) {
        match op {
            Op::Search { .. } => {}
            Op::Insert(key) => {
                self.position.insert(key, self.live.len());
                self.live.push(key);
                self.inserted.push(key);
            }
            Op::Delete { key, slot } => {
                self.inserted.swap_remove(slot);
                let at = self.position.remove(&key).expect("deleted key was live");
                self.live.swap_remove(at);
                if let Some(&moved) = self.live.get(at) {
                    self.position.insert(moved, at);
                }
                if self.deleted.len() == 4_096 {
                    self.deleted.pop_front();
                }
                self.deleted.push_back(key);
            }
        }
    }

    fn service_op(op: Op) -> ServiceOp {
        match op {
            Op::Search { key, .. } => ServiceOp::Search(SearchKey::new(u128::from(key), 64)),
            Op::Insert(key) => ServiceOp::Insert(record(key)),
            Op::Delete { key, .. } => ServiceOp::Delete(TernaryKey::binary(u128::from(key), 64)),
        }
    }
}

/// Whether `reply` is the right answer to `op`.
fn answer_ok(op: Op, reply: &ServiceReply) -> bool {
    match (op, reply) {
        (Op::Search { key, hit }, ServiceReply::Search(o)) => match o.hit {
            None => !hit,
            Some(h) => hit && h.key.value() == u128::from(key) && h.data == data_of(key),
        },
        (Op::Insert(_), ServiceReply::Insert(r)) => r.is_ok(),
        (Op::Delete { .. }, ServiceReply::Delete(n)) => *n == 1,
        _ => false,
    }
}

/// A loaded service and the directories its shards live in.
struct Loaded {
    service: SearchService,
    dirs: Vec<PathBuf>,
    /// Per shard `(ops_logged, commits, committed_bytes)` after preload.
    wal_base: Vec<(u64, u64, u64)>,
}

impl Loaded {
    fn close(self) {
        self.service.shutdown();
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// What the traced run wraps each shard's engine with.
struct Tracing {
    calls: Vec<Arc<EngineCalls>>,
    spans: Arc<SpanLog>,
    enabled: Arc<AtomicBool>,
}

/// Preloads the shards and starts the service. With `tracing`, each
/// shard's table is wrapped in a [`Traced`] adapter, and `probe_keys` get
/// their home-row bucket probe replayed first (the slice layer).
fn load(
    keys: &[u64],
    dir: &Path,
    round: usize,
    tracing: Option<&Tracing>,
    slice_probe: Option<(&[u64], &mut f64)>,
) -> Result<Loaded, String> {
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for &k in keys {
        per_shard[route_shard(u128::from(k), SHARDS)].push(k);
    }
    let opts = DurableOptions {
        sync: SyncPolicy::Flush,
        auto_commit: false,
        ..DurableOptions::default()
    };
    let mut dirs = Vec::new();
    let mut tables = Vec::new();
    for (shard, shard_keys) in per_shard.iter().enumerate() {
        let d = dir.join(format!("wal-{}-{round}-{shard}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let mut t = DurableTable::create(&d, &shard_spec(keys.len() / SHARDS), opts.clone())
            .map_err(|e| format!("creating {}: {e}", d.display()))?;
        for chunk in shard_keys.chunks(4_096) {
            for &k in chunk {
                t.insert(record(k))
                    .map_err(|e| format!("preloading {k:#x}: {e}"))?;
            }
            t.commit().map_err(|e| format!("committing preload: {e}"))?;
        }
        dirs.push(d);
        tables.push(t);
    }
    let wal_base = tables
        .iter()
        .map(|t| (t.ops_logged(), t.commits(), t.wal_committed_bytes()))
        .collect();
    let mut slice_probe = slice_probe;
    if let Some((probe, out)) = slice_probe.as_mut() {
        **out = replay_bucket_probes(&tables, probe);
    }
    let engines: Vec<Box<dyn SearchEngine>> = tables
        .into_iter()
        .enumerate()
        .map(|(shard, t)| -> Box<dyn SearchEngine> {
            match tracing {
                Some(tr) => Box::new(Traced::new(
                    t,
                    Arc::clone(&tr.calls[shard]),
                    Arc::clone(&tr.spans),
                    Arc::clone(&tr.enabled),
                )),
                None => Box::new(t),
            }
        })
        .collect();
    let config = ServiceConfig {
        shards: SHARDS,
        ..ServiceConfig::default()
    };
    let service = SearchService::new(config, engines).map_err(|e| e.to_string())?;
    Ok(Loaded {
        service,
        dirs,
        wal_base,
    })
}

/// Median ns of one home-row `search_bucket`, over groups of 64 keys.
#[allow(clippy::cast_precision_loss)]
fn replay_bucket_probes(tables: &[DurableTable], keys: &[u64]) -> f64 {
    let mut per_probe = Vec::new();
    for group in keys.chunks(64) {
        let t0 = now_ns();
        let mut found = 0usize;
        for &k in group {
            let table = tables[route_shard(u128::from(k), SHARDS)].table();
            let key = SearchKey::new(u128::from(k), 64);
            let row = table.home_bucket(&key);
            found += usize::from(table.slices()[0].search_bucket(row, &key).is_some());
        }
        per_probe.push((now_ns() - t0) as f64 / group.len() as f64);
        std::hint::black_box(found);
    }
    median(&mut per_probe)
}

/// A request in flight.
struct Pending {
    ticket: Ticket,
    op: Op,
    id: u64,
    due: u64,
    sent: u64,
}

/// Everything one open-loop phase observed (ns).
#[derive(Default)]
struct PhaseOut {
    reads: Vec<u64>,
    writes: Vec<u64>,
    late: Vec<u64>,
    queue_wait: Vec<u64>,
    total: Vec<u64>,
    accesses: u64,
    rejected: u64,
    shed: u64,
    abandoned: bool,
    backlog_grew: bool,
    /// Requests completed per second of the phase (until the last
    /// completion).
    served_rate: f64,
}

impl PhaseOut {
    /// Pools another phase's samples and counts into this one.
    fn absorb(&mut self, other: PhaseOut) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.late.extend(other.late);
        self.queue_wait.extend(other.queue_wait);
        self.total.extend(other.total);
        self.accesses += other.accesses;
        self.rejected += other.rejected;
        self.shed += other.shed;
    }
}

/// Sends `rate * duration` generated requests in bursts at each tick,
/// polling completions between ticks; abandons the phase once the
/// backlog passes `guard` requests (before admission would reject) or a
/// request is 20 limits late.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
fn open_loop(
    svc: &SearchService,
    model: &mut Model,
    rate: f64,
    duration: Duration,
    limit_ns: u64,
    check: &mut Check,
    spans: Option<&SpanLog>,
) -> PhaseOut {
    let n = ((rate * duration.as_secs_f64()).ceil() as usize).max(1);
    let guard = ServiceConfig::default().queue_depth / 2;
    let mut out = PhaseOut::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = now_ns();
    let mut last_done = 0u64;
    let mut finish = |p: &Pending, c: &Completion, out: &mut PhaseOut, check: &mut Check| {
        let total = u64::try_from(c.total.as_nanos()).unwrap_or(u64::MAX);
        last_done = last_done.max(p.sent + total);
        let latency = p.sent - p.due + total;
        match (p.op, &c.reply) {
            (_, ServiceReply::Shed(_)) => out.shed += 1,
            (Op::Search { .. }, ServiceReply::Search(o)) => {
                out.accesses += u64::from(o.memory_accesses);
                out.reads.push(latency);
            }
            _ => out.writes.push(latency),
        }
        out.queue_wait
            .push(u64::try_from(c.queue_wait.as_nanos()).unwrap_or(u64::MAX));
        out.total.push(total);
        check.record(answer_ok(p.op, &c.reply), || {
            format!("serve-rw request {}: {:?}", p.id, c.reply)
        });
        if let Some(spans) = spans {
            let (sent, wait) = (
                start + p.sent,
                u64::try_from(c.queue_wait.as_nanos()).unwrap_or(0),
            );
            let root = spans.span(
                "client.request",
                start + p.due,
                sent + total,
                NO_PARENT,
                p.id,
            );
            spans.span("service.queue_wait", sent, sent + wait, root, p.id);
            spans.span("service.request", sent, sent + total, root, p.id);
        }
        latency
    };
    let mut poll = |pending: &mut Vec<Pending>, out: &mut PhaseOut, check: &mut Check| {
        let mut worst = 0u64;
        pending.retain(|p| match p.ticket.try_take() {
            Some(c) => {
                worst = worst.max(finish(p, &c, out, check));
                false
            }
            None => true,
        });
        worst
    };
    let mut j = 0usize;
    'send: while j < n {
        let upto = due_by(now_ns() - start, rate).min(n);
        while j < upto {
            if pending.len() >= guard {
                out.abandoned = true;
                break 'send;
            }
            let due = due_ns(j, rate);
            let op = model.next();
            let sent = now_ns() - start;
            out.late.push(sent.saturating_sub(due));
            match svc.try_submit(Model::service_op(op)) {
                Ok(ticket) => {
                    model.admit(op);
                    pending.push(Pending {
                        ticket,
                        op,
                        id: j as u64 + 1,
                        due,
                        sent: sent.max(due),
                    });
                }
                Err(e) => {
                    out.rejected += 1;
                    check.record(false, || format!("serve-rw request {j} rejected: {e}"));
                }
            }
            j += 1;
        }
        if poll(&mut pending, &mut out, check) > limit_ns.saturating_mul(20) {
            out.abandoned = true;
            break;
        }
        sleep_to_next_tick(start);
    }
    // A backlog above what the rate fills in one latency limit is growing.
    out.backlog_grew = pending.len() as f64 > (rate * limit_ns as f64 / 1e9).max(16.0);
    while !pending.is_empty() {
        poll(&mut pending, &mut out, check);
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_nanos(crate::load::TICK_NS));
        }
    }
    let completed = out.total.len() as f64;
    out.served_rate = completed * 1e9 / last_done.max(duration.as_nanos() as u64) as f64;
    out
}

/// Closed-loop mixed traffic: one client, one request of the 90/5/5 mix
/// in flight, each timed from submission to its reply (for a write, the
/// acknowledgement after group commit), until `budget` has passed. The
/// client polls its ticket instead of sleeping in `Ticket::wait`, so the
/// figure is the service's latency, not the client thread's own wake-up
/// on a shared host. The calibration kernel runs between requests, every
/// `CAL_EVERY` of them, while the service is idle. Returns the scaled
/// read latencies and the scaled write latencies, each write marked
/// `true` if it was a delete, in ns.
fn closed_loop_mixed(
    svc: &SearchService,
    model: &mut Model,
    budget: Duration,
    cal: &mut Calibration,
    check: &mut Check,
) -> (Vec<u64>, Vec<(bool, u64)>) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut scale = 1.0;
    let mut sent = 0usize;
    repeat_for(budget, || {
        if sent.is_multiple_of(CAL_EVERY) {
            scale = cal.scale();
        }
        sent += 1;
        let op = model.next();
        let t0 = now_ns();
        match svc.try_submit(Model::service_op(op)) {
            Ok(ticket) => {
                model.admit(op);
                let c = loop {
                    if let Some(c) = ticket.try_take() {
                        break c;
                    }
                    std::hint::spin_loop();
                };
                let latency = scaled(now_ns() - t0, scale);
                check.record(answer_ok(op, &c.reply), || {
                    format!("serve-rw closed-loop request: {:?}", c.reply)
                });
                match op {
                    Op::Search { .. } => reads.push(latency),
                    Op::Insert(_) => writes.push((false, latency)),
                    Op::Delete { .. } => writes.push((true, latency)),
                }
            }
            Err(e) => check.record(false, || format!("serve-rw request rejected: {e}")),
        }
    });
    (reads, writes)
}

/// Closed-loop batched reads: one client keeps `IN_FLIGHT` batches of
/// BATCH keys in flight, waiting for the oldest before it sends the next,
/// so the shard workers always have work queued and the figure is their
/// throughput rather than the wake-up of an idle worker. A pass is
/// `PASS_BATCHES` answered batches, with the pipeline kept full from one
/// pass to the next; the calibration kernel runs once, before the first,
/// while the service is idle. Returns scaled keys/s per pass.
#[allow(clippy::cast_precision_loss)]
fn closed_loop_reads(
    svc: &SearchService,
    model: &mut Model,
    budget: Duration,
    cal: &mut Calibration,
    check: &mut Check,
) -> Vec<f64> {
    let finish = |ops: &[Op], ticket: BatchTicket, check: &mut Check| {
        let done = ticket.wait();
        for (op, reply) in ops.iter().zip(&done.replies) {
            check.record(answer_ok(*op, reply), || {
                format!("serve-rw batch read: {reply:?}")
            });
        }
    };
    let mut in_flight: VecDeque<(Vec<Op>, BatchTicket)> = VecDeque::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    let scale = cal.scale();
    while start.elapsed() < budget || rates.len() < 3 {
        let pass_start = now_ns();
        for _ in 0..PASS_BATCHES {
            while in_flight.len() < IN_FLIGHT {
                let ops: Vec<Op> = (0..BATCH).map(|_| model.read_key()).collect();
                let keys: Vec<SearchKey> = ops
                    .iter()
                    .map(|op| match Model::service_op(*op) {
                        ServiceOp::Search(k) => k,
                        _ => unreachable!("read_key yields searches"),
                    })
                    .collect();
                match svc.try_submit_batch(&keys) {
                    Ok(t) => in_flight.push_back((ops, t)),
                    Err(e) => {
                        check.record(false, || format!("serve-rw batch rejected: {e}"));
                        break;
                    }
                }
            }
            if let Some((ops, t)) = in_flight.pop_front() {
                finish(&ops, t, check);
            }
        }
        rates.push(
            (PASS_BATCHES * BATCH) as f64 * 1e9 / scaled(now_ns() - pass_start, scale) as f64,
        );
    }
    for (ops, t) in in_flight {
        finish(&ops, t, check);
    }
    rates
}

/// Over consecutive blocks of `block` writes (`(is_delete, ns)`), the mean
/// of the block's insert median and delete median, in microseconds;
/// blocks that lack either kind are skipped.
#[allow(clippy::cast_precision_loss)]
fn write_block_medians_us(writes: &[(bool, u64)], block: usize) -> Vec<f64> {
    writes
        .chunks(block.max(1))
        .filter_map(|b| {
            let kind = |delete: bool| -> Option<f64> {
                let mut v: Vec<f64> = b
                    .iter()
                    .filter(|w| w.0 == delete)
                    .map(|w| w.1 as f64 / 1e3)
                    .collect();
                (!v.is_empty()).then(|| median(&mut v))
            };
            Some((kind(false)? + kind(true)?) / 2.0)
        })
        .collect()
}

fn distinct_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4B_E7);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k: u64 = rng.gen();
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// Runs the workload.
///
/// # Errors
///
/// A work directory or durable table that cannot be created.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(opts: &Options, m: &mut Metrics, check: &mut Check) -> Result<String, String> {
    let sz = sizes(opts.scale);
    let budget = Duration::from_secs_f64(opts.seconds);
    let limit_ns = (opts.p99_limit_us * 1e3) as u64;
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let tracing = opts.trace.then(|| Tracing {
        calls: (0..SHARDS)
            .map(|_| Arc::new(EngineCalls::default()))
            .collect(),
        spans: Arc::new(SpanLog::new(SPAN_CAPACITY)),
        enabled: Arc::new(AtomicBool::new(true)),
    });
    let mut setup_secs = Vec::new();
    let mut cal = Calibration::new();
    let mut probe_ns = 0.0;
    let scale = cal.scale();
    let t = Instant::now();
    let keys = distinct_keys(sz.records, opts.seed);
    let sample: Vec<u64> = keys.iter().step_by(16).copied().collect();
    let replay = tracing.as_ref().map(|_| (sample.as_slice(), &mut probe_ns));
    let loaded = load(&keys, &opts.work_dir, 0, tracing.as_ref(), replay)?;
    setup_secs.push(t.elapsed().as_secs_f64() * scale);
    // Later set-ups reuse memory the first one freed, so the high water
    // mark is taken before any of them.
    m.set_noted(
        "peak_rss_mb",
        peak_rss_mb(),
        "VmHWM after the first set-up".into(),
    );
    let svc = &loaded.service;
    let mut model = Model::new(&keys, opts.seed);
    let sizes_line = format!(
        "records={} shards={SHARDS} mix=90/5/5 reference_rps={REFERENCE_RPS}",
        keys.len()
    );

    let spans = tracing.as_ref().map(|t| t.spans.as_ref());
    let round = budget / ROUNDS;
    let block = if opts.trace {
        budget.mul_f64(0.3)
    } else {
        round.mul_f64(0.15)
    };
    // The first reference block runs on the freshly loaded tables with a
    // fixed request count, so the count metrics repeat for a seed.
    let mut reference = open_loop(
        svc,
        &mut model,
        REFERENCE_RPS,
        block,
        limit_ns,
        check,
        spans,
    );
    m.set(
        "accesses_per_lookup",
        ratio(reference.accesses as f64, reference.reads.len() as u64),
    );
    let stored: u64 = svc.occupancy().records.unwrap_or(0);
    m.set(
        "copies_per_entry",
        ratio(stored as f64, model.live.len() as u64),
    );

    if let Some(tr) = &tracing {
        trace_layers(
            opts, &loaded, tr, &reference, probe_ns, &mut model, check, m,
        );
        tr.spans.dump(opts);
        loaded.close();
        return Ok(sizes_line);
    }

    // The reference rate and the closed loops alternate over the first
    // 60% of the run, so each samples all of it; the ladder comes after,
    // since its overload steps leave write-back behind that would land on
    // the other phases.
    let (mut rates, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        if r > 0 {
            reference.absorb(open_loop(
                svc,
                &mut model,
                REFERENCE_RPS,
                block,
                limit_ns,
                check,
                None,
            ));
        }
        let (rd, wr) = closed_loop_mixed(svc, &mut model, round.mul_f64(0.3), &mut cal, check);
        reads.extend(rd);
        writes.extend(wr);
        rates.extend(closed_loop_reads(
            svc,
            &mut model,
            round.mul_f64(0.15),
            &mut cal,
            check,
        ));
        // Set-up, repeated: a spare service loaded and closed, so set-ups
        // sample the whole run like every other phase.
        let scale = cal.scale();
        let t = Instant::now();
        let spare_keys = distinct_keys(sz.records, opts.seed);
        let spare = load(&spare_keys, &opts.work_dir, 1 + r as usize, None, None)?;
        setup_secs.push(t.elapsed().as_secs_f64() * scale);
        spare.close();
    }
    // A ladder step must keep read p99 within the limit, reject and shed
    // nothing, and not leave a growing backlog. The search starts at the
    // rate one client with one request in flight got from the closed loop
    // (it steps down if that fails). The first guess at the ceiling is the
    // measured batched read rate: single requests of the mix cost more per
    // key than a 64-key batch. The ladder doubles the ceiling if it
    // reaches it anyway.
    // Both were scaled to the reference host; the ladder runs in wall time.
    let wall = crate::calib::REFERENCE_NS / (cal.median_us().0 * 1e3);
    let serial_ns: u64 = reads.iter().sum::<u64>() + writes.iter().map(|w| w.1).sum::<u64>();
    let serial_rate = wall * ratio((reads.len() + writes.len()) as f64 * 1e9, serial_ns.max(1));
    let read_rate = wall * median(&mut rates.clone());
    let mut ladder = Ladder::new(
        rung_at_or_below(serial_rate),
        rung_at_or_below(read_rate) + 1,
    );
    let step = budget.mul_f64(0.4 / f64::from(LADDER_STEPS));
    for _ in 0..LADDER_STEPS {
        let Some(rate) = ladder.next_rate() else {
            break;
        };
        let o = open_loop(svc, &mut model, rate, step, limit_ns, check, None);
        let late_reads = o.reads.iter().filter(|&&l| l > limit_ns).count();
        let ok = !o.abandoned
            && !o.backlog_grew
            && o.rejected == 0
            && o.shed == 0
            && late_reads * 100 <= o.reads.len();
        ladder.report(ok.then_some(o.served_rate));
    }

    m.set_noted(
        "setup_s",
        median(&mut setup_secs),
        format!("median of {} set-ups", setup_secs.len()),
    );
    // One request in flight: the latency a single client sees, without
    // the generator's own scheduling delays, which dominate the open
    // loop's figures on a two-core box (reported below as info). Requests
    // are random keys, so the slow state is taken over blocks of
    // consecutive requests rather than per key.
    let mut blocks = block_medians_us(&reads, READ_BLOCK);
    let (_, p99, count) = p50_p99_us(&reads);
    m.set_noted(
        "lookup_p50_us",
        slow_time(&mut blocks),
        format!(
            "p90 of the medians of {} blocks of {READ_BLOCK} closed-loop reads, \
             submission to reply; {count} in all",
            blocks.len()
        ),
    );
    let what = "closed-loop reads, submission to reply";
    m.info("lookup_p99_us", p99, "us", &format!("{count} {what}"));
    // Inserts acknowledge in about a third of a delete's time, so a median
    // over both kinds falls in the gap between them and jumps with the
    // share of each; each kind's median is steady.
    let mut blocks = write_block_medians_us(&writes, WRITE_BLOCK);
    let all: Vec<u64> = writes.iter().map(|w| w.1).collect();
    let (_, p99, count) = p50_p99_us(&all);
    m.set_noted(
        "write_p50_us",
        slow_time(&mut blocks),
        format!(
            "p90 over {} blocks of {WRITE_BLOCK} closed-loop writes of the mean of the \
             block's insert and delete medians, submission to acknowledgement; {count} in all",
            blocks.len()
        ),
    );
    let what = "closed-loop writes, submission to acknowledgement";
    m.info("write_p99_us", p99, "us", &format!("{count} {what}"));
    for (name, samples) in [("reads", &reference.reads), ("writes", &reference.writes)] {
        let (p50, p99, count) = p50_p99_us(samples);
        let note = format!("{count} {name} at {REFERENCE_RPS} req/s, from due time");
        m.info(&format!("open_loop_{name}_p50_us"), p50, "us", &note);
        m.info(&format!("open_loop_{name}_p99_us"), p99, "us", &note);
    }
    // The median, not the slow state: what slows a pass here is the
    // scheduling of three threads on two cores, not the host's state.
    let passes = rates.len();
    let p10 = slow_rate(&mut rates);
    m.set_noted(
        "lookups_per_s",
        median(&mut rates),
        format!(
            "median of {passes} passes of {PASS_BATCHES} batches of {BATCH} keys, \
             {IN_FLIGHT} in flight; p10 {p10:.0}"
        ),
    );
    m.info(
        "sustained_rps",
        ladder.result(),
        "req/s",
        &format!(
            "{} ladder steps of {:.2}s, read p99 limit {} us, {}",
            ladder.trail.len(),
            step.as_secs_f64(),
            opts.p99_limit_us,
            ladder.status()
        ),
    );
    cal.report(m);
    loaded.close();
    Ok(sizes_line)
}

/// Per-layer figures of the traced reference phase.
#[allow(clippy::cast_precision_loss, clippy::too_many_arguments)]
fn trace_layers(
    opts: &Options,
    loaded: &Loaded,
    tr: &Tracing,
    phase: &PhaseOut,
    probe_ns: f64,
    model: &mut Model,
    check: &mut Check,
    m: &mut Metrics,
) {
    let svc = &loaded.service;
    let sum = |f: &dyn Fn(&EngineCalls) -> u64| tr.calls.iter().map(|c| f(c)).sum::<u64>();
    let keys = sum(&|c| c.keys.load(Ordering::Relaxed));
    let search_ns = ratio(sum(&|c| c.search_ns.load(Ordering::Relaxed)) as f64, keys);
    let per_search = ratio(sum(&|c| c.accesses.load(Ordering::Relaxed)) as f64, keys);
    m.set("slice.bucket_probe_ns", probe_ns);
    m.set_noted(
        "table.search_ns",
        search_ns,
        format!("{keys} keys in batches"),
    );
    m.set("table.accesses_per_search", per_search);
    m.set(
        "table.hit_ratio",
        ratio(sum(&|c| c.hits.load(Ordering::Relaxed)) as f64, keys),
    );
    m.set("table.self_ns", search_ns - per_search * probe_ns);

    let gather = |f: &dyn Fn(&EngineCalls) -> &CallTimes| -> Vec<f64> {
        tr.calls
            .iter()
            .flat_map(|c| f(c).samples())
            .map(|ns| ns as f64)
            .collect()
    };
    let (mut insert, mut delete) = (gather(&|c| &c.insert), gather(&|c| &c.delete));
    let (mut commit, occupancy) = (gather(&|c| &c.commit), gather(&|c| &c.occupancy));
    let (n_ins, n_del, n_commit) = (insert.len(), delete.len(), commit.len());
    m.set_noted(
        "storage.insert_ns",
        median(&mut insert),
        format!("median of {n_ins}"),
    );
    m.set_noted(
        "storage.delete_ns",
        median(&mut delete),
        format!("median of {n_del}"),
    );
    m.set_noted(
        "storage.commit_p50_ns",
        quantile(&mut commit, 0.5).unwrap_or(0.0),
        format!("{n_commit} commits"),
    );
    m.set(
        "storage.commit_p99_ns",
        quantile(&mut commit, 0.99).unwrap_or(0.0),
    );
    m.set_noted(
        "storage.occupancy_ns",
        occupancy.iter().sum::<f64>() / occupancy.len().max(1) as f64,
        format!("mean of {}", occupancy.len()),
    );
    let (mut ops, mut commits_n, mut bytes) = (0, 0, 0);
    for (c, base) in tr.calls.iter().zip(&loaded.wal_base) {
        if let Some((o, n, b)) = *c.wal.lock().expect("wal counter lock poisoned") {
            ops += o - base.0;
            commits_n += n - base.1;
            bytes += b - base.2;
        }
    }
    m.set("storage.writes_per_commit", ratio(ops as f64, commits_n));
    m.set("storage.wal_bytes_per_write", ratio(bytes as f64, ops));

    let (qw50, qw99, n_req) = p50_p99_us(&phase.queue_wait);
    m.set_noted(
        "service.queue_wait_p50_us",
        qw50,
        format!("{n_req} requests"),
    );
    m.set("service.queue_wait_p99_us", qw99);
    let requests = phase.total.len() as u64;
    let engine_us = ratio(
        tr.calls.iter().map(|c| c.engine_ns()).sum::<u64>() as f64,
        requests,
    ) / 1e3;
    let total_us = ratio(phase.total.iter().sum::<u64>() as f64, requests) / 1e3;
    let wait_us = ratio(phase.queue_wait.iter().sum::<u64>() as f64, requests) / 1e3;
    m.set("service.engine_us", engine_us);
    m.set("service.self_us", total_us - wait_us - engine_us);
    let snap = svc.snapshot();
    let totals = snap.totals();
    let batches = sum(&|c| c.batches.load(Ordering::Relaxed));
    m.set_noted(
        "service.batch_keys",
        ratio(keys as f64, batches),
        format!("keys per engine batch call, {batches} calls"),
    );
    m.set(
        "service.rejected_ratio",
        ratio(totals.rejected as f64, totals.accepted + totals.rejected),
    );
    m.set(
        "service.shed_ratio",
        ratio(
            (totals.shed_deadline + totals.shed_shutdown) as f64,
            totals.accepted,
        ),
    );
    let accepted: Vec<u64> = snap.shards.iter().map(|s| s.accepted).collect();
    let (lo, hi) = (
        accepted.iter().copied().min().unwrap_or(0),
        accepted.iter().copied().max().unwrap_or(0),
    );
    m.set("service.routing_max_min_ratio", ratio(hi as f64, lo));
    m.set("client.late_p99_us", p50_p99_us(&phase.late).1);

    // Tracing overhead on the closed-loop read path.
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut overhead = Vec::new();
    let mut cal = Calibration::new();
    let start = Instant::now();
    while start.elapsed() < budget.mul_f64(0.5) || overhead.len() < 3 {
        let mut pass = |on: bool, model: &mut Model, check: &mut Check| {
            tr.enabled.store(on, Ordering::Relaxed);
            let mut r = closed_loop_reads(svc, model, Duration::ZERO, &mut cal, check);
            median(&mut r)
        };
        let (off, on) = if overhead.len() % 2 == 0 {
            let off = pass(false, model, check);
            (off, pass(true, model, check))
        } else {
            let on = pass(true, model, check);
            (pass(false, model, check), on)
        };
        overhead.push((off / on - 1.0) * 100.0);
    }
    m.set_noted(
        "trace.overhead_pct",
        median(&mut overhead),
        format!(
            "median of {} paired closed-loop read passes",
            overhead.len()
        ),
    );
}
