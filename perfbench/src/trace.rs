//! The traced run's instruments: an in-memory span log and a
//! [`SearchEngine`] adapter that times and counts every call into the
//! engine it wraps.
//!
//! Spans are recorded from the benchmark's own code, around calls into a
//! layer's public functions; nothing inside the library is instrumented.
//! The log is bounded and written out as JSON lines when the run ends.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ca_ram_core::engine::{EngineOutcome, EngineReport, SearchEngine};
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::stats::SearchStats;
use ca_ram_core::storage::DurableTable;
use ca_ram_core::table::CaRamTable;

use crate::stats::now_ns;
use crate::Options;

/// Spans one run keeps; later ones are counted and dropped.
pub const SPAN_CAPACITY: usize = 50_000;

/// "No parent span".
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `table.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (query / service request) the span belongs to; 0 for work
    /// not attributable to one request, such as a shard's batch.
    pub request: u64,
}

/// A bounded, thread-safe span log. Spans past the capacity are counted
/// and dropped.
#[derive(Debug)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
    capacity: usize,
    dropped: AtomicU64,
}

thread_local! {
    static PARENT: Cell<(u32, u64)> = const { Cell::new((NO_PARENT, 0)) };
}

impl SpanLog {
    /// An empty log holding at most `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            spans: Mutex::new(Vec::with_capacity(capacity.min(1 << 16))),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Opens a span starting now; returns its id ([`NO_PARENT`] if the log
    /// is full).
    pub fn open(&self, name: &'static str, parent: u32, request: u64) -> u32 {
        self.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request,
        })
    }

    /// Closes span `id` now.
    pub fn close(&self, id: u32) {
        if id != NO_PARENT {
            let end = now_ns();
            let mut spans = self.spans.lock().expect("span log lock poisoned");
            spans[id as usize].end_ns = end;
        }
    }

    /// Records a finished span; returns its id.
    pub fn span(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        })
    }

    /// Records a finished span under the calling thread's current parent.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let (parent, request) = PARENT.with(Cell::get);
        self.span(name, start_ns, end_ns, parent, request);
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        if spans.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_PARENT;
        }
        spans.push(span);
        u32::try_from(spans.len() - 1).unwrap_or(NO_PARENT)
    }

    /// Runs `f` with span `id` of `request` as the calling thread's parent
    /// for spans recorded by [`SpanLog::record`].
    pub fn under<T>(id: u32, request: u64, f: impl FnOnce() -> T) -> T {
        let saved = PARENT.with(|p| p.replace((id, request)));
        let out = f();
        PARENT.with(|p| p.set(saved));
        out
    }

    /// Writes the run's spans to `<work dir>/spans-<workload>.jsonl`,
    /// reporting the outcome on standard error (a failed dump does not
    /// fail the run).
    pub fn dump(&self, opts: &Options) {
        let path = opts
            .work_dir
            .join(format!("spans-{}.jsonl", opts.workload.name()));
        match self.write_jsonl(&path) {
            Ok((n, dropped)) => {
                eprintln!("wrote {n} spans ({dropped} dropped) to {}", path.display());
            }
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    /// Writes the spans as JSON lines to `path`; returns
    /// `(written, dropped)`.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok((spans.len(), self.dropped.load(Ordering::Relaxed)))
    }
}

/// Per-call timings of one operation kind, in nanoseconds.
#[derive(Debug, Default)]
pub struct CallTimes {
    samples: Mutex<Vec<u64>>,
}

impl CallTimes {
    fn push(&self, ns: u64) {
        self.samples
            .lock()
            .expect("call-time lock poisoned")
            .push(ns);
    }

    /// The recorded samples, cloned.
    #[must_use]
    pub fn samples(&self) -> Vec<u64> {
        self.samples
            .lock()
            .expect("call-time lock poisoned")
            .clone()
    }
}

/// Counters shared between a [`Traced`] adapter and the benchmark.
/// Statistics only: every atomic is `Relaxed` and publishes nothing else.
#[derive(Debug, Default)]
pub struct EngineCalls {
    /// Single-key `search` calls.
    pub searches: AtomicU64,
    /// Keys searched through either search path.
    pub keys: AtomicU64,
    /// Nanoseconds spent in either search path.
    pub search_ns: AtomicU64,
    /// Memory accesses of all searched keys.
    pub accesses: AtomicU64,
    /// Keys that hit.
    pub hits: AtomicU64,
    /// `search_batch*` calls.
    pub batches: AtomicU64,
    /// `insert` / `insert_sorted` call times.
    pub insert: CallTimes,
    /// `delete` call times.
    pub delete: CallTimes,
    /// `commit` call times.
    pub commit: CallTimes,
    /// `occupancy` call times.
    pub occupancy: CallTimes,
    /// The WAL's `(ops_logged, commits, committed_bytes)` after the latest
    /// commit, for durable engines.
    pub wal: Mutex<Option<(u64, u64, u64)>>,
}

impl EngineCalls {
    fn searched(&self, outcomes: &[EngineOutcome], ns: u64) {
        self.keys
            .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        self.search_ns.fetch_add(ns, Ordering::Relaxed);
        let accesses: u64 = outcomes.iter().map(|o| u64::from(o.memory_accesses)).sum();
        let hits = outcomes.iter().filter(|o| o.hit.is_some()).count() as u64;
        self.accesses.fetch_add(accesses, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Total nanoseconds engine calls of every kind took.
    #[must_use]
    pub fn engine_ns(&self) -> u64 {
        let sum = |t: &CallTimes| t.samples().iter().sum::<u64>();
        self.search_ns.load(Ordering::Relaxed)
            + sum(&self.insert)
            + sum(&self.delete)
            + sum(&self.commit)
            + sum(&self.occupancy)
    }
}

/// Engines whose write-ahead log the adapter can report.
pub trait WalCounters {
    /// `(ops_logged, commits, committed_bytes)`, for durable engines.
    fn wal_counters(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

impl WalCounters for CaRamTable {}

impl WalCounters for DurableTable {
    fn wal_counters(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.ops_logged(),
            self.commits(),
            self.wal_committed_bytes(),
        ))
    }
}

/// A [`SearchEngine`] that forwards every call — including the batch
/// overrides, so a service keeps its batch path — and, while enabled,
/// times and counts it into shared [`EngineCalls`] and records a span.
pub struct Traced<E> {
    inner: E,
    calls: Arc<EngineCalls>,
    spans: Arc<SpanLog>,
    enabled: Arc<AtomicBool>,
}

impl<E> Traced<E> {
    /// Wraps `inner`; timing is on while `enabled` reads true.
    pub fn new(
        inner: E,
        calls: Arc<EngineCalls>,
        spans: Arc<SpanLog>,
        enabled: Arc<AtomicBool>,
    ) -> Self {
        Self {
            inner,
            calls,
            spans,
            enabled,
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// Runs `f`, records it as span `name`, and returns its result and
/// duration in ns.
fn timed<T>(spans: &SpanLog, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    spans.record(name, start, end);
    (out, end - start)
}

impl<E: SearchEngine + WalCounters> SearchEngine for Traced<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn key_bits(&self) -> u32 {
        self.inner.key_bits()
    }

    fn search(&self, key: &SearchKey) -> EngineOutcome {
        if !self.on() {
            return self.inner.search(key);
        }
        let (o, ns) = timed(&self.spans, "table.search", || self.inner.search(key));
        self.calls.searches.fetch_add(1, Ordering::Relaxed);
        self.calls.searched(std::slice::from_ref(&o), ns);
        o
    }

    fn insert(&mut self, record: Record) -> ca_ram_core::Result<()> {
        if !self.on() {
            return self.inner.insert(record);
        }
        let (r, ns) = timed(&self.spans, "storage.insert", || self.inner.insert(record));
        self.calls.insert.push(ns);
        r
    }

    fn insert_sorted(&mut self, record: Record) -> ca_ram_core::Result<()> {
        if !self.on() {
            return self.inner.insert_sorted(record);
        }
        let (r, ns) = timed(&self.spans, "storage.insert", || {
            self.inner.insert_sorted(record)
        });
        self.calls.insert.push(ns);
        r
    }

    fn delete(&mut self, key: &TernaryKey) -> u32 {
        if !self.on() {
            return self.inner.delete(key);
        }
        let (n, ns) = timed(&self.spans, "storage.delete", || self.inner.delete(key));
        self.calls.delete.push(ns);
        n
    }

    fn occupancy(&self) -> EngineReport {
        if !self.on() {
            return self.inner.occupancy();
        }
        let (r, ns) = timed(&self.spans, "storage.occupancy", || self.inner.occupancy());
        self.calls.occupancy.push(ns);
        r
    }

    fn commit(&mut self) -> ca_ram_core::Result<()> {
        if !self.on() {
            return self.inner.commit();
        }
        let (r, ns) = timed(&self.spans, "storage.commit", || self.inner.commit());
        self.calls.commit.push(ns);
        *self.calls.wal.lock().expect("wal counter lock poisoned") = self.inner.wal_counters();
        r
    }

    fn search_batch(&self, keys: &[SearchKey]) -> Vec<EngineOutcome> {
        if !self.on() {
            return self.inner.search_batch(keys);
        }
        let (out, ns) = timed(&self.spans, "table.search_batch", || {
            self.inner.search_batch(keys)
        });
        self.calls.batches.fetch_add(1, Ordering::Relaxed);
        self.calls.searched(&out, ns);
        out
    }

    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<EngineOutcome>) {
        if !self.on() {
            return self.inner.search_batch_into(keys, out);
        }
        let ((), ns) = timed(&self.spans, "table.search_batch", || {
            self.inner.search_batch_into(keys, out);
        });
        self.calls.batches.fetch_add(1, Ordering::Relaxed);
        self.calls.searched(out, ns);
    }

    fn search_batch_parallel(&self, keys: &[SearchKey], threads: usize) -> Vec<EngineOutcome> {
        self.inner.search_batch_parallel(keys, threads)
    }

    fn search_batch_parallel_stats(
        &self,
        keys: &[SearchKey],
        threads: usize,
    ) -> (Vec<EngineOutcome>, SearchStats) {
        self.inner.search_batch_parallel_stats(keys, threads)
    }
}
