//! The CA-RAM repository benchmark.
//!
//! One binary runs one workload per invocation (`--workload`), builds its
//! inputs from `--seed`, measures for `--seconds`, checks every answer
//! against a reference built during set-up, and prints either the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a separate
//! traced run (`--trace 1`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The benchmark sees each layer only from outside, by timing calls into
//! its public functions; see `README.md` in this directory for the
//! workloads, the metric map, and the recorded baselines.

pub mod calib;
pub mod ip_lpm;
pub mod load;
pub mod pattern;
pub mod serve_rw;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`: printed by every workload with
/// tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lookups_per_s", "lookups/s"),
    ("lookup_p50_us", "us"),
    ("write_p50_us", "us"),
    ("accesses_per_lookup", "accesses"),
    ("copies_per_entry", "copies"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`: printed by every workload's traced
/// run. A layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("slice.bucket_probe_ns", "ns"),
    ("table.search_ns", "ns"),
    ("table.accesses_per_search", "accesses"),
    ("table.hit_ratio", "ratio"),
    ("table.self_ns", "ns"),
    ("pattern.lower_ns", "ns"),
    ("pattern.execute_ns", "ns"),
    ("pattern.probes_per_query", "probes"),
    ("pattern.wasted_probe_ratio", "ratio"),
    ("pattern.self_ns", "ns"),
    ("storage.insert_ns", "ns"),
    ("storage.delete_ns", "ns"),
    ("storage.commit_p50_ns", "ns"),
    ("storage.commit_p99_ns", "ns"),
    ("storage.occupancy_ns", "ns"),
    ("storage.writes_per_commit", "writes"),
    ("storage.wal_bytes_per_write", "bytes"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.engine_us", "us"),
    ("service.self_us", "us"),
    ("service.batch_keys", "keys"),
    ("service.rejected_ratio", "ratio"),
    ("service.shed_ratio", "ratio"),
    ("service.routing_max_min_ratio", "ratio"),
    ("client.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// AS1103-scale BGP table, uniform member-address LPM lookups.
    IpLpm,
    /// 500 five-tuple rules, 80%-hit flow trace.
    PacketClass,
    /// 5,000 eight-letter words, distance-2 nearest-match typo queries.
    SpellD2,
    /// Sharded durable service, 90% reads / 5% inserts / 5% deletes.
    ServeRw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::IpLpm,
        Workload::PacketClass,
        Workload::SpellD2,
        Workload::ServeRw,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::IpLpm => "ip-lpm",
            Workload::PacketClass => "packet-class",
            Workload::SpellD2 => "spell-d2",
            Workload::ServeRw => "serve-rw",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the stated sizes, or a tiny variant for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `README.md` states for each workload.
    Full,
    /// Small inputs that exercise every code path in well under a second.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring budget, in seconds (set-up excluded).
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Read p99 limit of the `sustained_rps` ladder, microseconds.
    pub p99_limit_us: f64,
    /// Input scale.
    pub scale: Scale,
    /// Directory for the run's files (durable tables, span dumps).
    pub work_dir: std::path::PathBuf,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--p99-limit-us U] [--scale full|tiny] [--work-dir D]`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        let get = |k: &str| map.get(k).map(String::as_str);
        let workload = get("workload").ok_or("--workload is required")?;
        let workload = Workload::parse(workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {workload:?}; one of {}", names.join(", "))
        })?;
        let num = |k: &str, default: &str| -> Result<f64, String> {
            get(k)
                .unwrap_or(default)
                .parse::<f64>()
                .map_err(|e| format!("--{k}: {e}"))
        };
        let seconds = num("seconds", "10")?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err("--seconds must be in (0, 3600]".into());
        }
        let p99_limit_us = num("p99-limit-us", "20000")?;
        if p99_limit_us.is_nan() || p99_limit_us <= 0.0 {
            return Err("--p99-limit-us must be positive".into());
        }
        let trace = match get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        let scale = match get("scale").unwrap_or("full") {
            "full" => Scale::Full,
            "tiny" => Scale::Tiny,
            other => return Err(format!("--scale must be full or tiny, got {other:?}")),
        };
        let known = [
            "workload",
            "seed",
            "seconds",
            "trace",
            "p99-limit-us",
            "scale",
            "work-dir",
        ];
        if let Some(k) = map.keys().find(|k| !known.contains(&k.as_str())) {
            return Err(format!("unknown flag --{k}"));
        }
        Ok(Self {
            workload,
            seed: get("seed")
                .unwrap_or("1")
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
            p99_limit_us,
            scale,
            work_dir: get("work-dir").unwrap_or(".perfbench").into(),
        })
    }
}

/// Answers checked during a run.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted (lookups, writes, requests).
    pub attempted: u64,
    /// Wrong answers, rejections, sheds and failed writes.
    pub failed: u64,
    /// The first failure, described.
    pub first_failure: Option<String>,
}

impl Check {
    /// Counts one operation; `ok == false` records a failure described by
    /// `what` (evaluated only on failure).
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Counts `n` operations that the caller verified in bulk.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Failed over attempted (0 when nothing ran).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted)
    }
}

/// A run's metrics by name, plus notes printed beside them (sample
/// counts, sizes), and informational figures printed but not declared.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    info: Vec<String>,
}

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets metric `name` with a note (e.g. its sample count).
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.values.insert(name, value);
        self.notes.insert(name, note);
    }

    /// Records an informational figure: printed with its unit, but not
    /// one of the declared metrics (the tail latencies and `serve-rw`'s
    /// `sustained_rps`, whose run-to-run spread on a shared two-core box
    /// exceeds any bound `BENCHMARK.json` may set).
    pub fn info(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.info
            .push(format!("info {name} = {value} {unit} ({note})"));
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    /// Environment and size lines printed before the metrics.
    pub header: Vec<String>,
    /// The run's answer check.
    pub check: Check,
    /// `(name, value, unit, note)` in the declared order.
    pub metrics: Vec<(&'static str, f64, &'static str, String)>,
    /// Informational lines (figures not declared as metrics).
    pub info: Vec<String>,
}

impl Report {
    /// The human-readable lines and the final JSON line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.header {
            let _ = writeln!(out, "# {line}");
        }
        for (name, value, unit, note) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {value} {unit}{note}");
        }
        for line in &self.info {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "check attempted={} failed={} error_rate={}{}",
            self.check.attempted,
            self.check.failed,
            self.check.error_rate(),
            self.check
                .first_failure
                .as_ref()
                .map_or(String::new(), |f| format!(" first_failure: {f}"))
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.check.attempted,
            self.check.failed,
            metrics.join(", ")
        );
        out
    }

    /// Whether every answer was right and something was checked.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.check.failed == 0 && self.check.attempted > 0
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The environment header: parallelism, kernel tier, seed, commit and
/// tracing state. The library crates are always built with their default
/// features (the other workspace crates enable them through feature
/// unification), so the header states that rather than a feature list.
fn env_header(opts: &Options) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} scale={:?}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.scale
        ),
        format!(
            "env nproc={nproc} kernel={} features=default commit={} profile={}",
            ca_ram_core::kernel::active_kernel().name(),
            git_commit(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ),
    ]
}

/// The checked-out commit, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Runs one workload and assembles its report.
///
/// # Errors
///
/// A set-up failure (a table that cannot be built or loaded, a work
/// directory that cannot be created) — never a wrong answer, which is
/// recorded in the report's check instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut header = env_header(opts);
    let mut metrics = Metrics::default();
    let mut check = Check::default();
    let sizes = match opts.workload {
        Workload::IpLpm => ip_lpm::run(opts, &mut metrics, &mut check)?,
        Workload::PacketClass | Workload::SpellD2 => pattern::run(opts, &mut metrics, &mut check)?,
        Workload::ServeRw => serve_rw::run(opts, &mut metrics, &mut check)?,
    };
    header.push(format!("sizes {sizes}"));
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    let info = std::mem::take(&mut metrics.info);
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name);
            assert!(
                value.is_some() || opts.trace,
                "{} did not measure end-to-end metric {name}",
                opts.workload.name()
            );
            let note = metrics.notes.get(name).map_or_else(
                || {
                    if value.is_none() {
                        " (layer not on this workload's path)".to_string()
                    } else {
                        String::new()
                    }
                },
                |n| format!(" ({n})"),
            );
            (name, value.unwrap_or(0.0), unit, note)
        })
        .collect();
    Ok(Report {
        header,
        check,
        metrics,
        info,
    })
}
