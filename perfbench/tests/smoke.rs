//! Tiny-size runs of every workload: every declared metric is printed
//! with its unit, every answer checks out, and the declared metric set
//! matches `BENCHMARK.json`.

use ca_ram_perfbench::{run, Options, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.4,
        trace,
        p99_limit_us: 5_000.0,
        scale: Scale::Tiny,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}-{seed}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

fn check_output(workload: Workload, trace: bool) {
    let report = run(&tiny(workload, trace, 3)).expect("tiny set-up succeeds");
    assert_eq!(report.check.failed, 0, "{:?}", report.check.first_failure);
    assert!(report.check.attempted > 0);
    assert!(report.check.error_rate().abs() < f64::EPSILON);
    let out = report.render();
    let declared = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in declared {
        assert!(
            out.lines()
                .any(|l| l.starts_with(&format!("metric {name} = "))
                    && l.contains(&format!(" {unit}"))),
            "{} did not print {name} in {unit}:\n{out}",
            workload.name()
        );
        assert!(
            out.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from the JSON line"
        );
    }
    if !trace {
        let mut info = vec!["lookup_p99_us", "write_p99_us"];
        if workload == Workload::ServeRw {
            info.push("sustained_rps");
        }
        for name in info {
            assert!(
                out.contains(&format!("info {name} = ")),
                "{} did not print {name}",
                workload.name()
            );
        }
    }
    let last = out.lines().last().expect("output has lines");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    if !trace {
        for (name, _) in END_TO_END {
            let v = report
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .map(|m| m.1)
                .expect("declared metric present");
            assert!(
                v.is_finite() && v > 0.0,
                "{}: {name} = {v}",
                workload.name()
            );
        }
    }
}

#[test]
fn ip_lpm_prints_every_metric() {
    check_output(Workload::IpLpm, false);
    check_output(Workload::IpLpm, true);
}

#[test]
fn packet_class_prints_every_metric() {
    check_output(Workload::PacketClass, false);
    check_output(Workload::PacketClass, true);
}

#[test]
fn spell_d2_prints_every_metric() {
    check_output(Workload::SpellD2, false);
    check_output(Workload::SpellD2, true);
}

#[test]
fn serve_rw_prints_every_metric() {
    check_output(Workload::ServeRw, false);
    check_output(Workload::ServeRw, true);
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn bad_arguments_are_refused() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert!(Options::parse(&args("--workload nope --seed 1")).is_err());
    assert!(Options::parse(&args("--workload ip-lpm --trace 2")).is_err());
    assert!(Options::parse(&args("--workload ip-lpm --seconds 0")).is_err());
    assert!(Options::parse(&args("--workload ip-lpm --bogus 1")).is_err());
    let ok = Options::parse(&args("--workload serve-rw --seed 9 --seconds 3 --trace 1"))
        .expect("valid flags parse");
    assert_eq!(
        (ok.workload, ok.seed, ok.trace),
        (Workload::ServeRw, 9, true)
    );
}
