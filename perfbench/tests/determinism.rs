//! Count metrics repeat exactly for one seed: `accesses_per_lookup`,
//! `copies_per_entry` and `pattern.probes_per_query` are counts, not
//! timings, so two runs of the same inputs must agree to the last digit.

use ca_ram_perfbench::{run, Options, Scale, Workload};

fn metric(workload: Workload, trace: bool, seed: u64, run_no: u32, name: &str) -> f64 {
    let opts = Options {
        workload,
        seed,
        seconds: 0.3,
        trace,
        p99_limit_us: 5_000.0,
        scale: Scale::Tiny,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "determinism-{}-{}-{seed}-{run_no}",
            workload.name(),
            u8::from(trace)
        )),
    };
    let report = run(&opts).expect("tiny set-up succeeds");
    assert_eq!(report.check.failed, 0, "{:?}", report.check.first_failure);
    report
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("metric declared")
}

fn repeats(workload: Workload, trace: bool, name: &str) {
    let a = metric(workload, trace, 21, 0, name);
    let b = metric(workload, trace, 21, 1, name);
    assert!(a > 0.0, "{} {name} = {a}", workload.name());
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{} {name}: {a} vs {b}",
        workload.name()
    );
}

#[test]
fn accesses_and_copies_repeat_for_a_seed() {
    for w in Workload::ALL {
        repeats(w, false, "accesses_per_lookup");
        repeats(w, false, "copies_per_entry");
    }
}

#[test]
fn probes_per_query_repeat_for_a_seed() {
    repeats(Workload::PacketClass, true, "pattern.probes_per_query");
    repeats(Workload::SpellD2, true, "pattern.probes_per_query");
}

#[test]
fn another_seed_gives_other_inputs() {
    // ip-lpm draws its lookup addresses from the seed.
    let a = metric(Workload::IpLpm, false, 21, 2, "accesses_per_lookup");
    let b = metric(Workload::IpLpm, false, 22, 2, "accesses_per_lookup");
    assert_ne!(
        a.to_bits(),
        b.to_bits(),
        "seeds 21 and 22 drew identical lookups"
    );
}
