//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints an environment header, every metric with its unit, and as the
//! last line one JSON result object. Exits 1 when any answer was wrong and
//! 2 on a usage or set-up error (without a result line).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match ca_ram_perfbench::Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match ca_ram_perfbench::run(&opts) {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
