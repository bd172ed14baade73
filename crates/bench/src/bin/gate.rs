//! Bench regression gate: compares a regenerated `BENCH_ternary.json`
//! against the committed baseline, metric by metric, with the rules of
//! `art9_bench::gate::GATED`.
//!
//! ```sh
//! cp BENCH_ternary.json /tmp/bench-baseline.json
//! cargo run --release -p art9-bench --bin report   # rewrites BENCH_ternary.json
//! cargo run --release -p art9-bench --bin gate -- \
//!     --baseline /tmp/bench-baseline.json --current BENCH_ternary.json
//! ```

use std::process::ExitCode;

use art9_bench::gate::{compare, parse_bench_json};

const USAGE: &str = "\
usage: gate --baseline FILE --current FILE [--max-regress FRACTION]

Fails (exit 1) when a gated rate or timing in CURRENT is worse than
BASELINE by more than FRACTION (default 0.25; doubled for the service
rate and the wide-word timings), when a deterministic counter
(instructions, cycles, energy_nj, dmips_per_watt) differs at all, or
when a metric BASELINE carries is missing. Exit 2 on usage or parse
errors. The gated metrics are listed in docs/PERFORMANCE.md section 6.
";

fn main() -> ExitCode {
    let mut baseline = None;
    let mut current = None;
    let mut max_regress = 0.25f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")),
            "--current" => current = Some(value("--current")),
            "--max-regress" => {
                let v = value("--max-regress");
                max_regress = match v.parse() {
                    Ok(f) if (0.0..1.0).contains(&f) => f,
                    _ => {
                        eprintln!("error: --max-regress must be a fraction in [0, 1): {v:?}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown option {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!("error: --baseline and --current are both required\n\n{USAGE}");
        return ExitCode::from(2);
    };

    let load = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => match parse_bench_json(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let result = compare(&load(&baseline), &load(&current), max_regress);
    print!("{}", result.render(max_regress));
    if result.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
