//! The end-to-end ART-9 benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <service-interactive|service-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up the workload several times (reporting the median
//! set-up time), runs one closed-loop window of `--seconds`, verifies
//! every job and prints the end-to-end metrics. `--trace 1` instead
//! splits the time between untraced windows, traced windows (spans
//! around every request) and the per-layer ledger, and prints the
//! per-layer metrics; spans and tables go to `e2ebench/out/`. The last
//! line of standard output is one JSON object; the exit code is 0 only
//! when every job and every exact figure checked out. See README.md.

mod common;
mod ledger;
mod paper;
mod service;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use common::{quantile, Anchors, Bench, Row, Window};

const WORKLOADS: [&str; 2] = ["service-interactive", "service-sweep"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Untraced/traced window pairs in a traced run.
const TRACE_ROUNDS: u32 = 3;

/// Layers that record spans (`<name>.self_frac` rows).
const SPAN_NAMES: [&str; 2] = ["service.submit", "service.wait"];

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_ternary.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected {})",
            WORKLOADS.join(" or ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The committed exact figures: the summed pipelined cycles of the
/// four paper programs (`simulators` rows) and the Dhrystone DMIPS/W
/// as written (`energy` rows), from `BENCH_ternary.json`.
fn committed_anchors() -> Result<(u64, String), String> {
    let text = std::fs::read_to_string(BENCH_JSON).map_err(|e| format!("{BENCH_JSON}: {e}"))?;
    let section = |name: &str| -> Result<&str, String> {
        let start = text
            .find(&format!("\"{name}\": ["))
            .ok_or_else(|| format!("BENCH_ternary.json has no {name} section"))?;
        let rest = &text[start..];
        Ok(&rest[..rest.find(']').unwrap_or(rest.len())])
    };
    let value = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let v = &line[at..];
        Some(
            v[..v.find([',', '}']).unwrap_or(v.len())]
                .trim()
                .to_string(),
        )
    };
    let paper = ["bubble-sort", "gemm", "sobel", "dhrystone"];
    let mut cycles = 0u64;
    for line in section("simulators")?.lines() {
        if paper
            .iter()
            .any(|w| line.contains(&format!("\"workload\": \"{w}\"")))
        {
            cycles += value(line, "cycles")
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("no cycles in {line}"))?;
        }
    }
    let dmips_per_watt = section("energy")?
        .lines()
        .find(|l| l.contains("\"workload\": \"dhrystone\""))
        .and_then(|l| value(l, "dmips_per_watt"))
        .ok_or("BENCH_ternary.json has no dhrystone dmips_per_watt")?;
    Ok((cycles, dmips_per_watt))
}

/// Compares the run's exact figures with the committed ones; the
/// comparison is one attempted check.
fn check_anchors(anchors: Anchors, failures: &mut Vec<String>) {
    match committed_anchors() {
        Ok((cycles, dpw)) => {
            let measured = format!("{:.4e}", anchors.dmips_per_watt);
            if anchors.sim_cycles != cycles || measured != dpw {
                failures.push(format!(
                    "exact figures: sim_cycles {} dmips_per_watt {measured}, committed {cycles} {dpw}",
                    anchors.sim_cycles
                ));
            }
        }
        Err(e) => failures.push(e),
    }
}

/// Process high-water resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Row>,
    notes: Vec<String>,
}

impl Report {
    fn absorb(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failures.extend(w.failures.iter().cloned());
    }
}

fn run<B: Bench>(workload: &str, args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(B::setup(args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUPS > 0");
    let anchors = bench.anchors();
    let mut checks = Vec::new();
    check_anchors(anchors, &mut checks);

    let mut report = Report {
        attempted: 1,
        failures: checks,
        metrics: Vec::new(),
        notes: Vec::new(),
    };

    if !args.trace {
        let w = bench.window(args.seconds, false);
        drop(bench);
        report.absorb(&w);
        report
            .notes
            .push(format!("job_samples {}", w.latencies_ms.len()));
        let verified_frac = 1.0 - report.failures.len() as f64 / report.attempted as f64;
        report.metrics = vec![
            Row::new("setup_s", quantile(&setup_s, 0.5), "s"),
            Row::new("jobs_per_s", w.jobs_per_s(), "1/s"),
            Row::new("job_p50_ms", quantile(&w.latencies_ms, 0.50), "ms"),
            Row::new("job_p95_ms", quantile(&w.latencies_ms, 0.95), "ms"),
            Row::new("sim_ips", w.sim_ips(), "instr/s"),
            Row::new("verified_frac", verified_frac, "ratio"),
            Row::new("sim_cycles", anchors.sim_cycles as f64, "cycles"),
            Row::new("dmips_per_watt", anchors.dmips_per_watt, "DMIPS/W"),
            Row::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        return Ok(report);
    }

    // Traced run: untraced and traced windows alternate, so host drift
    // hits both alike; then the ledger. The workload's own rows come
    // from the last traced window.
    let window_s = 0.6 * args.seconds / (2 * TRACE_ROUNDS) as f64;
    let (mut plain_jobs, mut plain_s, mut traced_jobs, mut traced_s) = (0, 0.0, 0, 0.0);
    let mut spans = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let plain = bench.window(window_s, false);
        report.absorb(&plain);
        plain_jobs += plain.verified();
        plain_s += plain.elapsed_s;
        let mut traced = bench.window(window_s, true);
        rows = std::mem::take(&mut traced.rows);
        report.absorb(&traced);
        traced_jobs += traced.verified();
        traced_s += traced.elapsed_s;
        spans.push(std::mem::take(&mut traced.spans));
    }
    drop(bench);
    let spans = trace::merge(spans);
    rows.extend(ledger::run(0.4 * args.seconds)?);

    let self_times = trace::SelfTimes::from_spans(&spans);
    for name in SPAN_NAMES {
        rows.push(Row::new(
            format!("{name}.self_frac"),
            self_times.frac(name),
            "ratio",
        ));
    }
    rows.push(Row::new(
        "trace.coverage_frac",
        self_times.coverage(),
        "ratio",
    ));
    rows.push(Row::new(
        "trace.overhead_frac",
        1.0 - (traced_jobs as f64 / traced_s) / (plain_jobs as f64 / plain_s),
        "ratio",
    ));

    let stem = format!("{OUT_DIR}/{workload}-seed{}", args.seed);
    let table = self_times.render(workload);
    let mut ledger_tsv = String::from("name\tvalue\tunit\tpredicted_to_move\n");
    for r in &rows {
        let predicts = ledger::PREDICTIONS
            .iter()
            .find(|(n, _)| *n == r.name)
            .map_or("-", |(_, p)| p);
        let _ = writeln!(
            ledger_tsv,
            "{}\t{}\t{}\t{predicts}",
            r.name, r.value, r.unit
        );
    }
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.spans.tsv"), trace::render_spans(&spans)))
        .and_then(|()| std::fs::write(format!("{stem}.selftime.txt"), &table))
        .and_then(|()| std::fs::write(format!("{stem}.ledger.tsv"), &ledger_tsv))
        .map_err(|e| format!("writing {stem}.*: {e}"))?;
    report
        .notes
        .push(format!("spans {} written to {stem}.spans.tsv", spans.len()));
    for line in table.lines() {
        report.notes.push(line.to_string());
    }
    report.metrics = rows;
    Ok(report)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Row]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(args: &Args) -> ExitCode {
    let workload = args.workload.as_str();
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let report = match workload {
        "service-interactive" => run::<service::Interactive>(workload, args),
        _ => run::<service::Sweep>(workload, args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in report.failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let failed = report.failures.len() as u64;
    println!(
        "{}",
        json_line(failed == 0, report.attempted, failed, &report.metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    run_one(&args)
}
