//! The benchmark's self-check: a short run of every workload must emit
//! every metric it owns, fail nothing, and reproduce the exact figures
//! across runs and seeds.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`
//! (a debug build works too, only slower).

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["service-interactive", "service-sweep"];

const END_TO_END: [&str; 9] = [
    "setup_s",
    "jobs_per_s",
    "job_p50_ms",
    "job_p95_ms",
    "sim_ips",
    "verified_frac",
    "sim_cycles",
    "dmips_per_watt",
    "peak_rss_mb",
];

/// Runs the benchmark; returns its `metric` lines as name → value.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{last}"
    );
    stdout
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                ["metric", name, value, _unit] => Some((name.to_string(), value.parse().ok()?)),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn every_workload_emits_its_metrics_and_repeats_the_exact_figures() {
    for workload in WORKLOADS {
        let runs = [
            run(workload, 1, false),
            run(workload, 1, false),
            run(workload, 2, false),
        ];
        for m in &runs {
            let names: Vec<&str> = m.keys().map(String::as_str).collect();
            let mut want = END_TO_END.to_vec();
            want.sort_unstable();
            assert_eq!(names, want, "{workload}");
            assert_eq!(m["verified_frac"], 1.0, "{workload}");
            assert!(m["jobs_per_s"] > 0.0 && m["setup_s"] > 0.0, "{workload}");
        }
        for exact in ["sim_cycles", "dmips_per_watt"] {
            assert!(
                runs.iter().all(|m| m[exact] == runs[0][exact]),
                "{workload}: {exact} differs across runs and seeds"
            );
        }
        assert_eq!(runs[0]["sim_cycles"], 91_409.0, "{workload}");
    }
}

#[test]
fn traced_runs_emit_the_ledger_and_attribute_job_time() {
    let interactive = run("service-interactive", 3, true);
    let sweep = run("service-sweep", 3, true);
    for m in [&interactive, &sweep] {
        for row in [
            "sim.threaded_ips",
            "compiler.dyn_expansion",
            "service.hello_rtt_us",
            "service.submit_rtt_us",
            "service.wait_rtt_us",
            "service.overhead_frac",
            "trace.overhead_frac",
        ] {
            assert!(m.contains_key(row), "missing {row}");
        }
        assert!(m["trace.coverage_frac"] >= 0.9, "{m:?}");
        assert!(m["service.submit.self_frac"] > 0.0, "{m:?}");
        assert!(m["service.wait.self_frac"] > 0.0, "{m:?}");
    }
    assert_eq!(
        interactive.keys().collect::<Vec<_>>(),
        sweep.keys().collect::<Vec<_>>(),
        "every workload emits the same per-layer rows"
    );
    assert!(sweep["service.slices_per_job"] > 1.0, "{sweep:?}");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "service-interactive",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "service-interactive", "--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
