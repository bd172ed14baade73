//! The `art9-fuzz` command-line driver.
//!
//! ```sh
//! # Default campaign (seed 42, 1000 iterations, balanced mix):
//! cargo run --release -p art9-fuzz
//!
//! # The CI gate:
//! cargo run --release -p art9-fuzz -- --smoke
//!
//! # A specific campaign:
//! cargo run --release -p art9-fuzz -- --seed 7 --iterations 5000 --mix memory
//!
//! # One-command repro of a recorded failure:
//! cargo run --release -p art9-fuzz -- --replay fuzz-failures/case-000.art9
//! ```
//!
//! Exit status: `0` when every oracle agreed, `1` on any divergence,
//! `2` on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use art9_fuzz::{
    check, is_rv32_replay, parse_replay, parse_replay_header, run_fuzz, Artifact, FuzzConfig, Mix,
    Oracle, Rv32Mix, ORACLES,
};

const USAGE: &str = "\
art9-fuzz: differential fuzzing of the ART-9 simulators and toolchain

USAGE:
    art9-fuzz [OPTIONS]

OPTIONS:
    --seed N          Master seed (default 42); same seed => same programs
    --iterations N    Programs to generate and co-simulate (default 1000)
    --mix NAME        Instruction mix: balanced | alu | memory | control
                      (ART-9 programs) or rv-balanced | rv-alu | rv-memory |
                      rv-control | rv-spill (RV32 programs)
    --oracle NAME     Run only one oracle (see ORACLES) — for triaging a
                      campaign or a replay file
    --max-len N       Upper bound on generated body length (default 160)
    --smoke           CI budget: 150 small programs across the mixes
    --fail-dir DIR    Write minimized replay files here (default fuzz-failures)
    --no-fail-dir     Do not write replay files
    --replay FILE     Re-run the oracles on one replay file and exit
    --help            Show this message

ORACLES (in execution order):
";

/// A replayed case may not obey the generator's termination invariants
/// (it could be hand-edited), so it gets a generous fixed budget rather
/// than the campaign's computed bound.
const REPLAY_BUDGET: u64 = 2_000_000;

/// The usage text, with the oracle list taken from the table.
fn usage() -> String {
    let mut text = USAGE.to_string();
    for o in &ORACLES {
        text += &format!("    {:<24} {}\n", o.name, o.about);
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

fn run(args: &[String]) -> ExitCode {
    let outcome = match parse_args(args) {
        Ok(Cmd::Help) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Cmd::Replay { path, oracle }) => replay_one(&path, oracle),
        Ok(Cmd::Run(cfg)) => Ok(campaign(&cfg, &repro_flags(args))),
        Err(e) => Err(format!("{e}\n\n{}", usage())),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

enum Cmd {
    Run(Box<FuzzConfig>),
    Replay {
        path: PathBuf,
        oracle: Option<&'static Oracle>,
    },
    Help,
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    // `--smoke` picks the starting profile; every other flag then
    // overrides it, whatever the flag order.
    let profile = if args.iter().any(|a| a == "--smoke") {
        FuzzConfig::smoke()
    } else {
        FuzzConfig::default()
    };
    let mut cfg = FuzzConfig {
        fail_dir: Some(PathBuf::from("fuzz-failures")),
        ..profile
    };
    let mut replay = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cmd::Help),
            "--smoke" => {}
            "--seed" => cfg.seed = parse_num(value("--seed")?)?,
            "--iterations" => cfg.iterations = parse_num(value("--iterations")?)?,
            "--max-len" => {
                let n = parse_num(value("--max-len")?)? as usize;
                if n < 9 {
                    return Err("--max-len must be at least 9".into());
                }
                cfg.gen.max_len = n;
                cfg.rv_gen.max_len = n;
            }
            "--mix" => {
                let v = value("--mix")?;
                // A pinned mix stops the smoke profile's rotation.
                cfg.sweep_mixes = false;
                match (v.parse::<Mix>(), v.parse::<Rv32Mix>()) {
                    (Ok(m), _) => cfg.gen.mix = m,
                    (_, Ok(m)) => cfg.rv_gen.mix = m,
                    (Err(_), Err(_)) => {
                        let names: Vec<&str> = Mix::ALL
                            .iter()
                            .map(Mix::name)
                            .chain(Rv32Mix::ALL.iter().map(Rv32Mix::name))
                            .collect();
                        return Err(format!(
                            "unknown mix {v:?} (expected one of {})",
                            names.join(", ")
                        ));
                    }
                }
            }
            "--oracle" => cfg.oracle = Some(value("--oracle")?.parse()?),
            "--fail-dir" => cfg.fail_dir = Some(PathBuf::from(value("--fail-dir")?)),
            "--no-fail-dir" => cfg.fail_dir = None,
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(match replay {
        Some(path) => Cmd::Replay {
            path,
            oracle: cfg.oracle,
        },
        None => Cmd::Run(Box::new(cfg)),
    })
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// The campaign's flags without the replay-directory ones: every input
/// a case is generated from — value-level operands included, which
/// depend on `--smoke`, `--mix`, `--max-len` and `--oracle` as well as
/// `--seed` — so re-running them reproduces any finding.
fn repro_flags(args: &[String]) -> Vec<String> {
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fail-dir" => {
                args.next();
            }
            "--no-fail-dir" => {}
            _ => flags.push(arg.clone()),
        }
    }
    flags
}

fn campaign(cfg: &FuzzConfig, repro: &[String]) -> ExitCode {
    let mix = if cfg.sweep_mixes {
        "sweep (all)".to_string()
    } else {
        format!("{} + {}", cfg.gen.mix.name(), cfg.rv_gen.mix.name())
    };
    let oracle = cfg.oracle.map_or("all", |o| o.name);
    println!(
        "art9-fuzz: seed {}, {} iterations, mix {}, max-len {}, oracle {}",
        cfg.seed, cfg.iterations, mix, cfg.gen.max_len, oracle
    );
    let start = std::time::Instant::now();
    let report = run_fuzz(cfg);
    print!("{}", report.render());
    println!("wall time {:.1}s", start.elapsed().as_secs_f64());
    if report.divergences.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &report.divergences {
        if f.replay_path.is_none() {
            eprintln!(
                "--- minimized case (iteration {}) ---\n{}",
                f.iteration, f.replay_text
            );
        }
    }
    eprintln!("reproduce the campaign: art9-fuzz {}", repro.join(" "));
    ExitCode::FAILURE
}

/// A replay's verdict: agreement, or the triage summary of the
/// divergence (which oracle flagged it and the first differing state
/// field, plus the provenance the replay file recorded when it was
/// written).
fn triage(text: &str, divergence: Option<art9_fuzz::Divergence>) -> ExitCode {
    let Some(divergence) = divergence else {
        println!("all oracles agree");
        return ExitCode::SUCCESS;
    };
    let recorded = parse_replay_header(text);
    println!("DIVERGENCE: {divergence}");
    println!("triage: flagged by oracle `{}`", divergence.oracle);
    if let Some(first) = divergence.detail.lines().next() {
        println!("triage: first differing state field: {first}");
    }
    if let Some(o) = recorded.oracle {
        let verdict = if o == divergence.oracle {
            "matches"
        } else {
            "DIFFERS from"
        };
        println!("triage: recorded oracle `{o}` {verdict} the fresh result");
    }
    if let (Some(seed), Some(iteration)) = (recorded.seed, recorded.iteration) {
        println!("triage: originally found at seed {seed}, iteration {iteration}");
    }
    ExitCode::FAILURE
}

/// Re-runs the oracles that consume a replay file's case — all of
/// them, or just `oracle`. An `Err` is a usage error.
fn replay_one(path: &std::path::Path, oracle: Option<&'static Oracle>) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // RV32-flavored replays (compiler-lockstep) carry RV32 source.
    let (artifact, what) = if is_rv32_replay(&text) {
        (Artifact::Rv32(text.clone()), "rv32 source".to_string())
    } else {
        let program = parse_replay(&text)
            .map_err(|e| format!("{} is not a valid replay file: {e}", path.display()))?;
        let what = format!(
            "{} instructions, {} data words",
            program.text().len(),
            program.data().len()
        );
        (Artifact::Art9(program), what)
    };
    let (runs, divergence) =
        check(artifact, REPLAY_BUDGET, oracle).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "replaying {} ({what}, oracle {})",
        path.display(),
        oracle.map_or("all", |o| o.name)
    );
    for run in runs.iter().filter(|r| r.cases > 0) {
        println!("  {run}");
    }
    Ok(triage(&text, divergence))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn config(line: &str) -> FuzzConfig {
        match parse_args(&args(line)) {
            Ok(Cmd::Run(cfg)) => *cfg,
            _ => panic!("{line:?} is not a campaign"),
        }
    }

    #[test]
    fn smoke_flag_is_the_library_profile_and_explicit_flags_win() {
        // Field for field, apart from the CLI's default replay directory.
        let smoke = FuzzConfig {
            fail_dir: Some(PathBuf::from("fuzz-failures")),
            ..FuzzConfig::smoke()
        };
        assert_eq!(format!("{:?}", config("--smoke")), format!("{smoke:?}"));
        let cfg = config("--iterations 7 --smoke --mix alu --seed 3");
        assert_eq!((cfg.iterations, cfg.seed, cfg.gen.mix), (7, 3, Mix::ALU));
        assert!(!cfg.sweep_mixes);
        assert_eq!(cfg.arith_pairs, smoke.arith_pairs);
    }

    #[test]
    fn repro_flags_rebuild_the_campaign_config() {
        // Everything that shapes the generated inputs survives; only
        // the replay directory (which cannot change a finding) is
        // dropped, so the re-run gets the CLI's default directory.
        for line in [
            "--smoke --fail-dir out",
            "--smoke --oracle simd --no-fail-dir",
            "--seed 7 --iterations 9 --mix memory",
            "--fail-dir x --smoke --mix rv-spill --max-len 30",
            "--oracle wide --seed 5 --no-fail-dir --smoke",
        ] {
            let flags = repro_flags(&args(line)).join(" ");
            assert!(!flags.contains("fail-dir"), "{flags}");
            let original = FuzzConfig {
                fail_dir: Some(PathBuf::from("fuzz-failures")),
                ..config(line)
            };
            assert_eq!(
                format!("{:?}", config(&flags)),
                format!("{original:?}"),
                "{line}"
            );
        }
    }

    #[test]
    fn help_lists_every_oracle_and_every_name_parses() {
        let text = usage();
        for o in &ORACLES {
            assert!(text.contains(o.name), "--help misses {o}");
            assert_eq!(config(&format!("--oracle {o}")).oracle, Some(o));
        }
        assert!(matches!(parse_args(&args("--help")), Ok(Cmd::Help)));
    }

    #[test]
    fn replay_refuses_oracles_that_do_not_consume_the_file() {
        let dir = std::env::temp_dir().join(format!("art9-fuzz-refusals-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (art9, rv32) = (dir.join("case.art9"), dir.join("case.rv32"));
        std::fs::write(&art9, "LI t3, 1\nJAL t0, 0\n").unwrap();
        let source = format!("{}\nli a0, 1\nebreak\n", art9_fuzz::REPLAY_MAGIC_RV32);
        std::fs::write(&rv32, source).unwrap();
        let exit = |file: &PathBuf, oracle: &str| {
            let file = file.display().to_string();
            run(&["--replay", &file, "--oracle", oracle].map(String::from))
        };
        // Each refusal is a usage error; the matching oracles replay clean.
        assert_eq!(exit(&art9, "simd"), ExitCode::from(2));
        assert_eq!(exit(&art9, "compiler-lockstep"), ExitCode::from(2));
        assert_eq!(exit(&rv32, "energy"), ExitCode::from(2));
        assert_eq!(exit(&art9, "energy"), ExitCode::SUCCESS);
        assert_eq!(exit(&rv32, "compiler-lockstep"), ExitCode::SUCCESS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
