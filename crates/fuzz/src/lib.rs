//! # `art9-fuzz` — differential fuzzing for the ART-9 frameworks
//!
//! The paper's evaluation rests on executions of the same program
//! agreeing across machines — the functional model, the pipelined
//! model, the ternary arithmetic layer, and (its headline §III-A
//! claim) the RV32 source a translation came from. This crate turns
//! those claims into generative checks: a seeded random
//! [ART-9 program generator](generate) over the full 24-instruction
//! ISA and a seeded [RV32 generator](generate_rv32), run through the
//! eleven differential oracles of one table, [`ORACLES`] — the
//! toolchain roundtrip; the functional simulator against a per-trit
//! [`ReferenceSim`](art9_sim::ReferenceSim) and the direct-threaded
//! [`art9_sim::ThreadedSim`] in [`lockstep`]; differential energy
//! accounting; sliced and migrated execution; the pipelined simulator
//! with forwarding on and off; value-level arithmetic, SIMD-lane and
//! wide-width kernels against their tritwise references; and the RV32
//! machine against the `art9-compiler` translation, compared at every
//! RV32 instruction boundary by the [compiler-lockstep oracle](CoSim).
//! Failures are [minimized](minimize) by greedy NOP substitution (at
//! the RV32 source level for cross-ISA cases) and written as
//! one-command [replay files](render_replay).
//!
//! Design notes (generator invariants, the oracle matrix, the replay
//! format) live in `docs/FUZZING.md` at the repository root.
//!
//! ## Quick start
//!
//! ```
//! use art9_fuzz::{run_fuzz, FuzzConfig};
//!
//! let mut cfg = FuzzConfig::default();
//! cfg.iterations = 10;
//! let report = run_fuzz(&cfg);
//! assert_eq!(report.divergences.len(), 0, "{}", report.render());
//! // Determinism: the same seed reproduces the same programs.
//! assert_eq!(report.digest, run_fuzz(&cfg).digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cosim;
mod gen;
mod minimize;
mod oracle;
mod replay;
mod rng;
mod rv32gen;

pub use cosim::{cosim_mem_bytes, CoSim, COSIM_TDM_WORDS};
pub use gen::{generate, step_budget, GenConfig, Mix, MIN_TDM_WORDS};
pub use minimize::{minimize, minimize_rv32, Minimized, MinimizedRv32};
pub use oracle::{lockstep, Divergence, Oracle, OracleStats, ORACLES};
pub use replay::{
    is_rv32_replay, parse_replay, parse_replay_header, render_replay, render_replay_rv32,
    write_replay, write_replay_rv32, RecordedMeta, ReplayMeta, REPLAY_MAGIC, REPLAY_MAGIC_RV32,
};
pub use rng::FuzzRng;
pub use rv32gen::{generate_rv32, rv32_step_budget, Rv32GenConfig, Rv32Mix};

use std::time::{Duration, Instant};

use art9_isa::{encode, Program};
use oracle::{Check, ProgramCase};
use rayon::prelude::*;

/// A whole fuzz campaign's configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: the campaign is a pure function of this value (and
    /// the other knobs), independent of thread scheduling.
    pub seed: u64,
    /// Number of generated programs.
    pub iterations: u64,
    /// Generator tuning (mix, lengths, loop budget).
    pub gen: GenConfig,
    /// Random word pairs per iteration for the arithmetic oracle.
    pub arith_pairs: usize,
    /// Random lane configurations per iteration for the SIMD oracle
    /// (each configuration cross-checks every `Word9xN` lane op
    /// against its tritwise lanewise reference).
    pub simd_sets: usize,
    /// Random operand sets per iteration for the wide-width oracle
    /// (each set cross-checks the `Trits<40>`/`Trits<63>` band, the
    /// multi-plane `Word27`/`Word81` words and the tapered reals
    /// against their trit-serial references).
    pub wide_sets: usize,
    /// RV32 generator tuning for the compiler-lockstep oracle.
    pub rv_gen: Rv32GenConfig,
    /// Rotate through every named [`Mix`] (and [`Rv32Mix`]) by
    /// iteration index instead of using the configured mix for all
    /// iterations (the smoke profile does this so CI exercises the
    /// memory/control paths too).
    pub sweep_mixes: bool,
    /// Directory to write replay files for minimized failures;
    /// `None` keeps failures in the report only.
    pub fail_dir: Option<std::path::PathBuf>,
    /// Restrict the campaign to one oracle (the `--oracle` triage
    /// filter); `None` runs them all.
    pub oracle: Option<&'static Oracle>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            iterations: 1000,
            gen: GenConfig::default(),
            rv_gen: Rv32GenConfig::default(),
            arith_pairs: 32,
            simd_sets: 8,
            wide_sets: 8,
            sweep_mixes: false,
            fail_dir: None,
            oracle: None,
        }
    }
}

impl FuzzConfig {
    /// The CI smoke budget: 150 small programs in a few seconds,
    /// rotating through every named mix (and hitting both halt
    /// styles) so the memory and control paths get CI coverage too.
    pub fn smoke() -> Self {
        Self {
            iterations: 150,
            gen: GenConfig {
                max_len: 80,
                ..GenConfig::default()
            },
            rv_gen: Rv32GenConfig {
                max_len: 40,
                ..Rv32GenConfig::default()
            },
            arith_pairs: 16,
            sweep_mixes: true,
            ..Self::default()
        }
    }
}

/// A recorded case the program-level and RV32 rows re-check: what a
/// failing case minimizes to and what a replay file holds.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// An ART-9 program (the program-level rows).
    Art9(Program),
    /// RV32 assembly source (the compiler-lockstep row).
    Rv32(String),
}

/// One table row's share of a campaign or a re-check.
#[derive(Debug, Clone)]
pub struct OracleRun {
    /// The row.
    pub oracle: &'static Oracle,
    /// Cases (programs, operand draws or RV32 sources) it checked.
    pub cases: u64,
    /// Its work counters.
    pub stats: OracleStats,
    /// Divergences it flagged.
    pub divergences: u64,
    /// Time spent in its checks, summed over worker threads.
    pub elapsed: Duration,
}

impl OracleRun {
    /// One empty run per table row, in table order.
    fn table() -> Vec<OracleRun> {
        ORACLES
            .iter()
            .map(|oracle| OracleRun {
                oracle,
                cases: 0,
                stats: OracleStats::default(),
                divergences: 0,
                elapsed: Duration::ZERO,
            })
            .collect()
    }

    /// Runs one check, charging its work and time to this row.
    fn time(
        &mut self,
        check: impl FnOnce(&mut OracleStats) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let outcome = check(&mut self.stats);
        self.elapsed += start.elapsed();
        self.cases += 1;
        outcome
    }

    fn absorb(&mut self, other: &OracleRun) {
        self.cases += other.cases;
        self.stats.absorb(&other.stats);
        self.divergences += other.divergences;
        self.elapsed += other.elapsed;
    }
}

/// The report line: name, cases, the nonzero work counters,
/// divergences and time.
impl std::fmt::Display for OracleRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} {} cases: {} | {} divergences | {:.1} ms",
            self.oracle.name,
            self.cases,
            self.stats,
            self.divergences,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

/// One minimized failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration index the case was generated at.
    pub iteration: u64,
    /// The (minimized) divergence.
    pub divergence: Divergence,
    /// The minimized program, rendered as replayable assembly.
    pub replay_text: String,
    /// Where the replay file was written, when a `fail_dir` was set.
    pub replay_path: Option<std::path::PathBuf>,
}

/// Aggregate result of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Programs generated and checked.
    pub programs: u64,
    /// Each table row's share, in table order (rows the `--oracle`
    /// filter skipped have no cases).
    pub oracles: Vec<OracleRun>,
    /// Every divergence found (minimized).
    pub divergences: Vec<Failure>,
    /// Order-independent digest of every generated program: two runs
    /// with the same config produce the same digest regardless of
    /// `rayon` scheduling — the reproducibility check.
    pub digest: u64,
}

impl FuzzReport {
    /// The campaign's work counters, summed over the rows.
    pub fn stats(&self) -> OracleStats {
        let mut stats = OracleStats::default();
        for run in &self.oracles {
            stats.absorb(&run.stats);
        }
        stats
    }

    /// Renders the human-readable campaign summary: one line per row
    /// that ran, then the divergences.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} programs | digest {:016x}",
            self.programs, self.digest
        );
        for run in self.oracles.iter().filter(|r| r.cases > 0) {
            let _ = writeln!(out, "  {run}");
        }
        if self.divergences.is_empty() {
            let _ = writeln!(out, "no divergences");
        } else {
            let _ = writeln!(out, "{} DIVERGENCES:", self.divergences.len());
            for f in &self.divergences {
                let _ = writeln!(out, "  iteration {}: {}", f.iteration, f.divergence);
                if let Some(p) = &f.replay_path {
                    let _ = writeln!(out, "    replay: {}", p.display());
                }
            }
        }
        out
    }
}

/// FNV-1a over a program's canonical encoding (TIM words + data).
fn program_digest(p: &Program) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: i64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for i in p.text() {
        eat(encode(i).to_i64());
    }
    eat(-1); // text/data separator
    for w in p.data() {
        eat(w.to_i64());
    }
    h
}

/// FNV-1a over an RV32 source's bytes.
fn source_digest(src: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in src.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One case's inputs, produced on first use so that the rows draw from
/// the iteration RNG in table order: a campaign iteration generates
/// its ART-9 program before the first program- or value-level row and
/// its RV32 source before the RV32 row; a recorded case holds one
/// artifact and no RNG draws.
struct Case<'c> {
    /// What a campaign iteration generates its inputs from: the
    /// config, the iteration index and its RNG; `None` for a recorded
    /// artifact.
    campaign: Option<(&'c FuzzConfig, u64, FuzzRng)>,
    program: Option<ProgramCase>,
    /// RV32 source with its step budget.
    rv32: Option<(String, u64)>,
    digest: u64,
}

impl<'c> Case<'c> {
    fn generated(cfg: &'c FuzzConfig, iteration: u64) -> Self {
        Self {
            campaign: Some((cfg, iteration, FuzzRng::for_iteration(cfg.seed, iteration))),
            program: None,
            rv32: None,
            digest: 0,
        }
    }

    fn recorded(artifact: Artifact, step_budget: u64) -> Self {
        let (program, rv32) = match artifact {
            Artifact::Art9(p) => (Some(ProgramCase::new(p, step_budget)), None),
            Artifact::Rv32(src) => (None, Some((src, step_budget))),
        };
        Self {
            campaign: None,
            program,
            rv32,
            digest: 0,
        }
    }

    fn program(&mut self) -> Option<&mut ProgramCase> {
        if self.program.is_none() {
            let (cfg, i, rng) = self.campaign.as_mut()?;
            let mut gen_cfg = cfg.gen;
            if cfg.sweep_mixes {
                gen_cfg.mix = Mix::ALL[(*i % Mix::ALL.len() as u64) as usize];
            }
            let program = generate(rng, &gen_cfg);
            self.digest = program_digest(&program);
            self.program = Some(ProgramCase::new(program, step_budget(&cfg.gen)));
        }
        self.program.as_mut()
    }

    fn values(&mut self) -> Option<(&mut FuzzRng, &'c FuzzConfig)> {
        // Value-level rows draw after program generation.
        self.program()?;
        let (cfg, _, rng) = self.campaign.as_mut()?;
        Some((rng, *cfg))
    }

    fn rv32(&mut self) -> Option<(&str, u64)> {
        if self.rv32.is_none() {
            let (cfg, i, rng) = self.campaign.as_mut()?;
            let mut rv_cfg = cfg.rv_gen;
            if cfg.sweep_mixes {
                rv_cfg.mix = Rv32Mix::ALL[(*i % Rv32Mix::ALL.len() as u64) as usize];
            }
            let src = generate_rv32(rng, &rv_cfg);
            self.digest ^= source_digest(&src).rotate_left(31);
            self.rv32 = Some((src, rv32_step_budget(&cfg.rv_gen)));
        }
        let (src, budget) = self.rv32.as_ref()?;
        Some((src, *budget))
    }

    /// Runs the rows `only` selects (all when `None`) in table order,
    /// charging each row's work and time to its entry of `runs`. Rows
    /// whose input this case lacks are skipped; the first divergence
    /// ends the case.
    fn run(&mut self, only: Option<&Oracle>, runs: &mut [OracleRun]) -> Option<Divergence> {
        for run in runs
            .iter_mut()
            .filter(|r| only.is_none_or(|o| o == r.oracle))
        {
            let outcome = match run.oracle.check {
                Check::Program(check) => self.program().map(|p| run.time(|s| check(p, s))),
                Check::Values(check) => self
                    .values()
                    .map(|(rng, cfg)| run.time(|s| check(rng, cfg, s))),
                Check::Rv32(check) => self
                    .rv32()
                    .map(|(src, budget)| run.time(|s| check(src, budget, s))),
            };
            if let Some(Err(detail)) = outcome {
                run.divergences += 1;
                return Some(Divergence {
                    oracle: run.oracle,
                    detail,
                });
            }
        }
        None
    }

    /// The artifact a divergence flagged by `oracle` replays from;
    /// `None` for a value-level row.
    fn into_artifact(self, oracle: &Oracle) -> Option<Artifact> {
        match oracle.check {
            Check::Program(_) => self.program.map(|p| Artifact::Art9(p.program)),
            Check::Rv32(_) => self.rv32.map(|(src, _)| Artifact::Rv32(src)),
            Check::Values(_) => None,
        }
    }
}

/// Re-checks one recorded case — a replay file's contents or a
/// minimizer candidate — with every row that consumes it, or only
/// with `only`. `step_budget` bounds the run: a replay passes a
/// generous fixed budget, since a hand-edited case need not obey the
/// generator's termination bounds.
///
/// Returns each row's share and the first divergence.
///
/// # Errors
///
/// Refuses an `only` row that does not consume this kind of case (a
/// value-level row consumes none).
pub fn check(
    artifact: Artifact,
    step_budget: u64,
    only: Option<&'static Oracle>,
) -> Result<(Vec<OracleRun>, Option<Divergence>), String> {
    if let Some(o) = only {
        let refusal = match (o.check, &artifact) {
            (Check::Program(_), Artifact::Art9(_)) | (Check::Rv32(_), Artifact::Rv32(_)) => None,
            (Check::Values(_), _) => {
                Some("is value-level and has no replay; re-run the campaign's flags instead")
            }
            (Check::Program(_), _) => Some("checks ART-9 programs (case-*.art9), not RV32 source"),
            (Check::Rv32(_), _) => Some("checks RV32 sources (case-*.rv32), not an ART-9 program"),
        };
        if let Some(why) = refusal {
            return Err(format!("the {o} oracle {why}"));
        }
    }
    let mut runs = OracleRun::table();
    let divergence = Case::recorded(artifact, step_budget).run(only, &mut runs);
    Ok((runs, divergence))
}

/// Outcome of one iteration (collected in index order).
struct IterOutcome {
    runs: Vec<OracleRun>,
    digest: u64,
    failure: Option<(u64, Divergence, Option<Artifact>)>,
}

/// Runs a full fuzz campaign.
///
/// Iterations fan out across `rayon` worker threads; each derives its
/// own RNG stream from `(seed, index)` and results are folded in index
/// order, so the report (digest included) is bit-identical run-to-run
/// for a fixed config.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let indices: Vec<u64> = (0..cfg.iterations).collect();
    let outcomes: Vec<IterOutcome> = indices
        .into_par_iter()
        .map(|i| {
            let mut case = Case::generated(cfg, i);
            let mut runs = OracleRun::table();
            let divergence = case.run(cfg.oracle, &mut runs);
            let digest = case.digest;
            let failure = divergence.map(|d| {
                let artifact = case.into_artifact(d.oracle);
                (i, d, artifact)
            });
            IterOutcome {
                runs,
                digest,
                failure,
            }
        })
        .collect();

    let mut oracles = OracleRun::table();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut divergences = Vec::new();
    for o in &outcomes {
        for (total, run) in oracles.iter_mut().zip(&o.runs) {
            total.absorb(run);
        }
        // Fold per-iteration digests in index order (collect preserves
        // input order, so this is schedule-independent).
        digest ^= o.digest;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
    }
    for o in outcomes {
        let Some((iteration, divergence, artifact)) = o.failure else {
            continue;
        };
        // Value-level findings have no program to replay: the failing
        // operands are in the divergence detail and the case reproduces
        // only from the whole campaign (its RNG stream depends on every
        // flag). Writing the (unrelated) generated program as a replay
        // file would record a "repro" that passes.
        let Some(artifact) = artifact else {
            divergences.push(Failure {
                iteration,
                replay_text: format!(
                    "; {} finding — value-level, no program replay; re-run the campaign with \
                     the same flags to reproduce\n; {}",
                    divergence.oracle, divergence.detail
                ),
                divergence,
                replay_path: None,
            });
            continue;
        };
        // Minimize by re-checking only the flagging row, so
        // minimization cost scales with one oracle, not the whole
        // table. RV32 cases minimize at the source level, ART-9 cases
        // at the instruction level.
        let budget = match artifact {
            Artifact::Art9(_) => step_budget(&cfg.gen),
            Artifact::Rv32(_) => rv32_step_budget(&cfg.rv_gen),
        };
        let recheck = |a: Artifact| check(a, budget, Some(divergence.oracle)).ok()?.1;
        let (final_divergence, artifact) = match artifact {
            Artifact::Rv32(src) => {
                match minimize_rv32(&src, |s| recheck(Artifact::Rv32(s.to_string()))) {
                    Some(m) => (m.divergence, Artifact::Rv32(m.source)),
                    None => (divergence, Artifact::Rv32(src)),
                }
            }
            Artifact::Art9(program) => {
                match minimize(&program, |p| recheck(Artifact::Art9(p.clone()))) {
                    Some(m) => (m.divergence, Artifact::Art9(m.program)),
                    None => (divergence, Artifact::Art9(program)),
                }
            }
        };
        let meta = ReplayMeta {
            seed: cfg.seed,
            iteration,
            divergence: final_divergence.clone(),
        };
        let dir = cfg.fail_dir.as_deref();
        let (replay_text, replay_path) = match &artifact {
            Artifact::Rv32(src) => (
                render_replay_rv32(&meta, src),
                dir.and_then(|d| write_replay_rv32(d, &meta, src).ok()),
            ),
            Artifact::Art9(program) => (
                render_replay(&meta, program),
                dir.and_then(|d| write_replay(d, &meta, program).ok()),
            ),
        };
        divergences.push(Failure {
            iteration,
            divergence: final_divergence,
            replay_text,
            replay_path,
        });
    }

    FuzzReport {
        programs: cfg.iterations,
        oracles,
        divergences,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzConfig {
        FuzzConfig {
            iterations: 25,
            gen: GenConfig {
                max_len: 60,
                ..GenConfig::default()
            },
            arith_pairs: 8,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_deterministic() {
        let cfg = tiny();
        let a = run_fuzz(&cfg);
        assert!(a.divergences.is_empty(), "{}", a.render());
        assert!(a.stats().functional_instructions > 0);
        assert!(a.stats().threaded_instructions > 0);
        let b = run_fuzz(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            a.stats().functional_instructions,
            b.stats().functional_instructions
        );
        assert_eq!(
            a.stats().threaded_instructions,
            b.stats().threaded_instructions
        );
        assert_eq!(a.stats().pipelined_cycles, b.stats().pipelined_cycles);
        assert_eq!(a.stats().roundtrip_checks, b.stats().roundtrip_checks);
    }

    #[test]
    fn different_seeds_generate_different_campaigns() {
        let a = run_fuzz(&tiny());
        let mut cfg = tiny();
        cfg.seed = 43;
        let b = run_fuzz(&cfg);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn report_renders_counts() {
        let r = run_fuzz(&FuzzConfig {
            iterations: 3,
            ..tiny()
        });
        let text = r.render();
        assert!(text.contains("3 programs"), "{text}");
        assert!(text.contains("no divergences"), "{text}");
        assert!(text.contains("digest"), "{text}");
    }
}
