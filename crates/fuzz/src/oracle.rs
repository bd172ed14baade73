//! Lockstep co-simulation oracles.
//!
//! Every generated program runs through five independent executions —
//! the functional simulator, the per-trit
//! [`ReferenceSim`](art9_sim::ReferenceSim), the direct-threaded
//! [`ThreadedSim`](art9_sim::ThreadedSim), and the pipelined simulator
//! with forwarding on and off — plus the toolchain roundtrip
//! (encode → decode → disassemble → reassemble). A further oracle
//! exercises the packed-vs-tritwise arithmetic layer directly on
//! random words. Any disagreement is reported as a [`Divergence`]
//! naming the oracle, the step, and the first differing piece of
//! state.
//!
//! The functional/reference and functional/threaded pairs run **step
//! for step** through the generic [`lockstep`] entry point — any two
//! [`Core`] backends, `pc`, the nine TRF registers and the halt state
//! compared after every instruction, TDM and retirement counts at
//! halt. The threaded oracle then re-runs the program free-running, so
//! its fused superblock dispatch path gets the same differential
//! coverage as its per-instruction stepping path. The pipelined runs
//! are compared at halt (registers, TDM, halt reason,
//! retired-instruction count) because the pipeline only exposes
//! architectural state at retirement.
//!
//! Every simulator here is built through
//! [`SimBuilder`](art9_sim::SimBuilder) — the oracles contain no
//! backend-specific construction.

use std::sync::{Arc, Mutex};

use art9_isa::{assemble, decode, disassemble_word, encode, Instruction, Program, ALL_REGS};
use art9_sim::observers::EnergyAccounting;
use art9_sim::{
    Backend, Budget, Checkpoint, Core, CoreState, HaltReason, PredecodedProgram, SimBuilder,
};
use ternary::simd::{self, LaneWeights, PackedWeights, Word9xN};
use ternary::{arith, Trit, Trits, Word9};

use crate::gen::MIN_TDM_WORDS;
use crate::rng::FuzzRng;

/// TDM size every oracle runs with: covers the generator's base window
/// and matches the default simulator configuration.
pub const ORACLE_TDM_WORDS: usize = if MIN_TDM_WORDS > 256 {
    MIN_TDM_WORDS
} else {
    256
};

/// The oracles a program runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Functional simulator vs the per-trit reference, in lockstep.
    FunctionalVsReference,
    /// Functional simulator vs the direct-threaded backend: a
    /// per-instruction lockstep run, then a fresh free run through the
    /// fused superblock path compared at halt.
    FunctionalVsThreaded,
    /// Pipelined simulator (forwarding on) vs functional, at halt.
    PipelinedForwarding,
    /// Pipelined simulator (forwarding off) vs functional, at halt.
    PipelinedNoForwarding,
    /// Trit-flip energy accounting: the same program measured on the
    /// functional, threaded and pipelined simulators with the packed
    /// (`flips_from`) flip kernel and on the per-trit reference
    /// simulator with the tritwise flip reference — every per-opcode,
    /// per-structure flip counter must be bit-identical.
    Energy,
    /// The service scheduler's execution model, checked differentially:
    /// a run sliced on random [`Budget::Retired`] quanta and *migrated*
    /// between architectural backends at random slice boundaries
    /// (checkpoint-text roundtrip, shared energy observer) must be
    /// bit-identical to a straight-line run — final state, halt reason,
    /// retirement count, instruction mix and per-opcode energy
    /// counters.
    SliceMigrate,
    /// encode → decode → disassemble → reassemble roundtrip.
    ToolchainRoundtrip,
    /// Packed bitplane kernels vs the tritwise reference algorithms.
    Arithmetic,
    /// Bitplane-SIMD lane subsystem ([`Word9xN`]) vs the per-trit
    /// lanewise references in `ternary::arith`: lane-parallel add,
    /// subtract, negate, logic, compare, ternary-weight MAC and
    /// horizontal reduce on adversarial lane counts (word-boundary
    /// ±1), ±3^k lane values, all-zero weight vectors and mixed-sign
    /// MACs.
    Simd,
    /// Wide-width arithmetic: packed kernels vs the trit-serial
    /// references at every width past the 9-trit machine word —
    /// single-plane `Trits<40>`/`Trits<63>` (the band the pre-fix
    /// constants made uninstantiable), the multi-plane
    /// `Word27`/`Word81` words (cross-plane carry ripple, the 81-trit
    /// range exceeding `i128`), and the tapered-precision
    /// `TernaryReal` add/mul against the exact-integer rounding
    /// reference.
    Wide,
    /// RV32→ART-9 translation vs the `rv32` machine, in lockstep at
    /// RV32-instruction granularity (see [`crate::CoSim`]). Runs on
    /// generated RV32 programs, not ART-9 ones.
    CompilerLockstep,
}

impl Oracle {
    /// Every oracle, in campaign order.
    pub const ALL: [Oracle; 11] = [
        Oracle::FunctionalVsReference,
        Oracle::FunctionalVsThreaded,
        Oracle::Energy,
        Oracle::SliceMigrate,
        Oracle::PipelinedForwarding,
        Oracle::PipelinedNoForwarding,
        Oracle::ToolchainRoundtrip,
        Oracle::Arithmetic,
        Oracle::Simd,
        Oracle::Wide,
        Oracle::CompilerLockstep,
    ];

    /// Stable display name (used in replay files, reports, and the
    /// `--oracle` CLI filter).
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::FunctionalVsReference => "functional-vs-reference",
            Oracle::FunctionalVsThreaded => "functional-vs-threaded",
            Oracle::Energy => "energy",
            Oracle::SliceMigrate => "slice-migrate",
            Oracle::PipelinedForwarding => "pipelined-fwd",
            Oracle::PipelinedNoForwarding => "pipelined-nofwd",
            Oracle::ToolchainRoundtrip => "toolchain-roundtrip",
            Oracle::Arithmetic => "arithmetic",
            Oracle::Simd => "simd",
            Oracle::Wide => "wide",
            Oracle::CompilerLockstep => "compiler-lockstep",
        }
    }
}

impl std::str::FromStr for Oracle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Oracle::ALL
            .into_iter()
            .find(|o| o.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Oracle::ALL.iter().map(|o| o.name()).collect();
                format!(
                    "unknown oracle {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// One observed disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The oracle that caught it.
    pub oracle: Oracle,
    /// Human-readable description of the first difference.
    pub detail: String,
}

impl Divergence {
    /// Marker phrase shared by the two budget-exhaustion reports (kept
    /// in one place so [`Divergence::is_budget_exhaustion`] cannot
    /// drift from the messages).
    pub(crate) const BUDGET_MARKER: &'static str = "exceeded the budget of";

    /// `true` when this divergence reports budget exhaustion (a
    /// non-terminating run) rather than a state disagreement. The
    /// minimizer refuses to trade one kind for the other.
    pub fn is_budget_exhaustion(&self) -> bool {
        self.detail.contains(Self::BUDGET_MARKER)
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle.name(), self.detail)
    }
}

/// Per-program oracle statistics (folded into the fuzz report).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    /// Instructions the functional simulator executed.
    pub functional_instructions: u64,
    /// Instructions the threaded backend retired (stepped + fused runs).
    pub threaded_instructions: u64,
    /// Cycles the two pipelined runs consumed together.
    pub pipelined_cycles: u64,
    /// Individual roundtrip checks performed.
    pub roundtrip_checks: u64,
    /// Individual arithmetic cross-checks performed.
    pub arith_checks: u64,
    /// Individual SIMD-lane cross-checks performed (one per lane-op
    /// comparison against its tritwise lanewise reference).
    pub simd_checks: u64,
    /// Individual wide-width cross-checks performed (one per packed-op
    /// comparison against its trit-serial or exact-integer reference).
    pub wide_checks: u64,
    /// Trit flips cross-checked by the energy oracle (the packed
    /// totals of the functional, threaded and pipelined runs summed;
    /// the tritwise reference counted the same number for each when
    /// the oracle passed).
    pub energy_flips: u64,
    /// Slices the slice-migrate oracle executed.
    pub slice_migrate_slices: u64,
    /// Cross-backend checkpoint migrations the slice-migrate oracle
    /// performed.
    pub slice_migrate_migrations: u64,
    /// RV32 instructions the compiler-lockstep oracle retired.
    pub cosim_rv32_instructions: u64,
    /// ART-9 instructions the compiler-lockstep oracle retired.
    pub cosim_art9_instructions: u64,
    /// Sync points (RV32-instruction boundaries) compared in full.
    pub cosim_sync_points: u64,
}

impl OracleStats {
    /// Accumulates another program's counters.
    pub fn absorb(&mut self, other: &OracleStats) {
        self.functional_instructions += other.functional_instructions;
        self.threaded_instructions += other.threaded_instructions;
        self.pipelined_cycles += other.pipelined_cycles;
        self.roundtrip_checks += other.roundtrip_checks;
        self.arith_checks += other.arith_checks;
        self.simd_checks += other.simd_checks;
        self.wide_checks += other.wide_checks;
        self.energy_flips += other.energy_flips;
        self.slice_migrate_slices += other.slice_migrate_slices;
        self.slice_migrate_migrations += other.slice_migrate_migrations;
        self.cosim_rv32_instructions += other.cosim_rv32_instructions;
        self.cosim_art9_instructions += other.cosim_art9_instructions;
        self.cosim_sync_points += other.cosim_sync_points;
    }
}

/// How a [`lockstep`] co-simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockstepOutcome {
    /// Both cores halted identically and agreed at every step.
    Agreed(HaltReason),
    /// The first disagreement (or a fault on either side), described.
    Diverged(String),
    /// Neither halt nor disagreement within the step budget.
    BudgetExhausted,
    /// A backend that cannot step architecturally (the pipeline) was
    /// passed; no steps were executed.
    Unsupported(String),
}

/// Runs two **architectural** [`Core`] backends in lockstep for up to
/// `max_steps` steps: after every step the halt state, the PC and all
/// nine TRF registers are compared; at halt the TDM and the
/// retired-instruction counts are compared too. Differences are
/// described naming each side's backend.
///
/// Generic over `Core + ?Sized`, so it accepts concrete simulators and
/// `dyn Core` trait objects alike — the same entry point serves the
/// fuzz campaign and ad-hoc A/B debugging.
///
/// The pipelined backend cannot run in lockstep — one of its steps is
/// a clock cycle, it retires instructions stages later, and it does
/// not maintain an architectural PC between steps — so passing it on
/// either side is rejected up front ([`LockstepOutcome::Unsupported`])
/// instead of producing a spurious first-step divergence. Compare the
/// pipeline at halt, as [`check_program`] does.
pub fn lockstep<A, B>(a: &mut A, b: &mut B, max_steps: u64) -> LockstepOutcome
where
    A: Core + ?Sized,
    B: Core + ?Sized,
{
    if a.backend() == Backend::Pipelined || b.backend() == Backend::Pipelined {
        return LockstepOutcome::Unsupported(
            "the pipelined backend steps by clock cycle and exposes architectural state \
             only at retirement; run it to halt and compare final states instead"
                .into(),
        );
    }
    let (an, bn) = (a.backend().name(), b.backend().name());
    for _ in 0..=max_steps {
        let ha = match a.step() {
            Ok(h) => h,
            Err(e) => return LockstepOutcome::Diverged(format!("{an} core faulted: {e}")),
        };
        let hb = match b.step() {
            Ok(h) => h,
            Err(e) => return LockstepOutcome::Diverged(format!("{bn} core faulted: {e}")),
        };
        if ha != hb {
            return LockstepOutcome::Diverged(format!(
                "halt disagreement after {} instructions: {an} {ha:?}, {bn} {hb:?}",
                a.retired()
            ));
        }
        if let Some(d) = step_difference(a.state(), b.state(), an, bn) {
            return LockstepOutcome::Diverged(format!("after {} instructions: {d}", a.retired()));
        }
        if let Some(halt) = ha {
            // Memory is compared once at halt; registers were compared
            // every step.
            if a.state().tdm.size() != b.state().tdm.size() {
                return LockstepOutcome::Diverged(format!(
                    "TDM sizes {} ({an}) vs {} ({bn})",
                    a.state().tdm.size(),
                    b.state().tdm.size()
                ));
            }
            for (addr, (x, y)) in a.state().tdm.iter().zip(b.state().tdm.iter()).enumerate() {
                if x != y {
                    return LockstepOutcome::Diverged(format!(
                        "TDM[{addr}] = {} ({an}) vs {} ({bn}) at halt",
                        x.to_i64(),
                        y.to_i64()
                    ));
                }
            }
            if a.retired() != b.retired() {
                return LockstepOutcome::Diverged(format!(
                    "instruction counts differ: {} vs {}",
                    a.retired(),
                    b.retired()
                ));
            }
            return LockstepOutcome::Agreed(halt);
        }
    }
    LockstepOutcome::BudgetExhausted
}

/// The first per-step difference between two architectural states:
/// PC first, then the nine registers.
fn step_difference(a: &CoreState, b: &CoreState, an: &str, bn: &str) -> Option<String> {
    if a.pc != b.pc {
        return Some(format!("pc {} ({an}) vs {} ({bn})", a.pc, b.pc));
    }
    for r in ALL_REGS {
        let x = a.reg(r);
        let y = b.reg(r);
        if x != y {
            return Some(format!(
                "{r} = {x} ({}) {an} vs {y} ({}) {bn}",
                x.to_i64(),
                y.to_i64()
            ));
        }
    }
    None
}

/// Runs every program-level oracle on `program`; see
/// [`check_program_filtered`] for running a single oracle.
pub fn check_program(program: &Program, step_budget: u64) -> (OracleStats, Option<Divergence>) {
    check_program_filtered(program, step_budget, None)
}

/// Runs the program-level oracles on `program`, restricted to `only`
/// when set (the `--oracle` triage filter; the pipelined oracles still
/// execute the functional simulator once as their comparison baseline).
///
/// Returns the first divergence found (checking stops there — the
/// minimizer will re-run the same check on reduced programs) plus the
/// work counters.
///
/// `step_budget` bounds the functional/reference runs; the pipelined
/// runs get `16×` that in cycles (a generated program's CPI is far
/// below that — exhausting the budget is itself a divergence).
pub fn check_program_filtered(
    program: &Program,
    step_budget: u64,
    only: Option<Oracle>,
) -> (OracleStats, Option<Divergence>) {
    let mut stats = OracleStats::default();
    let enabled = |o: Oracle| only.is_none() || only == Some(o);

    if enabled(Oracle::ToolchainRoundtrip) {
        if let Some(d) = roundtrip_oracle(program, &mut stats) {
            return (stats, Some(d));
        }
    }

    let run_fwd = enabled(Oracle::PipelinedForwarding);
    let run_nofwd = enabled(Oracle::PipelinedNoForwarding);
    let run_lockstep = enabled(Oracle::FunctionalVsReference);
    let run_threaded = enabled(Oracle::FunctionalVsThreaded);
    let run_energy = enabled(Oracle::Energy);
    let run_slice_migrate = enabled(Oracle::SliceMigrate);
    if !(run_lockstep || run_fwd || run_nofwd || run_threaded || run_energy || run_slice_migrate) {
        return (stats, None);
    }

    let image = PredecodedProgram::new(program);
    let image_hash = image.content_hash();
    let builder = SimBuilder::new(&image).tdm_words(ORACLE_TDM_WORDS);

    // The threaded, energy and slice-migrate oracles are self-contained
    // (each runs its own set of simulators), so a filter selecting only
    // them skips everything else.
    if !(run_lockstep || run_fwd || run_nofwd) {
        if run_threaded {
            if let Some(d) = threaded_oracle(&builder, step_budget, &mut stats) {
                return (stats, Some(d));
            }
        }
        if run_energy {
            if let Some(d) = energy_oracle(&builder, step_budget, &mut stats) {
                return (stats, Some(d));
            }
        }
        if run_slice_migrate {
            if let Some(d) = slice_migrate_oracle(&builder, image_hash, step_budget, &mut stats) {
                return (stats, Some(d));
            }
        }
        return (stats, None);
    }

    // --- Functional vs per-trit reference, in lockstep ---------------
    // (When filtered to a pipelined oracle, the functional simulator
    // still runs — alone — as that oracle's baseline.)
    let mut func = builder.build_functional();
    let func_halt = if run_lockstep {
        let mut reference = builder.build_reference();
        let outcome = lockstep(&mut func, &mut reference, step_budget);
        stats.functional_instructions = func.instructions();
        match outcome {
            LockstepOutcome::Diverged(detail) => {
                return (
                    stats,
                    Some(Divergence {
                        oracle: Oracle::FunctionalVsReference,
                        detail,
                    }),
                );
            }
            LockstepOutcome::BudgetExhausted => {
                return (
                    stats,
                    Some(Divergence {
                        oracle: Oracle::FunctionalVsReference,
                        detail: format!(
                            "program {} {step_budget} steps",
                            Divergence::BUDGET_MARKER
                        ),
                    }),
                );
            }
            LockstepOutcome::Unsupported(why) => {
                unreachable!("architectural backends rejected by lockstep: {why}")
            }
            LockstepOutcome::Agreed(halt) => halt,
        }
    } else {
        let baseline_oracle = if run_fwd {
            Oracle::PipelinedForwarding
        } else {
            Oracle::PipelinedNoForwarding
        };
        match func.run(step_budget) {
            Ok(result) => {
                stats.functional_instructions = func.instructions();
                result.halt
            }
            Err(e) => {
                stats.functional_instructions = func.instructions();
                let detail = if matches!(e, art9_sim::SimError::Timeout { .. }) {
                    format!("program {} {step_budget} steps", Divergence::BUDGET_MARKER)
                } else {
                    format!("functional baseline faulted: {e}")
                };
                return (
                    stats,
                    Some(Divergence {
                        oracle: baseline_oracle,
                        detail,
                    }),
                );
            }
        }
    };

    // --- Functional vs direct-threaded, in campaign order ------------
    if run_threaded {
        if let Some(d) = threaded_oracle(&builder, step_budget, &mut stats) {
            return (stats, Some(d));
        }
    }

    // --- Differential energy accounting ------------------------------
    if run_energy {
        if let Some(d) = energy_oracle(&builder, step_budget, &mut stats) {
            return (stats, Some(d));
        }
    }

    // --- Budget-sliced, migrated execution vs straight-line ----------
    if run_slice_migrate {
        if let Some(d) = slice_migrate_oracle(&builder, image_hash, step_budget, &mut stats) {
            return (stats, Some(d));
        }
    }

    // --- Pipelined (both forwarding settings) vs functional ----------
    for (oracle, forwarding) in [
        (Oracle::PipelinedForwarding, true),
        (Oracle::PipelinedNoForwarding, false),
    ] {
        if !enabled(oracle) {
            continue;
        }
        let mut pipe = builder.clone().forwarding(forwarding).build_pipelined();
        let cycle_budget = step_budget.saturating_mul(16).max(1024);
        let halt = loop {
            if pipe.stats().cycles > cycle_budget {
                break None;
            }
            match pipe.cycle() {
                Ok(Some(h)) => break Some(h),
                Ok(None) => {}
                Err(e) => {
                    stats.pipelined_cycles += pipe.stats().cycles;
                    return (
                        stats,
                        Some(Divergence {
                            oracle,
                            detail: format!("pipelined simulator faulted: {e}"),
                        }),
                    );
                }
            }
        };
        stats.pipelined_cycles += pipe.stats().cycles;
        let Some(halt) = halt else {
            return (
                stats,
                Some(Divergence {
                    oracle,
                    detail: format!(
                        "pipeline {} {cycle_budget} cycles",
                        Divergence::BUDGET_MARKER
                    ),
                }),
            );
        };
        if halt != func_halt {
            return (
                stats,
                Some(Divergence {
                    oracle,
                    detail: format!("halt reason {halt:?} vs functional {func_halt:?}"),
                }),
            );
        }
        if pipe.stats().instructions != func.instructions() {
            return (
                stats,
                Some(Divergence {
                    oracle,
                    detail: format!(
                        "retired {} instructions vs functional {}",
                        pipe.stats().instructions,
                        func.instructions()
                    ),
                }),
            );
        }
        if let Some(d) = func.state().first_difference(pipe.state()) {
            return (stats, Some(Divergence { oracle, detail: d }));
        }
    }

    (stats, None)
}

/// The functional-vs-threaded oracle: one per-instruction [`lockstep`]
/// run (exercising the threaded backend's precise stepping path), then
/// a fresh threaded core free-running to halt through the fused
/// superblock dispatch path, compared against the functional final
/// state, retirement count and instruction mix. Fusion must be
/// architecturally invisible — both runs land on the same point.
fn threaded_oracle(
    builder: &SimBuilder,
    step_budget: u64,
    stats: &mut OracleStats,
) -> Option<Divergence> {
    let fail = |detail: String| {
        Some(Divergence {
            oracle: Oracle::FunctionalVsThreaded,
            detail,
        })
    };
    let mut func = builder.build_functional();
    let mut threaded = builder.build_threaded();
    let halt = match lockstep(&mut func, &mut threaded, step_budget) {
        LockstepOutcome::Diverged(detail) => return fail(detail),
        LockstepOutcome::BudgetExhausted => {
            return fail(format!(
                "program {} {step_budget} steps",
                Divergence::BUDGET_MARKER
            ));
        }
        LockstepOutcome::Unsupported(why) => {
            unreachable!("architectural backends rejected by lockstep: {why}")
        }
        LockstepOutcome::Agreed(halt) => halt,
    };
    stats.threaded_instructions += threaded.retired();

    // Same program, fresh core, free-running this time: `run_for`
    // dispatches whole fused superblocks instead of single ops, so the
    // hot path gets differential coverage too. (The lockstep run above
    // halted within the budget; +2 covers the zero-retire halt step.)
    let mut hot = builder.build_threaded();
    match hot.run_for(Budget::Steps(step_budget.saturating_add(2))) {
        Ok(summary) if summary.halt == Some(halt) => {}
        Ok(summary) => {
            return fail(format!(
                "fused run halted {:?} vs {halt:?} when stepped",
                summary.halt
            ));
        }
        Err(e) => return fail(format!("fused run faulted: {e}")),
    }
    stats.threaded_instructions += hot.retired();
    if hot.retired() != func.retired() {
        return fail(format!(
            "fused run retired {} instructions vs {} stepped",
            hot.retired(),
            func.retired()
        ));
    }
    if hot.instruction_mix() != func.instruction_mix() {
        return fail(format!(
            "fused run's instruction mix {:?} differs from the functional mix {:?}",
            hot.instruction_mix(),
            func.instruction_mix()
        ));
    }
    if let Some(d) = func.state().first_difference(hot.state()) {
        return fail(format!("fused run final state: {d}"));
    }
    None
}

/// The differential energy oracle: the same program runs on the
/// per-trit reference simulator with an [`EnergyAccounting`] observer
/// using the tritwise flip reference ([`arith::flips_tritwise`]), and
/// on the functional, threaded and pipelined simulators, each with an
/// observer using the packed `flips_from` kernel. Both the flip
/// *counting* and every backend's write-back event stream feeding it
/// are thereby cross-checked — a backend that mis-reports a write-back
/// value, or a packed XOR that miscounts flips, shows up as a
/// per-opcode counter mismatch.
fn energy_oracle(
    builder: &SimBuilder,
    step_budget: u64,
    stats: &mut OracleStats,
) -> Option<Divergence> {
    let fail = |detail: String| {
        Some(Divergence {
            oracle: Oracle::Energy,
            detail,
        })
    };
    // The energy comparison is meaningful only over identical
    // executions; architectural divergence is the other oracles'
    // finding, but it would cascade here, so report it under this
    // oracle too rather than comparing garbage. The pipelined backend
    // steps by cycle, so it gets the same 16x cycle budget as the
    // pipelined oracles.
    let run = |backend: Backend, flip_fn: Option<fn(Word9, Word9) -> u32>| {
        let energy = Arc::new(Mutex::new(match flip_fn {
            Some(f) => EnergyAccounting::with_flip_fn(f),
            None => EnergyAccounting::new(),
        }));
        let budget = match backend {
            Backend::Pipelined => step_budget.saturating_mul(16),
            _ => step_budget,
        };
        let mut core = builder
            .clone()
            .backend(backend)
            .observer(energy.clone())
            .build();
        match core.run_for(Budget::Steps(budget)) {
            Ok(summary) => match summary.halt {
                Some(h) => Ok((h, energy)),
                None => Err(fail(format!(
                    "{backend} run {} {budget} steps",
                    Divergence::BUDGET_MARKER
                ))),
            },
            Err(e) => Err(fail(format!("{backend} run faulted: {e}"))),
        }
    };
    let (halt_r, tritwise) = match run(Backend::Reference, Some(arith::flips_tritwise)) {
        Ok(r) => r,
        Err(d) => return d,
    };
    let tritwise = tritwise.lock().expect("observer lock");
    for backend in [Backend::Functional, Backend::Threaded, Backend::Pipelined] {
        let (halt, packed) = match run(backend, None) {
            Ok(r) => r,
            Err(d) => return d,
        };
        if halt != halt_r {
            return fail(format!(
                "halt reason {halt:?} ({backend}) vs {halt_r:?} (reference)"
            ));
        }
        let packed = packed.lock().expect("observer lock");
        if let Some(d) = activity_difference(&packed, &tritwise) {
            return fail(format!("{backend}: {d}"));
        }
        let t = packed.totals();
        stats.energy_flips += t.regfile + t.tdm + t.fetch + t.alu;
    }
    None
}

/// The slice-migrate oracle: the service scheduler's execution model,
/// checked differentially. A straight-line functional run (with energy
/// accounting) is compared against the same program executed the way
/// the scheduler executes sessions — sliced on random
/// [`Budget::Retired`] quanta, and at ~40% of slice boundaries
/// *migrated* through an `art9-checkpoint v1` text roundtrip into the
/// next architectural backend (threaded → reference → functional), the
/// energy observer `Arc` carried across every rebuild exactly as the
/// scheduler carries a session's observers across workers. Slicing and
/// migration must be architecturally invisible: halt reason, retired
/// count, instruction mix, final state and per-opcode energy counters
/// all bit-identical.
///
/// Slice lengths and migration points derive from `seed` (the
/// program's content hash), so campaigns reproduce bit-for-bit.
fn slice_migrate_oracle(
    builder: &SimBuilder,
    seed: u64,
    step_budget: u64,
    stats: &mut OracleStats,
) -> Option<Divergence> {
    let fail = |detail: String| {
        Some(Divergence {
            oracle: Oracle::SliceMigrate,
            detail,
        })
    };

    // Straight-line baseline.
    let straight_energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    let mut straight = builder
        .clone()
        .observer(straight_energy.clone())
        .build_functional();
    let halt = match straight.run_for(Budget::Steps(step_budget)) {
        Ok(summary) => match summary.halt {
            Some(h) => h,
            None => {
                return fail(format!(
                    "straight-line run {} {step_budget} steps",
                    Divergence::BUDGET_MARKER
                ));
            }
        },
        Err(e) => return fail(format!("straight-line run faulted: {e}")),
    };

    // Sliced, migrated run.
    let mut rng = FuzzRng::new(seed ^ 0x511c_e513_9a7e_0001);
    let rotation = [Backend::Threaded, Backend::Reference, Backend::Functional];
    let sliced_energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    let sliced_builder = builder.clone().observer(sliced_energy.clone());
    let mut core: Box<dyn Core> = sliced_builder.clone().build();
    let mut rotation_index = 0usize;
    let (mut slices, mut migrations) = (0u64, 0u64);
    let halt_sliced = loop {
        // Every slice retires at least one instruction, so the slice
        // count bounds total work by the same budget as the baseline.
        if slices > step_budget {
            return fail(format!(
                "sliced run {} {step_budget} slices",
                Divergence::BUDGET_MARKER
            ));
        }
        slices += 1;
        let target = core.retired() + 1 + rng.below(41);
        let summary = match core.run_for(Budget::Retired(target)) {
            Ok(s) => s,
            Err(e) => {
                return fail(format!(
                    "sliced run faulted after {} instructions: {e} \
                     (straight-line run halted {halt:?})",
                    core.retired()
                ));
            }
        };
        if let Some(h) = summary.halt {
            break h;
        }
        if rng.chance(2, 5) {
            let text = core.snapshot().to_text();
            let checkpoint = match Checkpoint::from_text(&text) {
                Ok(c) => c,
                Err(e) => return fail(format!("checkpoint text did not roundtrip: {e}")),
            };
            let backend = rotation[rotation_index % rotation.len()];
            rotation_index += 1;
            let mut fresh = sliced_builder.clone().backend(backend).build();
            if let Err(e) = fresh.restore(&checkpoint) {
                return fail(format!("restore into {backend} failed: {e}"));
            }
            core = fresh;
            migrations += 1;
        }
    };
    stats.slice_migrate_slices += slices;
    stats.slice_migrate_migrations += migrations;

    if halt_sliced != halt {
        return fail(format!(
            "halt reason {halt_sliced:?} (sliced) vs {halt:?} (straight-line)"
        ));
    }
    if core.retired() != straight.instructions() {
        return fail(format!(
            "retired {} instructions (sliced) vs {} (straight-line)",
            core.retired(),
            straight.instructions()
        ));
    }
    if core.instruction_mix() != straight.instruction_mix() {
        return fail(format!(
            "instruction mix {:?} (sliced) vs {:?} (straight-line)",
            core.instruction_mix(),
            straight.instruction_mix()
        ));
    }
    if let Some(d) = straight.state().first_difference(core.state()) {
        return fail(format!("final state: {d}"));
    }
    let straight_acc = straight_energy.lock().expect("observer lock");
    let sliced_acc = sliced_energy.lock().expect("observer lock");
    if let Some(d) = activity_difference(&straight_acc, &sliced_acc) {
        return fail(format!(
            "energy accounting diverged across slicing/migration: {d}"
        ));
    }
    None
}

/// The first per-opcode, per-structure difference between two energy
/// accountings, named (`None` when bit-identical). The first operand
/// is labelled `packed`, the second `tritwise` (the energy oracle's
/// sides; for other callers read them as baseline vs candidate).
fn activity_difference(packed: &EnergyAccounting, tritwise: &EnergyAccounting) -> Option<String> {
    for (opcode, (p, t)) in packed
        .per_opcode()
        .iter()
        .zip(tritwise.per_opcode())
        .enumerate()
    {
        if p == t {
            continue;
        }
        let mnemonic = Instruction::MNEMONICS[opcode];
        let structures = [
            ("retired", p.retired, t.retired),
            ("regfile", p.regfile, t.regfile),
            ("tdm", p.tdm, t.tdm),
            ("fetch", p.fetch, t.fetch),
            ("alu", p.alu, t.alu),
        ];
        for (name, a, b) in structures {
            if a != b {
                return Some(format!(
                    "{mnemonic}: {name} flips {a} (packed) vs {b} (tritwise)"
                ));
            }
        }
        unreachable!("unequal OpcodeActivity with equal fields");
    }
    None
}

/// The encode → decode → disassemble → reassemble oracle.
fn roundtrip_oracle(program: &Program, stats: &mut OracleStats) -> Option<Divergence> {
    for (pc, instr) in program.text().iter().enumerate() {
        let word = encode(instr);
        stats.roundtrip_checks += 1;
        match decode(word) {
            Ok(back) if back == *instr => {}
            Ok(back) => {
                return Some(Divergence {
                    oracle: Oracle::ToolchainRoundtrip,
                    detail: format!("pc {pc}: {instr} encoded to {word}, decoded as {back}"),
                });
            }
            Err(e) => {
                return Some(Divergence {
                    oracle: Oracle::ToolchainRoundtrip,
                    detail: format!(
                        "pc {pc}: {instr} encoded to {word}, which failed to decode: {e}"
                    ),
                });
            }
        }
        let text = match disassemble_word(word) {
            Ok(t) => t,
            Err(e) => {
                return Some(Divergence {
                    oracle: Oracle::ToolchainRoundtrip,
                    detail: format!("pc {pc}: {instr} failed to disassemble: {e}"),
                });
            }
        };
        match assemble(&text) {
            Ok(p) if p.text() == [*instr] => {}
            Ok(p) => {
                return Some(Divergence {
                    oracle: Oracle::ToolchainRoundtrip,
                    detail: format!(
                        "pc {pc}: {instr} disassembled to {text:?}, reassembled as {:?}",
                        p.text()
                    ),
                });
            }
            Err(e) => {
                return Some(Divergence {
                    oracle: Oracle::ToolchainRoundtrip,
                    detail: format!("pc {pc}: listing {text:?} failed to reassemble: {e}"),
                });
            }
        }
    }
    None
}

/// Cross-checks the packed bitplane kernels against the per-trit
/// reference algorithms on `pairs` random word pairs (plus a fixed set
/// of adversarial carry-chain/sign-boundary values every time).
pub fn check_arith(rng: &mut FuzzRng, pairs: usize, stats: &mut OracleStats) -> Option<Divergence> {
    let fail = |detail: String| {
        Some(Divergence {
            oracle: Oracle::Arithmetic,
            detail,
        })
    };

    // Adversarial corners: saturated words (longest carry chains),
    // zero, ±1, and the ±3^k sign boundaries.
    let mut specials = vec![Word9::ZERO, Word9::MAX, Word9::MIN];
    for k in 0..9 {
        let p = ternary::pow3(k);
        for v in [p, -p, (p - 1) / 2, -(p - 1) / 2] {
            specials.push(Word9::from_i64(v).expect("3^k fits"));
        }
    }

    let mut words = specials;
    for _ in 0..pairs {
        words.push(random_word(rng));
    }

    for i in 0..words.len() {
        // Pair each word with a pseudo-random partner (and itself, for
        // the doubling/negation identities).
        let a = words[i];
        let b = words[(i * 7 + 13) % words.len()];
        stats.arith_checks += 1;

        let (packed_sum, packed_carry) = a.carrying_add(b);
        let (ref_sum, ref_carry) = arith::add_tritwise(a, b);
        if (packed_sum, packed_carry) != (ref_sum, ref_carry) {
            return fail(format!(
                "add: {} + {} = {} carry {packed_carry} (packed) vs {} carry {ref_carry} (tritwise)",
                a.to_i64(),
                b.to_i64(),
                packed_sum.to_i64(),
                ref_sum.to_i64()
            ));
        }

        let packed_mul = a.wrapping_mul(b);
        let ref_mul = arith::mul_tritwise(a, b);
        if packed_mul != ref_mul {
            return fail(format!(
                "mul: {} * {} = {} (packed) vs {} (tritwise)",
                a.to_i64(),
                b.to_i64(),
                packed_mul.to_i64(),
                ref_mul.to_i64()
            ));
        }

        if !b.is_zero() {
            let packed = a.div_rem(b).expect("nonzero divisor");
            let reference = arith::div_rem_tritwise(a, b).expect("nonzero divisor");
            if packed != reference {
                return fail(format!(
                    "div: {} / {} = ({}, {}) (packed) vs ({}, {}) (tritwise)",
                    a.to_i64(),
                    b.to_i64(),
                    packed.0.to_i64(),
                    packed.1.to_i64(),
                    reference.0.to_i64(),
                    reference.1.to_i64()
                ));
            }
        }

        let packed_neg = a.negate();
        let ref_neg = arith::negate_tritwise(a);
        if packed_neg != ref_neg {
            return fail(format!(
                "negate: -({}) = {} (packed) vs {} (tritwise)",
                a.to_i64(),
                packed_neg.to_i64(),
                ref_neg.to_i64()
            ));
        }

        // Bitplane pack/unpack roundtrip.
        let (pos, neg) = a.bitplanes();
        match Word9::from_bitplanes(pos, neg) {
            Ok(back) if back == a => {}
            other => {
                return fail(format!(
                    "bitplane roundtrip of {} produced {other:?}",
                    a.to_i64()
                ));
            }
        }
    }
    None
}

/// Cross-checks the bitplane-SIMD lane subsystem ([`Word9xN`]) against
/// the per-trit lanewise references in `ternary::arith` on `sets`
/// random lane configurations.
///
/// Adversarial structure every set draws from: lane counts straddling
/// the 6-lanes-per-u64 word boundary (1, 5, 6, 7, 12, 13), lane values
/// from the ±3^k sign boundaries and the saturated words (longest
/// carry chains), all-zero weight vectors (the MAC identity) and
/// mixed-sign weights. Checked per set: pack/unpack roundtrip, splat,
/// lane-parallel add/sub/negate, the three trit-logic ops, compare,
/// ternary-weight MAC (both the mask path and the fused splat path)
/// and the horizontal reduce.
pub fn check_simd(rng: &mut FuzzRng, sets: usize, stats: &mut OracleStats) -> Option<Divergence> {
    let fail = |detail: String| {
        Some(Divergence {
            oracle: Oracle::Simd,
            detail,
        })
    };
    let fmt = |v: &[Word9]| {
        v.iter()
            .map(|w| w.to_i64().to_string())
            .collect::<Vec<_>>()
            .join(",")
    };

    // The same corner pool as the arithmetic oracle: saturated words,
    // zero, and the ±3^k sign boundaries.
    let mut specials = vec![Word9::ZERO, Word9::MAX, Word9::MIN];
    for k in 0..9 {
        let p = ternary::pow3(k);
        for v in [p, -p, (p - 1) / 2, -(p - 1) / 2] {
            specials.push(Word9::from_i64(v).expect("3^k fits"));
        }
    }
    // Lane counts hugging the 6-lanes-per-u64 word boundary.
    const BOUNDARY_LANES: [usize; 6] = [1, 5, 6, 7, 12, 13];

    for _ in 0..sets {
        let lanes = if rng.chance(1, 2) {
            BOUNDARY_LANES[rng.index(BOUNDARY_LANES.len())]
        } else {
            1 + rng.below(16) as usize
        };
        let draw = |rng: &mut FuzzRng| -> Vec<Word9> {
            (0..lanes)
                .map(|_| {
                    if rng.chance(1, 3) {
                        specials[rng.index(specials.len())]
                    } else {
                        random_word(rng)
                    }
                })
                .collect()
        };
        let a = draw(rng);
        let b = draw(rng);
        // One set in five exercises the all-zero weight vector (the MAC
        // identity); the rest mix all three signs.
        let weights: Vec<Trit> = if rng.chance(1, 5) {
            vec![Trit::Z; lanes]
        } else {
            (0..lanes)
                .map(|_| match rng.below(3) {
                    0 => Trit::N,
                    1 => Trit::Z,
                    _ => Trit::P,
                })
                .collect()
        };
        let va = Word9xN::from_words(&a);
        let vb = Word9xN::from_words(&b);

        let check = |name: &str, packed: &[Word9], reference: &[Word9]| {
            if packed == reference {
                return None;
            }
            fail(format!(
                "{name} over {lanes} lanes: [{}] (packed) vs [{}] (lanewise) \
                 for a=[{}] b=[{}]",
                fmt(packed),
                fmt(reference),
                fmt(&a),
                fmt(&b)
            ))
        };

        if let Some(d) = check("pack/unpack", &va.to_words(), &a) {
            return Some(d);
        }
        if let Some(d) = check(
            "add",
            &va.wrapping_add(&vb).to_words(),
            &arith::add_lanewise(&a, &b),
        ) {
            return Some(d);
        }
        if let Some(d) = check(
            "sub",
            &va.wrapping_sub(&vb).to_words(),
            &arith::add_lanewise(&a, &arith::negate_lanewise(&b)),
        ) {
            return Some(d);
        }
        if let Some(d) = check(
            "negate",
            &va.negate().to_words(),
            &arith::negate_lanewise(&a),
        ) {
            return Some(d);
        }
        for (name, packed, f) in [
            ("and", va.and(&vb), Trit::and as fn(Trit, Trit) -> Trit),
            ("or", va.or(&vb), Trit::or),
            ("xor", va.xor(&vb), Trit::xor),
        ] {
            if let Some(d) = check(name, &packed.to_words(), &arith::logic_lanewise(&a, &b, f)) {
                return Some(d);
            }
        }

        let verdicts = va.compare(&vb).lane_lsts();
        let reference = arith::compare_lanewise(&a, &b);
        if verdicts != reference {
            return fail(format!(
                "compare over {lanes} lanes: {verdicts:?} (packed) vs {reference:?} \
                 (lanewise) for a=[{}] b=[{}]",
                fmt(&a),
                fmt(&b)
            ));
        }

        let masks = LaneWeights::new(&weights);
        let mac_ref = arith::mac_lanewise(&a, &b, &weights);
        if let Some(d) = check("mac", &va.mac(&vb, &masks).to_words(), &mac_ref) {
            return Some(d);
        }
        // The fused broadcast path: every lane accumulates the same x.
        let x = b[0];
        let mut splat_acc = va.clone();
        splat_acc.mac_splat(x, &masks);
        let splat_ref = arith::mac_lanewise(&a, &vec![x; lanes], &weights);
        if let Some(d) = check("mac_splat", &splat_acc.to_words(), &splat_ref) {
            return Some(d);
        }

        let reduced = va.reduce_add();
        let reduce_ref = arith::reduce_add_lanewise(&a);
        if reduced != reduce_ref {
            return fail(format!(
                "reduce over {lanes} lanes: {} (packed) vs {} (lanewise) for a=[{}]",
                reduced.to_i64(),
                reduce_ref.to_i64(),
                fmt(&a)
            ));
        }

        let splat = Word9xN::splat(a[0], lanes);
        if splat.to_words() != vec![a[0]; lanes] {
            return fail(format!(
                "splat of {} over {lanes} lanes did not replicate: [{}]",
                a[0].to_i64(),
                fmt(&splat.to_words())
            ));
        }

        // The word-major carry-save matvec kernel against a chain of
        // per-trit lanewise MACs: a random short column count so pass
        // shapes (3-, 4-, 2- and 1-word tails) all occur across sets.
        let cols = 1 + rng.below(6) as usize;
        let cvals: Vec<Word9> = (0..cols).map(|_| random_word(rng)).collect();
        let cweights: Vec<Vec<Trit>> = (0..cols)
            .map(|_| {
                (0..lanes)
                    .map(|_| match rng.below(3) {
                        0 => Trit::N,
                        1 => Trit::Z,
                        _ => Trit::P,
                    })
                    .collect()
            })
            .collect();
        let packed = PackedWeights::from_columns(
            &cweights
                .iter()
                .map(|w| LaneWeights::new(w))
                .collect::<Vec<_>>(),
        );
        let got = simd::matvec(&cvals, &packed).to_words();
        let mut want = vec![Word9::ZERO; lanes];
        for (xc, wc) in cvals.iter().zip(&cweights) {
            want = arith::mac_lanewise(&want, &vec![*xc; lanes], wc);
        }
        if let Some(d) = check("matvec", &got, &want) {
            return Some(d);
        }

        // Thirteen comparisons per set: pack/unpack, add, sub, negate,
        // and/or/xor, compare, mac, mac_splat, reduce, splat, matvec.
        stats.simd_checks += 13;
    }
    None
}

/// Cross-checks the wide-width arithmetic subsystem on `sets` random
/// operand sets: single-plane `Trits<40>`/`Trits<63>` words (the band
/// the pre-fix constants made uninstantiable), the multi-plane
/// `Word27`/`Word81` words, and `TernaryReal` tapered-precision
/// add/mul. Every packed kernel is pinned against its trit-serial (or
/// exact-integer) reference in `ternary::arith`.
///
/// Adversarial structure every set draws from: the ±3^k carry corners
/// up to 3^80 and the `i128` extremes, plus operands shifted past the
/// `i128` range where only the 81-trit word (and its per-trit oracle)
/// can represent the values at all.
pub fn check_wide(rng: &mut FuzzRng, sets: usize, stats: &mut OracleStats) -> Option<Divergence> {
    use ternary::{TernaryReal, Trits, WideTrits, Word27, Word81};

    let fail = |detail: String| {
        Some(Divergence {
            oracle: Oracle::Wide,
            detail,
        })
    };

    // Corner pool: zero/±1, the i128 extremes and the ±3^k sign
    // boundaries (and neighbours) across the whole wide range.
    let mut corners = vec![0i128, 1, -1, i128::MAX, i128::MIN];
    for k in (4..=80usize).step_by(4) {
        let p = ternary::pow3_i128(k);
        corners.extend([p, -p, p - 1, -p + 1, p + 1, -p - 1]);
    }
    let draw = |rng: &mut FuzzRng| -> i128 {
        if rng.chance(1, 3) {
            corners[rng.index(corners.len())]
        } else {
            (((rng.next_u64() as u128) << 64) | rng.next_u64() as u128) as i128
        }
    };

    for _ in 0..sets {
        let (a, b) = (draw(rng), draw(rng));

        // Single-plane wide widths: packed vs trit-serial references.
        macro_rules! check_trits {
            ($n:literal) => {{
                let wa = Trits::<$n>::from_i128_wrapping(a);
                let wb = Trits::<$n>::from_i128_wrapping(b);
                if Trits::<$n>::from_i128_wrapping(wa.to_i128()) != wa {
                    return fail(format!("Trits<{}>: {} does not roundtrip via i128", $n, wa));
                }
                if wa.carrying_add(wb) != arith::add_tritwise(wa, wb) {
                    return fail(format!("Trits<{}> add: {} + {} diverged", $n, wa, wb));
                }
                if wa.wrapping_mul(wb) != arith::mul_tritwise(wa, wb) {
                    return fail(format!("Trits<{}> mul: {} * {} diverged", $n, wa, wb));
                }
                if wa.negate() != arith::negate_tritwise(wa) {
                    return fail(format!("Trits<{}> negate of {} diverged", $n, wa));
                }
                if wa.flips_from(&wb) != arith::flips_tritwise(wa, wb) {
                    return fail(format!("Trits<{}> flips: {} vs {} diverged", $n, wa, wb));
                }
                if !wb.is_zero() && wa.div_rem(wb).ok() != arith::div_rem_tritwise(wa, wb).ok() {
                    return fail(format!("Trits<{}> div: {} / {} diverged", $n, wa, wb));
                }
                stats.wide_checks += 6;
            }};
        }
        check_trits!(40);
        check_trits!(63);

        // Multi-plane words, including the beyond-i128 region at 81
        // trits (reached by shifting left past the i128 ceiling).
        fn check_planes<const N: usize, const W: usize>(
            wa: WideTrits<N, W>,
            wb: WideTrits<N, W>,
        ) -> Option<String> {
            if wa.carrying_add(wb) != arith::wide_add_tritwise(wa, wb) {
                return Some(format!("WideTrits<{N},{W}> add: {wa} + {wb} diverged"));
            }
            if wa.wrapping_mul(wb) != arith::wide_mul_tritwise(wa, wb) {
                return Some(format!("WideTrits<{N},{W}> mul: {wa} * {wb} diverged"));
            }
            if wa.negate() != arith::wide_negate_tritwise(wa) {
                return Some(format!("WideTrits<{N},{W}> negate of {wa} diverged"));
            }
            if wa.cmp(&wb) != arith::wide_compare_tritwise(wa, wb) {
                return Some(format!("WideTrits<{N},{W}> compare: {wa} vs {wb} diverged"));
            }
            if wa.flips_from(&wb) != arith::wide_flips_tritwise(wa, wb) {
                return Some(format!("WideTrits<{N},{W}> flips: {wa} vs {wb} diverged"));
            }
            let (s, c) = WideTrits::<N, W>::compress3(wa, wb, wa.negate());
            if s.wrapping_add(c) != wa.wrapping_add(wb).wrapping_add(wa.negate()) {
                return Some(format!(
                    "WideTrits<{N},{W}> compress3 over {wa}, {wb} diverged"
                ));
            }
            None
        }
        if let Some(d) = check_planes(Word27::from_i128_wrapping(a), Word27::from_i128_wrapping(b))
        {
            return fail(d);
        }
        stats.wide_checks += 6;
        let shift = rng.index(40);
        if let Some(d) = check_planes(
            Word81::from_i128_wrapping(a).shl(shift),
            Word81::from_i128_wrapping(b).shl(shift / 2),
        ) {
            return fail(d);
        }
        stats.wide_checks += 6;

        // Tapered reals: packed 55-trit-intermediate rounding vs the
        // exact-integer rounding reference.
        let ra = TernaryReal::from_scaled(a as i64 >> 16, (rng.below(121) as i32) - 60);
        let rb = TernaryReal::from_scaled(b as i64 >> 16, (rng.below(121) as i32) - 60);
        let sum = ra.add(&rb);
        if arith::real_parts(&sum) != arith::real_add_ref(&ra, &rb) {
            return fail(format!(
                "TernaryReal add: {ra} + {rb} diverged from reference"
            ));
        }
        let product = ra.mul(&rb);
        if arith::real_parts(&product) != arith::real_mul_ref(&ra, &rb) {
            return fail(format!(
                "TernaryReal mul: {ra} * {rb} diverged from reference"
            ));
        }
        if TernaryReal::from_tapered(TernaryReal::from_tapered(sum.to_tapered()).to_tapered())
            != TernaryReal::from_tapered(sum.to_tapered())
        {
            return fail(format!("TernaryReal taper of {sum} is not idempotent"));
        }
        stats.wide_checks += 3;
    }
    None
}

/// A uniformly random trit pattern (covers all 3⁹ words, not just the
/// value range of any integer conversion path).
pub fn random_word(rng: &mut FuzzRng) -> Word9 {
    let mut out = [Trit::Z; 9];
    for slot in &mut out {
        *slot = match rng.below(3) {
            0 => Trit::N,
            1 => Trit::Z,
            _ => Trit::P,
        };
    }
    Trits::from_trits(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use art9_sim::Backend;

    #[test]
    fn clean_programs_have_no_divergence() {
        let cfg = GenConfig::default();
        for i in 0..15 {
            let p = generate(&mut FuzzRng::for_iteration(5, i), &cfg);
            let (stats, divergence) = check_program(&p, crate::gen::step_budget(&cfg));
            assert!(
                divergence.is_none(),
                "iteration {i}: {}",
                divergence.unwrap()
            );
            assert!(stats.functional_instructions > 0);
            assert!(stats.threaded_instructions > 0);
            assert!(stats.pipelined_cycles > 0);
            assert!(stats.energy_flips > 0);
            assert!(stats.slice_migrate_slices > 0);
            assert!(stats.roundtrip_checks as usize >= p.text().len());
        }
    }

    #[test]
    fn threaded_oracle_covers_both_execution_paths() {
        // Filtered to functional-vs-threaded: the stepped lockstep run
        // and the fused free run both retire work; nothing else runs.
        let cfg = GenConfig::default();
        for i in 0..6 {
            let p = generate(&mut FuzzRng::for_iteration(5, i), &cfg);
            let budget = crate::gen::step_budget(&cfg);
            let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::FunctionalVsThreaded));
            assert!(d.is_none(), "iteration {i}: {}", d.unwrap());
            // Stepped + fused runs retire the program twice over.
            assert!(stats.threaded_instructions > 0);
            assert_eq!(stats.threaded_instructions % 2, 0);
            assert_eq!(stats.pipelined_cycles, 0);
            assert_eq!(stats.roundtrip_checks, 0);
        }
    }

    #[test]
    fn threaded_oracle_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::FunctionalVsThreaded));
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::FunctionalVsThreaded);
        assert!(d.is_budget_exhaustion());
    }

    #[test]
    fn energy_oracle_is_clean_on_generated_programs() {
        // Filtered to the energy oracle: packed and tritwise flip
        // accounting agree bit-for-bit on random programs, and nothing
        // else runs.
        let cfg = GenConfig::default();
        for i in 0..6 {
            let p = generate(&mut FuzzRng::for_iteration(7, i), &cfg);
            let budget = crate::gen::step_budget(&cfg);
            let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::Energy));
            assert!(d.is_none(), "iteration {i}: {}", d.unwrap());
            assert!(stats.energy_flips > 0, "iteration {i} counted no flips");
            assert_eq!(stats.pipelined_cycles, 0);
            assert_eq!(stats.roundtrip_checks, 0);
            assert_eq!(stats.threaded_instructions, 0);
        }
    }

    #[test]
    fn slice_migrate_oracle_is_clean_and_migrates() {
        // Filtered to slice-migrate: sliced + migrated execution lands
        // bit-identical to straight-line on generated programs, with
        // real migrations happening (long-enough programs guarantee
        // multiple slice boundaries), and nothing else runs.
        let cfg = GenConfig::default();
        let mut total_migrations = 0;
        for i in 0..6 {
            let p = generate(&mut FuzzRng::for_iteration(11, i), &cfg);
            let budget = crate::gen::step_budget(&cfg);
            let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::SliceMigrate));
            assert!(d.is_none(), "iteration {i}: {}", d.unwrap());
            assert!(
                stats.slice_migrate_slices > 0,
                "iteration {i} ran no slices"
            );
            total_migrations += stats.slice_migrate_migrations;
            assert_eq!(stats.pipelined_cycles, 0);
            assert_eq!(stats.roundtrip_checks, 0);
            assert_eq!(stats.threaded_instructions, 0);
            assert_eq!(stats.energy_flips, 0);
        }
        assert!(total_migrations > 0, "no cross-backend migration exercised");
    }

    #[test]
    fn slice_migrate_oracle_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::SliceMigrate));
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::SliceMigrate);
        assert!(d.is_budget_exhaustion());
    }

    #[test]
    fn energy_oracle_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::Energy));
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::Energy);
        assert!(d.is_budget_exhaustion());
    }

    #[test]
    fn activity_difference_detects_a_planted_flip_miscount() {
        // Run the same program under a correct and a deliberately
        // off-by-one flip kernel: the comparator must name the opcode
        // and the structure, proving the detection path is live.
        fn off_by_one(next: Word9, prev: Word9) -> u32 {
            next.flips_from(&prev) + 1
        }
        let p = art9_isa::assemble("LI t3, 5\nJAL t0, 0\n").unwrap();
        let run = |flip: fn(Word9, Word9) -> u32| {
            let acc = Arc::new(Mutex::new(EnergyAccounting::with_flip_fn(flip)));
            let mut sim = SimBuilder::new(&p).observer(acc.clone()).build_functional();
            sim.run(100).unwrap();
            let snapshot = acc.lock().unwrap().clone();
            snapshot
        };
        let good = run(|next, prev| next.flips_from(&prev));
        let bad = run(off_by_one);
        assert_eq!(activity_difference(&good, &good), None);
        let d = activity_difference(&good, &bad).expect("difference detected");
        assert!(d.contains("LI") || d.contains("JAL"), "{d}");
        assert!(d.contains("packed") && d.contains("tritwise"), "{d}");
    }

    #[test]
    fn arith_oracle_is_clean_and_counts() {
        let mut rng = FuzzRng::new(9);
        let mut stats = OracleStats::default();
        let d = check_arith(&mut rng, 64, &mut stats);
        assert!(d.is_none(), "{}", d.unwrap());
        assert!(stats.arith_checks >= 64);
    }

    #[test]
    fn simd_oracle_is_clean_and_counts() {
        let mut rng = FuzzRng::new(11);
        let mut stats = OracleStats::default();
        let d = check_simd(&mut rng, 32, &mut stats);
        assert!(d.is_none(), "{}", d.unwrap());
        // Each clean set performs exactly the twelve fixed comparisons.
        assert_eq!(stats.simd_checks, 32 * 13);
    }

    #[test]
    fn wide_oracle_is_clean_and_counts() {
        let mut rng = FuzzRng::new(13);
        let mut stats = OracleStats::default();
        let d = check_wide(&mut rng, 32, &mut stats);
        assert!(d.is_none(), "{}", d.unwrap());
        // Each clean set performs exactly 27 fixed comparisons:
        // 6 per Trits width (40, 63), 6 per plane geometry (27/1,
        // 81/2), 3 for the tapered reals.
        assert_eq!(stats.wide_checks, 32 * 27);
    }

    #[test]
    fn wide_oracle_is_deterministic() {
        let run = |seed| {
            let mut stats = OracleStats::default();
            let d = check_wide(&mut FuzzRng::new(seed), 8, &mut stats);
            (stats.wide_checks, d.is_none())
        };
        assert_eq!(run(42), run(42));
        assert!(run(42).1 && run(7).1);
    }

    #[test]
    fn simd_oracle_is_deterministic() {
        let run = |seed| {
            let mut stats = OracleStats::default();
            let d = check_simd(&mut FuzzRng::new(seed), 8, &mut stats);
            (stats.simd_checks, d.is_none())
        };
        assert_eq!(run(42), run(42));
        assert!(run(42).1 && run(7).1);
    }

    #[test]
    fn lockstep_detects_a_planted_register_difference() {
        // Run the functional simulator and the reference on programs
        // that differ in exactly one immediate — a stand-in for a
        // semantic bug in either backend. The generic lockstep entry
        // point must flag the register, proving the detection path is
        // live (the clean-campaign tests alone could pass with a
        // comparator that always answers Agreed).
        let good = art9_isa::assemble("LI t3, 5\nJAL t0, 0\n").unwrap();
        let bad = art9_isa::assemble("LI t3, 6\nJAL t0, 0\n").unwrap();
        let mut func = SimBuilder::new(&good).build_functional();
        let mut reference = SimBuilder::new(&bad).build_reference();
        let LockstepOutcome::Diverged(d) = lockstep(&mut func, &mut reference, 100) else {
            panic!("difference not detected");
        };
        assert!(d.contains("t3"), "{d}");
        assert!(d.contains('5') && d.contains('6'), "{d}");
        assert!(d.contains("functional") && d.contains("reference"), "{d}");
    }

    #[test]
    fn lockstep_accepts_dyn_cores_and_agrees_on_clean_programs() {
        // The same entry point drives boxed `dyn Core`s — any two
        // backends, no special-casing.
        let p = art9_isa::assemble(
            "LI t3, 10\nloop:\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\n\
             BEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap();
        let builder = SimBuilder::new(&p);
        let mut a = builder.build();
        let mut b = builder.clone().backend(Backend::Reference).build();
        assert_eq!(
            lockstep(&mut *a, &mut *b, 10_000),
            LockstepOutcome::Agreed(HaltReason::JumpToSelf)
        );
    }

    #[test]
    fn lockstep_rejects_the_pipelined_backend_up_front() {
        // The pipeline steps by clock cycle and keeps no architectural
        // PC between steps; lockstepping it would always produce a
        // spurious first-step divergence, so it is refused instead.
        let p = art9_isa::assemble("LI t3, 1\nJAL t0, 0\n").unwrap();
        let builder = SimBuilder::new(&p);
        let mut func = builder.build_functional();
        let mut pipe = builder.build_pipelined();
        assert!(matches!(
            lockstep(&mut func, &mut pipe, 100),
            LockstepOutcome::Unsupported(_)
        ));
        assert_eq!(pipe.stats().cycles, 0, "no steps executed");
    }

    #[test]
    fn lockstep_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let builder = SimBuilder::new(&p);
        let mut a = builder.build_functional();
        let mut b = builder.build_reference();
        assert_eq!(
            lockstep(&mut a, &mut b, 50),
            LockstepOutcome::BudgetExhausted
        );
    }

    #[test]
    fn final_state_diff_detects_planted_register_and_memory_differences() {
        use art9_isa::TReg;
        let p = art9_isa::assemble("LI t3, 1\nJAL t0, 0\n").unwrap();
        let builder = SimBuilder::new(&p);
        let mut a = builder.build_functional();
        let mut b = builder.build_functional();
        a.run(100).unwrap();
        b.run(100).unwrap();
        assert_eq!(a.state().first_difference(b.state()), None);

        // Planted register difference.
        b.state_mut()
            .set_reg(TReg::T4, Word9::from_i64(99).unwrap());
        let d = a
            .state()
            .first_difference(b.state())
            .expect("register diff");
        assert!(d.contains("t4") && d.contains("99"), "{d}");

        // Planted memory difference (register restored first).
        b.state_mut().set_reg(TReg::T4, Word9::ZERO);
        b.state_mut()
            .tdm
            .write(7, Word9::from_i64(-3).unwrap())
            .unwrap();
        let d = a.state().first_difference(b.state()).expect("memory diff");
        assert!(d.contains("TDM[7]"), "{d}");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // Two-instruction infinite loop: never halts, must be flagged
        // rather than spinning.
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program(&p, 100);
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::FunctionalVsReference);
        assert!(d.detail.contains("budget"));
    }

    #[test]
    fn oracle_filter_runs_only_the_selected_oracle() {
        let cfg = GenConfig::default();
        let p = generate(&mut FuzzRng::for_iteration(5, 0), &cfg);
        let budget = crate::gen::step_budget(&cfg);

        // Roundtrip only: no simulation work at all.
        let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::ToolchainRoundtrip));
        assert!(d.is_none());
        assert!(stats.roundtrip_checks > 0);
        assert_eq!(stats.functional_instructions, 0);
        assert_eq!(stats.pipelined_cycles, 0);

        // One pipelined oracle: the functional baseline runs, but only
        // one pipelined configuration does.
        let (all_stats, _) = check_program(&p, budget);
        let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::PipelinedForwarding));
        assert!(d.is_none());
        assert_eq!(stats.roundtrip_checks, 0);
        assert!(stats.functional_instructions > 0);
        assert!(stats.pipelined_cycles > 0);
        assert!(
            stats.pipelined_cycles < all_stats.pipelined_cycles,
            "filter must skip the other pipelined run ({} vs {})",
            stats.pipelined_cycles,
            all_stats.pipelined_cycles
        );

        // The filter still catches the filtered oracle's failures.
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::PipelinedForwarding));
        let d = d.expect("budget divergence under filter");
        assert_eq!(d.oracle, Oracle::PipelinedForwarding);
        assert!(d.is_budget_exhaustion());
    }

    #[test]
    fn oracle_names_parse_back() {
        for o in Oracle::ALL {
            assert_eq!(o.name().parse::<Oracle>().unwrap(), o);
        }
        assert!("no-such-oracle".parse::<Oracle>().is_err());
    }
}
