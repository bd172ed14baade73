//! The functional (architecture-level) instruction-set simulator.
//!
//! Executes one instruction per step with no timing model. It is the
//! reference the cycle-accurate pipeline is property-tested against, and
//! the fast path for workload debugging.
//!
//! ## Halt convention
//!
//! Bare-metal ART-9 programs halt by **jumping to themselves** (e.g.
//! `halt: JAL t0, 0` or a taken branch with offset 0): any control
//! transfer whose target equals its own address stops the machine.
//! Falling off the end of TIM (PC == text length) also halts cleanly.

use std::sync::Arc;

use art9_isa::{Instruction, Program, TReg};
use ternary::{TernaryMemory, Word9};

use crate::checkpoint::{Checkpoint, Micro};
use crate::core::{run_loop, Backend, Budget, Core, RunSummary};
use crate::error::SimError;
use crate::exec::{execute, ExecFault};
use crate::observer::{with_events, Events, ObserverSet};
use crate::predecode::PredecodedProgram;

/// Default TDM size in words (matches the 256-word memories behind
/// Table V's RAM accounting).
pub const DEFAULT_TDM_WORDS: usize = 256;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A control transfer targeted its own address (idle loop).
    JumpToSelf,
    /// Execution fell off the end of the instruction memory.
    FellOffEnd,
}

/// Result of a completed functional run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions executed (the branch/jump that halted is counted).
    pub instructions: u64,
    /// Why the machine stopped.
    pub halt: HaltReason,
}

/// The architectural state of an ART-9 core: PC, the nine-register TRF
/// and the data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreState {
    /// Program counter (instruction index into TIM).
    pub pc: usize,
    /// The ternary register file, indexed by [`TReg::index`].
    pub trf: [Word9; 9],
    /// The ternary data memory.
    pub tdm: TernaryMemory,
}

impl std::fmt::Display for CoreState {
    /// Register-dump format: PC plus the nine TRF registers, one per
    /// line, as both trits and decimal.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "pc  = {}", self.pc)?;
        for (i, w) in self.trf.iter().enumerate() {
            writeln!(f, "t{i}  = {w} ({})", w.to_i64())?;
        }
        Ok(())
    }
}

impl CoreState {
    /// Fresh state: PC 0, zeroed registers, TDM loaded from `program`.
    pub fn new(program: &Program, tdm_words: usize) -> Self {
        Self::with_image(program.data(), tdm_words)
    }

    /// Fresh state with the TDM loaded from a bare data image (grown to
    /// fit if the image is larger than `tdm_words`).
    pub fn with_image(data: &[Word9], tdm_words: usize) -> Self {
        Self {
            pc: 0,
            trf: [Word9::ZERO; 9],
            tdm: TernaryMemory::with_image(tdm_words.max(data.len()), data),
        }
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: TReg) -> Word9 {
        self.trf[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: TReg, v: Word9) {
        self.trf[r.index()] = v;
    }

    /// The first architectural difference between two states, as a
    /// human-readable description — the nine TRF registers, then the
    /// TDM word by word. `None` when the states agree.
    ///
    /// The PC is deliberately *not* compared: it is a fetch-engine
    /// detail the pipelined simulator tracks outside `CoreState`, so
    /// only the software-visible machine state (registers and memory)
    /// is meaningful across simulator backends. This is the comparison
    /// the differential fuzzing oracles (`art9-fuzz`) apply; it lives
    /// here so every consumer diffs states the same way.
    ///
    /// # Examples
    ///
    /// ```
    /// use art9_isa::assemble;
    /// use art9_sim::{Budget, Core, SimBuilder};
    ///
    /// let p = assemble("LI t3, 1\nJAL t0, 0\n")?;
    /// let builder = SimBuilder::new(&p);
    /// let mut a = builder.build();
    /// let mut b = builder.build();
    /// a.run_for(Budget::Steps(100))?;
    /// b.run_for(Budget::Steps(100))?;
    /// assert_eq!(a.state().first_difference(b.state()), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn first_difference(&self, other: &CoreState) -> Option<String> {
        for (i, (a, b)) in self.trf.iter().zip(other.trf.iter()).enumerate() {
            if a != b {
                return Some(format!(
                    "t{i} = {a} ({}) vs {b} ({})",
                    a.to_i64(),
                    b.to_i64()
                ));
            }
        }
        if self.tdm.size() != other.tdm.size() {
            return Some(format!(
                "TDM sizes {} vs {}",
                self.tdm.size(),
                other.tdm.size()
            ));
        }
        for (addr, (a, b)) in self.tdm.iter().zip(other.tdm.iter()).enumerate() {
            if a != b {
                return Some(format!(
                    "TDM[{addr}] = {a} ({}) vs {b} ({})",
                    a.to_i64(),
                    b.to_i64()
                ));
            }
        }
        None
    }
}

/// The functional instruction-set simulator.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::SimBuilder;
///
/// // Branches test only the least-significant trit, so loops use the
/// // paper's COMP idiom: copy, compare against zero, branch on sign.
/// let program = assemble("
///     LI   t3, 10
///     LI   t4, 0
/// loop:
///     ADD  t4, t3          ; t4 += t3
///     ADDI t3, -1
///     MV   t7, t3
///     COMP t7, t0          ; t7 = sign(t3)
///     BEQ  t7, +, loop     ; loop while t3 > 0
/// halt:
///     JAL  t0, 0           ; jump-to-self halts
/// ")?;
///
/// let mut sim = SimBuilder::new(&program).build_functional();
/// let result = sim.run(10_000)?;
/// assert_eq!(sim.state().reg("t4".parse()?).to_i64(), 55); // 10+9+...+1
/// assert!(result.instructions > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    arch: Arch,
    observers: ObserverSet,
}

/// The architectural machine that instruction-at-a-time execution
/// steps: the program, its state and the counters each step settles.
/// [`FunctionalSim`] is one of these plus its observers;
/// [`ThreadedSim`](crate::ThreadedSim) steps its own for budget tails,
/// mid-block entries and observed runs.
#[derive(Debug, Clone)]
pub(crate) struct Arch {
    pub(crate) text: Arc<[Instruction]>,
    links: Arc<[Word9]>,
    pub(crate) state: CoreState,
    pub(crate) instructions: u64,
    pub(crate) halted: Option<HaltReason>,
    pub(crate) mix: [u64; Instruction::OPCODE_COUNT],
}

impl Arch {
    pub(crate) fn new(image: &PredecodedProgram, tdm_words: usize) -> Self {
        Self {
            text: image.text_arc(),
            links: image.links_arc(),
            state: CoreState::with_image(image.data(), tdm_words),
            instructions: 0,
            halted: None,
            mix: [0; Instruction::OPCODE_COUNT],
        }
    }

    /// Executes a single instruction through [`execute`], reporting to
    /// `ev`, and settles the counters and the halt.
    #[inline]
    pub(crate) fn step<E: Events>(&mut self, ev: &mut E) -> Result<Option<HaltReason>, SimError> {
        if let Some(reason) = self.halted {
            return Ok(Some(reason));
        }
        let pc = self.state.pc;
        let len = self.text.len();
        if pc == len {
            self.halted = Some(HaltReason::FellOffEnd);
            ev.halt(HaltReason::FellOffEnd, self.instructions);
            return Ok(Some(HaltReason::FellOffEnd));
        }
        let instr = self.text[pc];
        self.instructions += 1;
        self.mix[instr.opcode()] += 1;
        // The link word (PC + 1) was precomputed at decode time.
        let next =
            execute(&instr, pc, self.links[pc], len, &mut self.state, ev).map_err(|f| match f {
                ExecFault::Mem(cause) => SimError::MemoryFault { pc, cause },
                ExecFault::Wild(target) => SimError::PcOutOfRange {
                    at: self.instructions,
                    pc: target,
                    tim_size: len,
                },
            })?;
        let halt = if next == pc {
            Some(HaltReason::JumpToSelf)
        } else {
            self.state.pc = next;
            (next == len).then_some(HaltReason::FellOffEnd)
        };
        if let Some(reason) = halt {
            self.halted = Some(reason);
            ev.halt(reason, self.instructions);
        }
        Ok(halt)
    }

    /// The architectural checkpoint of this machine, carrying `mix` as
    /// its dynamic instruction mix.
    pub(crate) fn snapshot(
        &self,
        backend: Backend,
        mix: [u64; Instruction::OPCODE_COUNT],
    ) -> Checkpoint {
        Checkpoint {
            backend,
            text_len: self.text.len(),
            state: self.state.clone(),
            retired: self.instructions,
            halted: self.halted,
            mix,
            micro: Micro::Architectural,
        }
    }

    pub(crate) fn restore(
        &mut self,
        backend: Backend,
        checkpoint: &Checkpoint,
    ) -> Result<(), SimError> {
        checkpoint.guard(backend, self.text.len())?;
        self.state = checkpoint.state.clone();
        self.instructions = checkpoint.retired;
        self.halted = checkpoint.halted;
        self.mix = checkpoint.mix;
        Ok(())
    }
}

impl FunctionalSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        observers: ObserverSet,
    ) -> Self {
        Self {
            arch: Arch::new(image, tdm_words),
            observers,
        }
    }

    /// Dynamic instruction mix: executed count per mnemonic. The
    /// operation-mix view behind Dhrystone-style workload analysis.
    ///
    /// Internally counts through a flat per-opcode array (the map is
    /// assembled here, off the hot path); mnemonics that never executed
    /// are absent.
    pub fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.arch.mix)
    }

    /// The architectural state (inspectable mid-run).
    pub fn state(&self) -> &CoreState {
        &self.arch.state
    }

    /// Mutable state access, e.g. to preload registers before a run.
    pub fn state_mut(&mut self) -> &mut CoreState {
        &mut self.arch.state
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.arch.instructions
    }

    /// Whether (and why) the machine has halted.
    pub fn halted(&self) -> Option<HaltReason> {
        self.arch.halted
    }

    /// Executes a single instruction.
    ///
    /// Returns `Ok(Some(reason))` when this step halted the machine,
    /// `Ok(None)` otherwise.
    ///
    /// # Errors
    ///
    /// [`SimError::PcOutOfRange`] on wild control transfers and
    /// [`SimError::MemoryFault`] on TDM access violations.
    pub fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        with_events!(self.observers, |ev| self.arch.step(ev))
    }

    /// Runs until halt or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the budget is exhausted, plus any fault
    /// from [`FunctionalSim::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, SimError> {
        match Core::run_for(self, Budget::Steps(max_steps))?.halt {
            Some(halt) => Ok(RunResult {
                instructions: self.arch.instructions,
                halt,
            }),
            None => Err(SimError::Timeout { limit: max_steps }),
        }
    }
}

impl Core for FunctionalSim {
    fn backend(&self) -> Backend {
        Backend::Functional
    }

    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        FunctionalSim::step(self)
    }

    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        with_events!(self.observers, |ev| run_loop(self, budget, |c| c
            .arch
            .step(ev)))
    }

    fn state(&self) -> &CoreState {
        &self.arch.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.arch.state
    }

    fn halted(&self) -> Option<HaltReason> {
        self.arch.halted
    }

    fn retired(&self) -> u64 {
        self.arch.instructions
    }

    fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        FunctionalSim::instruction_mix(self)
    }

    fn snapshot(&self) -> Checkpoint {
        self.arch.snapshot(Backend::Functional, self.arch.mix)
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        self.arch.restore(Backend::Functional, checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::assemble;

    fn run_src(src: &str) -> FunctionalSim {
        let p = assemble(src).unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        sim.run(1_000_000).unwrap();
        sim
    }

    #[test]
    fn countdown_loop_with_comp_idiom() {
        // BNE/BEQ test only the LST, so the loop guard goes through COMP
        // (paper §IV-A: "we preset the LST of TRF[Tb] … by using a COMP
        // instruction").
        let sim = run_src(
            "LI t3, 10\nLI t4, 0\nloop:\nADD t4, t3\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 55);
        assert_eq!(sim.halted(), Some(HaltReason::JumpToSelf));
    }

    #[test]
    fn branch_tests_lst_only() {
        // LST(9) == 0, so `BNE t3, 0` falls through even though t3 != 0:
        // the 1-trit condition is architectural, not a bug.
        let sim = run_src("LI t3, 9\nBNE t3, 0, skip\nLI t4, 1\nskip:\nJAL t0, 0\n");
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 1);
    }

    #[test]
    fn fell_off_end_halts() {
        let sim = run_src("LI t3, 1\nADDI t3, 2\n");
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 3);
        assert_eq!(sim.halted(), Some(HaltReason::FellOffEnd));
    }

    #[test]
    fn load_store_roundtrip() {
        let sim = run_src(
            "
            .data
            v: .word 41, 0
            .text
            LI t2, 0
            LOAD t3, t2, 0
            ADDI t3, 1
            STORE t3, t2, 1
            LOAD t4, t2, 1
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 42);
        assert_eq!(sim.state().tdm.read(1).unwrap().to_i64(), 42);
    }

    #[test]
    fn comp_and_branch_three_way() {
        // Take the 'greater' path: t3=5 > t4=3 so COMP LST = +.
        let sim = run_src(
            "
            LI t3, 5
            LI t4, 3
            COMP t3, t4
            BEQ t3, +, greater
            LI t5, -99
            JAL t0, 0
            greater:
            LI t5, 77
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 77);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let sim = run_src(
            "
            LI t3, 0
            JAL t1, sub      ; call
            ADDI t3, 10      ; executed after return
            JAL t0, 0        ; halt
            sub:
            ADDI t3, 1
            JALR t0, t1, 0   ; return
            ",
        );
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 11);
    }

    #[test]
    fn memory_fault_reports_pc() {
        let p = assemble("LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        let err = sim.run(100).unwrap_err();
        match err {
            SimError::MemoryFault { pc, .. } => assert_eq!(pc, 2),
            other => panic!("expected MemoryFault, got {other:?}"),
        }
    }

    #[test]
    fn timeout_reported() {
        // Two-instruction infinite loop (never jumps to self).
        let p = assemble("a: NOP\nJAL t0, a\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        assert!(matches!(sim.run(10), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn wild_jump_faults() {
        let p = assemble("LI t2, 121\nJALR t0, t2, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        assert!(matches!(sim.run(10), Err(SimError::PcOutOfRange { .. })));
    }

    #[test]
    fn instruction_mix_counts_dynamic_executions() {
        let sim = run_src(
            "LI t3, 3\nloop:\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        );
        let mix = sim.instruction_mix();
        assert_eq!(mix["LI"], 1);
        assert_eq!(mix["ADDI"], 3);
        assert_eq!(mix["COMP"], 3);
        assert_eq!(mix["BEQ"], 3);
        assert_eq!(mix["JAL"], 1);
        let total: u64 = mix.values().sum();
        assert_eq!(total, sim.instructions());
    }

    #[test]
    fn preloading_registers() {
        let p = assemble("ADD t3, t4\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        sim.state_mut()
            .set_reg(TReg::T3, Word9::from_i64(30).unwrap());
        sim.state_mut()
            .set_reg(TReg::T4, Word9::from_i64(12).unwrap());
        sim.run(10).unwrap();
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 42);
    }
}
