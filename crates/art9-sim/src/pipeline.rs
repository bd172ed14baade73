//! The cycle-accurate 5-stage pipeline model of the ART-9 core
//! (paper Fig. 4 and §IV-B).
//!
//! Stages: **IF** (fetch from TIM), **ID** (main decoder, TRF read,
//! hazard detection unit, branch-target calculator + condition checker),
//! **EX** (TALU with forwarding multiplexers), **MEM** (TDM access),
//! **WB** (TRF write).
//!
//! ## Timing model (matches the paper's stall claims)
//!
//! * Full forwarding into EX from the EX/MEM and MEM/WB pipeline
//!   registers, plus TRF write-through (a register written by WB is
//!   visible to ID in the same cycle).
//! * Branches and jumps resolve in **ID** with a dedicated target adder
//!   and 1-trit condition checker; condition/base operands forward into
//!   ID from the EX output (the paper's "forwarding one-trit values"),
//!   from EX/MEM and from WB write-through.
//! * Hardware stalls occur **only** for (paper §IV-B):
//!   1. load-use hazards — 1 stall when the consumer needs the value in
//!      EX; 2 stalls when a B-type consumer needs it already in ID;
//!   2. taken branches/jumps — exactly 1 squashed fetch.
//! * Not-taken branches cost nothing.
//!
//! The architectural results are property-tested to be identical to the
//! functional simulator on arbitrary programs; only the timing differs.

use std::sync::Arc;

use art9_isa::{Instruction, TReg};
use ternary::Word9;

use crate::checkpoint::{Checkpoint, Micro, PipelineMicro};
use crate::core::{run_loop, Backend, Budget, Core, RunSummary};
use crate::error::SimError;
use crate::exec::{control_target, talu};
use crate::functional::{CoreState, HaltReason};
use crate::observer::{
    with_events, Events, MemWrite, MemoryAccess, ObserverSet, RegWrite, Writeback,
};
use crate::predecode::PredecodedProgram;
use crate::stats::PipelineStats;
use crate::trace::{CycleTrace, StageSnapshot};

/// An instruction in flight, with the address it was fetched from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fetched {
    pub(crate) instr: Instruction,
    pub(crate) pc: usize,
}

/// ID/EX pipeline register payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IdEx {
    pub(crate) instr: Instruction,
    pub(crate) pc: usize,
    pub(crate) a_val: Word9,
    pub(crate) b_val: Word9,
}

/// EX/MEM pipeline register payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExMem {
    pub(crate) instr: Instruction,
    pub(crate) pc: usize,
    /// ALU result, spliced immediate, link value, or effective address.
    pub(crate) result: Word9,
    /// The datum a STORE carries.
    pub(crate) store_val: Word9,
}

/// MEM/WB pipeline register payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemWb {
    pub(crate) instr: Instruction,
    pub(crate) pc: usize,
    pub(crate) value: Word9,
}

/// Observer-only side channel travelling in lockstep with [`MemWb`]:
/// the EX result-bus value (for LOADs `MemWb.value` holds the loaded
/// datum, not the bus) and the old/new TDM cell a STORE rewrote.
///
/// Deliberately *not* part of `MemWb`, whose layout the
/// `art9-checkpoint v1` text format serializes; like the trace buffer,
/// this is transient per-core state that a restore simply clears.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WbCarry {
    bus: Word9,
    mem: Option<MemWrite>,
}

/// The cycle-accurate pipelined ART-9 core.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::SimBuilder;
///
/// let program = assemble("
///     LI   t3, 4
/// loop:
///     ADDI t3, -1
///     MV   t7, t3
///     COMP t7, t0          ; t7 = sign(t3); presets the branch trit
///     BEQ  t7, +, loop
///     JAL  t0, 0
/// ")?;
///
/// let mut core = SimBuilder::new(&program).build_pipelined();
/// let stats = core.run(10_000)?;
/// assert_eq!(core.state().reg("t3".parse()?).to_i64(), 0);
/// // Taken branches cost one bubble each; CPI stays close to 1.
/// assert!(stats.cpi() < 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedSim {
    text: Arc<[Instruction]>,
    links: Arc<[Word9]>,
    state: CoreState,
    fetch_pc: usize,
    if_id: Option<Fetched>,
    id_ex: Option<IdEx>,
    ex_mem: Option<ExMem>,
    mem_wb: Option<MemWb>,
    wb_carry: Option<WbCarry>,
    stats: PipelineStats,
    halting: Option<HaltReason>,
    halted: Option<HaltReason>,
    trace: Option<Vec<CycleTrace>>,
    forwarding: bool,
    mix: [u64; Instruction::OPCODE_COUNT],
    observers: ObserverSet,
}

impl PipelinedSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        forwarding: bool,
        trace: bool,
        observers: ObserverSet,
    ) -> Self {
        Self {
            text: image.text_arc(),
            links: image.links_arc(),
            state: CoreState::with_image(image.data(), tdm_words),
            fetch_pc: 0,
            if_id: None,
            id_ex: None,
            ex_mem: None,
            mem_wb: None,
            wb_carry: None,
            stats: PipelineStats::default(),
            halting: None,
            halted: None,
            trace: trace.then(Vec::new),
            forwarding,
            mix: [0; Instruction::OPCODE_COUNT],
            observers,
        }
    }

    /// Dynamic instruction mix: retired count per mnemonic.
    ///
    /// Counted through a flat per-opcode array in the WB stage; the map
    /// is assembled here, off the hot path.
    pub fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.mix)
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[CycleTrace]> {
        self.trace.as_deref()
    }

    /// Architectural state (TRF, TDM).
    pub fn state(&self) -> &CoreState {
        &self.state
    }

    /// Mutable architectural state, e.g. to preload registers.
    pub fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Whether (and why) the core has halted and drained.
    pub fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Advances the core by one clock cycle.
    ///
    /// Returns `Ok(Some(reason))` once the pipeline has fully drained
    /// after a halt condition.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryFault`] from the MEM stage and
    /// [`SimError::PcOutOfRange`] from wild control transfers in ID.
    pub fn cycle(&mut self) -> Result<Option<HaltReason>, SimError> {
        with_events!(self.observers, |ev| self.cycle_with(ev))
    }

    fn cycle_with<E: Events>(&mut self, ev: &mut E) -> Result<Option<HaltReason>, SimError> {
        if let Some(reason) = self.halted {
            return Ok(Some(reason));
        }
        self.stats.cycles += 1;

        // Register state at the start of this cycle (forwarding sources).
        let old_id_ex = self.id_ex;
        let old_ex_mem = self.ex_mem;
        let old_mem_wb = self.mem_wb;

        // ---- WB ------------------------------------------------------
        // Synchronous TRF write; write-through makes the value visible
        // to ID in this same cycle.
        let observing = E::ACTIVE;
        let carry = self.wb_carry.take();
        let wb_done: Option<(TReg, Word9)> = if let Some(wb) = old_mem_wb {
            self.stats.instructions += 1;
            self.mix[wb.instr.opcode()] += 1;
            let dest = wb.instr.writes();
            let old_reg = if observing {
                dest.map(|d| self.state.reg(d))
            } else {
                None
            };
            if let Some(d) = dest {
                self.state.set_reg(d, wb.value);
            }
            if observing {
                // A restore mid-flight clears the carry; fall back to the
                // WB value as the bus for that one instruction.
                let carry = carry.unwrap_or(WbCarry {
                    bus: wb.value,
                    mem: None,
                });
                ev.writeback(&Writeback {
                    pc: wb.pc,
                    instr: wb.instr,
                    reg: dest.map(|d| RegWrite {
                        reg: d,
                        old: old_reg.expect("captured above"),
                        new: self.state.reg(d),
                    }),
                    mem: carry.mem,
                    bus: carry.bus,
                });
                ev.retire(wb.pc, &wb.instr, &self.state);
            }
            dest.map(|d| (d, wb.value))
        } else {
            None
        };
        self.mem_wb = None;

        // ---- MEM -----------------------------------------------------
        if let Some(mem) = old_ex_mem {
            let mut mem_write = None;
            let value = match mem.instr {
                Instruction::Load { .. } => {
                    let v = self
                        .state
                        .tdm
                        .read_word_addr(mem.result)
                        .map_err(|cause| SimError::MemoryFault { pc: mem.pc, cause })?;
                    if observing {
                        let address = self.state.tdm.resolve(mem.result).expect("read succeeded");
                        ev.memory(&MemoryAccess {
                            pc: mem.pc,
                            address,
                            value: v,
                            is_write: false,
                        });
                    }
                    v
                }
                Instruction::Store { .. } => {
                    // Old cell value, read before the write so the write
                    // itself still produces the canonical fault.
                    let old_cell = if observing {
                        self.state.tdm.read_word_addr(mem.result).ok()
                    } else {
                        None
                    };
                    self.state
                        .tdm
                        .write_word_addr(mem.result, mem.store_val)
                        .map_err(|cause| SimError::MemoryFault { pc: mem.pc, cause })?;
                    if observing {
                        let address = self.state.tdm.resolve(mem.result).expect("write succeeded");
                        ev.memory(&MemoryAccess {
                            pc: mem.pc,
                            address,
                            value: mem.store_val,
                            is_write: true,
                        });
                        mem_write = Some(MemWrite {
                            address,
                            old: old_cell.expect("write succeeded"),
                            new: mem.store_val,
                        });
                    }
                    Word9::ZERO
                }
                _ => mem.result,
            };
            self.mem_wb = Some(MemWb {
                instr: mem.instr,
                pc: mem.pc,
                value,
            });
            if observing {
                self.wb_carry = Some(WbCarry {
                    bus: mem.result,
                    mem: mem_write,
                });
            }
        }
        self.ex_mem = None;

        // ---- EX ------------------------------------------------------
        // Forwarding mux: EX/MEM (non-load) then MEM/WB then RF value
        // captured at ID.
        let mut ex_result: Option<(Instruction, Word9)> = None;
        if let Some(ex) = old_id_ex {
            let forwarding = self.forwarding;
            let fwd = |reg: TReg, captured: Word9| -> Word9 {
                if !forwarding {
                    return captured;
                }
                if let Some(m) = &old_ex_mem {
                    if !matches!(
                        m.instr,
                        Instruction::Load { .. } | Instruction::Store { .. }
                    ) && m.instr.writes() == Some(reg)
                    {
                        return m.result;
                    }
                }
                if let Some(w) = &old_mem_wb {
                    if w.instr.writes() == Some(reg) {
                        return w.value;
                    }
                }
                captured
            };
            let (a_reg, b_reg) = source_regs(&ex.instr);
            let a_val = a_reg.map_or(ex.a_val, |r| fwd(r, ex.a_val));
            let b_val = b_reg.map_or(ex.b_val, |r| fwd(r, ex.b_val));
            let link = self.links[ex.pc]; // PC + 1, precomputed at decode time
            let result = talu(&ex.instr, a_val, b_val, link);
            let store_val = a_val; // STORE datum travels in the Ta path
            self.ex_mem = Some(ExMem {
                instr: ex.instr,
                pc: ex.pc,
                result,
                store_val,
            });
            ex_result = Some((ex.instr, result));
        }
        self.id_ex = None;

        // ---- ID ------------------------------------------------------
        // Hazard detection, TRF read (with write-through), branch
        // resolution.
        let mut stall = false;
        let mut redirect: Option<usize> = None;
        if let Some(fetched) = self.if_id {
            let instr = fetched.instr;

            // Value of a register as visible to ID this cycle:
            // EX output (this cycle) > EX/MEM > WB write-through > TRF.
            // Returns None when the value is still in flight (producer
            // is a LOAD that has not reached WB, or any producer when
            // forwarding is disabled).
            let forwarding = self.forwarding;
            let id_value = |reg: TReg| -> Option<Word9> {
                if let Some(ex) = &old_id_ex {
                    if ex.instr.writes() == Some(reg) {
                        if !forwarding {
                            return None;
                        }
                        return match ex.instr {
                            Instruction::Load { .. } => None,
                            _ => ex_result.map(|(_, v)| v),
                        };
                    }
                }
                if let Some(m) = &old_ex_mem {
                    if m.instr.writes() == Some(reg) {
                        if !forwarding {
                            return None;
                        }
                        return match m.instr {
                            Instruction::Load { .. } => None,
                            _ => Some(m.result),
                        };
                    }
                }
                if let Some((d, v)) = wb_done {
                    if d == reg {
                        return Some(v);
                    }
                }
                Some(self.state.reg(reg))
            };

            if instr.is_control_flow() {
                // B-type needs its source register already in ID.
                let needed = instr.reads();
                let mut operand: Option<Word9> = Some(Word9::ZERO);
                for r in &needed {
                    operand = id_value(*r);
                    if operand.is_none() {
                        break;
                    }
                }
                match operand {
                    None => {
                        stall = true;
                        self.stats.id_use_stalls += 1;
                    }
                    Some(b_val) => {
                        let lst = b_val.lst();
                        match control_target(&instr, fetched.pc, lst, b_val) {
                            Some(target) => {
                                if target < 0 || target as usize > self.text.len() {
                                    return Err(SimError::PcOutOfRange {
                                        at: self.stats.cycles,
                                        pc: target,
                                        tim_size: self.text.len(),
                                    });
                                }
                                self.stats.taken_transfers += 1;
                                ev.control(fetched.pc, &instr, true, target as usize);
                                if target as usize == fetched.pc {
                                    // Jump-to-self: halt request.
                                    self.halting = Some(HaltReason::JumpToSelf);
                                } else {
                                    redirect = Some(target as usize);
                                    self.stats.control_flush_bubbles += 1;
                                }
                                self.issue(fetched, b_val, b_val);
                            }
                            None => {
                                self.stats.untaken_branches += 1;
                                ev.control(fetched.pc, &instr, false, fetched.pc + 1);
                                self.issue(fetched, b_val, b_val);
                            }
                        }
                    }
                }
            } else {
                // EX-use hazard: LOAD in EX whose destination feeds us
                // (or, with forwarding disabled, any in-flight producer).
                let mut load_use = false;
                if let Some(ex) = &old_id_ex {
                    let hazard = matches!(ex.instr, Instruction::Load { .. }) || !self.forwarding;
                    if hazard {
                        if let Some(dest) = ex.instr.writes() {
                            if instr.reads().contains(&dest) {
                                load_use = true;
                            }
                        }
                    }
                }
                if !self.forwarding {
                    if let Some(m) = &old_ex_mem {
                        if let Some(dest) = m.instr.writes() {
                            if instr.reads().contains(&dest) {
                                load_use = true;
                            }
                        }
                    }
                }
                if load_use {
                    stall = true;
                    self.stats.load_use_stalls += 1;
                } else {
                    // TRF read with write-through; stale in-flight values
                    // are fine — the EX forwarding mux overrides them.
                    let (a_reg, b_reg) = source_regs(&instr);
                    let wt = |reg: TReg| -> Word9 {
                        if let Some((d, v)) = wb_done {
                            if d == reg {
                                return v;
                            }
                        }
                        self.state.reg(reg)
                    };
                    let a_val = a_reg.map_or(Word9::ZERO, wt);
                    let b_val = b_reg.map_or(Word9::ZERO, wt);
                    self.issue(fetched, a_val, b_val);
                }
            }
        }

        // ---- IF ------------------------------------------------------
        if !stall {
            self.if_id = None;
            if let Some(target) = redirect {
                // A taken branch/jump squashes the word fetched this
                // cycle; the target is fetched next cycle — the paper's
                // one-cycle stall after taken B-type instructions.
                self.fetch_pc = target;
                if self.halting == Some(HaltReason::FellOffEnd) {
                    // Fetch had speculatively run off the end; the
                    // redirect revives it.
                    self.halting = None;
                }
            } else if self.halting.is_none() {
                if self.fetch_pc < self.text.len() {
                    self.if_id = Some(Fetched {
                        instr: self.text[self.fetch_pc],
                        pc: self.fetch_pc,
                    });
                    self.fetch_pc += 1;
                } else {
                    // Fetch ran off the end; halt once the pipe drains.
                    self.halting = Some(HaltReason::FellOffEnd);
                }
            }
        }

        self.record_trace();

        // Drained after a halt condition?
        if self.halting.is_some()
            && self.if_id.is_none()
            && self.id_ex.is_none()
            && self.ex_mem.is_none()
            && self.mem_wb.is_none()
        {
            self.halted = self.halting;
            if let Some(reason) = self.halted {
                ev.halt(reason, self.stats.instructions);
            }
            return Ok(self.halted);
        }
        Ok(None)
    }

    /// Moves a decoded instruction into the ID/EX register.
    fn issue(&mut self, fetched: Fetched, a_val: Word9, b_val: Word9) {
        self.id_ex = Some(IdEx {
            instr: fetched.instr,
            pc: fetched.pc,
            a_val,
            b_val,
        });
        self.if_id = None;
    }

    fn record_trace(&mut self) {
        let snapshot = CycleTrace {
            cycle: self.stats.cycles,
            if_stage: self.if_id.map(|f| StageSnapshot {
                pc: f.pc,
                instr: f.instr,
            }),
            ex_stage: self.id_ex.map(|e| StageSnapshot {
                pc: e.pc,
                instr: e.instr,
            }),
            mem_stage: self.ex_mem.map(|m| StageSnapshot {
                pc: m.pc,
                instr: m.instr,
            }),
            wb_stage: self.mem_wb.map(|w| StageSnapshot {
                pc: w.pc,
                instr: w.instr,
            }),
        };
        if let Some(t) = &mut self.trace {
            t.push(snapshot);
        }
    }

    /// Runs until the pipeline halts and drains, or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] when the cycle budget is exhausted, plus
    /// any fault from [`PipelinedSim::cycle`].
    pub fn run(&mut self, max_cycles: u64) -> Result<PipelineStats, SimError> {
        while self.stats.cycles < max_cycles {
            if self.cycle()?.is_some() {
                return Ok(self.stats);
            }
        }
        Err(SimError::Timeout { limit: max_cycles })
    }
}

impl Core for PipelinedSim {
    fn backend(&self) -> Backend {
        Backend::Pipelined
    }

    /// One step of the pipelined backend is one **clock cycle**.
    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        self.cycle()
    }

    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        with_events!(self.observers, |ev| run_loop(self, budget, |c| c
            .cycle_with(ev)))
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }

    fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    fn retired(&self) -> u64 {
        self.stats.instructions
    }

    fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        PipelinedSim::instruction_mix(self)
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            backend: Backend::Pipelined,
            text_len: self.text.len(),
            state: self.state.clone(),
            retired: self.stats.instructions,
            halted: self.halted,
            mix: self.mix,
            micro: Micro::Pipelined(Box::new(PipelineMicro {
                fetch_pc: self.fetch_pc,
                halting: self.halting,
                forwarding: self.forwarding,
                stats: self.stats,
                if_id: self.if_id,
                id_ex: self.id_ex,
                ex_mem: self.ex_mem,
                mem_wb: self.mem_wb,
            })),
        }
    }

    /// Restores the architectural state *and* the whole
    /// microarchitectural picture — fetch engine, all four latches,
    /// stall accounting, forwarding setting — so the resumed core is
    /// cycle-for-cycle identical to the snapshotted one. The trace
    /// buffer (if tracing is enabled) is not rewound: it records this
    /// core's own cycles only.
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        checkpoint.guard(Backend::Pipelined, self.text.len())?;
        let Micro::Pipelined(m) = &checkpoint.micro else {
            return Err(SimError::Checkpoint {
                detail: "pipelined checkpoint lacks its micro section".into(),
            });
        };
        self.state = checkpoint.state.clone();
        self.mix = checkpoint.mix;
        self.halted = checkpoint.halted;
        self.fetch_pc = m.fetch_pc;
        self.halting = m.halting;
        self.forwarding = m.forwarding;
        self.stats = m.stats;
        self.if_id = m.if_id;
        self.id_ex = m.id_ex;
        self.ex_mem = m.ex_mem;
        self.mem_wb = m.mem_wb;
        self.wb_carry = None;
        Ok(())
    }

    fn pipeline_stats(&self) -> Option<PipelineStats> {
        Some(self.stats)
    }

    fn trace(&self) -> Option<&[CycleTrace]> {
        PipelinedSim::trace(self)
    }
}

/// The `(Ta, Tb)` source registers an instruction reads, by operand slot.
fn source_regs(instr: &Instruction) -> (Option<TReg>, Option<TReg>) {
    use Instruction::*;
    match instr {
        Mv { b, .. } | Pti { b, .. } | Nti { b, .. } | Sti { b, .. } => (None, Some(*b)),
        And { a, b }
        | Or { a, b }
        | Xor { a, b }
        | Add { a, b }
        | Sub { a, b }
        | Sr { a, b }
        | Sl { a, b }
        | Comp { a, b } => (Some(*a), Some(*b)),
        Andi { a, .. } | Addi { a, .. } | Sri { a, .. } | Sli { a, .. } | Li { a, .. } => {
            (Some(*a), None)
        }
        Lui { .. } | Jal { .. } => (None, None),
        Beq { b, .. } | Bne { b, .. } | Jalr { b, .. } | Load { b, .. } => (None, Some(*b)),
        Store { a, b, .. } => (Some(*a), Some(*b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::assemble;

    fn run_pipe(src: &str) -> (PipelinedSim, PipelineStats) {
        let p = assemble(src).unwrap();
        let mut sim = SimBuilder::new(&p).build_pipelined();
        let stats = sim.run(1_000_000).unwrap();
        (sim, stats)
    }

    #[test]
    fn straight_line_cpi_near_one() {
        // 20 independent instructions + halt; fill = 4 cycles.
        let mut src = String::new();
        for i in 0..20 {
            src.push_str(&format!("LI t{}, {}\n", 3 + (i % 6), i));
        }
        src.push_str("JAL t0, 0\n");
        let (_, stats) = run_pipe(&src);
        assert_eq!(stats.instructions, 21);
        assert_eq!(stats.lost_cycles(), 0);
        // cycles = instructions + 4 (fill)
        assert_eq!(stats.cycles, 25);
    }

    #[test]
    fn alu_forwarding_avoids_stalls() {
        let (sim, stats) =
            run_pipe("LI t3, 1\nADDI t3, 1\nADDI t3, 1\nADD t4, t3\nADD t4, t3\nJAL t0, 0\n");
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 3);
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 6);
        assert_eq!(stats.load_use_stalls, 0);
        assert_eq!(stats.id_use_stalls, 0);
    }

    #[test]
    fn load_use_costs_one_stall() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 41\n.text\nLI t2, 0\nLOAD t3, t2, 0\nADDI t3, 1\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 42);
        assert_eq!(stats.load_use_stalls, 1);
    }

    #[test]
    fn load_then_independent_instr_no_stall() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 41\n.text\nLI t2, 0\nLOAD t3, t2, 0\nLI t5, 7\nADDI t3, 1\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 42);
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 7);
        assert_eq!(stats.load_use_stalls, 0);
    }

    #[test]
    fn taken_branch_costs_one_bubble() {
        let (_, stats) =
            run_pipe("LI t3, 0\nNOP\nNOP\nBEQ t3, 0, skip\nLI t4, 1\nskip:\nLI t5, 2\nJAL t0, 0\n");
        // BEQ taken (t3 LST == 0) and the final JAL-to-self halts without
        // a flush; only the BEQ flushes.
        assert_eq!(stats.control_flush_bubbles, 1);
    }

    #[test]
    fn untaken_branch_costs_nothing() {
        let (_, stats) =
            run_pipe("LI t3, 1\nNOP\nNOP\nBEQ t3, 0, skip\nLI t4, 1\nskip:\nLI t5, 2\nJAL t0, 0\n");
        assert_eq!(stats.control_flush_bubbles, 0);
        assert_eq!(stats.untaken_branches, 1);
    }

    #[test]
    fn comp_then_branch_forwards_condition() {
        // COMP immediately before BEQ: the 1-trit forward from EX lets
        // the branch resolve without stalling.
        let (sim, stats) = run_pipe(
            "
            LI t3, 5
            LI t4, 3
            COMP t3, t4
            BEQ t3, +, big
            LI t5, -1
            JAL t0, 0
            big:
            LI t5, 1
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 1);
        assert_eq!(stats.id_use_stalls, 0);
    }

    #[test]
    fn load_then_branch_stalls_twice() {
        let (sim, stats) = run_pipe(
            "
            .data
            v: .word 0
            .text
            LI t2, 0
            LOAD t3, t2, 0
            BEQ t3, 0, out
            LI t4, -1
            out:
            LI t5, 9
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 9);
        // Branch waits in ID while the load walks EX->MEM: 2 stalls.
        assert_eq!(stats.id_use_stalls, 2);
    }

    #[test]
    fn alu_then_dependent_branch_one_cycle_apart() {
        // Producer in MEM when branch in ID: forward from EX/MEM, no stall.
        let (_, stats) =
            run_pipe("LI t3, 0\nADDI t3, 0\nNOP\nBEQ t3, 0, out\nNOP\nout:\nJAL t0, 0\n");
        assert_eq!(stats.id_use_stalls, 0);
    }

    #[test]
    fn matches_functional_on_loop() {
        let src = "
            LI t3, 10
            LI t4, 0
            loop:
            ADD t4, t3
            ADDI t3, -1
            MV t7, t3
            COMP t7, t0
            BEQ t7, +, loop
            JAL t0, 0
        ";
        let p = assemble(src).unwrap();
        let mut f = SimBuilder::new(&p).build_functional();
        f.run(100_000).unwrap();
        let mut pipe = SimBuilder::new(&p).build_pipelined();
        let stats = pipe.run(100_000).unwrap();
        assert_eq!(pipe.state().trf, f.state().trf);
        assert_eq!(stats.instructions, f.instructions());
    }

    #[test]
    fn store_load_through_pipeline() {
        let (sim, _) = run_pipe(
            "
            LI t2, 10
            LI t3, 77
            STORE t3, t2, 0
            LOAD t4, t2, 0
            ADD t4, t4
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 154);
    }

    #[test]
    fn fell_off_end_drains() {
        let (sim, stats) = run_pipe("LI t3, 1\nADDI t3, 1\n");
        assert_eq!(sim.halted(), Some(HaltReason::FellOffEnd));
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 2);
        assert_eq!(stats.instructions, 2);
    }

    #[test]
    fn trace_records_stage_occupancy() {
        let p = assemble("LI t3, 1\nADDI t3, 1\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).trace(true).build_pipelined();
        sim.run(1000).unwrap();
        let trace = sim.trace().unwrap();
        assert!(!trace.is_empty());
        // First cycle: only IF occupied.
        assert!(trace[0].if_stage.is_some());
        assert!(trace[0].wb_stage.is_none());
    }

    #[test]
    fn disabling_forwarding_costs_cycles_not_correctness() {
        let src = "
            LI t3, 1
            ADDI t3, 1
            ADD t4, t3
            ADD t4, t3
            MV t7, t4
            COMP t7, t0
            BEQ t7, +, pos
            LI t5, -1
            JAL t0, 0
            pos:
            LI t5, 1
            JAL t0, 0
        ";
        let p = assemble(src).unwrap();
        let mut fast = SimBuilder::new(&p).build_pipelined();
        let s_fast = fast.run(10_000).unwrap();
        let mut slow = SimBuilder::new(&p).forwarding(false).build_pipelined();
        let s_slow = slow.run(10_000).unwrap();
        assert_eq!(fast.state().trf, slow.state().trf, "same architecture");
        assert!(
            s_slow.cycles > s_fast.cycles,
            "no-forwarding must stall: {} vs {}",
            s_slow.cycles,
            s_fast.cycles
        );
        assert_eq!(s_fast.load_use_stalls + s_fast.id_use_stalls, 0);
        assert!(s_slow.load_use_stalls + s_slow.id_use_stalls > 0);
    }

    #[test]
    fn memory_fault_propagates_pc() {
        let p = assemble("LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_pipelined();
        match sim.run(1000) {
            Err(SimError::MemoryFault { pc, .. }) => assert_eq!(pc, 2),
            other => panic!("expected MemoryFault, got {other:?}"),
        }
    }
}
