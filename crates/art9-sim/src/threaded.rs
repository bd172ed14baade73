//! The direct-threaded execution backend.
//!
//! [`ThreadedSim`] compiles a [`PredecodedProgram`] **once** into
//! direct-threaded host code and then executes that, instead of
//! re-interpreting `Instruction` values every step the way
//! [`FunctionalSim`](crate::FunctionalSim) does. The compiled form is an
//! array of [`Op`] records, one per instruction (plus fused variants),
//! each carrying a host function pointer and fully pre-extracted
//! operands — register indices, pre-resized immediates, precomputed
//! link words and static branch targets — so the hot loop is an
//! indirect call per op with no decode, no `match`, and no immediate
//! conversion work.
//!
//! Three further techniques stack on top (see `docs/PERFORMANCE.md`):
//!
//! * **Superblock formation** over the precomputed link table: the
//!   program is partitioned into maximal straight-line runs
//!   (*superblocks*) whose boundaries are the static control-flow
//!   targets and successors. Inside a block there is no per-instruction
//!   budget check, halt check or PC update — those happen only at block
//!   boundaries, which is exactly where control can transfer.
//! * **Fused op sequences** for common adjacent pairs (logic + compare,
//!   add + store, the `ADDI`/`MV`/`COMP` loop idiom): one host call
//!   retires two architectural instructions.
//! * **Inline-cached TDM bases**: each static LOAD/STORE site caches
//!   the last base-register word next to its resolved integer value, so
//!   the common in-loop case skips the balanced-ternary address
//!   conversion entirely.
//!
//! Budget checks run only at superblock boundaries, but
//! [`Core::run_for`] stays *exact*: a block is entered through the fast
//! path only when the remaining budget covers the whole block, and the
//! tail (or any entry at a non-head PC, e.g. right after a mid-block
//! [`Checkpoint`] restore) falls back to precise single-op stepping.
//! `Budget::Steps`/`Budget::Retired` therefore cut at the same
//! instruction boundaries as the architectural interpreters.
//!
//! Precise stepping — the budget tail, a mid-block entry, [`Core::step`]
//! — and every run with observers attached go through the shared
//! instruction definition in `exec.rs`, the same code the functional
//! backend runs, so observers see the functional backend's event
//! sequence by construction. The backend implements the full [`Core`]
//! contract: exact `instruction_mix` accounting across fused ops, and
//! bit-identical [`Checkpoint`] snapshot/restore at any architectural
//! boundary — checkpoints cross-restore between the architectural
//! backends.

use std::sync::Arc;

use art9_isa::{Instruction, TReg};
use ternary::{TernaryError, Trit, Word9};

use crate::checkpoint::Checkpoint;
use crate::core::{run_loop, Backend, Budget, Core, RunSummary};
use crate::error::SimError;
use crate::exec::shift;
use crate::functional::{Arch, CoreState, HaltReason, RunResult};
use crate::observer::{with_events, NoEvents, ObserverSet};
use crate::predecode::PredecodedProgram;

/// How control leaves a compiled op. Deliberately register-sized: this
/// is the return value of every indirect call in the hot loop, so the
/// fat fault payload lives on the [`Machine`] instead (the cold path
/// parks it there and returns the bare [`Step::Fault`] tag).
#[derive(Clone, Copy)]
enum Step {
    /// Fall through to the next instruction (non-control ops).
    Next,
    /// Transfer to an in-range instruction address.
    Jump(u32),
    /// The machine halted; the second field is the final architectural
    /// PC (the transfer's own address for jump-to-self, the text length
    /// for falling off the end).
    Halt(HaltReason, u32),
    /// The op faulted; the payload is in [`Machine::fault`].
    Fault,
}

/// A fault raised by a compiled op, converted to [`SimError`] by the
/// engine once the retirement counters are settled.
enum Fault {
    /// TDM access violation at instruction address `pc`. `retired` is
    /// how many architectural instructions of the faulting (possibly
    /// fused) op retired, including the faulting one — 1 when the
    /// first component faulted, 2 when the second did — so partial
    /// fused pairs settle exactly.
    Mem {
        pc: usize,
        cause: TernaryError,
        retired: u8,
    },
    /// Control transfer left the instruction memory; `at_pc` is the
    /// address of the transferring instruction (which may be the second
    /// component of a fused pair).
    Wild { target: i64, at_pc: u32 },
}

/// The host code behind one compiled op.
type ExecFn = fn(&mut Machine<'_>, &Op) -> Step;

/// The mutable execution context handed to every [`ExecFn`].
struct Machine<'m> {
    state: &'m mut CoreState,
    icache: &'m mut [InlineCache],
    text_len: usize,
    /// Fault payload parked by an op that returned [`Step::Fault`].
    fault: Option<Fault>,
}

/// One inline-cache entry for a static LOAD/STORE site: the last base
/// word seen there, next to its resolved integer value. Keyed purely on
/// the word value, so it never needs invalidation — not even across
/// [`Core::restore`].
#[derive(Debug, Clone, Copy)]
struct InlineCache {
    base: Word9,
    value: i64,
}

impl Default for InlineCache {
    /// `ZERO ↦ 0` is itself a valid mapping, so the cold state needs no
    /// sentinel.
    fn default() -> Self {
        InlineCache {
            base: Word9::ZERO,
            value: 0,
        }
    }
}

/// One compiled (possibly fused) instruction with pre-extracted
/// operands. Unused fields are zero; which fields are live is
/// determined by `exec`.
#[derive(Debug, Clone, Copy)]
struct Op {
    exec: ExecFn,
    /// First component's `Ta` register index.
    a: u8,
    /// First component's `Tb` register index.
    b: u8,
    /// Second (fused) component's `Ta`, or a constant shift amount.
    c: u8,
    /// Second (fused) component's `Tb`.
    d: u8,
    /// Branch condition trit.
    cond: Trit,
    /// Pre-resized immediate / link word / LUI constant.
    imm: Word9,
    /// Second (fused) component's pre-resized immediate.
    imm2: Word9,
    /// Static branch/JAL target, or a LOAD/STORE offset as an integer.
    /// In a fused pair this belongs to the first component if that one
    /// is a memory op, otherwise to the second.
    target: i64,
    /// Inline-cache site for the TDM access (`u32::MAX`: none); same
    /// first-if-memory convention as `target` in a fused pair.
    site: u32,
    /// The second component's LOAD/STORE offset, when both components
    /// are memory ops.
    off2: i32,
    /// The second component's inline-cache site, when both components
    /// are memory ops.
    site2: u32,
    /// Address of the (first) instruction.
    pc: u32,
    /// Architectural instructions this op retires (1 or 2).
    n: u8,
    /// Dense opcode of the first component.
    opcode: u8,
    /// Dense opcode of the second component (`n == 2` only).
    opcode2: u8,
}

/// Where execution continues after a superblock completes without a
/// control transfer of its own.
#[derive(Debug, Clone, Copy)]
enum BlockExit {
    /// The block ends in a control-flow op, which produces its own
    /// [`Ctl`].
    Terminator,
    /// Straight-line fall-through into the next block head.
    Seq(usize),
    /// The block's last instruction is the last of the program: falling
    /// through halts ([`HaltReason::FellOffEnd`]).
    OffEnd,
}

/// One superblock: a maximal straight-line run of instructions entered
/// only at its head.
#[derive(Debug)]
struct Block {
    /// Address of the block head.
    start: usize,
    /// Architectural instructions the block covers (and retires, every
    /// time it executes — the terminator retires whether or not it
    /// takes its transfer).
    len: usize,
    /// The fused op sequence the hot path runs.
    fused: Vec<Op>,
    /// How control leaves when no terminator transfer fires.
    exit: BlockExit,
    /// Sparse per-opcode retirement counts (sums to `len`), applied in
    /// one shot when the block completes.
    mix: Vec<(u8, u32)>,
}

/// The compiled program: shared, immutable, compiled once per
/// [`PredecodedProgram`] image (cached on the image itself) and reused
/// by every [`ThreadedSim`] built from it.
#[derive(Debug)]
pub(crate) struct ThreadedCode {
    /// One unfused op per pc — the unfused tail of a block entered
    /// mid-way.
    ops: Vec<Op>,
    blocks: Vec<Block>,
    /// pc → block index when pc is a block head, `u32::MAX` otherwise.
    block_idx: Vec<u32>,
    /// pc → index of the covering block, for every pc. Lets a dynamic
    /// mid-block landing (a JALR target that isn't a static head)
    /// dispatch the unfused tail of its block instead of falling back
    /// to per-step execution.
    block_of: Vec<u32>,
    /// Number of inline-cache sites (static LOAD/STORE occurrences).
    sites: usize,
}

// --- compiled op bodies --------------------------------------------------
//
// Each body mirrors `talu` + the functional step for exactly one
// instruction (or one fused pair), with every decode-time quantity
// pre-extracted into the `Op`. The differential fuzz oracles and the
// cross-backend property tests hold these to the shared semantics in
// `exec.rs`.

fn x_mv(m: &mut Machine, op: &Op) -> Step {
    m.state.trf[op.a as usize] = m.state.trf[op.b as usize];
    Step::Next
}

fn x_pti(m: &mut Machine, op: &Op) -> Step {
    m.state.trf[op.a as usize] = m.state.trf[op.b as usize].pti();
    Step::Next
}

fn x_nti(m: &mut Machine, op: &Op) -> Step {
    m.state.trf[op.a as usize] = m.state.trf[op.b as usize].nti();
    Step::Next
}

fn x_sti(m: &mut Machine, op: &Op) -> Step {
    m.state.trf[op.a as usize] = m.state.trf[op.b as usize].sti();
    Step::Next
}

fn x_and(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].and(t[op.b as usize]);
    Step::Next
}

fn x_or(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].or(t[op.b as usize]);
    Step::Next
}

fn x_xor(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].xor(t[op.b as usize]);
    Step::Next
}

fn x_add(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(t[op.b as usize]);
    Step::Next
}

fn x_sub(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_sub(t[op.b as usize]);
    Step::Next
}

fn x_sr(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    let amt = t[op.b as usize].field::<2>(0);
    t[op.a as usize] = shift(t[op.a as usize], false, amt);
    Step::Next
}

fn x_sl(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    let amt = t[op.b as usize].field::<2>(0);
    t[op.a as usize] = shift(t[op.a as usize], true, amt);
    Step::Next
}

fn x_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].compare(t[op.b as usize]);
    Step::Next
}

fn x_andi(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].and(op.imm);
    Step::Next
}

fn x_addi(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(op.imm);
    Step::Next
}

// SRI/SLI resolve their balanced shift amount at compile time, so the
// run-time body is a bare shl/shr by a constant count.
fn x_shl_k(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].shl(op.c as usize);
    Step::Next
}

fn x_shr_k(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].shr(op.c as usize);
    Step::Next
}

// LUI's whole result is a compile-time constant.
fn x_const(m: &mut Machine, op: &Op) -> Step {
    m.state.trf[op.a as usize] = op.imm;
    Step::Next
}

fn x_li(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].with_field::<5>(0, op.imm.field::<5>(0));
    Step::Next
}

/// Classifies a computed next-PC exactly like the functional step:
/// in-range → jump, own address → jump-to-self halt, text length →
/// fell-off-end halt, anything else → wild-transfer fault.
#[inline]
fn resolve_next(m: &mut Machine, target: i64, pc: usize) -> Step {
    if target < 0 || target as usize > m.text_len {
        m.fault = Some(Fault::Wild {
            target,
            at_pc: pc as u32,
        });
        return Step::Fault;
    }
    let t = target as usize;
    if t == pc {
        Step::Halt(HaltReason::JumpToSelf, pc as u32)
    } else if t == m.text_len {
        Step::Halt(HaltReason::FellOffEnd, t as u32)
    } else {
        Step::Jump(t as u32)
    }
}

fn x_beq(m: &mut Machine, op: &Op) -> Step {
    let pc = op.pc as usize;
    let next = if m.state.trf[op.b as usize].lst() == op.cond {
        op.target
    } else {
        pc as i64 + 1
    };
    resolve_next(m, next, pc)
}

fn x_bne(m: &mut Machine, op: &Op) -> Step {
    let pc = op.pc as usize;
    let next = if m.state.trf[op.b as usize].lst() != op.cond {
        op.target
    } else {
        pc as i64 + 1
    };
    resolve_next(m, next, pc)
}

fn x_jal(m: &mut Machine, op: &Op) -> Step {
    m.state.trf[op.a as usize] = op.imm; // link = pc + 1, precomputed
    resolve_next(m, op.target, op.pc as usize)
}

fn x_jalr(m: &mut Machine, op: &Op) -> Step {
    // Target reads Tb before the link write lands in Ta (a == b case).
    // Each JALR site inline-caches its last base word next to the
    // computed target (return addresses repeat heavily), skipping the
    // balanced-ternary conversion on a hit.
    let w = m.state.trf[op.b as usize];
    let ic = &mut m.icache[op.site as usize];
    let target = if ic.base == w {
        ic.value
    } else {
        let t = w.wrapping_add(op.imm2).to_i64();
        *ic = InlineCache { base: w, value: t };
        t
    };
    m.state.trf[op.a as usize] = op.imm;
    resolve_next(m, target, op.pc as usize)
}

/// Resolves a LOAD/STORE effective address through the site's inline
/// cache: on a base-word hit the address is an integer add with one
/// conditional balanced wrap (matching `wrapping_add` exactly); on a
/// miss, the full ternary resolve runs and refills the cache. `None`
/// parks the fault on the machine.
#[inline]
fn tdm_index(
    m: &mut Machine,
    base_reg: u8,
    off_word: Word9,
    off: i64,
    site: u32,
    pc: usize,
    retired: u8,
) -> Option<usize> {
    let base = m.state.trf[base_reg as usize];
    let ic = &mut m.icache[site as usize];
    if ic.base == base {
        let mut v = ic.value + off;
        if v > Word9::MAX_VALUE {
            v -= Word9::MODULUS;
        } else if v < -Word9::MAX_VALUE {
            v += Word9::MODULUS;
        }
        if v < 0 || v as usize >= m.state.tdm.size() {
            m.fault = Some(Fault::Mem {
                pc,
                cause: TernaryError::AddressRange {
                    address: v,
                    size: m.state.tdm.size(),
                },
                retired,
            });
            return None;
        }
        Some(v as usize)
    } else {
        let addr = base.wrapping_add(off_word);
        match m.state.tdm.resolve(addr) {
            Ok(idx) => {
                // The base's integer value is derived from the resolved
                // index arithmetically (undoing the offset modulo the
                // balanced word range) instead of a second ternary
                // conversion.
                let mut v = idx as i64 - off;
                if v > Word9::MAX_VALUE {
                    v -= Word9::MODULUS;
                } else if v < -Word9::MAX_VALUE {
                    v += Word9::MODULUS;
                }
                *ic = InlineCache { base, value: v };
                Some(idx)
            }
            Err(cause) => {
                m.fault = Some(Fault::Mem { pc, cause, retired });
                None
            }
        }
    }
}

/// The load body shared by the unfused op and the fused pairs.
/// `false` parks the fault on the machine. (The argument list is the
/// point: every value arrives pre-extracted in registers, no struct
/// indirection on the hot path.)
#[allow(clippy::too_many_arguments)]
#[inline]
fn do_load(
    m: &mut Machine,
    dst_reg: u8,
    base_reg: u8,
    off_word: Word9,
    off: i64,
    site: u32,
    pc: usize,
    retired: u8,
) -> bool {
    let Some(idx) = tdm_index(m, base_reg, off_word, off, site, pc, retired) else {
        return false;
    };
    match m.state.tdm.read(idx) {
        Ok(v) => {
            m.state.trf[dst_reg as usize] = v;
            true
        }
        Err(cause) => {
            m.fault = Some(Fault::Mem { pc, cause, retired });
            false
        }
    }
}

fn x_load(m: &mut Machine, op: &Op) -> Step {
    if do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        Step::Next
    } else {
        Step::Fault
    }
}

/// The store body shared by the unfused op and the fused pairs.
/// `false` parks the fault on the machine. (Same flat-argument
/// convention as `do_load`.)
#[allow(clippy::too_many_arguments)]
#[inline]
fn do_store(
    m: &mut Machine,
    val_reg: u8,
    base_reg: u8,
    off_word: Word9,
    off: i64,
    site: u32,
    pc: usize,
    retired: u8,
) -> bool {
    let v = m.state.trf[val_reg as usize];
    let Some(idx) = tdm_index(m, base_reg, off_word, off, site, pc, retired) else {
        return false;
    };
    match m.state.tdm.write(idx, v) {
        Ok(()) => true,
        Err(cause) => {
            m.fault = Some(Fault::Mem { pc, cause, retired });
            false
        }
    }
}

fn x_store(m: &mut Machine, op: &Op) -> Step {
    if do_store(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        Step::Next
    } else {
        Step::Fault
    }
}

// --- fused pair bodies ---------------------------------------------------
//
// Each fused body applies its two components in program order, so
// intra-pair register dependencies behave exactly as in sequential
// execution. Faultable components (LOAD/STORE) may sit in either
// position: a fault parks how many of the pair's instructions retired
// (the faulting one included, per the architectural convention), so
// the engine settles partial pairs exactly.

fn x_and_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].and(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_or_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].or(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_xor_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].xor(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_mv_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.b as usize];
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_addi_mv(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(op.imm);
    t[op.c as usize] = t[op.d as usize];
    Step::Next
}

fn x_add_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_sub_comp(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_sub(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_mv_mv(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.b as usize];
    t[op.c as usize] = t[op.d as usize];
    Step::Next
}

fn x_mv_addi(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.b as usize];
    t[op.c as usize] = t[op.c as usize].wrapping_add(op.imm2);
    Step::Next
}

fn x_addi_addi(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(op.imm);
    t[op.c as usize] = t[op.c as usize].wrapping_add(op.imm2);
    Step::Next
}

// Fused compare-and-branch terminators: the COMP result lands in the
// register file exactly as unfused, then the branch resolves against
// it. The branch's own address is `op.pc + 1`.

fn x_comp_beq(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].compare(t[op.b as usize]);
    let pc = op.pc as usize + 1;
    let next = if m.state.trf[op.d as usize].lst() == op.cond {
        op.target
    } else {
        pc as i64 + 1
    };
    resolve_next(m, next, pc)
}

fn x_comp_bne(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].compare(t[op.b as usize]);
    let pc = op.pc as usize + 1;
    let next = if m.state.trf[op.d as usize].lst() != op.cond {
        op.target
    } else {
        pc as i64 + 1
    };
    resolve_next(m, next, pc)
}

fn x_add_store(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(t[op.b as usize]);
    if do_store(
        m,
        op.c,
        op.d,
        op.imm2,
        op.target,
        op.site,
        op.pc as usize + 1,
        2,
    ) {
        Step::Next
    } else {
        Step::Fault
    }
}

fn x_addi_store(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(op.imm);
    if do_store(
        m,
        op.c,
        op.d,
        op.imm2,
        op.target,
        op.site,
        op.pc as usize + 1,
        2,
    ) {
        Step::Next
    } else {
        Step::Fault
    }
}

fn x_mv_store(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.b as usize];
    if do_store(
        m,
        op.c,
        op.d,
        op.imm2,
        op.target,
        op.site,
        op.pc as usize + 1,
        2,
    ) {
        Step::Next
    } else {
        Step::Fault
    }
}

fn x_add_load(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(t[op.b as usize]);
    if do_load(
        m,
        op.c,
        op.d,
        op.imm2,
        op.target,
        op.site,
        op.pc as usize + 1,
        2,
    ) {
        Step::Next
    } else {
        Step::Fault
    }
}

fn x_addi_load(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(op.imm);
    if do_load(
        m,
        op.c,
        op.d,
        op.imm2,
        op.target,
        op.site,
        op.pc as usize + 1,
        2,
    ) {
        Step::Next
    } else {
        Step::Fault
    }
}

fn x_mv_load(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.b as usize];
    if do_load(
        m,
        op.c,
        op.d,
        op.imm2,
        op.target,
        op.site,
        op.pc as usize + 1,
        2,
    ) {
        Step::Next
    } else {
        Step::Fault
    }
}

// Memory-first pairs: the first component's site/offset live in
// `site`/`target`, the second's in `site2`/`off2`.

fn x_load_load(m: &mut Machine, op: &Op) -> Step {
    if !do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    if !do_load(
        m,
        op.c,
        op.d,
        op.imm2,
        op.off2 as i64,
        op.site2,
        op.pc as usize + 1,
        2,
    ) {
        return Step::Fault;
    }
    Step::Next
}

fn x_load_store(m: &mut Machine, op: &Op) -> Step {
    if !do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    if !do_store(
        m,
        op.c,
        op.d,
        op.imm2,
        op.off2 as i64,
        op.site2,
        op.pc as usize + 1,
        2,
    ) {
        return Step::Fault;
    }
    Step::Next
}

fn x_store_load(m: &mut Machine, op: &Op) -> Step {
    if !do_store(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    if !do_load(
        m,
        op.c,
        op.d,
        op.imm2,
        op.off2 as i64,
        op.site2,
        op.pc as usize + 1,
        2,
    ) {
        return Step::Fault;
    }
    Step::Next
}

fn x_store_store(m: &mut Machine, op: &Op) -> Step {
    if !do_store(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    if !do_store(
        m,
        op.c,
        op.d,
        op.imm2,
        op.off2 as i64,
        op.site2,
        op.pc as usize + 1,
        2,
    ) {
        return Step::Fault;
    }
    Step::Next
}

fn x_load_mv(m: &mut Machine, op: &Op) -> Step {
    if !do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    let t = &mut m.state.trf;
    t[op.c as usize] = t[op.d as usize];
    Step::Next
}

fn x_store_mv(m: &mut Machine, op: &Op) -> Step {
    if !do_store(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    let t = &mut m.state.trf;
    t[op.c as usize] = t[op.d as usize];
    Step::Next
}

fn x_load_comp(m: &mut Machine, op: &Op) -> Step {
    if !do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    let t = &mut m.state.trf;
    t[op.c as usize] = t[op.c as usize].compare(t[op.d as usize]);
    Step::Next
}

fn x_load_add(m: &mut Machine, op: &Op) -> Step {
    if !do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    let t = &mut m.state.trf;
    t[op.c as usize] = t[op.c as usize].wrapping_add(t[op.d as usize]);
    Step::Next
}

fn x_load_addi(m: &mut Machine, op: &Op) -> Step {
    if !do_load(m, op.a, op.b, op.imm, op.target, op.site, op.pc as usize, 1) {
        return Step::Fault;
    }
    let t = &mut m.state.trf;
    t[op.c as usize] = t[op.c as usize].wrapping_add(op.imm2);
    Step::Next
}

fn x_add_add(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_add(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].wrapping_add(t[op.d as usize]);
    Step::Next
}

fn x_sub_li(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].wrapping_sub(t[op.b as usize]);
    t[op.c as usize] = t[op.c as usize].with_field::<5>(0, op.imm2.field::<5>(0));
    Step::Next
}

fn x_li_sub(m: &mut Machine, op: &Op) -> Step {
    let t = &mut m.state.trf;
    t[op.a as usize] = t[op.a as usize].with_field::<5>(0, op.imm.field::<5>(0));
    t[op.c as usize] = t[op.c as usize].wrapping_sub(t[op.d as usize]);
    Step::Next
}

// --- compilation ---------------------------------------------------------

/// Compiles one instruction into its unfused op, pre-extracting every
/// decode-time quantity.
fn compile_op(instr: &Instruction, pc: usize, link: Word9, sites: &mut u32) -> Op {
    use Instruction::*;
    let r = |t: &TReg| t.index() as u8;
    let mut site = || {
        let s = *sites;
        *sites += 1;
        s
    };
    let mut op = Op {
        exec: x_mv,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        cond: Trit::Z,
        imm: Word9::ZERO,
        imm2: Word9::ZERO,
        target: 0,
        site: u32::MAX,
        off2: 0,
        site2: u32::MAX,
        pc: pc as u32,
        n: 1,
        opcode: instr.opcode() as u8,
        opcode2: 0,
    };
    match instr {
        Mv { a, b } => {
            op.exec = x_mv;
            op.a = r(a);
            op.b = r(b);
        }
        Pti { a, b } => {
            op.exec = x_pti;
            op.a = r(a);
            op.b = r(b);
        }
        Nti { a, b } => {
            op.exec = x_nti;
            op.a = r(a);
            op.b = r(b);
        }
        Sti { a, b } => {
            op.exec = x_sti;
            op.a = r(a);
            op.b = r(b);
        }
        And { a, b } => {
            op.exec = x_and;
            op.a = r(a);
            op.b = r(b);
        }
        Or { a, b } => {
            op.exec = x_or;
            op.a = r(a);
            op.b = r(b);
        }
        Xor { a, b } => {
            op.exec = x_xor;
            op.a = r(a);
            op.b = r(b);
        }
        Add { a, b } => {
            op.exec = x_add;
            op.a = r(a);
            op.b = r(b);
        }
        Sub { a, b } => {
            op.exec = x_sub;
            op.a = r(a);
            op.b = r(b);
        }
        Sr { a, b } => {
            op.exec = x_sr;
            op.a = r(a);
            op.b = r(b);
        }
        Sl { a, b } => {
            op.exec = x_sl;
            op.a = r(a);
            op.b = r(b);
        }
        Comp { a, b } => {
            op.exec = x_comp;
            op.a = r(a);
            op.b = r(b);
        }
        Andi { a, imm } => {
            op.exec = x_andi;
            op.a = r(a);
            op.imm = imm.resize::<9>();
        }
        Addi { a, imm } => {
            op.exec = x_addi;
            op.a = r(a);
            op.imm = imm.resize::<9>();
        }
        // Balanced shift amounts resolve at compile time: a negative
        // amount reverses the direction (DESIGN.md §3.2).
        Sri { a, imm } => {
            let v = imm.to_i64();
            op.exec = if v >= 0 { x_shr_k } else { x_shl_k };
            op.a = r(a);
            op.c = v.unsigned_abs() as u8;
        }
        Sli { a, imm } => {
            let v = imm.to_i64();
            op.exec = if v >= 0 { x_shl_k } else { x_shr_k };
            op.a = r(a);
            op.c = v.unsigned_abs() as u8;
        }
        Lui { a, imm } => {
            op.exec = x_const;
            op.a = r(a);
            op.imm = Word9::ZERO.with_field::<4>(5, *imm);
        }
        Li { a, imm } => {
            op.exec = x_li;
            op.a = r(a);
            op.imm = Word9::ZERO.with_field::<5>(0, *imm);
        }
        Beq { b, cond, offset } => {
            op.exec = x_beq;
            op.b = r(b);
            op.cond = *cond;
            op.target = pc as i64 + offset.to_i64();
        }
        Bne { b, cond, offset } => {
            op.exec = x_bne;
            op.b = r(b);
            op.cond = *cond;
            op.target = pc as i64 + offset.to_i64();
        }
        Jal { a, offset } => {
            op.exec = x_jal;
            op.a = r(a);
            op.imm = link;
            op.target = pc as i64 + offset.to_i64();
        }
        Jalr { a, b, offset } => {
            op.exec = x_jalr;
            op.a = r(a);
            op.b = r(b);
            op.imm = link;
            op.imm2 = offset.resize::<9>();
            op.site = site();
        }
        Load { a, b, offset } => {
            op.exec = x_load;
            op.a = r(a);
            op.b = r(b);
            op.imm = offset.resize::<9>();
            op.target = offset.to_i64();
            op.site = site();
        }
        Store { a, b, offset } => {
            op.exec = x_store;
            op.a = r(a);
            op.b = r(b);
            op.imm = offset.resize::<9>();
            op.target = offset.to_i64();
            op.site = site();
        }
    }
    op
}

/// Fuses two adjacent unfused ops into one, when the pair matches a
/// known-hot shape. Components keep program order inside the fused
/// body, so `None` is only about profitability, never correctness.
fn fuse(first: &Op, second: &Op, i1: &Instruction, i2: &Instruction) -> Option<Op> {
    use Instruction::*;
    let exec: ExecFn = match (i1, i2) {
        (And { .. }, Comp { .. }) => x_and_comp,
        (Or { .. }, Comp { .. }) => x_or_comp,
        (Xor { .. }, Comp { .. }) => x_xor_comp,
        (Mv { .. }, Comp { .. }) => x_mv_comp,
        (Add { .. }, Comp { .. }) => x_add_comp,
        (Sub { .. }, Comp { .. }) => x_sub_comp,
        (Mv { .. }, Mv { .. }) => x_mv_mv,
        (Mv { .. }, Addi { .. }) => x_mv_addi,
        (Addi { .. }, Mv { .. }) => x_addi_mv,
        (Addi { .. }, Addi { .. }) => x_addi_addi,
        (Add { .. }, Add { .. }) => x_add_add,
        (Sub { .. }, Li { .. }) => x_sub_li,
        (Li { .. }, Sub { .. }) => x_li_sub,
        (Add { .. }, Store { .. }) => x_add_store,
        (Addi { .. }, Store { .. }) => x_addi_store,
        (Mv { .. }, Store { .. }) => x_mv_store,
        (Add { .. }, Load { .. }) => x_add_load,
        (Addi { .. }, Load { .. }) => x_addi_load,
        (Mv { .. }, Load { .. }) => x_mv_load,
        (Load { .. }, Load { .. }) => x_load_load,
        (Load { .. }, Store { .. }) => x_load_store,
        (Store { .. }, Load { .. }) => x_store_load,
        (Store { .. }, Store { .. }) => x_store_store,
        (Load { .. }, Mv { .. }) => x_load_mv,
        (Store { .. }, Mv { .. }) => x_store_mv,
        (Load { .. }, Comp { .. }) => x_load_comp,
        (Load { .. }, Add { .. }) => x_load_add,
        (Load { .. }, Addi { .. }) => x_load_addi,
        (Comp { .. }, Beq { .. }) => x_comp_beq,
        (Comp { .. }, Bne { .. }) => x_comp_bne,
        _ => return None,
    };
    // `site`/`target` carry the first component's memory-access data
    // when the first component is a memory op, otherwise the second's
    // (the second's then also lands in `site2`/`off2`, which only the
    // memory-first pair bodies read).
    let mem_first = matches!(i1, Load { .. } | Store { .. });
    Some(Op {
        exec,
        a: first.a,
        b: first.b,
        c: second.a,
        d: second.b,
        cond: second.cond,
        imm: first.imm,
        imm2: second.imm,
        target: if mem_first {
            first.target
        } else {
            second.target
        },
        site: if mem_first { first.site } else { second.site },
        off2: second.target as i32,
        site2: second.site,
        pc: first.pc,
        n: 2,
        opcode: first.opcode,
        opcode2: second.opcode,
    })
}

impl ThreadedCode {
    /// Compiles the whole image: unfused ops, block heads over the link
    /// table, superblocks, and the fused hot sequences.
    pub(crate) fn compile(image: &PredecodedProgram) -> Self {
        let text = image.text_arc();
        let links = image.links_arc();
        let len = text.len();
        let mut sites: u32 = 0;
        let ops: Vec<Op> = text
            .iter()
            .enumerate()
            .map(|(pc, i)| compile_op(i, pc, links[pc], &mut sites))
            .collect();

        // Block heads: the entry point, every static in-range control
        // target, and every successor of a control transfer (JALR
        // targets are dynamic; landing mid-block falls back to precise
        // stepping until the next head).
        let mut head = vec![false; len];
        if len > 0 {
            head[0] = true;
        }
        for (pc, instr) in text.iter().enumerate() {
            if !instr.is_control_flow() {
                continue;
            }
            if pc + 1 < len {
                head[pc + 1] = true;
            }
            let target = match instr {
                Instruction::Beq { offset, .. } | Instruction::Bne { offset, .. } => {
                    Some(pc as i64 + offset.to_i64())
                }
                Instruction::Jal { offset, .. } => Some(pc as i64 + offset.to_i64()),
                _ => None,
            };
            if let Some(t) = target {
                if t >= 0 && (t as usize) < len {
                    head[t as usize] = true;
                }
            }
        }

        let mut blocks = Vec::new();
        let mut block_idx = vec![u32::MAX; len];
        let mut block_of = vec![u32::MAX; len];
        let mut start = 0usize;
        while start < len {
            // `end` is the inclusive index of the block's last
            // instruction: extend until a control-flow terminator, the
            // next head, or the end of text.
            let mut end = start;
            while !text[end].is_control_flow() && end + 1 < len && !head[end + 1] {
                end += 1;
            }
            let exit = if text[end].is_control_flow() {
                BlockExit::Terminator
            } else if end + 1 == len {
                BlockExit::OffEnd
            } else {
                BlockExit::Seq(end + 1)
            };

            let mut fused = Vec::new();
            let mut i = start;
            while i <= end {
                if i < end {
                    if let Some(f) = fuse(&ops[i], &ops[i + 1], &text[i], &text[i + 1]) {
                        fused.push(f);
                        i += 2;
                        continue;
                    }
                }
                fused.push(ops[i]);
                i += 1;
            }

            let mut counts = [0u32; Instruction::OPCODE_COUNT];
            for instr in text[start..=end].iter() {
                counts[instr.opcode()] += 1;
            }
            let mix: Vec<(u8, u32)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(o, &c)| (o as u8, c))
                .collect();

            block_idx[start] = blocks.len() as u32;
            for slot in block_of.iter_mut().take(end + 1).skip(start) {
                *slot = blocks.len() as u32;
            }
            blocks.push(Block {
                start,
                len: end - start + 1,
                fused,
                exit,
                mix,
            });
            start = end + 1;
        }

        ThreadedCode {
            ops,
            blocks,
            block_idx,
            block_of,
            sites: sites as usize,
        }
    }
}

/// The direct-threaded instruction-set simulator — architecturally
/// identical to [`FunctionalSim`](crate::FunctionalSim), several times
/// faster. The module-level docs describe the compilation pipeline.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Backend, Budget, Core, SimBuilder};
///
/// let program = assemble("
///     LI   t3, 10
///     LI   t4, 0
/// loop:
///     ADD  t4, t3
///     ADDI t3, -1
///     MV   t7, t3
///     COMP t7, t0
///     BEQ  t7, +, loop
///     JAL  t0, 0
/// ")?;
/// let mut sim = SimBuilder::new(&program)
///     .backend(Backend::Threaded)
///     .build();
/// sim.run_for(Budget::Steps(10_000))?;
/// assert_eq!(sim.state().reg("t4".parse()?).to_i64(), 55);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ThreadedSim {
    code: Arc<ThreadedCode>,
    /// The architectural machine; its `mix` holds the directly-counted
    /// part of the dynamic mix.
    arch: Arch,
    icache: Vec<InlineCache>,
    /// Completed executions per superblock. The hot loop bumps one
    /// counter per block run; the per-opcode mix is materialized
    /// lazily by `full_mix` (the precise step path and partial blocks
    /// still credit `mix` directly).
    block_execs: Vec<u64>,
    observers: ObserverSet,
}

impl ThreadedSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        observers: ObserverSet,
    ) -> Self {
        let code = image.threaded_code();
        let icache = vec![InlineCache::default(); code.sites];
        let block_execs = vec![0; code.blocks.len()];
        Self {
            code,
            arch: Arch::new(image, tdm_words),
            icache,
            block_execs,
            observers,
        }
    }

    /// Materializes the dynamic mix: the directly-counted portion (the
    /// precise step path and partial blocks) plus each block's sparse
    /// static mix scaled by how many times it ran to completion.
    fn full_mix(&self) -> [u64; Instruction::OPCODE_COUNT] {
        let mut mix = self.arch.mix;
        for (block, &execs) in self.code.blocks.iter().zip(&self.block_execs) {
            if execs == 0 {
                continue;
            }
            for &(opcode, count) in &block.mix {
                mix[opcode as usize] += count as u64 * execs;
            }
        }
        mix
    }

    /// Dynamic instruction mix: executed count per mnemonic. Fused ops
    /// contribute one count per architectural component, so this always
    /// matches unfused execution exactly.
    pub fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.full_mix())
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

    /// The superblock spans the compiler formed, as `(start_pc, len)`
    /// pairs in address order. Block boundaries are the static
    /// control-flow targets and successors; every instruction belongs
    /// to exactly one block.
    pub fn superblocks(&self) -> Vec<(usize, usize)> {
        self.code.blocks.iter().map(|b| (b.start, b.len)).collect()
    }

    /// Number of fused instruction pairs across the compiled hot
    /// sequences (each retires two architectural instructions per
    /// execution).
    pub fn fused_pairs(&self) -> usize {
        self.code
            .blocks
            .iter()
            .flat_map(|b| b.fused.iter())
            .filter(|op| op.n == 2)
            .count()
    }

    /// Number of inline-cached TDM base sites (one per static
    /// LOAD/STORE occurrence).
    pub fn inline_cache_sites(&self) -> usize {
        self.code.sites
    }

    /// Runs until halt or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the budget is exhausted, plus any fault
    /// from stepping.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, SimError> {
        let summary = Core::run_for(self, Budget::Steps(max_steps))?;
        match summary.halt {
            Some(halt) => Ok(RunResult {
                instructions: self.arch.instructions,
                halt,
            }),
            None => Err(SimError::Timeout { limit: max_steps }),
        }
    }

    fn convert_fault(&self, fault: Fault) -> SimError {
        match fault {
            Fault::Mem { pc, cause, .. } => SimError::MemoryFault { pc, cause },
            Fault::Wild { target, .. } => SimError::PcOutOfRange {
                at: self.arch.instructions,
                pc: target,
                tim_size: self.code.ops.len(),
            },
        }
    }

    /// The block-dispatch hot loop: executes whole superblocks for as
    /// long as the remaining budget covers the next one. The PC, the
    /// budget countdown and the step count live in locals (and the
    /// [`Machine`] is constructed once), so block-to-block transfers
    /// cost no memory round-trips through `self`.
    ///
    /// Returns the halt reason if the machine halted, or `None` when it
    /// stopped because the fast path cannot continue — a mid-block PC
    /// (e.g. a dynamic JALR landing) or a budget smaller than the next
    /// block — in which case the caller falls back to precise stepping.
    fn run_fast(
        &mut self,
        steps: &mut u64,
        remaining: &mut u64,
    ) -> Result<Option<HaltReason>, SimError> {
        let code = Arc::clone(&self.code);
        let text_len = code.ops.len();
        let mut retired = 0u64;
        let mut halt = None;
        let mut failed: Option<(u32, usize)> = None;
        let mut fault = None;
        {
            let mut m = Machine {
                state: &mut self.arch.state,
                icache: &mut self.icache,
                text_len,
                fault: None,
            };
            let mut pc = m.state.pc;
            'blocks: while pc < code.block_idx.len() {
                let bi = code.block_idx[pc];
                if bi == u32::MAX {
                    // Mid-block landing (a dynamic JALR target that
                    // isn't a static head): dispatch the unfused tail
                    // of the covering block, then rejoin fused block
                    // dispatch at the next head. Accounting is per-op
                    // here — the deferred block counters only describe
                    // whole-block executions.
                    let block = &code.blocks[code.block_of[pc] as usize];
                    let end = block.start + block.len;
                    if (end - pc) as u64 > *remaining {
                        break;
                    }
                    let ops = &code.ops[pc..end];
                    let mut taken = Step::Next;
                    let mut executed = ops.len();
                    for (k, op) in ops.iter().enumerate() {
                        match (op.exec)(&mut m, op) {
                            Step::Next => {}
                            Step::Fault => {
                                executed = k + 1;
                                fault = m.fault.take();
                                break;
                            }
                            s => {
                                executed = k + 1;
                                taken = s;
                                break;
                            }
                        }
                    }
                    // Accounting settles once per tail run (the op
                    // slice is still cache-hot); a faulting op counts
                    // as retired, matching the functional backend.
                    retired += executed as u64;
                    *steps += executed as u64;
                    *remaining -= executed as u64;
                    for op in &ops[..executed] {
                        self.arch.mix[op.opcode as usize] += 1;
                    }
                    if fault.is_some() {
                        break 'blocks;
                    }
                    match taken {
                        Step::Next => match block.exit {
                            BlockExit::Seq(next) => pc = next,
                            BlockExit::OffEnd => {
                                pc = text_len;
                                halt = Some(HaltReason::FellOffEnd);
                                break;
                            }
                            BlockExit::Terminator => {
                                unreachable!("terminator fell through")
                            }
                        },
                        Step::Jump(next) => pc = next as usize,
                        Step::Halt(reason, final_pc) => {
                            pc = final_pc as usize;
                            halt = Some(reason);
                            break;
                        }
                        Step::Fault => unreachable!("fault breaks the block loop"),
                    }
                    continue;
                }
                let block = &code.blocks[bi as usize];
                let blen = block.len as u64;
                if blen > *remaining {
                    break;
                }
                let mut taken = Step::Next;
                for op in &block.fused {
                    match (op.exec)(&mut m, op) {
                        Step::Next => {}
                        Step::Fault => {
                            // The op's index is recovered from the
                            // reference offset — only this cold path
                            // pays for it, not the hot loop.
                            let base = block.fused.as_ptr() as usize;
                            let i = (op as *const Op as usize - base) / std::mem::size_of::<Op>();
                            failed = Some((bi, i));
                            fault = m.fault.take();
                            break 'blocks;
                        }
                        s => {
                            taken = s;
                            break; // only the terminator transfers
                        }
                    }
                }
                // Mix accounting is deferred: one counter bump per
                // block, the sparse per-opcode counts are folded in
                // lazily by `full_mix`.
                retired += blen;
                *steps += blen;
                *remaining -= blen;
                self.block_execs[bi as usize] += 1;
                match taken {
                    Step::Next => match block.exit {
                        BlockExit::Seq(next) => pc = next,
                        BlockExit::OffEnd => {
                            pc = text_len;
                            halt = Some(HaltReason::FellOffEnd);
                            break;
                        }
                        // A terminator op always yields Jump or Halt.
                        BlockExit::Terminator => unreachable!("terminator fell through"),
                    },
                    Step::Jump(next) => pc = next as usize,
                    Step::Halt(reason, final_pc) => {
                        pc = final_pc as usize;
                        halt = Some(reason);
                        break;
                    }
                    Step::Fault => unreachable!("fault breaks the block loop"),
                }
            }
            m.state.pc = pc;
        }
        self.arch.instructions += retired;
        if let Some(fault) = fault {
            // A fused-block fault needs its partial block settled
            // precisely: every fused op before the fault in full, plus
            // however many of the faulting op's components retired
            // (the faulting instruction counts as retired, matching
            // the functional backend). A tail fault was already
            // accounted per-op.
            if let Some((bi, i)) = failed {
                let block = &code.blocks[bi as usize];
                for done in &block.fused[..i] {
                    self.arch.instructions += done.n as u64;
                    self.arch.mix[done.opcode as usize] += 1;
                    if done.n == 2 {
                        self.arch.mix[done.opcode2 as usize] += 1;
                    }
                }
                let at = &block.fused[i];
                let partial = match &fault {
                    Fault::Mem { retired, .. } => *retired,
                    Fault::Wild { .. } => at.n,
                };
                self.arch.instructions += partial as u64;
                self.arch.mix[at.opcode as usize] += 1;
                if partial == 2 {
                    self.arch.mix[at.opcode2 as usize] += 1;
                }
            }
            self.arch.state.pc = match &fault {
                Fault::Mem { pc, .. } => *pc,
                Fault::Wild { at_pc, .. } => *at_pc as usize,
            };
            return Err(self.convert_fault(fault));
        }
        if let Some(reason) = halt {
            self.arch.halted = Some(reason);
        }
        Ok(halt)
    }
}

impl Core for ThreadedSim {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        with_events!(self.observers, |ev| self.arch.step(ev))
    }

    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        // Observed runs step the shared instruction definition, with
        // every observer locked once for the whole call.
        let observers = self.observers.clone();
        if let Some(mut ev) = observers.lock() {
            return run_loop(self, budget, |c| c.arch.step(&mut ev));
        }
        let mut steps = 0u64;
        // Steps and retired instructions advance in lockstep (every
        // architectural instruction is one step), so either budget
        // collapses to a single countdown computed once up front.
        let mut remaining = match budget {
            Budget::Steps(n) => n,
            Budget::Retired(n) => n.saturating_sub(self.arch.instructions),
        };
        loop {
            if self.arch.halted.is_some() || remaining == 0 {
                return Ok(RunSummary {
                    steps,
                    retired: self.arch.instructions,
                    halt: self.arch.halted,
                });
            }
            // Whole superblocks — and unfused block tails after a
            // dynamic mid-block landing — while the budget covers them
            // (the only budget checks are at those boundaries)…
            let halted = self.run_fast(&mut steps, &mut remaining)?.is_some();
            if !halted && remaining > 0 {
                // …then one precise step: the budget is smaller than
                // the next dispatch unit (the budget tail).
                self.arch.step(&mut NoEvents)?;
                steps += 1;
                remaining -= 1;
            }
        }
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
        ThreadedSim::instruction_mix(self)
    }

    fn snapshot(&self) -> Checkpoint {
        self.arch.snapshot(Backend::Threaded, self.full_mix())
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        self.arch.restore(Backend::Threaded, checkpoint)?;
        // The restored mix is fully materialized, so the deferred
        // block counters start over from zero.
        self.block_execs.fill(0);
        // The inline caches are keyed purely on base-word values, so
        // stale entries stay correct across a restore.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::assemble;

    fn pair(src: &str) -> (crate::FunctionalSim, ThreadedSim) {
        let p = assemble(src).unwrap();
        let b = SimBuilder::new(&p);
        (b.build_functional(), b.build_threaded())
    }

    const COUNTDOWN: &str = "LI t3, 10\nLI t4, 0\nloop:\nADD t4, t3\nADDI t3, -1\n\
                             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n";

    #[test]
    fn countdown_matches_functional_exactly() {
        let (mut f, mut t) = pair(COUNTDOWN);
        f.run(1_000_000).unwrap();
        t.run(1_000_000).unwrap();
        assert_eq!(t.state().reg(TReg::T4).to_i64(), 55);
        assert_eq!(t.halted(), Some(HaltReason::JumpToSelf));
        assert_eq!(f.state().first_difference(t.state()), None);
        assert_eq!(f.state().pc, t.state().pc);
        assert_eq!(f.instructions(), t.instructions());
        assert_eq!(f.instruction_mix(), t.instruction_mix());
    }

    #[test]
    fn fused_hot_path_and_precise_stepping_agree() {
        // Whole-run fused execution vs pure step() must retire the same
        // counts, mix and state.
        let p = assemble(COUNTDOWN).unwrap();
        let b = SimBuilder::new(&p);
        let mut hot = b.build_threaded();
        hot.run(1_000_000).unwrap();
        let mut precise = b.build_threaded();
        while Core::step(&mut precise).unwrap().is_none() {}
        assert_eq!(hot.state().first_difference(precise.state()), None);
        assert_eq!(hot.state().pc, precise.state().pc);
        assert_eq!(hot.instructions(), precise.instructions());
        assert_eq!(hot.instruction_mix(), precise.instruction_mix());
        assert!(hot.fused_pairs() > 0, "countdown loop has fusable pairs");
    }

    #[test]
    fn budget_cuts_are_exact_even_mid_block() {
        let p = assemble(COUNTDOWN).unwrap();
        let b = SimBuilder::new(&p);
        for cut in 0..30u64 {
            let mut sim = b.build_threaded();
            let summary = Core::run_for(&mut sim, Budget::Steps(cut)).unwrap();
            if summary.halt.is_none() {
                assert_eq!(sim.instructions(), cut, "steps budget is exact");
                assert_eq!(summary.steps, cut);
            }
            let mut sim = b.build_threaded();
            let summary = Core::run_for(&mut sim, Budget::Retired(cut)).unwrap();
            if summary.halt.is_none() {
                assert_eq!(sim.instructions(), cut, "retired budget is exact");
            }
            // Resuming after any cut still finishes identically.
            let mut rest = b.build_functional();
            rest.run(1_000_000).unwrap();
            let mut sliced = b.build_threaded();
            Core::run_for(&mut sliced, Budget::Steps(cut)).unwrap();
            Core::run_for(&mut sliced, Budget::Steps(1_000_000)).unwrap();
            assert_eq!(rest.state().first_difference(sliced.state()), None);
            assert_eq!(rest.instructions(), sliced.instructions());
        }
    }

    #[test]
    fn load_store_uses_the_inline_cache() {
        let src = "
            .data
            v: .word 41, 0
            .text
            LI t2, 0
            LOAD t3, t2, 0
            ADDI t3, 1
            STORE t3, t2, 1
            LOAD t4, t2, 1
            JAL t0, 0
        ";
        let (mut f, mut t) = pair(src);
        f.run(1_000).unwrap();
        t.run(1_000).unwrap();
        assert_eq!(t.state().reg(TReg::T4).to_i64(), 42);
        assert_eq!(t.inline_cache_sites(), 3);
        assert_eq!(f.state().first_difference(t.state()), None);
    }

    #[test]
    fn memory_fault_matches_functional() {
        let src = "LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\n";
        let (mut f, mut t) = pair(src);
        let fe = f.run(100).unwrap_err();
        let te = t.run(100).unwrap_err();
        assert_eq!(fe, te);
        assert_eq!(f.instructions(), t.instructions());
        assert_eq!(f.state().pc, t.state().pc);
    }

    #[test]
    fn wild_jump_matches_functional() {
        let src = "LI t2, 121\nJALR t0, t2, 0\n";
        let (mut f, mut t) = pair(src);
        let fe = f.run(100).unwrap_err();
        let te = t.run(100).unwrap_err();
        assert_eq!(fe, te);
        assert_eq!(f.instructions(), t.instructions());
    }

    #[test]
    fn inline_cache_hits_in_a_loop_match_functional() {
        // The same static LOAD/STORE site executes five times with a
        // constant base: one cold miss, then four cache hits. The hit
        // path must read/write the exact words the full ternary resolve
        // would.
        let src = "
            LI t3, 5
            LI t2, 100
        loop:
            LOAD t4, t2, 1
            ADDI t4, 1
            STORE t4, t2, 1
            ADDI t3, -1
            MV t7, t3
            COMP t7, t0
            BEQ t7, +, loop
            JAL t0, 0
        ";
        let (mut f, mut t) = pair(src);
        f.run(10_000).unwrap();
        t.run(10_000).unwrap();
        assert_eq!(t.state().tdm.read(101).unwrap().to_i64(), 5);
        assert_eq!(f.state().first_difference(t.state()), None);
        assert_eq!(f.instruction_mix(), t.instruction_mix());
    }

    #[test]
    fn empty_program_halts_cleanly() {
        let image = PredecodedProgram::from_tim_image(&[], &[]).unwrap();
        let mut sim = SimBuilder::new(&image).build_threaded();
        assert_eq!(Core::step(&mut sim).unwrap(), Some(HaltReason::FellOffEnd));
        assert_eq!(sim.instructions(), 0);
        let summary = Core::run_for(&mut sim, Budget::Steps(10)).unwrap();
        assert_eq!(summary.halt, Some(HaltReason::FellOffEnd));
    }

    #[test]
    fn superblocks_partition_the_text() {
        let p = assemble(COUNTDOWN).unwrap();
        let sim = SimBuilder::new(&p).build_threaded();
        let blocks = sim.superblocks();
        // Blocks tile [0, len) without gaps or overlaps.
        let mut next = 0usize;
        for (start, len) in &blocks {
            assert_eq!(*start, next);
            assert!(*len > 0);
            next = start + len;
        }
        assert_eq!(next, p.text().len());
    }

    #[test]
    fn shift_immediates_compile_to_constant_shifts() {
        // SLI/SRI with positive and negative amounts (negative reverses
        // direction) against the shared `shift` semantics.
        let src = "LI t3, 10\nSLI t3, 2\nSRI t3, 1\nMV t4, t3\nSLI t4, -1\nJAL t0, 0\n";
        let (mut f, mut t) = pair(src);
        f.run(100).unwrap();
        t.run(100).unwrap();
        assert_eq!(f.state().first_difference(t.state()), None);
    }
}
