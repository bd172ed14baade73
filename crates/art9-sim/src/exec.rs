//! Shared instruction semantics.
//!
//! The simulators delegate here so they cannot drift apart: the TALU
//! result function, the shift-amount interpretation, the branch
//! condition, and effective-address computation live in exactly one
//! place, and [`execute`] is the one definition of a whole
//! instruction — its register and memory effects, its next PC, and the
//! observer events it fires — for the functional backend and the
//! threaded backend's precise and observed path. The pipeline ≡
//! functional equivalence property test (crate tests) then checks the
//! *timing* model, not re-derived semantics.

use art9_isa::Instruction;
use ternary::{TernaryError, Trit, Trits, Word9};

use crate::functional::CoreState;
use crate::observer::{Events, MemWrite, MemoryAccess, RegWrite, Writeback};

/// Interprets a 2-trit balanced shift amount: magnitude |v| in the
/// direction of the operation for `v ≥ 0`, reversed for `v < 0`
/// (DESIGN.md §3.2).
///
/// Returns `(left, amount)` where `left == true` means shift left.
fn shift_spec(base_left: bool, amount: Trits<2>) -> (bool, usize) {
    let v = amount.to_i64();
    if v >= 0 {
        (base_left, v as usize)
    } else {
        (!base_left, (-v) as usize)
    }
}

/// Applies a shift with the balanced 2-trit amount semantics.
///
/// # Examples
///
/// ```
/// use art9_sim::shift;
/// use ternary::{Trits, Word9};
///
/// let x = Word9::from_i64(10)?;
/// let amt = Trits::<2>::from_i64(2)?;
/// assert_eq!(shift(x, false, amt).to_i64(), 1);  // SR by 2: round(10/9)
/// assert_eq!(shift(x, true, amt).to_i64(), 90);  // SL by 2: x * 9
/// let neg = Trits::<2>::from_i64(-1)?;
/// assert_eq!(shift(x, false, neg).to_i64(), 30); // SR by -1 == SL by 1
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn shift(value: Word9, base_left: bool, amount: Trits<2>) -> Word9 {
    let (left, k) = shift_spec(base_left, amount);
    if left {
        value.shl(k)
    } else {
        value.shr(k)
    }
}

/// The ternary ALU: computes the EX-stage result for every instruction
/// that produces one.
///
/// * `a` — the value read from `TRF[Ta]` (destination-and-source),
/// * `b` — the value read from `TRF[Tb]` (or zero when unused),
/// * `link` — `PC + 1` as a word, used by JAL/JALR.
///
/// For LOAD/STORE the returned value is the effective address
/// `b + offset`; for STORE the datum travels separately. For branches
/// the result is unused (zero).
pub fn talu(instr: &Instruction, a: Word9, b: Word9, link: Word9) -> Word9 {
    use Instruction::*;
    match instr {
        Mv { .. } => b,
        Pti { .. } => b.pti(),
        Nti { .. } => b.nti(),
        Sti { .. } => b.sti(),
        And { .. } => a.and(b),
        Or { .. } => a.or(b),
        Xor { .. } => a.xor(b),
        Add { .. } => a.wrapping_add(b),
        Sub { .. } => a.wrapping_sub(b),
        Sr { .. } => shift(a, false, b.field::<2>(0)),
        Sl { .. } => shift(a, true, b.field::<2>(0)),
        Comp { .. } => a.compare(b),
        Andi { imm, .. } => a.and(imm.resize::<9>()),
        Addi { imm, .. } => a.wrapping_add(imm.resize::<9>()),
        Sri { imm, .. } => shift(a, false, *imm),
        Sli { imm, .. } => shift(a, true, *imm),
        // LUI: {imm[3:0], 00000}
        Lui { imm, .. } => Word9::ZERO.with_field::<4>(5, *imm),
        // LI: {TRF[Ta][8:5], imm[4:0]} — upper trits of the old value kept.
        Li { imm, .. } => a.with_field::<5>(0, *imm),
        Beq { .. } | Bne { .. } => Word9::ZERO,
        Jal { .. } | Jalr { .. } => link,
        Load { offset, .. } | Store { offset, .. } => b.wrapping_add(offset.resize::<9>()),
    }
}

/// Evaluates the B-type condition against the LST of the condition
/// register (paper §IV-A: BEQ taken iff `TRF[Tb][0] == B`, BNE iff `!=`).
pub fn branch_taken(instr: &Instruction, lst: Trit) -> bool {
    match instr {
        Instruction::Beq { cond, .. } => lst == *cond,
        Instruction::Bne { cond, .. } => lst != *cond,
        _ => false,
    }
}

/// Computes the next PC for a control-flow instruction resolved at
/// instruction address `pc` with source value `b` (for JALR).
///
/// Returns `None` for non-control-flow or a not-taken branch.
pub fn control_target(instr: &Instruction, pc: usize, lst: Trit, b: Word9) -> Option<i64> {
    use Instruction::*;
    match instr {
        Beq { offset, .. } | Bne { offset, .. } => {
            branch_taken(instr, lst).then(|| pc as i64 + offset.to_i64())
        }
        Jal { offset, .. } => Some(pc as i64 + offset.to_i64()),
        Jalr { offset, .. } => Some(b.wrapping_add(offset.resize::<9>()).to_i64()),
        _ => None,
    }
}

/// Reads the operand values an instruction consumes: `(a_val, b_val)`.
///
/// `a_val` is the current value of the `Ta` register for instructions
/// that read it (zero otherwise); `b_val` the `Tb` register value (zero
/// when the instruction has no `Tb`).
fn operand_values(instr: &Instruction, state: &CoreState) -> (Word9, Word9) {
    use Instruction::*;
    let a_val = match instr {
        And { a, .. }
        | Or { a, .. }
        | Xor { a, .. }
        | Add { a, .. }
        | Sub { a, .. }
        | Sr { a, .. }
        | Sl { a, .. }
        | Comp { a, .. }
        | Andi { a, .. }
        | Addi { a, .. }
        | Sri { a, .. }
        | Sli { a, .. }
        | Li { a, .. }
        | Store { a, .. } => state.reg(*a),
        _ => Word9::ZERO,
    };
    let b_val = match instr {
        Mv { b, .. }
        | Pti { b, .. }
        | Nti { b, .. }
        | Sti { b, .. }
        | And { b, .. }
        | Or { b, .. }
        | Xor { b, .. }
        | Add { b, .. }
        | Sub { b, .. }
        | Sr { b, .. }
        | Sl { b, .. }
        | Comp { b, .. }
        | Beq { b, .. }
        | Bne { b, .. }
        | Jalr { b, .. }
        | Load { b, .. }
        | Store { b, .. } => state.reg(*b),
        _ => Word9::ZERO,
    };
    (a_val, b_val)
}

/// Why [`execute`] did not retire its instruction.
pub(crate) enum ExecFault {
    /// The TDM access faulted.
    Mem(TernaryError),
    /// The control transfer targeted this address, outside the
    /// instruction memory.
    Wild(i64),
}

/// Executes the instruction at `pc` against `state` and returns the
/// next PC: `pc` itself for a jump-to-self, `text_len` for falling off
/// the end. `link` is `pc + 1` as a word. `state.pc` is left for the
/// caller to move.
///
/// Events fire in the order the [`Observer`](crate::Observer) contract
/// fixes: the memory access as it completes, then the control
/// resolution, the write-back and the retirement. A faulting
/// instruction fires none of the last three.
#[inline(always)]
pub(crate) fn execute<E: Events>(
    instr: &Instruction,
    pc: usize,
    link: Word9,
    text_len: usize,
    state: &mut CoreState,
    ev: &mut E,
) -> Result<usize, ExecFault> {
    let (a_val, b_val) = operand_values(instr, state);
    let result = talu(instr, a_val, b_val, link);
    // Old destination value, captured before any write so the
    // write-back event can report the overwritten contents.
    let dest = instr.writes();
    let old_reg = if E::ACTIVE {
        dest.map(|d| state.reg(d))
    } else {
        None
    };
    let mut mem = None;
    match *instr {
        Instruction::Load { a, .. } => {
            let address = state.tdm.resolve(result).map_err(ExecFault::Mem)?;
            let v = state.tdm.read(address).expect("resolved in range");
            state.set_reg(a, v);
            ev.memory(&MemoryAccess {
                pc,
                address,
                value: v,
                is_write: false,
            });
        }
        Instruction::Store { .. } => {
            let address = state.tdm.resolve(result).map_err(ExecFault::Mem)?;
            let old = state.tdm.read(address).expect("resolved in range");
            state.tdm.write(address, a_val).expect("resolved in range");
            ev.memory(&MemoryAccess {
                pc,
                address,
                value: a_val,
                is_write: true,
            });
            mem = Some(MemWrite {
                address,
                old,
                new: a_val,
            });
        }
        _ => {
            if let Some(d) = dest {
                state.set_reg(d, result);
            }
        }
    }

    let (next, taken) = match control_target(instr, pc, b_val.lst(), b_val) {
        Some(target) if target < 0 || target as usize > text_len => {
            return Err(ExecFault::Wild(target))
        }
        Some(target) => (target as usize, true),
        None => (pc + 1, false),
    };

    if E::ACTIVE {
        if instr.is_control_flow() {
            ev.control(pc, instr, taken, next);
        }
        ev.writeback(&Writeback {
            pc,
            instr: *instr,
            reg: dest.map(|d| RegWrite {
                reg: d,
                old: old_reg.expect("captured above"),
                new: state.reg(d),
            }),
            mem,
            bus: result,
        });
        ev.retire(pc, instr, state);
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_isa::TReg;
    use ternary::Trits;

    fn w(v: i64) -> Word9 {
        Word9::from_i64(v).unwrap()
    }

    #[test]
    fn alu_arithmetic() {
        use Instruction::*;
        let add = Add {
            a: TReg::T3,
            b: TReg::T4,
        };
        assert_eq!(talu(&add, w(100), w(-30), Word9::ZERO).to_i64(), 70);
        let sub = Sub {
            a: TReg::T3,
            b: TReg::T4,
        };
        assert_eq!(talu(&sub, w(100), w(-30), Word9::ZERO).to_i64(), 130);
    }

    #[test]
    fn alu_single_source_ops_use_b() {
        use Instruction::*;
        let mv = Mv {
            a: TReg::T3,
            b: TReg::T4,
        };
        assert_eq!(talu(&mv, w(1), w(2), Word9::ZERO).to_i64(), 2);
        let sti = Sti {
            a: TReg::T3,
            b: TReg::T4,
        };
        assert_eq!(talu(&sti, w(1), w(2), Word9::ZERO).to_i64(), -2);
    }

    #[test]
    fn lui_li_compose_full_constants() {
        use Instruction::*;
        // Build 1000: hi/lo split then LUI+LI.
        let (hi, lo) = art9_isa::asm::split_hi_lo(1000);
        let lui = Lui {
            a: TReg::T3,
            imm: Trits::<4>::from_i64(hi).unwrap(),
        };
        let upper = talu(&lui, Word9::ZERO, Word9::ZERO, Word9::ZERO);
        assert_eq!(upper.to_i64(), hi * 243);
        let li = Li {
            a: TReg::T3,
            imm: Trits::<5>::from_i64(lo).unwrap(),
        };
        let full = talu(&li, upper, Word9::ZERO, Word9::ZERO);
        assert_eq!(full.to_i64(), 1000);
    }

    #[test]
    fn li_preserves_upper_trits() {
        use Instruction::*;
        let old = w(40 * 243); // upper trits only
        let li = Li {
            a: TReg::T3,
            imm: Trits::<5>::from_i64(-121).unwrap(),
        };
        assert_eq!(
            talu(&li, old, Word9::ZERO, Word9::ZERO).to_i64(),
            40 * 243 - 121
        );
    }

    #[test]
    fn shift_amount_field_comes_from_low_two_trits() {
        use Instruction::*;
        let sl = Sl {
            a: TReg::T3,
            b: TReg::T4,
        };
        // b = 11 -> low 2 trits of 11 = 11 mod 9 (balanced) = 2.
        let b = w(11); // 11 = +102? 11 = 9+3-1 => trits (lsb) [-1,+1,+1]; low2 = -1+3 = 2
        assert_eq!(talu(&sl, w(5), b, Word9::ZERO).to_i64(), 45);
    }

    #[test]
    fn negative_shift_reverses_direction() {
        let amt = Trits::<2>::from_i64(-2).unwrap();
        assert_eq!(shift(w(5), true, amt).to_i64(), 1); // SL by -2 = SR by 2
        assert_eq!(shift(w(5), false, amt).to_i64(), 45); // SR by -2 = SL by 2
    }

    #[test]
    fn branch_conditions() {
        use Instruction::*;
        let beq = Beq {
            b: TReg::T3,
            cond: Trit::P,
            offset: Trits::ZERO,
        };
        assert!(branch_taken(&beq, Trit::P));
        assert!(!branch_taken(&beq, Trit::Z));
        let bne = Bne {
            b: TReg::T3,
            cond: Trit::P,
            offset: Trits::ZERO,
        };
        assert!(!branch_taken(&bne, Trit::P));
        assert!(branch_taken(&bne, Trit::N));
    }

    #[test]
    fn control_targets() {
        use Instruction::*;
        let jal = Jal {
            a: TReg::T1,
            offset: Trits::<5>::from_i64(-3).unwrap(),
        };
        assert_eq!(control_target(&jal, 10, Trit::Z, Word9::ZERO), Some(7));
        let jalr = Jalr {
            a: TReg::T1,
            b: TReg::T2,
            offset: Trits::<3>::from_i64(2).unwrap(),
        };
        assert_eq!(control_target(&jalr, 10, Trit::Z, w(100)), Some(102));
        let beq = Beq {
            b: TReg::T3,
            cond: Trit::Z,
            offset: Trits::<4>::from_i64(5).unwrap(),
        };
        assert_eq!(control_target(&beq, 10, Trit::Z, Word9::ZERO), Some(15));
        assert_eq!(control_target(&beq, 10, Trit::P, Word9::ZERO), None);
        let add = Add {
            a: TReg::T3,
            b: TReg::T4,
        };
        assert_eq!(control_target(&add, 10, Trit::Z, Word9::ZERO), None);
    }

    #[test]
    fn jal_link_value_passes_through_alu() {
        use Instruction::*;
        let jal = Jal {
            a: TReg::T1,
            offset: Trits::ZERO,
        };
        assert_eq!(talu(&jal, Word9::ZERO, Word9::ZERO, w(11)).to_i64(), 11);
    }
}
