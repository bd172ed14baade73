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
//! * **Fused op sequences** for the adjacent pairs of the `op_kinds!`
//!   table (the `COMP`+branch loop idiom, `ADDI`/`MV` chains, address
//!   arithmetic next to a LOAD/STORE, memory pairs): one host call
//!   retires two architectural instructions by running the two
//!   single-op bodies in program order.
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
//! — goes through the shared instruction definition in `exec.rs`, the
//! same code the functional backend runs, and so does a `run_for` with
//! observers attached, unless the only one attached hands over its
//! trit-flip counters ([`Observer::flip_counters`](crate::Observer::flip_counters);
//! [`EnergyAccounting::new`](crate::observers::EnergyAccounting::new)
//! does). Then whole superblocks keep running fused and count flips
//! inline:
//!
//! * the op bodies are written once, generic over a [`Sink`] they
//!   report every register write, TDM write and result-bus value to —
//!   [`NoFlips`] compiles the reporting away, [`Flips`] adds each
//!   write's flips (the packed `flips_from` kernel) to the observer's
//!   per-opcode counters;
//! * fetch flips between consecutive instructions of a block are static:
//!   compilation sums them per block and opcode next to the block's
//!   instruction mix, and a `run_for` folds them in from per-block
//!   execution counts, the way the mix is folded. Only the block-entry
//!   edge, against the fetch word the previous block left, is counted
//!   at run time.
//!
//! Observers therefore see the functional backend's event sequence, and
//! the energy counters come out bit-identical, by construction. The
//! backend implements the full [`Core`] contract: exact
//! `instruction_mix` accounting across fused ops, and bit-identical
//! [`Checkpoint`] snapshot/restore at any architectural boundary —
//! checkpoints cross-restore between the architectural backends.

use std::ops::Range;
use std::sync::Arc;

use art9_isa::{Instruction, TReg};
use ternary::{TernaryError, Trit, Trits, Word9};

use crate::checkpoint::Checkpoint;
use crate::core::{run_loop, Backend, Budget, Core, RunSummary};
use crate::error::SimError;
use crate::exec::shift;
use crate::functional::{Arch, CoreState, HaltReason, RunResult};
use crate::observer::observers::FlipCounters;
use crate::observer::{with_events, Events, NoEvents, ObserverSet};
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
struct Fault {
    /// Address of the faulting instruction, which may be the second
    /// component of a fused pair.
    pc: u32,
    /// Architectural instructions of the faulting (possibly fused) op
    /// that retired, the faulting one included: its component's
    /// [`Operands::n`]. Partial fused pairs settle from it exactly.
    retired: u8,
    cause: Cause,
}

enum Cause {
    /// TDM access violation.
    Mem(TernaryError),
    /// Control transfer to this address, outside the instruction
    /// memory.
    Wild(i64),
}

/// The host code behind one compiled op, reporting to sink `S`.
type ExecFn<S> = fn(&mut Machine<'_, S>, &Op) -> Step;

/// The mutable execution context handed to every [`ExecFn`].
struct Machine<'m, S> {
    state: &'m mut CoreState,
    icache: &'m mut [InlineCache],
    text_len: usize,
    /// Fault payload parked by an op that returned [`Step::Fault`].
    fault: Option<Fault>,
    /// Where the op bodies report what they write.
    sink: S,
}

impl<S: Sink> Machine<'_, S> {
    /// Reads register `r`.
    #[inline(always)]
    fn r(&self, r: u8) -> Word9 {
        self.state.trf[r as usize]
    }

    /// Writes `v` to register `r` as the result of an `opcode`
    /// instruction, which also drives it onto the result bus.
    #[inline(always)]
    fn set(&mut self, r: u8, opcode: u8, v: Word9) {
        let old = std::mem::replace(&mut self.state.trf[r as usize], v);
        self.sink.reg(opcode, old, v);
        self.sink.bus(opcode, v);
    }

    /// Parks `cause` as the fault of component `o`.
    #[cold]
    fn park(&mut self, o: Operands, cause: Cause) {
        self.fault = Some(Fault {
            pc: o.pc,
            retired: o.n,
            cause,
        });
    }
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

/// One compiled instruction, or a fused pair of two, with
/// pre-extracted operands: the first component's in the unsuffixed
/// fields, a fused second component's in the `2` fields. Unused fields
/// are zero; which fields are live is determined by `kind`.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// The body of `kind` for [`NoFlips`], cached so the unobserved hot
    /// loop calls it without a lookup.
    exec: ExecFn<NoFlips>,
    /// `Ta` register index.
    a: u8,
    /// `Tb` register index.
    b: u8,
    a2: u8,
    b2: u8,
    /// Branch condition trit. Only a lone op or a second component
    /// branches: a branch ends its block, so it never comes first.
    cond: Trit,
    /// Pre-resized immediate / LOAD/STORE offset / link word / LUI
    /// constant.
    imm: Word9,
    imm2: Word9,
    /// Static branch/JAL target, LOAD/STORE/JALR offset as an integer,
    /// or a constant shift count.
    target: i32,
    target2: i32,
    /// Inline-cache site of a LOAD/STORE/JALR (`u32::MAX`: none).
    site: u32,
    site2: u32,
    /// Address of the first instruction.
    pc: u32,
    /// Which body runs the op (and so how many instructions it
    /// retires, [`Kind::n`]).
    kind: Kind,
    /// Dense opcode.
    opcode: u8,
    opcode2: u8,
}

// Every image the service caches keeps one op per instruction plus the
// fused sequences alive: the record stays at its nine words.
const _: () = assert!(std::mem::size_of::<Op>() <= 72);

/// What one component of an [`Op`] reads: the operands a single-op
/// body runs on.
#[derive(Clone, Copy)]
struct Operands {
    a: u8,
    b: u8,
    cond: Trit,
    opcode: u8,
    /// Architectural instructions of the op that have retired once this
    /// component retires: 1 for the first, 2 for a fused second.
    n: u8,
    imm: Word9,
    target: i32,
    site: u32,
    /// The component's own address.
    pc: u32,
}

impl Op {
    /// The first (or only) component.
    #[inline(always)]
    fn first(&self) -> Operands {
        Operands {
            a: self.a,
            b: self.b,
            cond: self.cond,
            opcode: self.opcode,
            n: 1,
            imm: self.imm,
            target: self.target,
            site: self.site,
            pc: self.pc,
        }
    }

    /// The second component of a fused pair, at the next address.
    #[inline(always)]
    fn second(&self) -> Operands {
        Operands {
            a: self.a2,
            b: self.b2,
            cond: self.cond,
            opcode: self.opcode2,
            n: 2,
            imm: self.imm2,
            target: self.target2,
            site: self.site2,
            pc: self.pc + 1,
        }
    }
}

/// Where execution continues after a superblock completes without a
/// control transfer of its own.
#[derive(Debug, Clone, Copy)]
enum BlockExit {
    /// The block ends in a control-flow op, which produces its own
    /// [`Step`].
    Terminator,
    /// Straight-line fall-through into the next block head.
    Seq(u32),
    /// The block's last instruction is the last of the program: falling
    /// through halts ([`HaltReason::FellOffEnd`]).
    OffEnd,
}

/// Blocks are capped at this many instructions, so per-block opcode
/// counts fit a [`MixEntry`].
const MAX_BLOCK_LEN: usize = u16::MAX as usize;

/// One superblock: a maximal straight-line run of instructions entered
/// only at its head.
#[derive(Debug)]
struct Block {
    /// Address of the block head.
    start: u32,
    /// Architectural instructions the block covers (and retires, every
    /// time it executes — the terminator retires whether or not it
    /// takes its transfer).
    len: u32,
    /// The fused op sequence the hot path runs, as a range of
    /// [`ThreadedCode::fused`].
    fused: Range<u32>,
    /// How control leaves when no terminator transfer fires.
    exit: BlockExit,
    /// Sparse per-opcode shares of the block (counts sum to `len`),
    /// applied in one shot per completed execution; a range of
    /// [`ThreadedCode::mix`].
    mix: Range<u32>,
    /// The fetch word of the block's first instruction: its flips
    /// against the word before are the block's one run-time fetch cost.
    fetch_in: FetchWord,
    /// The fetch word of the block's last instruction, which the next
    /// block's entry is counted against.
    fetch_out: FetchWord,
}

/// One opcode's share of a block.
#[derive(Debug, Clone, Copy)]
struct MixEntry {
    /// Fetch flips of this opcode's instructions against their in-block
    /// predecessors (the block's first instruction has none here: its
    /// entry edge depends on where control came from).
    fetch: u32,
    /// The block's instructions with this opcode.
    count: u16,
    opcode: u8,
}

/// The fetch path's two words — the encoded instruction in trits 0–8,
/// the PC word in trits 9–17 — joined so one flip count covers both.
type FetchWord = Trits<18>;

/// Joins an encoded instruction word and a PC word into a [`FetchWord`].
fn fetch_word(instr: Word9, pc: Word9) -> FetchWord {
    let ((ip, ineg), (pp, pneg)) = (instr.bitplanes(), pc.bitplanes());
    FetchWord::from_bitplanes(ip | pp << 9, ineg | pneg << 9)
        .expect("two 9-trit words fill 18 trits")
}

/// Where the op bodies report what they write. Each body is written
/// once, generic over it: [`NoFlips`] compiles the reporting away,
/// [`Flips`] counts trit flips inline.
trait Sink: Sized {
    /// `false` only for [`NoFlips`]; guards work done solely to count.
    const COUNTS: bool;
    /// The body that runs `op` under this sink.
    fn body(op: &Op) -> ExecFn<Self>;
    /// An `opcode` instruction overwrote register value `old` with
    /// `new`.
    fn reg(&mut self, opcode: u8, old: Word9, new: Word9);
    /// A STORE overwrote TDM word `old` with `new`.
    fn tdm(&mut self, opcode: u8, old: Word9, new: Word9);
    /// An `opcode` instruction drove `bus` onto the result bus.
    fn bus(&mut self, opcode: u8, bus: Word9);
    /// `block`, whose fused ops are `fused`, ran to completion.
    fn block(&mut self, block: &Block, fused: &[Op]);
    /// `done` instructions from `start` on, inside one block, retired
    /// outside a whole-block run — a mid-block tail, or the part of a
    /// block before a fault — and settle one instruction at a time.
    fn steps(&mut self, code: &ThreadedCode, text: &[Instruction], start: usize, done: usize);
}

/// The unobserved sink: every report is a no-op.
struct NoFlips;

impl Sink for NoFlips {
    const COUNTS: bool = false;
    #[inline(always)]
    fn body(op: &Op) -> ExecFn<Self> {
        op.exec
    }
    #[inline(always)]
    fn reg(&mut self, _: u8, _: Word9, _: Word9) {}
    #[inline(always)]
    fn tdm(&mut self, _: u8, _: Word9, _: Word9) {}
    #[inline(always)]
    fn bus(&mut self, _: u8, _: Word9) {}
    #[inline(always)]
    fn block(&mut self, _: &Block, _: &[Op]) {}
    fn steps(&mut self, _: &ThreadedCode, _: &[Instruction], _: usize, _: usize) {}
}

/// Counts trit flips inline into an energy observer's counters,
/// borrowed for one `run_fast` call. The previous fetch words are
/// loaded (joined) when it is made and stored back when it drops, so
/// the event path — and the next call — continues from them.
/// Retirements and in-block fetch flips of whole blocks are left to
/// `ThreadedSim::fold_flips`.
struct Flips<'c> {
    counters: &'c mut FlipCounters,
    fetch: FetchWord,
}

impl<'c> Flips<'c> {
    fn new(counters: &'c mut FlipCounters) -> Self {
        let fetch = fetch_word(counters.prev_instr, counters.prev_pc);
        Self { counters, fetch }
    }
}

impl Drop for Flips<'_> {
    fn drop(&mut self) {
        let (pos, neg) = self.fetch.bitplanes();
        let word = |p: u64, n: u64| Word9::from_bitplanes(p & 0x1ff, n & 0x1ff).expect("9 trits");
        self.counters.prev_instr = word(pos, neg);
        self.counters.prev_pc = word(pos >> 9, neg >> 9);
    }
}

impl Sink for Flips<'_> {
    const COUNTS: bool = true;
    #[inline(always)]
    fn body(op: &Op) -> ExecFn<Self> {
        op.kind.body()
    }
    #[inline(always)]
    fn reg(&mut self, opcode: u8, old: Word9, new: Word9) {
        self.counters.per_opcode[opcode as usize].regfile += u64::from(new.flips_from(&old));
    }
    #[inline(always)]
    fn tdm(&mut self, opcode: u8, old: Word9, new: Word9) {
        self.counters.per_opcode[opcode as usize].tdm += u64::from(new.flips_from(&old));
    }
    #[inline(always)]
    fn bus(&mut self, opcode: u8, bus: Word9) {
        let c = &mut *self.counters;
        c.per_opcode[opcode as usize].alu += u64::from(bus.flips_from(&c.prev_bus));
        c.prev_bus = bus;
    }
    #[inline(always)]
    fn block(&mut self, block: &Block, fused: &[Op]) {
        let first = &mut self.counters.per_opcode[fused[0].opcode as usize];
        first.fetch += u64::from(block.fetch_in.flips_from(&self.fetch));
        self.fetch = block.fetch_out;
    }
    fn steps(&mut self, code: &ThreadedCode, text: &[Instruction], start: usize, done: usize) {
        if done == 0 {
            return;
        }
        let word = |pc: usize| {
            fetch_word(
                art9_isa::encode(&text[pc]),
                Word9::from_i64_wrapping(pc as i64),
            )
        };
        // Only the first edge depends on where control came from; the
        // others are the block's static in-block edges.
        let first = &mut self.counters.per_opcode[text[start].opcode()];
        first.fetch += u64::from(word(start).flips_from(&self.fetch));
        for (pc, instr) in text.iter().enumerate().skip(start).take(done) {
            let acc = &mut self.counters.per_opcode[instr.opcode()];
            acc.retired += 1;
            if pc > start {
                acc.fetch += u64::from(code.fetch_flips[pc]);
            }
        }
        let last = start + done - 1;
        let block = &code.blocks[code.block_of[last] as usize];
        self.fetch = if last + 1 == (block.start + block.len) as usize {
            block.fetch_out
        } else {
            word(last)
        };
    }
}

/// The compiled program: shared, immutable, compiled once per
/// [`PredecodedProgram`] image (cached on the image itself) and reused
/// by every [`ThreadedSim`] built from it.
#[derive(Debug)]
pub(crate) struct ThreadedCode {
    /// One unfused op per pc — the unfused tail of a block entered
    /// mid-way.
    ops: Vec<Op>,
    blocks: Box<[Block]>,
    /// Every block's fused op sequence, back to back in block order.
    fused: Vec<Op>,
    /// Every block's per-opcode shares, back to back in block order.
    mix: Vec<MixEntry>,
    /// pc → fetch flips against pc − 1, which the instructions of a
    /// block that ran one op at a time count from.
    fetch_flips: Vec<u8>,
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

/// Declares the op bodies and the fusion table: the [`Kind`] an [`Op`]
/// stores to name its body, and each body's instantiation for any
/// [`Sink`]. A single kind runs its body on the op's only component. A
/// pair kind `p = f + g` runs body `f` on the first component and then,
/// unless that faulted, body `g` on the second: program order, so
/// intra-pair register dependencies behave exactly as in sequential
/// execution, and a fault in either component parks how many of the
/// pair's instructions retired.
macro_rules! op_kinds {
    (single: $($s:ident),+; pairs: $($p:ident = $f:ident + $g:ident),+ $(,)?) => {
        /// Which body an [`Op`] runs.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        enum Kind {
            $($s,)+
            $($p,)+
        }

        impl Kind {
            /// Every pair kind, in table order, with its components'
            /// body names.
            const PAIRS: &'static [(Kind, &'static str, &'static str)] =
                &[$((Kind::$p, stringify!($f), stringify!($g))),+];

            /// This kind's body, reporting to `S`.
            #[inline(always)]
            fn body<S: Sink>(self) -> ExecFn<S> {
                match self {
                    $(Kind::$s => |m, op| $s(m, op.first()),)+
                    $(Kind::$p => |m, op| match $f(m, op.first()) {
                        Step::Next => $g(m, op.second()),
                        step => step,
                    },)+
                }
            }

            /// Architectural instructions an op of this kind retires.
            fn n(self) -> u8 {
                match self {
                    $(Kind::$p)|+ => 2,
                    _ => 1,
                }
            }

            /// The pair kind that fuses a `first` op with the `second`
            /// right after it, if the table has one.
            fn pair(first: Kind, second: Kind) -> Option<Kind> {
                match (first, second) {
                    $((Kind::$f, Kind::$g) => Some(Kind::$p),)+
                    _ => None,
                }
            }
        }
    };
}

op_kinds! {
    single: x_mv, x_pti, x_nti, x_sti, x_and, x_or, x_xor, x_add, x_sub,
        x_sr, x_sl, x_comp, x_andi, x_addi, x_shl_k, x_shr_k, x_const, x_li,
        x_beq, x_bne, x_jal, x_jalr, x_load, x_store;
    // The adjacent pairs that fuse: the compare-and-branch loop idiom,
    // register moves and increments, address arithmetic next to a
    // LOAD/STORE, and LOAD/STORE with each other and with what uses a
    // loaded value.
    pairs:
        x_mv_comp = x_mv + x_comp,
        x_comp_beq = x_comp + x_beq,
        x_comp_bne = x_comp + x_bne,
        x_mv_addi = x_mv + x_addi,
        x_addi_mv = x_addi + x_mv,
        x_addi_addi = x_addi + x_addi,
        x_add_add = x_add + x_add,
        x_sub_li = x_sub + x_li,
        x_li_sub = x_li + x_sub,
        x_add_load = x_add + x_load,
        x_addi_load = x_addi + x_load,
        x_mv_load = x_mv + x_load,
        x_add_store = x_add + x_store,
        x_addi_store = x_addi + x_store,
        x_mv_store = x_mv + x_store,
        x_load_load = x_load + x_load,
        x_load_store = x_load + x_store,
        x_store_load = x_store + x_load,
        x_store_store = x_store + x_store,
        x_load_mv = x_load + x_mv,
        x_store_mv = x_store + x_mv,
        x_load_comp = x_load + x_comp,
        x_load_add = x_load + x_add,
        x_load_addi = x_load + x_addi,
}

// --- op bodies -----------------------------------------------------------
//
// One body per instruction. Each mirrors `talu` + the functional step
// for exactly that instruction, with every decode-time quantity
// pre-extracted into its `Operands`, and reports each write to the sink
// as it lands. Every body inlines into the single-op and the pair
// bodies `op_kinds!` generates from it. The differential fuzz oracles
// and the cross-backend property tests hold these to the shared
// semantics in `exec.rs`, and the energy oracle holds the reports to
// its write-back events.

#[inline(always)]
fn x_mv<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.b));
    Step::Next
}

#[inline(always)]
fn x_pti<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.b).pti());
    Step::Next
}

#[inline(always)]
fn x_nti<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.b).nti());
    Step::Next
}

#[inline(always)]
fn x_sti<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.b).sti());
    Step::Next
}

#[inline(always)]
fn x_and<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).and(m.r(o.b)));
    Step::Next
}

#[inline(always)]
fn x_or<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).or(m.r(o.b)));
    Step::Next
}

#[inline(always)]
fn x_xor<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).xor(m.r(o.b)));
    Step::Next
}

#[inline(always)]
fn x_add<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).wrapping_add(m.r(o.b)));
    Step::Next
}

#[inline(always)]
fn x_sub<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).wrapping_sub(m.r(o.b)));
    Step::Next
}

#[inline(always)]
fn x_sr<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    let amt = m.r(o.b).field::<2>(0);
    m.set(o.a, o.opcode, shift(m.r(o.a), false, amt));
    Step::Next
}

#[inline(always)]
fn x_sl<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    let amt = m.r(o.b).field::<2>(0);
    m.set(o.a, o.opcode, shift(m.r(o.a), true, amt));
    Step::Next
}

#[inline(always)]
fn x_comp<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).compare(m.r(o.b)));
    Step::Next
}

#[inline(always)]
fn x_andi<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).and(o.imm));
    Step::Next
}

#[inline(always)]
fn x_addi<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).wrapping_add(o.imm));
    Step::Next
}

// SRI/SLI resolve their balanced shift amount at compile time, so the
// run-time body is a bare shl/shr by a constant count.
#[inline(always)]
fn x_shl_k<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).shl(o.target as usize));
    Step::Next
}

#[inline(always)]
fn x_shr_k<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, m.r(o.a).shr(o.target as usize));
    Step::Next
}

// LUI's whole result is a compile-time constant.
#[inline(always)]
fn x_const<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(o.a, o.opcode, o.imm);
    Step::Next
}

#[inline(always)]
fn x_li<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    m.set(
        o.a,
        o.opcode,
        m.r(o.a).with_field::<5>(0, o.imm.field::<5>(0)),
    );
    Step::Next
}

/// Classifies a computed next-PC of component `o` exactly like the
/// functional step: in-range → jump, own address → jump-to-self halt,
/// text length → fell-off-end halt, anything else → wild-transfer
/// fault.
#[inline(always)]
fn resolve_next<S: Sink>(m: &mut Machine<S>, o: Operands, target: i64) -> Step {
    if target < 0 || target as usize > m.text_len {
        m.park(o, Cause::Wild(target));
        return Step::Fault;
    }
    let t = target as usize;
    if t == o.pc as usize {
        Step::Halt(HaltReason::JumpToSelf, o.pc)
    } else if t == m.text_len {
        Step::Halt(HaltReason::FellOffEnd, t as u32)
    } else {
        Step::Jump(t as u32)
    }
}

/// Resolves a conditional branch to its static target when `taken`,
/// else to the next address. A branch drives zero onto the result bus
/// — when it retires, which a wild transfer does not.
#[inline(always)]
fn branch<S: Sink>(m: &mut Machine<S>, o: Operands, taken: bool) -> Step {
    let next = if taken { o.target } else { o.pc as i32 + 1 };
    let step = resolve_next(m, o, i64::from(next));
    if !matches!(step, Step::Fault) {
        m.sink.bus(o.opcode, Word9::ZERO);
    }
    step
}

/// Resolves a JAL/JALR to `target` once its precomputed link word
/// `o.imm` (pc + 1) has landed in `Ta`. The write is reported only when
/// the transfer retires: a wild transfer writes its link but fires no
/// write-back.
#[inline(always)]
fn link<S: Sink>(m: &mut Machine<S>, o: Operands, target: i64) -> Step {
    let old = std::mem::replace(&mut m.state.trf[o.a as usize], o.imm);
    let step = resolve_next(m, o, target);
    if !matches!(step, Step::Fault) {
        m.sink.reg(o.opcode, old, o.imm);
        m.sink.bus(o.opcode, o.imm);
    }
    step
}

#[inline(always)]
fn x_beq<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    let taken = m.r(o.b).lst() == o.cond;
    branch(m, o, taken)
}

#[inline(always)]
fn x_bne<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    let taken = m.r(o.b).lst() != o.cond;
    branch(m, o, taken)
}

#[inline(always)]
fn x_jal<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    link(m, o, i64::from(o.target))
}

#[inline(always)]
fn x_jalr<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    // Target reads Tb before the link write lands in Ta (a == b case).
    // Each JALR site inline-caches its last base word next to the
    // computed target (return addresses repeat heavily), skipping the
    // balanced-ternary conversion on a hit.
    let w = m.r(o.b);
    let ic = &mut m.icache[o.site as usize];
    let target = if ic.base == w {
        ic.value
    } else {
        let t = wrap(w.to_i64() + i64::from(o.target));
        *ic = InlineCache { base: w, value: t };
        t
    };
    link(m, o, target)
}

/// `v` wrapped into the balanced 9-trit range, for `v` less than one
/// modulus outside it: the integer image of `wrapping_add`.
#[inline(always)]
fn wrap(v: i64) -> i64 {
    if v > Word9::MAX_VALUE {
        v - Word9::MODULUS
    } else if v < -Word9::MAX_VALUE {
        v + Word9::MODULUS
    } else {
        v
    }
}

/// Resolves the effective address `base + offset` of LOAD/STORE `o`
/// through its site's inline cache: on a base-word hit the address is
/// an integer add with one conditional balanced wrap (matching
/// `wrapping_add` exactly); on a miss, the full ternary resolve runs
/// and refills the cache. `None` parks the fault on the machine.
#[inline(always)]
fn tdm_index<S: Sink>(m: &mut Machine<S>, base: Word9, o: Operands) -> Option<usize> {
    let off = i64::from(o.target);
    let ic = &mut m.icache[o.site as usize];
    if ic.base == base {
        let v = wrap(ic.value + off);
        let size = m.state.tdm.size();
        if v < 0 || v as usize >= size {
            let cause = TernaryError::AddressRange { address: v, size };
            m.park(o, Cause::Mem(cause));
            return None;
        }
        Some(v as usize)
    } else {
        match m.state.tdm.resolve(base.wrapping_add(o.imm)) {
            Ok(idx) => {
                // The base's integer value is derived from the resolved
                // index arithmetically (undoing the offset modulo the
                // balanced word range) instead of a second ternary
                // conversion.
                *ic = InlineCache {
                    base,
                    value: wrap(idx as i64 - off),
                };
                Some(idx)
            }
            Err(cause) => {
                m.park(o, Cause::Mem(cause));
                None
            }
        }
    }
}

#[inline(always)]
fn x_load<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    let base = m.r(o.b);
    let Some(idx) = tdm_index(m, base, o) else {
        return Step::Fault;
    };
    match m.state.tdm.read(idx) {
        Ok(v) => {
            let old = std::mem::replace(&mut m.state.trf[o.a as usize], v);
            m.sink.reg(o.opcode, old, v);
            if S::COUNTS {
                // The effective address is what drives the result bus.
                m.sink.bus(o.opcode, base.wrapping_add(o.imm));
            }
            Step::Next
        }
        Err(cause) => {
            m.park(o, Cause::Mem(cause));
            Step::Fault
        }
    }
}

#[inline(always)]
fn x_store<S: Sink>(m: &mut Machine<S>, o: Operands) -> Step {
    let v = m.r(o.a);
    let base = m.r(o.b);
    let Some(idx) = tdm_index(m, base, o) else {
        return Step::Fault;
    };
    let old = if S::COUNTS {
        m.state.tdm.read(idx).ok()
    } else {
        None
    };
    match m.state.tdm.write(idx, v) {
        Ok(()) => {
            if let Some(old) = old {
                m.sink.tdm(o.opcode, old, v);
                m.sink.bus(o.opcode, base.wrapping_add(o.imm));
            }
            Step::Next
        }
        Err(cause) => {
            m.park(o, Cause::Mem(cause));
            Step::Fault
        }
    }
}

// --- compilation ---------------------------------------------------------

/// Compiles one instruction into its unfused op, pre-extracting every
/// decode-time quantity.
fn compile_op(instr: &Instruction, pc: usize, link: Word9, sites: &mut u32) -> Op {
    use Instruction::*;
    let r = |t: &TReg| t.index() as u8;
    let kind = match instr {
        Mv { .. } => Kind::x_mv,
        Pti { .. } => Kind::x_pti,
        Nti { .. } => Kind::x_nti,
        Sti { .. } => Kind::x_sti,
        And { .. } => Kind::x_and,
        Or { .. } => Kind::x_or,
        Xor { .. } => Kind::x_xor,
        Add { .. } => Kind::x_add,
        Sub { .. } => Kind::x_sub,
        Sr { .. } => Kind::x_sr,
        Sl { .. } => Kind::x_sl,
        Comp { .. } => Kind::x_comp,
        Andi { .. } => Kind::x_andi,
        Addi { .. } => Kind::x_addi,
        // Balanced shift amounts resolve at compile time: a negative
        // amount reverses the direction (DESIGN.md §3.2).
        Sri { imm, .. } if imm.to_i64() >= 0 => Kind::x_shr_k,
        Sli { imm, .. } if imm.to_i64() < 0 => Kind::x_shr_k,
        Sri { .. } | Sli { .. } => Kind::x_shl_k,
        Lui { .. } => Kind::x_const,
        Li { .. } => Kind::x_li,
        Beq { .. } => Kind::x_beq,
        Bne { .. } => Kind::x_bne,
        Jal { .. } => Kind::x_jal,
        Jalr { .. } => Kind::x_jalr,
        Load { .. } => Kind::x_load,
        Store { .. } => Kind::x_store,
    };
    let mut op = Op {
        exec: kind.body(),
        a: 0,
        b: 0,
        a2: 0,
        b2: 0,
        cond: Trit::Z,
        imm: Word9::ZERO,
        imm2: Word9::ZERO,
        target: 0,
        target2: 0,
        site: u32::MAX,
        site2: u32::MAX,
        pc: pc as u32,
        kind,
        opcode: instr.opcode() as u8,
        opcode2: 0,
    };
    match instr {
        Mv { a, b }
        | Pti { a, b }
        | Nti { a, b }
        | Sti { a, b }
        | And { a, b }
        | Or { a, b }
        | Xor { a, b }
        | Add { a, b }
        | Sub { a, b }
        | Sr { a, b }
        | Sl { a, b }
        | Comp { a, b } => {
            op.a = r(a);
            op.b = r(b);
        }
        Andi { a, imm } | Addi { a, imm } => {
            op.a = r(a);
            op.imm = imm.resize::<9>();
        }
        Sri { a, imm } | Sli { a, imm } => {
            op.a = r(a);
            op.target = imm.to_i64().abs() as i32;
        }
        Lui { a, imm } => {
            op.a = r(a);
            op.imm = Word9::ZERO.with_field::<4>(5, *imm);
        }
        Li { a, imm } => {
            op.a = r(a);
            op.imm = Word9::ZERO.with_field::<5>(0, *imm);
        }
        Beq { b, cond, offset } | Bne { b, cond, offset } => {
            op.b = r(b);
            op.cond = *cond;
            op.target = pc as i32 + offset.to_i64() as i32;
        }
        Jal { a, offset } => {
            op.a = r(a);
            op.imm = link;
            op.target = pc as i32 + offset.to_i64() as i32;
        }
        Jalr { a, b, offset } | Load { a, b, offset } | Store { a, b, offset } => {
            op.a = r(a);
            op.b = r(b);
            // A JALR's `imm` is its link word.
            op.imm = if matches!(instr, Jalr { .. }) {
                link
            } else {
                offset.resize::<9>()
            };
            op.target = offset.to_i64() as i32;
            op.site = *sites;
            *sites += 1;
        }
    }
    op
}

/// Fuses two adjacent unfused ops into one when the table has their
/// pair. Components keep program order inside the fused body, so
/// `None` is only about profitability, never correctness.
fn fuse(first: &Op, second: &Op) -> Option<Op> {
    let kind = Kind::pair(first.kind, second.kind)?;
    Some(Op {
        exec: kind.body(),
        kind,
        a2: second.a,
        b2: second.b,
        cond: second.cond,
        imm2: second.imm,
        target2: second.target,
        site2: second.site,
        opcode2: second.opcode,
        ..*first
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
        // The fetch word per pc; the PC word of `pc` is the link word
        // of `pc - 1`.
        let fetch: Vec<FetchWord> = text
            .iter()
            .enumerate()
            .map(|(pc, i)| {
                let pc_word = pc.checked_sub(1).map_or(Word9::ZERO, |p| links[p]);
                fetch_word(art9_isa::encode(i), pc_word)
            })
            .collect();
        let fetch_flips: Vec<u8> = (0..len)
            .map(|pc| match pc {
                0 => 0,
                _ => fetch[pc].flips_from(&fetch[pc - 1]) as u8,
            })
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
        let mut all_fused = Vec::with_capacity(len);
        let mut all_mix = Vec::new();
        let mut block_idx = vec![u32::MAX; len];
        let mut block_of = vec![u32::MAX; len];
        let mut start = 0usize;
        while start < len {
            // `end` is the inclusive index of the block's last
            // instruction: extend until a control-flow terminator, the
            // next head, the length cap or the end of text.
            let mut end = start;
            while !text[end].is_control_flow()
                && end + 1 < len
                && !head[end + 1]
                && end + 1 - start < MAX_BLOCK_LEN
            {
                end += 1;
            }
            let exit = if text[end].is_control_flow() {
                BlockExit::Terminator
            } else if end + 1 == len {
                BlockExit::OffEnd
            } else {
                BlockExit::Seq(end as u32 + 1)
            };

            let fused_at = all_fused.len() as u32;
            let mut i = start;
            while i <= end {
                if i < end {
                    if let Some(f) = fuse(&ops[i], &ops[i + 1]) {
                        all_fused.push(f);
                        i += 2;
                        continue;
                    }
                }
                all_fused.push(ops[i]);
                i += 1;
            }

            let mut shares = [(0u16, 0u32); Instruction::OPCODE_COUNT];
            for pc in start..=end {
                let share = &mut shares[text[pc].opcode()];
                share.0 += 1;
                if pc > start {
                    share.1 += u32::from(fetch_flips[pc]);
                }
            }
            let mix_at = all_mix.len() as u32;
            all_mix.extend(shares.iter().enumerate().filter(|(_, s)| s.0 > 0).map(
                |(o, &(count, fetch))| MixEntry {
                    fetch,
                    count,
                    opcode: o as u8,
                },
            ));

            block_idx[start] = blocks.len() as u32;
            for slot in block_of.iter_mut().take(end + 1).skip(start) {
                *slot = blocks.len() as u32;
            }
            blocks.push(Block {
                start: start as u32,
                len: (end - start + 1) as u32,
                fused: fused_at..all_fused.len() as u32,
                exit,
                mix: mix_at..all_mix.len() as u32,
                fetch_in: fetch[start],
                fetch_out: fetch[end],
            });
            start = end + 1;
        }

        all_fused.shrink_to_fit();
        all_mix.shrink_to_fit();
        ThreadedCode {
            ops,
            blocks: blocks.into(),
            fused: all_fused,
            mix: all_mix,
            fetch_flips,
            block_idx,
            block_of,
            sites: sites as usize,
        }
    }

    /// The fused op sequence of `block`.
    fn fused_ops(&self, block: &Block) -> &[Op] {
        &self.fused[block.fused.start as usize..block.fused.end as usize]
    }

    /// The per-opcode shares of `block`.
    fn mix_of(&self, block: &Block) -> &[MixEntry] {
        &self.mix[block.mix.start as usize..block.mix.end as usize]
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
    /// Completed executions per superblock in flip-counting runs, not
    /// yet folded into `block_execs` and the flip counters; all zero
    /// between `run_for` calls (see `fold_flips`).
    flip_execs: Vec<u64>,
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
            flip_execs: block_execs.clone(),
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
            for e in self.code.mix_of(block) {
                mix[e.opcode as usize] += u64::from(e.count) * execs;
            }
        }
        mix
    }

    /// Folds the whole-block executions a flip-counting run deferred
    /// into `block_execs` and into `counters`: each block's retirements
    /// and in-block fetch flips per opcode, times its executions.
    fn fold_flips(&mut self, counters: &mut FlipCounters) {
        for (bi, execs) in self.flip_execs.iter_mut().enumerate() {
            if *execs == 0 {
                continue;
            }
            let n = std::mem::take(execs);
            self.block_execs[bi] += n;
            for e in self.code.mix_of(&self.code.blocks[bi]) {
                let acc = &mut counters.per_opcode[e.opcode as usize];
                acc.retired += u64::from(e.count) * n;
                acc.fetch += u64::from(e.fetch) * n;
            }
        }
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
        self.code
            .blocks
            .iter()
            .map(|b| (b.start as usize, b.len as usize))
            .collect()
    }

    /// Number of fused instruction pairs across the compiled hot
    /// sequences (each retires two architectural instructions per
    /// execution).
    pub fn fused_pairs(&self) -> usize {
        self.code.fused.iter().filter(|op| op.kind.n() == 2).count()
    }

    /// One row per entry of the fusion table, in table order: the pair
    /// as `FIRST+SECOND` mnemonics, its static occurrences in the
    /// compiled superblocks, and how many times those ran inside
    /// whole-block executions since the build or the last restore (a
    /// block tail entered mid-way runs unfused and is not counted).
    pub fn fusion_profile(&self) -> Vec<(String, usize, u64)> {
        let mnemonic = |body: &str| body.trim_start_matches("x_").to_ascii_uppercase();
        Kind::PAIRS
            .iter()
            .map(|&(kind, first, second)| {
                let (mut sites, mut executed) = (0, 0);
                for (block, &execs) in self.code.blocks.iter().zip(&self.block_execs) {
                    let here = self
                        .code
                        .fused_ops(block)
                        .iter()
                        .filter(|op| op.kind == kind)
                        .count();
                    sites += here;
                    executed += here as u64 * execs;
                }
                let name = format!("{}+{}", mnemonic(first), mnemonic(second));
                (name, sites, executed)
            })
            .collect()
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
        match fault.cause {
            Cause::Mem(cause) => SimError::MemoryFault {
                pc: fault.pc as usize,
                cause,
            },
            Cause::Wild(target) => SimError::PcOutOfRange {
                at: self.arch.instructions,
                pc: target,
                tim_size: self.code.ops.len(),
            },
        }
    }

    /// Runs `budget` as whole superblocks while the budget covers them
    /// and as precise steps reporting to `ev` in between. The blocks
    /// count trit flips inline when `ev` hands over flip counters; the
    /// caller folds the deferred part in afterwards.
    fn run_blocks<E: Events>(
        &mut self,
        budget: Budget,
        ev: &mut E,
    ) -> Result<RunSummary, SimError> {
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
            let halt = match ev.flip_counters() {
                None => self.run_fast(&mut steps, &mut remaining, NoFlips)?,
                Some(counters) => {
                    self.run_fast(&mut steps, &mut remaining, Flips::new(counters))?
                }
            };
            if halt.is_none() && remaining > 0 {
                // …then one precise step: the budget is smaller than
                // the next dispatch unit (the budget tail).
                self.arch.step(ev)?;
                steps += 1;
                remaining -= 1;
            }
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
    fn run_fast<S: Sink>(
        &mut self,
        steps: &mut u64,
        remaining: &mut u64,
        sink: S,
    ) -> Result<Option<HaltReason>, SimError> {
        let code = Arc::clone(&self.code);
        let text_len = code.ops.len();
        // A flip-counting run leaves its whole-block executions for
        // `fold_flips`, which also folds them into the mix.
        let execs = if S::COUNTS {
            &mut self.flip_execs
        } else {
            &mut self.block_execs
        };
        let mut retired = 0u64;
        let mut halt = None;
        let mut failed: Option<(u32, usize)> = None;
        let mut fault = None;
        let mut sink = {
            let mut m = Machine {
                state: &mut self.arch.state,
                icache: &mut self.icache,
                text_len,
                fault: None,
                sink,
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
                    let end = (block.start + block.len) as usize;
                    if (end - pc) as u64 > *remaining {
                        break;
                    }
                    let ops = &code.ops[pc..end];
                    let mut taken = Step::Next;
                    let mut executed = ops.len();
                    for (k, op) in ops.iter().enumerate() {
                        match S::body(op)(&mut m, op) {
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
                    let completed = executed - usize::from(fault.is_some());
                    m.sink.steps(&code, &self.arch.text, pc, completed);
                    if fault.is_some() {
                        break 'blocks;
                    }
                    match taken {
                        Step::Next => match block.exit {
                            BlockExit::Seq(next) => pc = next as usize,
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
                let blen = u64::from(block.len);
                if blen > *remaining {
                    break;
                }
                let fused = code.fused_ops(block);
                let mut taken = Step::Next;
                for op in fused {
                    match S::body(op)(&mut m, op) {
                        Step::Next => {}
                        Step::Fault => {
                            // The op's index is recovered from the
                            // reference offset — only this cold path
                            // pays for it, not the hot loop.
                            let base = fused.as_ptr() as usize;
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
                // lazily by `full_mix` (or by `fold_flips`).
                retired += blen;
                *steps += blen;
                *remaining -= blen;
                execs[bi as usize] += 1;
                m.sink.block(block, fused);
                match taken {
                    Step::Next => match block.exit {
                        BlockExit::Seq(next) => pc = next as usize,
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
            m.sink
        };
        self.arch.instructions += retired;
        if let Some(fault) = fault {
            // A fused-block fault needs its partial block settled
            // precisely: every fused op before the fault in full, plus
            // however many of the faulting op's components retired
            // (the faulting instruction counts as retired, matching
            // the functional backend — though, firing no write-back,
            // not in the flip counters). A tail fault was already
            // accounted per-op.
            if let Some((bi, i)) = failed {
                let block = &code.blocks[bi as usize];
                let before: usize = code.fused_ops(block)[..i]
                    .iter()
                    .map(|op| usize::from(op.kind.n()))
                    .sum();
                let done = before + usize::from(fault.retired);
                let start = block.start as usize;
                for instr in &self.arch.text[start..start + done] {
                    self.arch.mix[instr.opcode()] += 1;
                }
                self.arch.instructions += done as u64;
                sink.steps(&code, &self.arch.text, start, done - 1);
            }
            self.arch.state.pc = fault.pc as usize;
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
        let observers = self.observers.clone();
        let Some(mut ev) = observers.lock() else {
            return self.run_blocks(budget, &mut NoEvents);
        };
        if ev.flip_counters().is_none() {
            // Any other observed run steps the shared instruction
            // definition, with every observer locked once for the
            // whole call.
            return run_loop(self, budget, |c| c.arch.step(&mut ev));
        }
        // The only observer handed over its flip counters: blocks count
        // flips inline, and their deferred part is folded in before
        // the counters can be read again.
        let result = self.run_blocks(budget, &mut ev);
        self.fold_flips(ev.flip_counters().expect("handed over above"));
        result
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
