//! Observer hooks: callbacks fired by every [`Core`](crate::Core)
//! backend at architectural events.
//!
//! An [`Observer`] receives five kinds of events — instruction
//! retirement, control-flow resolution, data-memory access,
//! architectural write-back, and halt — from whichever backend it is
//! attached to via
//! [`SimBuilder::observer`](crate::SimBuilder::observer). Observers are
//! shared handles ([`SharedObserver`] is `Arc<Mutex<…>>`), so the caller
//! keeps a clone and inspects the accumulated data after (or during) the
//! run:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use art9_isa::assemble;
//! use art9_sim::observers::Watchpoint;
//! use art9_sim::{Budget, Core, SimBuilder};
//!
//! let p = assemble("LI t2, 3\nLI t3, 7\nSTORE t3, t2, 0\nJAL t0, 0\n")?;
//! let watch = Arc::new(Mutex::new(Watchpoint::new(3)));
//! let mut core = SimBuilder::new(&p).observer(watch.clone()).build();
//! core.run_for(Budget::Steps(100))?;
//! let hits = watch.lock().unwrap().hits.clone();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].value.to_i64(), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A core locks each attached observer once per `run_for`/`step` call
//! and holds it until the call returns, so inspect observers between
//! calls (as above). Every backend is generic over the event sink: the
//! no-observer build compiles its event code away, and callbacks,
//! locking and allocation happen only when at least one observer is
//! attached.

use std::sync::{Arc, Mutex, MutexGuard};

use art9_isa::{Instruction, TReg};
use ternary::Word9;

use crate::functional::{CoreState, HaltReason};

/// One data-memory access, as reported to [`Observer::on_memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// Instruction address of the LOAD/STORE.
    pub pc: usize,
    /// Resolved TDM word index.
    pub address: usize,
    /// The word read (LOAD) or written (STORE).
    pub value: Word9,
    /// `true` for STORE, `false` for LOAD.
    pub is_write: bool,
}

/// A register-file write as seen by [`Observer::on_writeback`]: the
/// destination register with its value before and after the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegWrite {
    /// Destination register.
    pub reg: TReg,
    /// Register contents before the write.
    pub old: Word9,
    /// Register contents after the write (read back from the register
    /// file, so backend-specific write paths cannot diverge).
    pub new: Word9,
}

/// A TDM write as seen by [`Observer::on_writeback`]: the word index
/// with the memory cell's value before and after the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWrite {
    /// Resolved TDM word index.
    pub address: usize,
    /// Cell contents before the store.
    pub old: Word9,
    /// Cell contents after the store (the stored value).
    pub new: Word9,
}

/// The architectural write-back of one retired instruction, as reported
/// to [`Observer::on_writeback`] — everything a switching-activity model
/// needs to see the datapath's old and new values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Instruction address.
    pub pc: usize,
    /// The retired instruction.
    pub instr: Instruction,
    /// The register-file write, when the instruction writes a register
    /// (`None` for BEQ/BNE/STORE).
    pub reg: Option<RegWrite>,
    /// The TDM write, for STORE only.
    pub mem: Option<MemWrite>,
    /// The TALU result driven onto the result bus this instruction:
    /// the computed value for ALU/logic/move ops, the effective address
    /// for LOAD/STORE, the link value for JAL/JALR, and zero for
    /// BEQ/BNE (whose comparison happened at COMP).
    pub bus: Word9,
}

/// Callbacks a [`Core`](crate::Core) backend fires at architectural
/// events. Every method has a no-op default, so an observer implements
/// only the events it cares about.
///
/// ## Contract
///
/// * `on_retire` fires once per retired instruction, **after** its
///   architectural effects are visible in `state`. On the pipelined
///   backend that is the WB stage, so retirement order — not fetch
///   order — is observed.
/// * `on_control` fires when a control-flow instruction resolves
///   (functional/reference: during its step; pipelined: in ID).
///   `target` is the next instruction address, whether or not the
///   transfer was taken.
/// * `on_memory` fires for every successful TDM access, before the
///   instruction retires. Faulting accesses do not report.
/// * `on_writeback` fires once per retired instruction, immediately
///   before its `on_retire`, carrying the old and new values of every
///   architectural write the instruction performed (see [`Writeback`]).
/// * `on_halt` fires exactly once, when the backend halts (for the
///   pipelined backend: after the pipeline drains).
///
/// Observers must not assume a particular backend: the same observer
/// attached to the functional and pipelined backends sees the same
/// retirement/write-back/memory/halt event sequence for the same
/// program.
#[allow(unused_variables)]
pub trait Observer {
    /// An instruction retired; `state` already reflects it.
    fn on_retire(&mut self, pc: usize, instr: &Instruction, state: &CoreState) {}

    /// A control-flow instruction resolved to `target` (`taken` is
    /// `false` for a fall-through conditional branch).
    fn on_control(&mut self, pc: usize, instr: &Instruction, taken: bool, target: usize) {}

    /// A data-memory access completed.
    fn on_memory(&mut self, access: &MemoryAccess) {}

    /// An instruction's architectural writes completed (fires just
    /// before its `on_retire`).
    fn on_writeback(&mut self, wb: &Writeback) {}

    /// The machine halted after retiring `retired` instructions.
    fn on_halt(&mut self, reason: HaltReason, retired: u64) {}
}

/// A shareable observer handle: keep a typed `Arc<Mutex<T>>` clone for
/// yourself and hand the coerced `SharedObserver` to
/// [`SimBuilder::observer`](crate::SimBuilder::observer).
pub type SharedObserver = Arc<Mutex<dyn Observer + Send>>;

/// The observer list a backend carries. Cloning a simulator shares its
/// observers (the handles are `Arc`s); cloning the set itself is one
/// reference-count bump, cheap enough to do once per `run_for`.
#[derive(Clone, Default)]
pub(crate) struct ObserverSet(Option<Arc<Attached>>);

#[derive(Clone, Default)]
struct Attached {
    /// Each distinct observer once, ordered by address: the order the
    /// locks are taken in, so cores sharing observers cannot deadlock
    /// each other, and an observer attached twice is locked once.
    distinct: Vec<SharedObserver>,
    /// Delivery order: one index into `distinct` per attachment, so an
    /// observer attached twice still receives every event twice.
    order: Vec<usize>,
}

impl std::fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.0.as_ref().map_or(0, |a| a.order.len());
        write!(f, "ObserverSet({n})")
    }
}

impl ObserverSet {
    pub(crate) fn push(&mut self, obs: SharedObserver) {
        let mut set = self.0.as_deref().cloned().unwrap_or_default();
        let address = |o: &SharedObserver| Arc::as_ptr(o) as *const () as usize;
        let i = match set.distinct.binary_search_by_key(&address(&obs), address) {
            Ok(i) => i,
            Err(i) => {
                for j in set.order.iter_mut().filter(|j| **j >= i) {
                    *j += 1;
                }
                set.distinct.insert(i, obs);
                i
            }
        };
        set.order.push(i);
        self.0 = Some(Arc::new(set));
    }

    /// Locks every attached observer for the duration of one
    /// `run_for`/`step` call; `None` when nothing is attached, so the
    /// caller runs with [`NoEvents`].
    pub(crate) fn lock(&self) -> Option<Locked<'_>> {
        let set = self.0.as_deref()?;
        Some(Locked {
            // A poisoned lock (an observer panicked earlier) still
            // yields the data; observation must not take the run down.
            guards: set
                .distinct
                .iter()
                .map(|o| o.lock().unwrap_or_else(|p| p.into_inner()))
                .collect(),
            order: &set.order,
        })
    }
}

/// Evaluates `$body` with `$ev` bound to the event sink for
/// `$observers`: `&mut NoEvents` when none are attached, otherwise
/// `&mut Locked` with every observer locked once for the whole body.
/// The set is cloned first (one reference-count bump), so the body may
/// borrow the core mutably.
macro_rules! with_events {
    ($observers:expr, |$ev:ident| $body:expr) => {{
        let observers = $observers.clone();
        let result = match observers.lock() {
            None => {
                let $ev = &mut $crate::observer::NoEvents;
                $body
            }
            Some(mut locked) => {
                let $ev = &mut locked;
                $body
            }
        };
        result
    }};
}
pub(crate) use with_events;

/// Where an execution path reports architectural events. Every backend
/// is generic over it: [`NoEvents`] when no observer is attached (the
/// compiler then drops all event code, including the capture of old
/// values), [`Locked`] when some are.
pub(crate) trait Events {
    /// `false` only for [`NoEvents`]; guards work done solely to build
    /// event payloads.
    const ACTIVE: bool;
    fn memory(&mut self, access: &MemoryAccess);
    fn control(&mut self, pc: usize, instr: &Instruction, taken: bool, target: usize);
    fn writeback(&mut self, wb: &Writeback);
    fn retire(&mut self, pc: usize, instr: &Instruction, state: &CoreState);
    fn halt(&mut self, reason: HaltReason, retired: u64);
}

/// The unobserved event sink: every event is a no-op.
pub(crate) struct NoEvents;

impl Events for NoEvents {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn memory(&mut self, _: &MemoryAccess) {}
    #[inline(always)]
    fn control(&mut self, _: usize, _: &Instruction, _: bool, _: usize) {}
    #[inline(always)]
    fn writeback(&mut self, _: &Writeback) {}
    #[inline(always)]
    fn retire(&mut self, _: usize, _: &Instruction, _: &CoreState) {}
    #[inline(always)]
    fn halt(&mut self, _: HaltReason, _: u64) {}
}

/// The attached observers with their locks held: forwards each event to
/// every attachment, in attachment order.
pub(crate) struct Locked<'a> {
    guards: Vec<MutexGuard<'a, dyn Observer + Send + 'static>>,
    order: &'a [usize],
}

impl Locked<'_> {
    #[inline]
    fn each(&mut self, mut f: impl FnMut(&mut (dyn Observer + Send))) {
        for &i in self.order {
            f(&mut *self.guards[i]);
        }
    }
}

impl Events for Locked<'_> {
    const ACTIVE: bool = true;

    fn memory(&mut self, access: &MemoryAccess) {
        self.each(|o| o.on_memory(access));
    }

    fn control(&mut self, pc: usize, instr: &Instruction, taken: bool, target: usize) {
        self.each(|o| o.on_control(pc, instr, taken, target));
    }

    fn writeback(&mut self, wb: &Writeback) {
        self.each(|o| o.on_writeback(wb));
    }

    fn retire(&mut self, pc: usize, instr: &Instruction, state: &CoreState) {
        self.each(|o| o.on_retire(pc, instr, state));
    }

    fn halt(&mut self, reason: HaltReason, retired: u64) {
        self.each(|o| o.on_halt(reason, retired));
    }
}

/// Ready-made observers: the instruction-mix and trace machinery
/// reformulated on the hook API, plus a store watchpoint.
pub mod observers {
    use super::*;

    /// Per-mnemonic retirement counts, as an observer — the same view
    /// [`Core::instruction_mix`](crate::Core::instruction_mix) keeps
    /// built in, demonstrated over the hook API.
    #[derive(Debug, Clone, Default)]
    pub struct InstructionMix {
        counts: [u64; Instruction::OPCODE_COUNT],
    }

    impl InstructionMix {
        /// A fresh, all-zero mix.
        pub fn new() -> Self {
            Self::default()
        }

        /// Retired count per mnemonic (absent when zero), matching the
        /// shape of [`Core::instruction_mix`](crate::Core::instruction_mix).
        pub fn mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
            crate::core::mix_map(&self.counts)
        }
    }

    impl Observer for InstructionMix {
        fn on_retire(&mut self, _pc: usize, instr: &Instruction, _state: &CoreState) {
            self.counts[instr.opcode()] += 1;
        }
    }

    /// A retirement log: `(pc, instruction)` in retirement order — the
    /// cross-backend counterpart of the pipelined per-cycle trace.
    #[derive(Debug, Clone, Default)]
    pub struct RetireLog {
        /// Retired instructions, in order.
        pub log: Vec<(usize, Instruction)>,
    }

    impl RetireLog {
        /// An empty log.
        pub fn new() -> Self {
            Self::default()
        }
    }

    impl Observer for RetireLog {
        fn on_retire(&mut self, pc: usize, instr: &Instruction, _state: &CoreState) {
            self.log.push((pc, *instr));
        }
    }

    /// One recorded hit of a [`Watchpoint`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WatchHit {
        /// Instruction address of the store.
        pub pc: usize,
        /// The value written.
        pub value: Word9,
    }

    /// Records every store to one watched TDM address — the
    /// event-driven watchpoint the observer API makes possible (no
    /// polling, exact store PCs).
    #[derive(Debug, Clone)]
    pub struct Watchpoint {
        address: usize,
        /// Every store to the watched address, in program order.
        pub hits: Vec<WatchHit>,
    }

    impl Watchpoint {
        /// Watches TDM word `address`.
        pub fn new(address: usize) -> Self {
            Self {
                address,
                hits: Vec::new(),
            }
        }

        /// The watched address.
        pub fn address(&self) -> usize {
            self.address
        }
    }

    impl Observer for Watchpoint {
        fn on_memory(&mut self, access: &MemoryAccess) {
            if access.is_write && access.address == self.address {
                self.hits.push(WatchHit {
                    pc: access.pc,
                    value: access.value,
                });
            }
        }
    }

    /// Records, in order, every time the architectural control flow
    /// **enters** one of a set of watched TIM addresses — the
    /// sync-point detector behind cross-ISA lockstep checking.
    ///
    /// "Entering" address `b` means a retired instruction's successor
    /// was `b`: for a retired control-flow instruction that is its
    /// resolved target (taken or fall-through), for anything else
    /// `pc + 1`. The initial fetch at address 0 is *not* an entry — no
    /// instruction transferred control there.
    ///
    /// Because the contract guarantees every backend reports the same
    /// retirement/control event sequence, the recorded crossing trace
    /// is backend-independent — in particular it works on the pipelined
    /// backend, whose architectural PC is not observable between
    /// cycles. `art9-fuzz` watches the RV32 instruction boundaries of a
    /// translated program and compares the trace against the `rv32`
    /// machine's own execution path.
    #[derive(Debug, Clone, Default)]
    pub struct SyncPoints {
        watched: std::collections::BTreeSet<usize>,
        /// Control-flow targets resolved but not yet retired, in
        /// program order (the pipelined backend resolves in ID, retires
        /// in WB, possibly several instructions apart).
        pending: std::collections::VecDeque<(usize, usize)>,
        /// Every watched address entered, in retirement order.
        pub crossings: Vec<usize>,
    }

    impl SyncPoints {
        /// Watches the given TIM addresses.
        pub fn new(watched: impl IntoIterator<Item = usize>) -> Self {
            Self {
                watched: watched.into_iter().collect(),
                pending: Default::default(),
                crossings: Vec::new(),
            }
        }

        /// The crossing trace recorded so far.
        pub fn crossings(&self) -> &[usize] {
            &self.crossings
        }
    }

    /// Per-opcode switching activity accumulated by [`EnergyAccounting`]:
    /// retirement count plus trit flips attributed to each datapath
    /// structure while instructions of this opcode retired.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OpcodeActivity {
        /// Instructions of this opcode retired.
        pub retired: u64,
        /// Register-file write-port flips (old vs new destination value).
        pub regfile: u64,
        /// TDM cell flips (old vs stored value; STORE only).
        pub tdm: u64,
        /// Fetch-path flips: instruction-register (encoded word) plus
        /// PC-register switching between consecutive retirements.
        pub fetch: u64,
        /// Result-bus flips: the TALU output against the value it drove
        /// for the previous instruction.
        pub alu: u64,
    }

    impl OpcodeActivity {
        fn absorb(&mut self, other: &OpcodeActivity) {
            self.retired += other.retired;
            self.regfile += other.regfile;
            self.tdm += other.tdm;
            self.fetch += other.fetch;
            self.alu += other.alu;
        }
    }

    /// Measures dynamic switching activity — trit flips per datapath
    /// structure, per opcode — from the [`Writeback`] event stream.
    ///
    /// This is the execution side of the dynamic energy model (see
    /// `docs/ENERGY.md`): every flip counted here is one trit changing
    /// value in a storage element or on the result bus, which `art9-hw`
    /// converts to energy via the tech library's per-cell switching
    /// energies. Structures tracked:
    ///
    /// * **regfile** — write-port activity: old vs new value of the
    ///   destination register at each register-writing retirement;
    /// * **tdm** — data-memory cell activity: old vs stored value at
    ///   each STORE;
    /// * **fetch** — instruction-register and PC-register activity
    ///   between consecutive retirements (the 9-trit encoded
    ///   instruction word, and the PC wrapped to a 9-trit word);
    /// * **alu** — result-bus activity: consecutive TALU outputs.
    ///
    /// The counts are architectural (derived from the retirement
    /// stream), so every backend produces identical totals for the same
    /// program — a property the `energy` fuzz oracle checks against a
    /// per-trit reference ([`EnergyAccounting::with_flip_fn`] +
    /// `ternary::arith::flips_tritwise`).
    ///
    /// ```
    /// use std::sync::{Arc, Mutex};
    /// use art9_isa::assemble;
    /// use art9_sim::observers::EnergyAccounting;
    /// use art9_sim::{Budget, Core, SimBuilder};
    ///
    /// let p = assemble("LI t2, 121\nADDI t2, 1\nJAL t0, 0\n")?;
    /// let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    /// let mut core = SimBuilder::new(&p).observer(energy.clone()).build();
    /// core.run_for(Budget::Steps(100))?;
    /// let e = energy.lock().unwrap();
    /// // LI writes 121 into a zero register (5 trits flip), ADDI turns
    /// // 121 = 0000+++++ into 122 = 000+----- (6 trits flip), and the
    /// // halting JAL links 3 = 00000000+0 into t0 (1 flip).
    /// assert_eq!(e.totals().regfile, 5 + 6 + 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[derive(Debug, Clone)]
    pub struct EnergyAccounting {
        /// A substitute flip function; `None` is the packed kernel,
        /// called directly so it inlines.
        flip_fn: Option<fn(Word9, Word9) -> u32>,
        prev_instr: Word9,
        prev_pc: Word9,
        prev_bus: Word9,
        per_opcode: [OpcodeActivity; Instruction::OPCODE_COUNT],
        /// The fetch-path words per PC, filled on first retirement
        /// there: both are pure functions of the PC, so they are
        /// derived once per address rather than on every retirement.
        fetch: Vec<Option<FetchWords>>,
    }

    /// The words the fetch path holds while the instruction at one PC
    /// retires.
    #[derive(Debug, Clone, Copy)]
    struct FetchWords {
        /// The instruction they were derived from: an accumulator
        /// reused across programs re-derives an address whose
        /// instruction changed.
        instr: Instruction,
        /// The encoded instruction word.
        encoded: Word9,
        /// The PC wrapped to a 9-trit word.
        pc: Word9,
    }

    impl Default for EnergyAccounting {
        fn default() -> Self {
            Self::new()
        }
    }

    impl EnergyAccounting {
        /// An accumulator using the packed bitplane flip kernel
        /// ([`Word9::flips_from`]).
        pub fn new() -> Self {
            Self {
                flip_fn: None,
                prev_instr: Word9::ZERO,
                prev_pc: Word9::ZERO,
                prev_bus: Word9::ZERO,
                per_opcode: [OpcodeActivity::default(); Instruction::OPCODE_COUNT],
                fetch: Vec::new(),
            }
        }

        /// An accumulator with a substitute flip function — the
        /// differential energy oracle passes
        /// `ternary::arith::flips_tritwise` here and asserts the totals
        /// are bit-identical to [`EnergyAccounting::new`]'s.
        pub fn with_flip_fn(flip_fn: fn(Word9, Word9) -> u32) -> Self {
            Self {
                flip_fn: Some(flip_fn),
                ..Self::new()
            }
        }

        /// The fetch-path words for `instr` retiring at `pc`, from the
        /// per-PC cache. Addresses past the 9-trit PC range are derived
        /// every time instead of growing the cache.
        fn fetch_words(&mut self, pc: usize, instr: &Instruction) -> FetchWords {
            if let Some(Some(f)) = self.fetch.get(pc) {
                if f.instr == *instr {
                    return *f;
                }
            }
            let f = FetchWords {
                instr: *instr,
                encoded: art9_isa::encode(instr),
                pc: Word9::from_i64_wrapping(pc as i64),
            };
            if pc < Word9::MODULUS as usize {
                if pc >= self.fetch.len() {
                    self.fetch.resize(pc + 1, None);
                }
                self.fetch[pc] = Some(f);
            }
            f
        }

        /// Activity accumulated per opcode, indexed like
        /// [`Instruction::MNEMONICS`].
        pub fn per_opcode(&self) -> &[OpcodeActivity; Instruction::OPCODE_COUNT] {
            &self.per_opcode
        }

        /// Activity summed over all opcodes.
        pub fn totals(&self) -> OpcodeActivity {
            let mut total = OpcodeActivity::default();
            for acc in &self.per_opcode {
                total.absorb(acc);
            }
            total
        }
    }

    impl Observer for EnergyAccounting {
        fn on_writeback(&mut self, wb: &Writeback) {
            let flip_fn = self.flip_fn;
            let flip = |next: Word9, prev: Word9| match flip_fn {
                None => next.flips_from(&prev),
                Some(f) => f(next, prev),
            };
            let fetch = self.fetch_words(wb.pc, &wb.instr);
            let acc = &mut self.per_opcode[wb.instr.opcode()];
            acc.retired += 1;
            if let Some(r) = wb.reg {
                acc.regfile += u64::from(flip(r.new, r.old));
            }
            if let Some(m) = wb.mem {
                acc.tdm += u64::from(flip(m.new, m.old));
            }
            acc.fetch += u64::from(flip(fetch.encoded, self.prev_instr));
            acc.fetch += u64::from(flip(fetch.pc, self.prev_pc));
            acc.alu += u64::from(flip(wb.bus, self.prev_bus));
            self.prev_instr = fetch.encoded;
            self.prev_pc = fetch.pc;
            self.prev_bus = wb.bus;
        }
    }

    impl Observer for SyncPoints {
        fn on_control(&mut self, pc: usize, _instr: &Instruction, _taken: bool, target: usize) {
            self.pending.push_back((pc, target));
        }

        fn on_retire(&mut self, pc: usize, _instr: &Instruction, _state: &CoreState) {
            // In-order retirement: a pending control target belongs to
            // this retirement iff it was recorded for the same pc.
            let next = match self.pending.front() {
                Some((cpc, target)) if *cpc == pc => {
                    let t = *target;
                    self.pending.pop_front();
                    t
                }
                _ => pc + 1,
            };
            if self.watched.contains(&next) {
                self.crossings.push(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::observers::*;
    use super::*;
    use crate::core::{Backend, Budget, SimBuilder};
    use art9_isa::assemble;

    fn looped() -> art9_isa::Program {
        assemble(
            "LI t2, 5\nLI t3, 3\nloop:\nSTORE t3, t2, 0\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap()
    }

    #[test]
    fn mix_observer_matches_builtin_mix_on_every_backend() {
        for backend in Backend::ALL {
            let handle = Arc::new(Mutex::new(InstructionMix::new()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(handle.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            assert_eq!(
                handle.lock().unwrap().mix(),
                core.instruction_mix(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn watchpoint_sees_every_store_with_pc() {
        let handle = Arc::new(Mutex::new(Watchpoint::new(5)));
        let mut core = SimBuilder::new(&looped()).observer(handle.clone()).build();
        core.run_for(Budget::Steps(100_000)).unwrap();
        let w = handle.lock().unwrap();
        assert_eq!(w.address(), 5);
        assert_eq!(w.hits.len(), 3, "one store per loop iteration");
        assert_eq!(w.hits[0].value.to_i64(), 3);
        assert_eq!(w.hits[2].value.to_i64(), 1);
        assert!(w.hits.iter().all(|h| h.pc == 2), "store is at pc 2");
    }

    #[test]
    fn retire_log_and_halt_agree_across_backends() {
        let run = |backend| {
            let log = Arc::new(Mutex::new(RetireLog::new()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(log.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let l = log.lock().unwrap().log.clone();
            (l, core.retired())
        };
        let (f_log, f_ret) = run(Backend::Functional);
        assert_eq!(f_log.len() as u64, f_ret);
        for backend in [Backend::Pipelined, Backend::Reference, Backend::Threaded] {
            let (log, ret) = run(backend);
            assert_eq!(f_log, log, "{backend:?}: retirement order differs");
            assert_eq!(f_ret, ret, "{backend:?}");
        }
    }

    #[test]
    fn multiple_observers_see_identical_event_order_on_every_backend() {
        // Two retire logs plus an energy accumulator on the same core:
        // every observer must see the same, complete event stream — in
        // particular on the threaded backend, whose observed runs step
        // the shared instruction definition with the whole set locked.
        for backend in Backend::ALL {
            let first = Arc::new(Mutex::new(RetireLog::new()));
            let second = Arc::new(Mutex::new(RetireLog::new()));
            let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(first.clone())
                .observer(energy.clone())
                .observer(second.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let a = first.lock().unwrap().log.clone();
            let b = second.lock().unwrap().log.clone();
            assert!(!a.is_empty(), "{backend:?}: no retirements observed");
            assert_eq!(a, b, "{backend:?}: observers disagree on order");
            assert_eq!(
                energy.lock().unwrap().totals().retired,
                core.retired(),
                "{backend:?}: energy observer missed retirements"
            );
        }
    }

    /// A countdown long enough for many slices, with a store per
    /// iteration so every event kind fires.
    fn long_loop() -> art9_isa::Program {
        assemble(
            "LI t2, 5\nLI t3, 40\nloop:\nSTORE t3, t2, 0\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap()
    }

    #[test]
    fn an_observer_attached_twice_is_locked_once_and_hears_every_event_twice() {
        for backend in Backend::ALL {
            let once = Arc::new(Mutex::new(EnergyAccounting::new()));
            let mut core = SimBuilder::new(&long_loop())
                .backend(backend)
                .observer(once.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let once = once.lock().unwrap().totals();

            // Same `Arc` twice, next to a retire log attached twice: no
            // self-deadlock, and every event is delivered per
            // attachment, as with per-event locking.
            let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
            let log = Arc::new(Mutex::new(RetireLog::new()));
            let mut core = SimBuilder::new(&long_loop())
                .backend(backend)
                .observer(energy.clone())
                .observer(log.clone())
                .observer(energy.clone())
                .observer(log.clone())
                .build();
            core.run_for(Budget::Steps(50)).unwrap();
            core.step().unwrap();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let twice = energy.lock().unwrap().totals();
            // The second delivery of a write-back sees the register and
            // memory flips again, but no fetch or bus change since the
            // first.
            assert_eq!(twice.retired, 2 * once.retired, "{backend:?}");
            assert_eq!(twice.regfile, 2 * once.regfile, "{backend:?}");
            assert_eq!(twice.tdm, 2 * once.tdm, "{backend:?}");
            assert_eq!(twice.fetch, once.fetch, "{backend:?}");
            assert_eq!(twice.alu, once.alu, "{backend:?}");
            let log = &log.lock().unwrap().log;
            assert_eq!(log.len() as u64, 2 * core.retired(), "{backend:?}");
            assert!(log.chunks(2).all(|p| p[0] == p[1]), "{backend:?}");
        }
    }

    #[test]
    fn slices_that_read_the_observer_between_them_match_one_straight_run() {
        // The service's pattern: run a quantum, lock the observer to
        // read its totals, run the next quantum.
        for backend in Backend::ALL {
            let straight = Arc::new(Mutex::new(EnergyAccounting::new()));
            let mut core = SimBuilder::new(&long_loop())
                .backend(backend)
                .observer(straight.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let straight = straight.lock().unwrap().clone();

            let sliced = Arc::new(Mutex::new(EnergyAccounting::new()));
            let mut core = SimBuilder::new(&long_loop())
                .backend(backend)
                .observer(sliced.clone())
                .build();
            let mut seen = Vec::new();
            while core.halted().is_none() {
                let target = core.retired() + 7;
                core.run_for(Budget::Retired(target)).unwrap();
                let between = sliced.lock().unwrap().totals();
                assert!(between.retired <= core.retired(), "{backend:?}");
                seen.push(between.retired);
            }
            assert!(seen.len() > 10, "{backend:?}: the run took many slices");
            assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{backend:?}");
            assert_eq!(
                sliced.lock().unwrap().per_opcode(),
                straight.per_opcode(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn cores_sharing_observers_in_opposite_orders_do_not_deadlock() {
        // Each core holds its observers' locks for a whole `run_for`;
        // the locks are taken in one global order, so two threads
        // attaching the same pair in opposite orders still finish.
        let a = Arc::new(Mutex::new(EnergyAccounting::new()));
        let b = Arc::new(Mutex::new(RetireLog::new()));
        let ab = SimBuilder::new(&long_loop())
            .backend(Backend::Threaded)
            .observer(a.clone())
            .observer(b.clone());
        let ba = SimBuilder::new(&long_loop())
            .observer(b.clone())
            .observer(a.clone());
        std::thread::scope(|s| {
            for builder in [&ab, &ba] {
                s.spawn(move || {
                    for _ in 0..200 {
                        let mut core = builder.build();
                        while core.halted().is_none() {
                            let target = core.retired() + 3;
                            core.run_for(Budget::Retired(target)).unwrap();
                        }
                    }
                });
            }
        });
        let retired = a.lock().unwrap().totals().retired;
        assert_eq!(retired, b.lock().unwrap().log.len() as u64);
        assert_eq!(retired % 400, 0, "400 identical runs");
    }

    #[test]
    fn sync_points_record_identical_crossings_on_every_backend() {
        // Watch the loop head (pc 2): entered twice by the taken
        // backward branch — the initial fall-in from pc 1 is a plain
        // retirement of pc 1 whose successor is 2, which also counts.
        let program = looped();
        let mut traces = Vec::new();
        for backend in Backend::ALL {
            let sp = Arc::new(Mutex::new(SyncPoints::new([2usize])));
            let mut core = SimBuilder::new(&program)
                .backend(backend)
                .observer(sp.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            traces.push(sp.lock().unwrap().crossings().to_vec());
        }
        assert_eq!(traces[0], traces[1], "functional vs pipelined");
        assert_eq!(traces[0], traces[2], "functional vs reference");
        assert_eq!(traces[0], traces[3], "functional vs threaded");
        // Entered by LI t3 (pc 1 -> 2) and by two taken loop-backs.
        assert_eq!(traces[0], vec![2, 2, 2]);
    }

    #[test]
    fn control_and_halt_events_fire() {
        #[derive(Default)]
        struct Counter {
            taken: u64,
            untaken: u64,
            halts: Vec<(HaltReason, u64)>,
        }
        impl Observer for Counter {
            fn on_control(&mut self, _pc: usize, _i: &Instruction, taken: bool, _t: usize) {
                if taken {
                    self.taken += 1;
                } else {
                    self.untaken += 1;
                }
            }
            fn on_halt(&mut self, reason: HaltReason, retired: u64) {
                self.halts.push((reason, retired));
            }
        }
        for backend in Backend::ALL {
            let c = Arc::new(Mutex::new(Counter::default()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(c.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let c = c.lock().unwrap();
            // 3 taken BEQ? No: taken twice (t3 = 2, 1 -> positive), the
            // third check falls through, then the JAL-to-self halts.
            assert_eq!(c.taken, 3, "{backend:?}: 2 loop-backs + halting JAL");
            assert_eq!(c.untaken, 1, "{backend:?}: final fall-through");
            assert_eq!(c.halts, vec![(HaltReason::JumpToSelf, core.retired())]);
        }
    }
}
