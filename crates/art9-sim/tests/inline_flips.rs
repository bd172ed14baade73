//! The threaded backend counts trit flips inline, on whole superblocks,
//! when its only observer hands over its flip counters
//! (`EnergyAccounting::new`). These are the edge cases of that path —
//! budget cuts inside fused blocks, mid-block landings, faults inside
//! fused pairs, checkpoint restores and migrations — each held to the
//! functional backend's per-opcode counters, bit for bit. The last
//! tests pin the fallback rule: every other observer set keeps the
//! event path and today's counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use art9_isa::{assemble, Program};
use art9_sim::observers::{EnergyAccounting, FlipCounters, RetireLog};
use art9_sim::{Backend, Budget, Core, Observer, SimBuilder, SimError, Writeback};
use ternary::Word9;

/// A counted loop whose body is one 12-instruction superblock with
/// fused memory-memory, ALU-LI, MV-ADDI, ADDI-MV and COMP-BEQ pairs
/// between unfused ops.
const LOOP: &str = "
    LI t2, 5
    LI t3, 30
    LI t5, 7
loop:
    STORE t3, t2, 0
    LOAD t4, t2, 1
    ADD t4, t5
    XOR t5, t4
    SUB t5, t3
    LI t6, 13
    MV t1, t6
    ADDI t1, 2
    ADDI t3, -1
    MV t7, t3
    COMP t7, t0
    BEQ t7, +, loop
    JAL t0, 0
";

type Energy = Arc<Mutex<EnergyAccounting>>;

fn energy() -> Energy {
    Arc::new(Mutex::new(EnergyAccounting::new()))
}

fn builder(program: &Program, backend: Backend, energy: &Energy) -> SimBuilder {
    SimBuilder::new(program)
        .backend(backend)
        .observer(energy.clone())
}

/// The functional backend's straight run: its result, retired count,
/// instruction mix and energy accounting.
fn functional(program: &Program) -> (Result<(), SimError>, Box<dyn Core>, EnergyAccounting) {
    let e = energy();
    let mut core = builder(program, Backend::Functional, &e).build();
    let result = core.run_for(Budget::Steps(1_000_000)).map(|_| ());
    let acc = e.lock().unwrap().clone();
    (result, core, acc)
}

fn assert_matches_functional(program: &Program, core: &dyn Core, e: &Energy, what: &str) {
    let (_, f, f_acc) = functional(program);
    assert_eq!(core.retired(), f.retired(), "{what}: retired");
    assert_eq!(core.instruction_mix(), f.instruction_mix(), "{what}: mix");
    assert_eq!(e.lock().unwrap().counters(), f_acc.counters(), "{what}");
}

#[test]
fn loop_body_is_one_fused_superblock() {
    let p = assemble(LOOP).unwrap();
    let sim = SimBuilder::new(&p).build_threaded();
    assert!(sim.superblocks().contains(&(3, 12)));
    assert!(sim.fused_pairs() >= 5);
}

#[test]
fn retired_budget_cuts_at_every_k_inside_fused_blocks() {
    let p = assemble(LOOP).unwrap();
    for k in 1..=30 {
        let e = energy();
        let mut core = builder(&p, Backend::Threaded, &e).build();
        let mut slices = 0;
        while core.halted().is_none() {
            let target = core.retired() + k;
            let summary = core.run_for(Budget::Retired(target)).unwrap();
            assert!(
                summary.halt.is_some() || core.retired() == target,
                "k = {k}"
            );
            // The counters read correctly between calls.
            assert_eq!(
                e.lock().unwrap().totals().retired,
                core.retired(),
                "k = {k}"
            );
            slices += 1;
        }
        assert!(slices > 1);
        assert_matches_functional(&p, core.as_ref(), &e, &format!("k = {k}"));
    }
}

#[test]
fn mid_block_jalr_landing_counts_the_unfused_tail() {
    // The JALR lands on pc 6, inside the block 3..=10, six times.
    let p = assemble(
        "
        LI t3, 6
        LI t2, 6
    back:
        JALR t1, t2, 0
        ADDI t4, 1
        ADDI t4, 2
        MV t5, t4
        ADD t4, t3
        ADDI t3, -1
        MV t7, t3
        COMP t7, t0
        BEQ t7, +, back
        JAL t0, 0
    ",
    )
    .unwrap();
    let blocks = SimBuilder::new(&p).build_threaded().superblocks();
    assert!(blocks.contains(&(3, 8)), "{blocks:?}");
    for budget in [Budget::Steps(1_000_000), Budget::Retired(1_000_000)] {
        let e = energy();
        let mut core = builder(&p, Backend::Threaded, &e).build();
        core.run_for(budget).unwrap();
        assert_matches_functional(&p, core.as_ref(), &e, "landing");
    }
}

#[test]
fn faults_inside_fused_pairs_settle_the_partial_block() {
    // t2 = 40 · 243 lies outside the 256-word TDM.
    let out_of_range = "LI t2, 121\nLUI t2, 40\n";
    let cases = [
        // The STORE of a fused ADDI + STORE faults: the ADDI retires.
        format!("LI t3, 4\nLI t4, 9\n{out_of_range}ADDI t3, 1\nSTORE t3, t2, 0\n"),
        // The first LOAD of a fused LOAD + ADD faults.
        format!("LI t3, 4\n{out_of_range}SLI t3, 1\nLOAD t5, t2, 0\nADD t5, t3\n"),
        // The second LOAD of a fused LOAD + LOAD faults.
        format!("LI t3, 4\n{out_of_range}LI t4, 3\nLOAD t5, t4, 0\nLOAD t6, t2, 1\n"),
        // The branch of a fused COMP + BEQ leaves the text.
        "LI t3, 4\nMV t7, t3\nCOMP t7, t0\nBEQ t7, +, 30\n".to_string(),
        // A JALR ending a block leaves the text, after a fused pair.
        "LI t3, 4\nLI t2, 121\nADDI t3, 1\nMV t4, t3\nJALR t1, t2, 0\n".to_string(),
        // The very first instruction of a block faults.
        format!("{out_of_range}JAL t1, 1\nLOAD t5, t2, 0\nADD t5, t3\n"),
        // A JALR lands mid-block and the unfused tail faults: on its
        // second instruction, then on its first.
        format!("{out_of_range}LI t4, 5\nJALR t1, t4, 0\nADDI t3, 1\nADDI t3, 2\nLOAD t5, t2, 0\nADD t5, t3\n"),
        format!("{out_of_range}LI t4, 6\nJALR t1, t4, 0\nADDI t3, 1\nADDI t3, 2\nLOAD t5, t2, 0\nADD t5, t3\n"),
    ];
    for src in &cases {
        let p = assemble(src).unwrap();
        let (f_result, f, f_acc) = functional(&p);
        let f_err = f_result.expect_err(src);
        let e = energy();
        let mut core = builder(&p, Backend::Threaded, &e).build();
        let err = core.run_for(Budget::Steps(1_000)).unwrap_err();
        assert_eq!(err, f_err, "{src}");
        assert_eq!(core.retired(), f.retired(), "{src}");
        assert_eq!(core.state().pc, f.state().pc, "{src}");
        assert_eq!(core.instruction_mix(), f.instruction_mix(), "{src}");
        assert_eq!(e.lock().unwrap().counters(), f_acc.counters(), "{src}");
    }
}

#[test]
fn checkpoint_restore_mid_block_keeps_counting_exactly() {
    let p = assemble(LOOP).unwrap();
    // Cut points inside the first loop body, at its end and later on.
    for cut in [4, 5, 9, 15, 16, 40] {
        let e = energy();
        let mut first = builder(&p, Backend::Threaded, &e).build();
        first.run_for(Budget::Retired(cut)).unwrap();
        let text = first.snapshot().to_text();
        let checkpoint = art9_sim::Checkpoint::from_text(&text).unwrap();
        // The session's observer travels with it, as in the service.
        let mut second = builder(&p, Backend::Threaded, &e).build();
        second.restore(&checkpoint).unwrap();
        second.run_for(Budget::Steps(1_000_000)).unwrap();
        assert_matches_functional(&p, second.as_ref(), &e, &format!("cut {cut}"));
    }
}

#[test]
fn one_energy_observer_carried_threaded_functional_threaded() {
    let p = assemble(LOOP).unwrap();
    for (k1, k2) in [(5, 11), (16, 29), (1, 200)] {
        let e = energy();
        let mut threaded = builder(&p, Backend::Threaded, &e).build();
        threaded.run_for(Budget::Retired(k1)).unwrap();
        let mut functional = builder(&p, Backend::Functional, &e).build();
        functional.restore(&threaded.snapshot()).unwrap();
        functional.run_for(Budget::Retired(k1 + k2)).unwrap();
        let mut threaded = builder(&p, Backend::Threaded, &e).build();
        threaded.restore(&functional.snapshot()).unwrap();
        threaded.run_for(Budget::Steps(1_000_000)).unwrap();
        assert_matches_functional(&p, threaded.as_ref(), &e, &format!("{k1}/{k2}"));
    }
}

/// Calls of the substitute flip function below.
static SUBSTITUTE_CALLS: AtomicU64 = AtomicU64::new(0);

fn counted_flips(next: Word9, prev: Word9) -> u32 {
    SUBSTITUTE_CALLS.fetch_add(1, Ordering::Relaxed);
    next.flips_from(&prev)
}

#[test]
fn a_substitute_flip_function_keeps_the_event_path() {
    let p = assemble(LOOP).unwrap();
    let e = Arc::new(Mutex::new(EnergyAccounting::with_flip_fn(counted_flips)));
    let mut core = builder(&p, Backend::Threaded, &e).build();
    core.run_for(Budget::Steps(1_000_000)).unwrap();
    // Every retirement reached `on_writeback`, which called the flip
    // function for the fetch, bus and register/TDM words.
    assert!(SUBSTITUTE_CALLS.load(Ordering::Relaxed) >= 3 * core.retired());
    assert_matches_functional(&p, core.as_ref(), &e, "with_flip_fn");
}

#[test]
fn energy_next_to_another_observer_keeps_the_event_path() {
    let p = assemble(LOOP).unwrap();
    let e = energy();
    let log = Arc::new(Mutex::new(RetireLog::new()));
    let mut core = builder(&p, Backend::Threaded, &e)
        .observer(log.clone())
        .build();
    core.run_for(Budget::Steps(1_000_000)).unwrap();
    assert_eq!(log.lock().unwrap().log.len() as u64, core.retired());
    assert_matches_functional(&p, core.as_ref(), &e, "energy + retire log");
}

#[test]
fn energy_attached_twice_keeps_the_event_path() {
    let p = assemble(LOOP).unwrap();
    let totals = |backend| {
        let e = energy();
        let mut core = builder(&p, backend, &e).observer(e.clone()).build();
        core.run_for(Budget::Steps(1_000_000)).unwrap();
        let t = e.lock().unwrap().totals();
        (t, core.retired())
    };
    let (threaded, retired) = totals(Backend::Threaded);
    assert_eq!(threaded, totals(Backend::Functional).0);
    // Every write-back reached the observer once per attachment.
    assert_eq!(threaded.retired, 2 * retired);
}

/// Hands over its counters and counts the write-backs it still gets.
#[derive(Default)]
struct HandsOver {
    counters: FlipCounters,
    writebacks: u64,
}

impl Observer for HandsOver {
    fn on_writeback(&mut self, _: &Writeback) {
        self.writebacks += 1;
    }

    fn flip_counters(&mut self) -> Option<&mut FlipCounters> {
        Some(&mut self.counters)
    }
}

#[test]
fn handed_over_counters_are_kept_by_whole_blocks_without_events() {
    let p = assemble(LOOP).unwrap();
    let (_, f, f_acc) = functional(&p);
    let obs = Arc::new(Mutex::new(HandsOver::default()));
    let mut core = SimBuilder::new(&p)
        .backend(Backend::Threaded)
        .observer(obs.clone())
        .build();
    core.run_for(Budget::Steps(1_000_000)).unwrap();
    let obs = obs.lock().unwrap();
    // Every block was entered at its head with the budget covering it:
    // no instruction took the event path.
    assert_eq!(obs.writebacks, 0);
    assert_eq!(&obs.counters, f_acc.counters());
    assert_eq!(obs.counters.totals().retired, f.retired());
}
