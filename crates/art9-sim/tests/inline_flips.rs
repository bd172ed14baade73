//! The threaded backend counts trit flips inline, on whole superblocks,
//! when its only observer hands over its flip counters
//! (`EnergyAccounting::new`). These are the edge cases of that path —
//! budget cuts inside fused blocks, mid-block landings, faults inside
//! fused pairs, checkpoint restores and migrations — each held to the
//! functional backend's per-opcode counters, bit for bit. Further
//! tests pin the fallback rule: every other observer set keeps the
//! event path and today's counts. The last one runs every entry of the
//! fusion table, bare and with energy attached.

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

/// One loop body per entry of the threaded backend's fusion table, as
/// `(pair, body)`: the body opens with that adjacent pair, so the pair
/// heads the loop's superblock and fuses. The two components use
/// different registers, immediates and offsets, on registers and words
/// holding different values, so a component that read the other's
/// operands changes the outcome. A first component's LOAD/STORE base is
/// t3, a second's t2. The branches go both ways across the iterations.
const PAIR_BODIES: [(&str, &str); 24] = [
    ("MV+COMP", "MV t1, t6\nCOMP t4, t5"),
    ("COMP+BEQ", "COMP t4, t6\nBEQ t4, +, skip\nLI t4, 20\nskip:"),
    ("COMP+BNE", "COMP t4, t6\nBNE t4, -, skip\nLI t4, 20\nskip:"),
    ("MV+ADDI", "MV t1, t6\nADDI t4, 3"),
    ("ADDI+MV", "ADDI t4, 4\nMV t1, t5"),
    ("ADDI+ADDI", "ADDI t4, 2\nADDI t6, -5"),
    ("ADD+ADD", "ADD t4, t1\nADD t6, t5"),
    ("SUB+LI", "SUB t4, t1\nLI t6, 40"),
    ("LI+SUB", "LI t4, -50\nSUB t6, t5"),
    ("ADD+LOAD", "ADD t4, t1\nLOAD t6, t2, 2"),
    ("ADDI+LOAD", "ADDI t4, 4\nLOAD t6, t2, -1"),
    ("MV+LOAD", "MV t1, t6\nLOAD t4, t2, 3"),
    ("ADD+STORE", "ADD t4, t1\nSTORE t6, t2, 1"),
    ("ADDI+STORE", "ADDI t4, -2\nSTORE t1, t2, 4"),
    ("MV+STORE", "MV t1, t6\nSTORE t4, t2, -2"),
    ("LOAD+LOAD", "LOAD t4, t3, 1\nLOAD t6, t2, 3"),
    ("LOAD+STORE", "LOAD t4, t3, 2\nSTORE t1, t2, 0"),
    ("STORE+LOAD", "STORE t1, t3, -1\nLOAD t4, t2, 4"),
    ("STORE+STORE", "STORE t6, t3, 3\nSTORE t4, t2, 2"),
    ("LOAD+MV", "LOAD t4, t3, 0\nMV t1, t5"),
    ("STORE+MV", "STORE t4, t3, 4\nMV t1, t6"),
    ("LOAD+COMP", "LOAD t4, t3, -2\nCOMP t6, t5"),
    ("LOAD+ADD", "LOAD t4, t3, 1\nADD t6, t1"),
    ("LOAD+ADDI", "LOAD t4, t3, 3\nADDI t6, 2"),
];

/// A three-iteration loop around `body`, over distinct register values
/// and TDM words. The loop tail perturbs t1 and t5, so each iteration
/// sees new values, and fuses nothing, so only `body` exercises a pair.
/// `bad_base` is moved outside the 256-word TDM first.
fn pair_loop(body: &str, bad_base: Option<&str>) -> Program {
    let bad = bad_base.map_or(String::new(), |r| format!("LI {r}, 121\nLUI {r}, 40\n"));
    assemble(&format!(
        "
        .data
        v: .word 40, -31, 22, -13, 4, 50, -61, 72, -83, 94, 15, -26, 37, -48, 59, 60
        .text
        LI t1, 7
        LI t2, 5
        LI t3, 11
        LI t4, -3
        LI t5, -7
        LI t6, 13
        LI t8, 3
        {bad}
    loop:
        {body}
        ADDI t8, -1
        SUB t5, t8
        MV t7, t8
        XOR t1, t8
        COMP t7, t0
        SLI t1, 1
        BEQ t7, +, loop
        JAL t0, 0
    "
    ))
    .unwrap()
}

/// Compares a threaded run of `p`, bare and with `EnergyAccounting`,
/// with the functional run: result, state, retired count, instruction
/// mix and (energy run) every per-opcode counter. Returns what differs.
fn threaded_vs_functional(p: &Program) -> Vec<String> {
    let (f_result, f, f_acc) = functional(p);
    let mut diffs = Vec::new();
    let e = energy();
    let runs = [
        (
            "bare",
            SimBuilder::new(p).backend(Backend::Threaded).build(),
        ),
        ("energy", builder(p, Backend::Threaded, &e).build()),
    ];
    for (what, mut core) in runs {
        let result = core.run_for(Budget::Steps(1_000_000)).map(|_| ());
        if result != f_result {
            diffs.push(format!("{what}: {result:?} vs {f_result:?}"));
        }
        if let Some(d) = f.state().first_difference(core.state()) {
            diffs.push(format!("{what}: state {d}"));
        }
        if core.state().pc != f.state().pc || core.retired() != f.retired() {
            diffs.push(format!("{what}: pc/retired"));
        }
        if core.instruction_mix() != f.instruction_mix() {
            diffs.push(format!("{what}: mix"));
        }
    }
    if e.lock().unwrap().counters() != f_acc.counters() {
        diffs.push("energy: counters".to_string());
    }
    diffs
}

#[test]
fn every_fused_pair_matches_functional_and_settles_its_faults() {
    let table: Vec<String> = SimBuilder::new(&pair_loop("", None))
        .build_threaded()
        .fusion_profile()
        .into_iter()
        .map(|(pair, _, _)| pair)
        .collect();
    let covered: Vec<&str> = PAIR_BODIES.iter().map(|(pair, _)| *pair).collect();
    assert_eq!(table, covered, "one body per table entry, in table order");

    let mut failures = Vec::new();
    for (pair, body) in PAIR_BODIES {
        let p = pair_loop(body, None);
        let mut sim = SimBuilder::new(&p).build_threaded();
        // The outcome is compared below.
        let _ = sim.run(1_000_000);
        let profile = sim.fusion_profile();
        let row = profile.iter().find(|(name, _, _)| name == pair).unwrap();
        if row.1 == 0 || row.2 < 3 {
            failures.push(format!("{pair}: did not fuse, {row:?}"));
        }
        for d in threaded_vs_functional(&p) {
            failures.push(format!("{pair}: {d}"));
        }
        // A faulting LOAD/STORE component, first or second, settles the
        // partial pair.
        let (first, second) = pair.split_once('+').unwrap();
        let memory = |m: &str| m == "LOAD" || m == "STORE";
        for (component, base) in [(first, "t3"), (second, "t2")] {
            if memory(component) {
                let p = pair_loop(body, Some(base));
                if functional(&p).0.is_ok() {
                    failures.push(format!("{pair}: {component} did not fault"));
                }
                for d in threaded_vs_functional(&p) {
                    failures.push(format!("{pair} with {component} faulting: {d}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
