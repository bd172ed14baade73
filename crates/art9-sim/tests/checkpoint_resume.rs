//! Snapshot/resume must be invisible: taking a [`Checkpoint`] at an
//! arbitrary point mid-run, restoring it into a *fresh* core (via the
//! serialized text form, so the on-disk format is exercised too) and
//! continuing must yield a bit-identical final [`CoreState`] — and, for
//! the pipelined backend, identical [`PipelineStats`] — versus a run
//! that was never interrupted. This is the property preemptible/sharded
//! batch serving rests on. It covers energy accounting too: a migrated
//! pipelined run counts the same trit flips as a straight one.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use art9_isa::{Instruction, Program, TReg};
use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, Budget, Checkpoint, SimBuilder};
use ternary::Trits;

/// Base register kept stable for memory addressing.
const BASE: TReg = TReg::T2;
const BASE_ADDR: i64 = 100;

fn imm<const N: usize>() -> impl Strategy<Value = Trits<N>> {
    let max = (ternary::pow3(N) - 1) / 2;
    (-max..=max).prop_map(|v| Trits::<N>::from_i64(v).expect("in range"))
}

/// A counted loop around a random ALU/memory body (same structural
/// termination guarantee as the `equivalence` suite), so checkpoints
/// land in interesting places: mid-loop, mid-dependency-chain, around
/// stores.
fn looped_program() -> impl Strategy<Value = Program> {
    use Instruction::*;
    let body_reg = || {
        prop_oneof![
            Just(TReg::T3),
            Just(TReg::T4),
            Just(TReg::T5),
            Just(TReg::T6),
        ]
    };
    let body_op = prop_oneof![
        (body_reg(), body_reg()).prop_map(|(a, b)| Mv { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Add { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Sub { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Comp { a, b }),
        (body_reg(), imm::<3>()).prop_map(|(a, imm)| Addi { a, imm }),
        (body_reg(), imm::<5>()).prop_map(|(a, imm)| Li { a, imm }),
        (body_reg(), imm::<3>()).prop_map(|(a, offset)| Load { a, b: BASE, offset }),
        (body_reg(), imm::<3>()).prop_map(|(a, offset)| Store { a, b: BASE, offset }),
    ];
    (proptest::collection::vec(body_op, 1..20), 2i64..=6).prop_map(|(body, iters)| {
        let (hi, lo) = art9_isa::asm::split_hi_lo(BASE_ADDR);
        let mut text = vec![
            Lui {
                a: BASE,
                imm: Trits::<4>::from_i64(hi).expect("fits"),
            },
            Li {
                a: BASE,
                imm: Trits::<5>::from_i64(lo).expect("fits"),
            },
            Li {
                a: TReg::T1,
                imm: Trits::<5>::from_i64(iters).expect("fits"),
            },
        ];
        let body_len = body.len() as i64;
        text.extend(body);
        text.push(Addi {
            a: TReg::T1,
            imm: Trits::<3>::from_i64(-1).expect("fits"),
        });
        text.push(Mv {
            a: TReg::T7,
            b: TReg::T1,
        });
        text.push(Comp {
            a: TReg::T7,
            b: TReg::T0,
        });
        text.push(Instruction::Beq {
            b: TReg::T7,
            cond: ternary::Trit::P,
            offset: Trits::<4>::from_i64(-(body_len + 3)).expect("fits imm4"),
        });
        Program::from_instructions(text)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn snapshot_restore_resume_is_bit_identical(p in looped_program(), cut in 0u64..160) {
        for backend in Backend::ALL {
            let builder = SimBuilder::new(&p).backend(backend);

            // The uninterrupted run.
            let mut base = builder.build();
            let summary = base.run_for(Budget::Steps(1_000_000)).expect("base run completes");
            prop_assert!(summary.halt.is_some(), "{backend}: did not halt");

            // Run to an arbitrary cut point, snapshot, serialize.
            let mut first = builder.build();
            first.run_for(Budget::Steps(cut)).expect("first half completes");
            let text = first.snapshot().to_text();

            // Restore into a fresh core through the text format, resume.
            let checkpoint = Checkpoint::from_text(&text).expect("parses back");
            prop_assert_eq!(&checkpoint, &first.snapshot(), "text roundtrip inexact");
            let mut resumed = builder.build();
            resumed.restore(&checkpoint).expect("restores");
            let resumed_summary =
                resumed.run_for(Budget::Steps(1_000_000)).expect("resumed run completes");

            // Bit-identical outcome: halt reason, architectural state
            // (registers, memory, PC), retirement counters, mix — and
            // for the pipelined backend the full cycle/stall accounting.
            prop_assert_eq!(summary.halt, resumed_summary.halt, "{}", backend);
            prop_assert_eq!(
                base.state().first_difference(resumed.state()),
                None,
                "{} diverged after resume", backend
            );
            prop_assert_eq!(base.state().pc, resumed.state().pc, "{}", backend);
            prop_assert_eq!(base.retired(), resumed.retired(), "{}", backend);
            prop_assert_eq!(base.instruction_mix(), resumed.instruction_mix(), "{}", backend);
            prop_assert_eq!(base.pipeline_stats(), resumed.pipeline_stats(), "{}", backend);
        }
    }

    #[test]
    fn architectural_checkpoints_cross_restore_between_backends(
        p in looped_program(),
        cut in 0u64..160,
    ) {
        // An architectural checkpoint is backend-portable: a snapshot
        // cut anywhere in a threaded run restores into a fresh
        // functional (or reference) core and vice versa, and the
        // cross-restored run is indistinguishable from one that ran on
        // the destination backend from reset — final state, counters,
        // and the serialized checkpoint itself.
        let builder = SimBuilder::new(&p);
        for (from, to) in [
            (Backend::Threaded, Backend::Functional),
            (Backend::Functional, Backend::Threaded),
            (Backend::Threaded, Backend::Reference),
        ] {
            // The uninterrupted run on the destination backend.
            let mut base = builder.clone().backend(to).build();
            let summary = base.run_for(Budget::Steps(1_000_000)).expect("base run completes");
            prop_assert!(summary.halt.is_some(), "{}: did not halt", to);

            // Source backend to an arbitrary cut; serialize the
            // checkpoint so the on-disk format crosses backends too.
            let mut first = builder.clone().backend(from).build();
            first.run_for(Budget::Steps(cut)).expect("first half completes");
            let checkpoint =
                Checkpoint::from_text(&first.snapshot().to_text()).expect("parses back");

            let mut resumed = builder.clone().backend(to).build();
            resumed.restore(&checkpoint).expect("cross-restore accepted");
            let resumed_summary =
                resumed.run_for(Budget::Steps(1_000_000)).expect("resumed run completes");

            prop_assert_eq!(summary.halt, resumed_summary.halt, "{} -> {}", from, to);
            prop_assert_eq!(
                base.state().first_difference(resumed.state()),
                None,
                "{} -> {} diverged after cross-restore", from, to
            );
            prop_assert_eq!(base.state().pc, resumed.state().pc, "{} -> {}", from, to);
            prop_assert_eq!(base.retired(), resumed.retired(), "{} -> {}", from, to);
            prop_assert_eq!(
                base.instruction_mix(),
                resumed.instruction_mix(),
                "{} -> {}", from, to
            );
            // Bit-identical serialized checkpoints at halt: the digest
            // preemptible batch serving keys on.
            prop_assert_eq!(
                base.snapshot().to_text(),
                resumed.snapshot().to_text(),
                "{} -> {}", from, to
            );
        }
    }

    #[test]
    fn budgeted_halves_equal_one_whole_run(p in looped_program(), slice in 1u64..40) {
        // Chained run_for calls on ONE core (no snapshot at all) must
        // also agree with a single-budget run — the preemption
        // primitive itself.
        let builder = SimBuilder::new(&p).backend(Backend::Pipelined);
        let mut whole = builder.build();
        whole.run_for(Budget::Steps(1_000_000)).expect("completes");

        let mut sliced = builder.build();
        let mut guard = 0u64;
        while sliced.run_for(Budget::Steps(slice)).expect("slice completes").halt.is_none() {
            guard += 1;
            prop_assert!(guard < 2_000_000, "did not converge");
        }
        prop_assert_eq!(whole.state().first_difference(sliced.state()), None);
        prop_assert_eq!(whole.pipeline_stats(), sliced.pipeline_stats());
    }
}

/// The service's migration pattern on the pipelined backend with energy
/// accounting: run a slice of retired instructions, snapshot, send the
/// checkpoint through its text form into a fresh core sharing the same
/// observer, repeat. Every slice boundary leaves an instruction between
/// MEM and WB, so the flips of that write-back must come from the
/// checkpoint alone.
#[test]
fn pipelined_energy_is_identical_when_migrated_at_every_slice() {
    for workload in [
        workloads::gemm(4),
        workloads::sobel(),
        workloads::dhrystone(5),
    ] {
        let rv = workload.rv32_program().expect("workload parses");
        let program = art9_compiler::translate(&rv)
            .expect("workload translates")
            .program;
        let run = |slice: Option<u64>| {
            let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
            let builder = SimBuilder::new(&program)
                .backend(Backend::Pipelined)
                .observer(energy.clone());
            let mut core = builder.build();
            let mut migrations = 0;
            loop {
                let budget = match slice {
                    Some(n) => Budget::Retired(core.retired() + n),
                    None => Budget::Steps(u64::MAX),
                };
                if core.run_for(budget).expect("runs").halt.is_some() {
                    break;
                }
                let text = core.snapshot().to_text();
                core = builder.build();
                core.restore(&Checkpoint::from_text(&text).expect("parses"))
                    .expect("restores");
                migrations += 1;
            }
            workload.verify_art9(core.state()).expect("verifies");
            let counters = energy.lock().unwrap().counters().clone();
            (counters, core.pipeline_stats(), migrations)
        };
        let (straight, straight_stats, _) = run(None);
        let (migrated, migrated_stats, migrations) = run(Some(97));
        assert!(
            migrations > 10,
            "{}: {migrations} migrations",
            workload.name
        );
        assert_eq!(migrated_stats, straight_stats, "{}", workload.name);
        for (i, (m, s)) in migrated
            .per_opcode()
            .iter()
            .zip(straight.per_opcode())
            .enumerate()
        {
            assert_eq!(
                m,
                s,
                "{}: {} counters",
                workload.name,
                Instruction::MNEMONICS[i]
            );
        }
        assert_eq!(migrated, straight, "{}", workload.name);
    }
}
