//! Shared helpers for the table/figure regeneration benches.
//!
//! Each bench target regenerates one table or figure of the paper
//! (printed before measurement starts) and then measures the runtime
//! of the underlying machinery with Criterion. `cargo bench` therefore
//! both reproduces the evaluation and tracks the simulator's own
//! performance.

pub mod energy;
pub mod gate;

use art9_compiler::Translation;
use art9_sim::{PipelineStats, SimBuilder};
use rv32::{CycleReport, PicoRv32Model, VexRiscvModel};
use workloads::batch::DEFAULT_MAX_STEPS;
use workloads::Workload;

/// Translates a workload to ART-9 (panicking on failure — workloads
/// are translatable by construction).
pub fn translate(w: &Workload) -> Translation {
    let rv = w.rv32_program().expect("workload parses");
    art9_compiler::translate(&rv).expect("workload translates")
}

/// Runs a translated workload on the pipelined ART-9, verifying the
/// output.
pub fn run_art9(w: &Workload, t: &Translation) -> PipelineStats {
    let mut core = SimBuilder::new(&t.program).build_pipelined();
    let stats = core.run(DEFAULT_MAX_STEPS).expect("ART-9 run completes");
    w.verify_art9(core.state()).expect("ART-9 output verifies");
    stats
}

/// Runs a workload under the PicoRV32 cycle model, verifying the
/// output on the functional machine.
pub fn run_picorv32(w: &Workload) -> CycleReport {
    let rv = w.rv32_program().expect("workload parses");
    let mut machine = rv32::Machine::new(&rv);
    machine.run(DEFAULT_MAX_STEPS).expect("rv32 run completes");
    w.verify_rv32(&machine).expect("rv32 output verifies");
    rv32::simulate_cycles(&rv, &mut PicoRv32Model::new(), DEFAULT_MAX_STEPS)
        .expect("cycle model completes")
}

/// Runs a workload under the VexRiscv cycle model.
pub fn run_vexriscv(w: &Workload) -> CycleReport {
    let rv = w.rv32_program().expect("workload parses");
    rv32::simulate_cycles(&rv, &mut VexRiscvModel::new(), DEFAULT_MAX_STEPS)
        .expect("cycle model completes")
}

/// DMIPS/MHz from total cycles over `iterations` Dhrystone iterations.
pub fn dmips_per_mhz(cycles: u64, iterations: usize) -> f64 {
    1.0e6 / (cycles as f64 / iterations as f64 * workloads::DHRYSTONE_DIVISOR)
}

pub mod perf {
    //! Host-performance measurement behind `BENCH_ternary.json`.
    //!
    //! The report binary regenerates the paper's tables *and* tracks
    //! how fast the framework itself runs; this module measures the
    //! two layers the packed-BCT refactor targets — word-level ternary
    //! operations and whole-simulator throughput — and renders them as
    //! a machine-readable JSON document so the performance trajectory
    //! is diffable across PRs. Methodology and schema are documented
    //! in `docs/PERFORMANCE.md`.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    use std::sync::{Arc, Mutex};

    use art9_sim::observers::EnergyAccounting;
    use art9_sim::{Backend, Budget, PredecodedProgram, SimBuilder};
    use ternary::{arith, Word9};
    use workloads::batch::DEFAULT_MAX_STEPS;
    use workloads::Workload;

    /// Functional-simulator instructions/second per workload measured at
    /// the PR 1 seed (commit `f51d935`, pre-packed-BCT, same methodology)
    /// — the denominators of the `functional_speedup` fields.
    pub const SEED_FUNCTIONAL_IPS: [(&str, f64); 4] = [
        ("bubble-sort", 1.450e7),
        ("gemm", 1.411e7),
        ("sobel", 1.533e7),
        ("dhrystone", 1.455e7),
    ];

    /// Pipelined-simulator cycles/second per workload at the PR 1 seed.
    pub const SEED_PIPELINED_CPS: [(&str, f64); 4] = [
        ("bubble-sort", 1.134e7),
        ("gemm", 1.108e7),
        ("sobel", 1.220e7),
        ("dhrystone", 1.020e7),
    ];

    /// One measured word-operation cost.
    #[derive(Debug, Clone)]
    pub struct WordOp {
        /// Operation name (matches the `ternary_arith` bench entries).
        pub name: &'static str,
        /// Mean nanoseconds per operation.
        pub ns_per_op: f64,
    }

    /// Measured simulator throughput for one workload.
    #[derive(Debug, Clone)]
    pub struct SimThroughput {
        /// Workload name.
        pub workload: &'static str,
        /// Instructions one functional run retires.
        pub instructions: u64,
        /// Cycles one pipelined run takes.
        pub cycles: u64,
        /// Functional simulator instructions per host second.
        pub functional_ips: f64,
        /// Direct-threaded simulator instructions per host second.
        pub threaded_ips: f64,
        /// Pipelined simulator cycles per host second.
        pub pipelined_cps: f64,
        /// Functional instructions per host second with an
        /// `EnergyAccounting` observer attached (the Table IV path).
        pub functional_observed_ips: f64,
        /// Threaded instructions per host second, energy observed.
        pub threaded_observed_ips: f64,
        /// Pipelined cycles per host second, energy observed.
        pub pipelined_observed_cps: f64,
    }

    /// Mean ns per call of `f`, measured over roughly `budget`.
    fn ns_per_call<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
        // Warm-up probe sizes the batch so the clock is read rarely.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_batch = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 1 << 22);
        // The minimum over batch means is the robust throughput
        // estimator: host noise (scheduling, frequency excursions)
        // only ever slows a batch down, so the fastest batch is the
        // closest observation of the undisturbed rate.
        let start = Instant::now();
        let mut best = f64::INFINITY;
        while start.elapsed() < budget {
            let b0 = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            best = best.min(b0.elapsed().as_nanos() as f64 / per_batch as f64);
        }
        best
    }

    /// A deterministic spread of operands over the full symmetric
    /// `Word9` range, so carry-chain lengths and sign mixes are averaged
    /// rather than fixed by one operand pair.
    fn operand_pool() -> Vec<Word9> {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        (0..64)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Word9::from_i64_wrapping((seed >> 16) as i64 % 19683 - 9841)
            })
            .collect()
    }

    /// Measures the word-operation suite (`budget` per operation).
    pub fn measure_word_ops(budget: Duration) -> Vec<WordOp> {
        let pool = operand_pool();
        let mut k = 0usize;
        let next_pair = move || {
            k = (k + 1) % 63;
            (pool[k], pool[k + 1])
        };
        let mut ops: Vec<WordOp> = Vec::new();
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "add",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_add(b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "add_tritwise_ref",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    arith::add_tritwise(a, b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "mul",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_mul(b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "compare",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.compare(b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "logic_and_or_xor",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.and(b).or(b.xor(a))
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "negate",
                ns_per_op: ns_per_call(budget, move || next_tuple_first(&mut p).negate()),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "to_i64",
                ns_per_op: ns_per_call(budget, move || next_tuple_first(&mut p).to_i64()),
            });
        }
        ops.push(WordOp {
            name: "from_i64_wrapping",
            ns_per_op: {
                let mut v = 0i64;
                ns_per_call(budget, move || {
                    v = v.wrapping_add(104729);
                    Word9::from_i64_wrapping(v)
                })
            },
        });
        ops
    }

    fn next_tuple_first(p: &mut impl FnMut() -> (Word9, Word9)) -> Word9 {
        p().0
    }

    /// One measured multi-plane wide-word (or tapered-real) operation
    /// cost — a row of the `wide` section of `BENCH_ternary.json`.
    #[derive(Debug, Clone)]
    pub struct WidePerf {
        /// Operation name, `<type>_<op>` (e.g. `word81_add`).
        pub name: &'static str,
        /// Mean nanoseconds per operation.
        pub ns_per_op: f64,
    }

    /// Rotates through adjacent pairs of a pre-generated operand pool,
    /// so carry-chain lengths and sign mixes are averaged like the
    /// `Word9` suite.
    fn pair_stream<T: Copy>(pool: &[T]) -> impl FnMut() -> (T, T) + '_ {
        let mut k = 0usize;
        move || {
            k = (k + 1) % (pool.len() - 1);
            (pool[k], pool[k + 1])
        }
    }

    /// Measures the wide-word suite (`budget` per operation): the
    /// Etiemble-style adder/multiplier rows at 27 and 81 trits, the
    /// 81-trit support ops, and the tapered-precision real arithmetic.
    pub fn measure_wide(budget: Duration) -> Vec<WidePerf> {
        use ternary::{TernaryReal, Word27, Word81};

        let mut seed = 0x243F_6A88_85A3_08D3u64;
        let mut raw = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        let w27: Vec<Word27> = (0..64)
            .map(|_| Word27::from_i128_wrapping(raw() as i64 as i128))
            .collect();
        let w81: Vec<Word81> = (0..64)
            .map(|_| Word81::from_i128_wrapping((((raw() as u128) << 64) | raw() as u128) as i128))
            .collect();
        let reals: Vec<TernaryReal> = (0..64)
            .map(|_| TernaryReal::from_scaled(raw() as i64 >> 16, (raw() % 121) as i32 - 60))
            .collect();

        let mut ops: Vec<WidePerf> = Vec::new();
        {
            let mut p = pair_stream(&w27);
            ops.push(WidePerf {
                name: "word27_add",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_add(b)
                }),
            });
        }
        {
            let mut p = pair_stream(&w27);
            ops.push(WidePerf {
                name: "word27_mul",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_mul(b)
                }),
            });
        }
        {
            let mut p = pair_stream(&w81);
            ops.push(WidePerf {
                name: "word81_add",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_add(b)
                }),
            });
        }
        {
            let mut p = pair_stream(&w81);
            ops.push(WidePerf {
                name: "word81_mul",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_mul(b)
                }),
            });
        }
        {
            let mut p = pair_stream(&w81);
            ops.push(WidePerf {
                name: "word81_negate",
                ns_per_op: ns_per_call(budget, move || p().0.negate()),
            });
        }
        {
            let mut p = pair_stream(&w81);
            ops.push(WidePerf {
                name: "word81_compare",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.cmp(&b)
                }),
            });
        }
        {
            let mut p = pair_stream(&w81);
            ops.push(WidePerf {
                name: "word81_compress3",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    Word81::compress3(a, b, a.negate())
                }),
            });
        }
        {
            let mut p = pair_stream(&w81);
            ops.push(WidePerf {
                name: "word81_to_i128",
                ns_per_op: ns_per_call(budget, move || p().0.try_to_i128()),
            });
        }
        {
            let mut v = 1i128;
            ops.push(WidePerf {
                name: "word81_from_i128_wrapping",
                ns_per_op: ns_per_call(budget, move || {
                    v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    Word81::from_i128_wrapping(v)
                }),
            });
        }
        {
            let mut p = pair_stream(&reals);
            ops.push(WidePerf {
                name: "real_add",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.add(&b)
                }),
            });
        }
        {
            let mut p = pair_stream(&reals);
            ops.push(WidePerf {
                name: "real_mul",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.mul(&b)
                }),
            });
        }
        {
            let mut p = pair_stream(&reals);
            ops.push(WidePerf {
                name: "real_tapered_roundtrip",
                ns_per_op: ns_per_call(budget, move || {
                    TernaryReal::from_tapered(p().0.to_tapered())
                }),
            });
        }
        ops
    }

    /// Measures functional and pipelined throughput of one workload on
    /// its shared predecoded image (`budget` per simulator).
    ///
    /// # Panics
    ///
    /// Panics when the workload does not translate or a run faults —
    /// the paper workloads are correct by construction.
    pub fn measure_sim_throughput(w: &Workload, budget: Duration) -> SimThroughput {
        let t = crate::translate(w);
        let image = PredecodedProgram::new(&t.program);

        let builder = SimBuilder::new(&image);
        let mut probe = builder.build_functional();
        let instructions = probe
            .run(DEFAULT_MAX_STEPS)
            .expect("completes")
            .instructions;
        // The threaded backend must retire exactly what the functional
        // one does — measured on the same shared image, construction
        // (compilation included) inside the timed call like the others.
        let mut probe = builder.build_threaded();
        let threaded_instructions = probe
            .run(DEFAULT_MAX_STEPS)
            .expect("completes")
            .instructions;
        assert_eq!(
            threaded_instructions, instructions,
            "threaded and functional retirement counts diverged"
        );
        let mut probe = builder.build_pipelined();
        let cycles = probe.run(DEFAULT_MAX_STEPS).expect("completes").cycles;

        // The backends, bare and with a fresh energy observer attached
        // to every run, are measured in interleaved rounds (each keeping its
        // fastest round) rather than one contiguous window apiece: a
        // host-frequency excursion then degrades all of them equally
        // instead of silently skewing the cross-backend ratios the
        // report exists to track.
        let rounds = 3u32;
        let slice = budget / (3 * rounds);
        let observed = |backend: Backend| {
            builder
                .clone()
                .backend(backend)
                .observer(Arc::new(Mutex::new(EnergyAccounting::new())))
                .build()
        };
        let mut best = [f64::INFINITY; 6];
        for _ in 0..rounds {
            let runs: [&dyn Fn() -> u64; 6] = [
                &|| {
                    let mut sim = builder.build_functional();
                    sim.run(DEFAULT_MAX_STEPS).expect("completes").instructions
                },
                &|| {
                    let mut sim = builder.build_threaded();
                    sim.run(DEFAULT_MAX_STEPS).expect("completes").instructions
                },
                &|| {
                    let mut core = builder.build_pipelined();
                    core.run(DEFAULT_MAX_STEPS).expect("completes").cycles
                },
                &|| {
                    let mut core = observed(Backend::Functional);
                    core.run_for(Budget::Steps(DEFAULT_MAX_STEPS))
                        .expect("completes")
                        .steps
                },
                &|| {
                    let mut core = observed(Backend::Threaded);
                    core.run_for(Budget::Steps(DEFAULT_MAX_STEPS))
                        .expect("completes")
                        .steps
                },
                &|| {
                    let mut core = observed(Backend::Pipelined);
                    core.run_for(Budget::Steps(DEFAULT_MAX_STEPS))
                        .expect("completes")
                        .steps
                },
            ];
            for (ns, run) in best.iter_mut().zip(runs) {
                *ns = ns.min(ns_per_call(slice, run));
            }
        }
        let rate = |count: u64, ns: f64| count as f64 * 1e9 / ns;

        SimThroughput {
            workload: w.name,
            instructions,
            cycles,
            functional_ips: rate(instructions, best[0]),
            threaded_ips: rate(instructions, best[1]),
            pipelined_cps: rate(cycles, best[2]),
            functional_observed_ips: rate(instructions, best[3]),
            threaded_observed_ips: rate(instructions, best[4]),
            pipelined_observed_cps: rate(cycles, best[5]),
        }
    }

    /// Scheduler throughput of one in-process service load run — the
    /// `service` section of `BENCH_ternary.json`.
    #[derive(Debug, Clone)]
    pub struct ServicePerf {
        /// Concurrent sessions submitted (all completed exactly).
        pub sessions: u64,
        /// Worker threads the scheduler ran.
        pub workers: u64,
        /// Sessions completed per wall-clock second.
        pub sessions_per_second: f64,
        /// Aggregate retired instructions per second per worker.
        pub per_worker_ips: f64,
        /// p99 slice latency in microseconds.
        pub p99_slice_us: f64,
        /// Cross-worker checkpoint migrations across all sessions.
        pub migrations: u64,
        /// Work-steals across all workers.
        pub steals: u64,
    }

    /// Measures scheduler throughput by flooding an in-process service
    /// with `sessions` budget-sliced spin sessions. The fairness and
    /// latency acceptance bounds are disabled — this is a measurement,
    /// not the load smoke — but the exact-completion check stays on.
    ///
    /// # Panics
    ///
    /// Panics when the service fails to start or any session does not
    /// finish with its exact retirement count.
    pub fn measure_service(sessions: usize) -> ServicePerf {
        use art9_service::loadtest::{run_self_contained, LoadConfig};
        let report = run_self_contained(&LoadConfig {
            sessions,
            target_retired: 50_000,
            quantum: 1_000,
            fairness_ratio: f64::INFINITY,
            p99_slice_ms: f64::INFINITY,
            ..LoadConfig::default()
        })
        .expect("service load runs");
        assert!(
            report.passed(),
            "service load violations: {:?}",
            report.violations
        );
        ServicePerf {
            sessions: report.sessions as u64,
            workers: report.workers,
            sessions_per_second: report.sessions_per_second,
            per_worker_ips: report.per_worker_ips,
            p99_slice_us: report.p99_slice_us,
            migrations: report.migrations,
            steals: report.steals,
        }
    }

    /// SIMD-vs-scalar ternary-NN measurement — the `nn` section of
    /// `BENCH_ternary.json`.
    #[derive(Debug, Clone)]
    pub struct NnPerf {
        /// Ternary weight matrix rows (output neurons).
        pub rows: usize,
        /// Ternary weight matrix columns (input activations).
        pub cols: usize,
        /// Mean ns per scalar (one-`Word9`-at-a-time) matrix–vector
        /// product.
        pub scalar_ns_per_matvec: f64,
        /// Mean ns per bitplane-SIMD matrix–vector product.
        pub simd_ns_per_matvec: f64,
        /// Host speedup of the SIMD golden path over the scalar loop.
        pub simd_speedup: f64,
        /// Per-backend throughput of the `nn-mlp` workload kernel.
        pub sim: SimThroughput,
    }

    /// Measures the ternary-NN layer: the host SIMD matvec against the
    /// scalar one-word-at-a-time loop (the ISSUE's ≥4× golden path),
    /// plus per-backend simulator throughput of the `nn-mlp` workload.
    ///
    /// # Panics
    ///
    /// Panics if the two golden paths disagree (they are cross-checked
    /// before timing) or the workload run faults.
    pub fn measure_nn(budget: Duration) -> NnPerf {
        use workloads::nn::TernaryMatrix;

        // Large enough that lane parallelism dominates loop overhead,
        // deliberately not a multiple of the 6-lane word width.
        let (rows, cols) = (40, 40);
        let m = TernaryMatrix::seeded(rows, cols, 0x05ee_d001);
        let pool = operand_pool();
        let x: Vec<Word9> = (0..cols).map(|i| pool[i % pool.len()]).collect();
        assert_eq!(
            m.matvec_simd(&x),
            m.matvec_scalar(&x),
            "SIMD and scalar golden paths diverged"
        );

        // Interleaved rounds, like the simulator measurement: a host
        // frequency excursion degrades both sides equally instead of
        // skewing the speedup ratio.
        let rounds = 3u32;
        let slice = budget / (2 * rounds);
        let mut scalar_ns = f64::INFINITY;
        let mut simd_ns = f64::INFINITY;
        for _ in 0..rounds {
            scalar_ns = scalar_ns.min(ns_per_call(slice, || m.matvec_scalar(black_box(&x))));
            simd_ns = simd_ns.min(ns_per_call(slice, || m.matvec_simd(black_box(&x))));
        }

        NnPerf {
            rows,
            cols,
            scalar_ns_per_matvec: scalar_ns,
            simd_ns_per_matvec: simd_ns,
            simd_speedup: scalar_ns / simd_ns,
            sim: measure_sim_throughput(&workloads::nn_mlp(8), budget),
        }
    }

    /// Looks up a workload's frozen seed rate in [`SEED_FUNCTIONAL_IPS`]
    /// or [`SEED_PIPELINED_CPS`].
    pub fn seed_rate(table: &[(&str, f64)], workload: &str) -> Option<f64> {
        table.iter().find(|(n, _)| *n == workload).map(|(_, v)| *v)
    }

    /// Renders the measurements as the `BENCH_ternary.json` document
    /// (schema `art9-bench-ternary/v1`, described in
    /// `docs/PERFORMANCE.md`; the `energy` section in `docs/ENERGY.md`;
    /// the `service` section in `docs/SERVICE.md`).
    pub fn bench_json(
        word_ops: &[WordOp],
        sims: &[SimThroughput],
        energy: &[crate::energy::EnergyRow],
        service: Option<&ServicePerf>,
        nn: Option<&NnPerf>,
        wide: &[WidePerf],
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"art9-bench-ternary/v1\",\n");
        out.push_str("  \"generated_by\": \"cargo run --release -p art9-bench --bin report\",\n");
        out.push_str(
            "  \"baseline\": \"PR 1 seed (commit f51d935), same host and methodology\",\n",
        );
        out.push_str("  \"word_ops\": [\n");
        for (i, op) in word_ops.iter().enumerate() {
            let comma = if i + 1 < word_ops.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"ns_per_op\": {:.2}}}{comma}",
                op.name, op.ns_per_op
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"simulators\": [\n");
        for (i, s) in sims.iter().enumerate() {
            let comma = if i + 1 < sims.len() { "," } else { "" };
            let func_seed = seed_rate(&SEED_FUNCTIONAL_IPS, s.workload);
            let pipe_seed = seed_rate(&SEED_PIPELINED_CPS, s.workload);
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"instructions\": {}, \"cycles\": {}, \
                 \"functional_ips\": {:.4e}, \"threaded_ips\": {:.4e}, \
                 \"threaded_speedup_vs_functional\": {:.2}, \"pipelined_cps\": {:.4e}",
                s.workload,
                s.instructions,
                s.cycles,
                s.functional_ips,
                s.threaded_ips,
                s.threaded_ips / s.functional_ips,
                s.pipelined_cps
            );
            if let Some(seed) = func_seed {
                let _ = write!(
                    out,
                    ", \"seed_functional_ips\": {seed:.4e}, \"functional_speedup\": {:.2}",
                    s.functional_ips / seed
                );
            }
            if let Some(seed) = pipe_seed {
                let _ = write!(
                    out,
                    ", \"seed_pipelined_cps\": {seed:.4e}, \"pipelined_speedup\": {:.2}",
                    s.pipelined_cps / seed
                );
            }
            let _ = write!(
                out,
                ", \"functional_observed_ips\": {:.4e}, \"threaded_observed_ips\": {:.4e}, \
                 \"pipelined_observed_cps\": {:.4e}",
                s.functional_observed_ips, s.threaded_observed_ips, s.pipelined_observed_cps
            );
            let _ = writeln!(out, "}}{comma}");
        }
        out.push_str("  ]");
        if !energy.is_empty() {
            out.push_str(",\n  \"energy\": [\n");
            render_energy_rows(&mut out, energy);
            out.push_str("  ]");
        }
        if let Some(s) = service {
            out.push_str(",\n  \"service\": [\n");
            let _ = writeln!(
                out,
                "    {{\"sessions\": {}, \"workers\": {}, \
                 \"sessions_per_second\": {:.4e}, \"per_worker_ips\": {:.4e}, \
                 \"p99_slice_us\": {:.3}, \"migrations\": {}, \"steals\": {}}}",
                s.sessions,
                s.workers,
                s.sessions_per_second,
                s.per_worker_ips,
                s.p99_slice_us,
                s.migrations,
                s.steals
            );
            out.push_str("  ]");
        }
        if let Some(n) = nn {
            out.push_str(",\n  \"nn\": [\n");
            let _ = writeln!(
                out,
                "    {{\"workload\": \"{}\", \"rows\": {}, \"cols\": {}, \
                 \"scalar_ns_per_matvec\": {:.2}, \"simd_ns_per_matvec\": {:.2}, \
                 \"simd_speedup\": {:.2}, \"instructions\": {}, \"cycles\": {}, \
                 \"functional_ips\": {:.4e}, \"threaded_ips\": {:.4e}, \
                 \"pipelined_cps\": {:.4e}}}",
                n.sim.workload,
                n.rows,
                n.cols,
                n.scalar_ns_per_matvec,
                n.simd_ns_per_matvec,
                n.simd_speedup,
                n.sim.instructions,
                n.sim.cycles,
                n.sim.functional_ips,
                n.sim.threaded_ips,
                n.sim.pipelined_cps
            );
            out.push_str("  ]");
        }
        if !wide.is_empty() {
            out.push_str(",\n  \"wide\": [\n");
            for (i, op) in wide.iter().enumerate() {
                let comma = if i + 1 < wide.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"ns_per_op\": {:.2}}}{comma}",
                    op.name, op.ns_per_op
                );
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the `energy` array rows of [`bench_json`].
    fn render_energy_rows(out: &mut String, energy: &[crate::energy::EnergyRow]) {
        use std::fmt::Write as _;
        for (i, r) in energy.iter().enumerate() {
            let comma = if i + 1 < energy.len() { "," } else { "" };
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"cycles\": {}, \"instructions\": {}, \
                 \"energy_nj\": {:.6e}, \"epi_pj\": {:.6e}",
                r.workload, r.cycles, r.instructions, r.energy_nj, r.epi_pj
            );
            for (class, epi) in art9_hw::activity::ALL_CLASSES.iter().zip(r.class_epi_pj) {
                let _ = write!(out, ", \"epi_{}_pj\": {epi:.6e}", class.name());
            }
            let _ = write!(
                out,
                ", \"dynamic_uw\": {:.6e}, \"total_uw\": {:.6e}",
                r.dynamic_uw, r.total_uw
            );
            if let (Some(dmips), Some(dpw)) = (r.dmips, r.dmips_per_watt) {
                let _ = write!(
                    out,
                    ", \"dmips\": {dmips:.4e}, \"dmips_per_watt\": {dpw:.4e}"
                );
            }
            let _ = writeln!(out, "}}{comma}");
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn word_ops_measure_quickly_and_positively() {
            let ops = measure_word_ops(Duration::from_millis(2));
            assert!(ops.iter().any(|o| o.name == "add"));
            assert!(ops.iter().all(|o| o.ns_per_op > 0.0));
        }

        #[test]
        fn wide_ops_measure_quickly_and_positively() {
            let ops = measure_wide(Duration::from_millis(2));
            assert!(ops.iter().any(|o| o.name == "word27_add"));
            assert!(ops.iter().any(|o| o.name == "word81_mul"));
            assert!(ops.iter().any(|o| o.name == "real_add"));
            assert!(ops.iter().all(|o| o.ns_per_op > 0.0));
        }

        #[test]
        fn sim_throughput_counts_match_direct_run() {
            let w = workloads::dot_product(4);
            let s = measure_sim_throughput(&w, Duration::from_millis(5));
            assert!(s.functional_ips > 0.0 && s.pipelined_cps > 0.0);
            assert!(s.threaded_ips > 0.0);
            assert!(s.functional_observed_ips > 0.0 && s.threaded_observed_ips > 0.0);
            assert!(s.pipelined_observed_cps > 0.0);
            assert!(s.instructions > 0 && s.cycles >= s.instructions);
        }

        #[test]
        fn json_has_schema_and_balanced_braces() {
            let ops = vec![WordOp {
                name: "add",
                ns_per_op: 3.25,
            }];
            let sims = vec![SimThroughput {
                workload: "dhrystone",
                instructions: 100,
                cycles: 120,
                functional_ips: 6.6e7,
                threaded_ips: 2.2e8,
                pipelined_cps: 2.1e7,
                functional_observed_ips: 1.5e7,
                threaded_observed_ips: 1.8e7,
                pipelined_observed_cps: 1.0e7,
            }];
            let energy = vec![crate::energy::EnergyRow {
                workload: "dhrystone",
                cycles: 120,
                instructions: 100,
                energy_nj: 1.5e-3,
                epi_pj: 1.5e-2,
                class_epi_pj: [0.016, 0.014, 0.012, 0.02, 0.018],
                dynamic_uw: 3.0,
                total_uw: 20.0,
                dmips: Some(150.0),
                dmips_per_watt: Some(7.5e6),
            }];
            let service = ServicePerf {
                sessions: 512,
                workers: 8,
                sessions_per_second: 130.5,
                per_worker_ips: 4.2e6,
                p99_slice_us: 210.25,
                migrations: 97,
                steals: 41,
            };
            let nn = NnPerf {
                rows: 40,
                cols: 40,
                scalar_ns_per_matvec: 4000.0,
                simd_ns_per_matvec: 500.0,
                simd_speedup: 8.0,
                sim: SimThroughput {
                    workload: "nn-mlp",
                    instructions: 5000,
                    cycles: 7000,
                    functional_ips: 5.5e7,
                    threaded_ips: 1.8e8,
                    pipelined_cps: 1.9e7,
                    functional_observed_ips: 1.4e7,
                    threaded_observed_ips: 1.7e7,
                    pipelined_observed_cps: 0.9e7,
                },
            };
            let wide = vec![
                WidePerf {
                    name: "word81_add",
                    ns_per_op: 6.5,
                },
                WidePerf {
                    name: "real_mul",
                    ns_per_op: 42.75,
                },
            ];
            let json = bench_json(&ops, &sims, &energy, Some(&service), Some(&nn), &wide);
            assert!(json.contains("\"schema\": \"art9-bench-ternary/v1\""));
            assert!(json.contains("\"functional_speedup\""));
            assert!(json.contains("\"threaded_ips\""));
            assert!(json.contains("\"threaded_speedup_vs_functional\": 3.33"));
            assert!(json.contains("\"threaded_observed_ips\": 1.8000e7"));
            assert!(json.contains("\"energy\""));
            assert!(json.contains("\"energy_nj\""));
            assert!(json.contains("\"epi_alu_pj\""));
            assert!(json.contains("\"epi_control_pj\""));
            assert!(json.contains("\"dmips_per_watt\": 7.5000e6"));
            assert!(json.contains("\"service\""));
            assert!(json.contains("\"per_worker_ips\": 4.2000e6"));
            assert!(json.contains("\"p99_slice_us\": 210.250"));
            assert!(json.contains("\"nn\""));
            assert!(json.contains("\"workload\": \"nn-mlp\""));
            assert!(json.contains("\"simd_speedup\": 8.00"));
            assert!(json.contains("\"wide\""));
            assert!(json.contains("\"name\": \"word81_add\", \"ns_per_op\": 6.50"));
            assert!(json.contains("\"name\": \"real_mul\", \"ns_per_op\": 42.75"));
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "unbalanced braces:\n{json}"
            );
            assert_eq!(json.matches('[').count(), json.matches(']').count());

            // Without energy rows, a service run, an NN measurement or
            // wide rows the sections are omitted entirely (the shape
            // older baselines have).
            let bare = bench_json(&ops, &sims, &[], None, None, &[]);
            assert!(!bare.contains("\"energy\""));
            assert!(!bare.contains("\"service\""));
            assert!(!bare.contains("\"nn\""));
            assert!(!bare.contains("\"wide\""));
            assert_eq!(bare.matches('{').count(), bare.matches('}').count());
        }

        #[test]
        fn nn_measurement_agrees_and_shows_simd_speedup() {
            let n = measure_nn(Duration::from_millis(30));
            assert_eq!((n.rows, n.cols), (40, 40));
            assert!(n.scalar_ns_per_matvec > 0.0 && n.simd_ns_per_matvec > 0.0);
            // The acceptance bar is 4x, measured and pinned in release
            // (the report binary and the gate); an unoptimized build
            // distorts the ratio, so debug only sanity-checks that the
            // SIMD path wins at all.
            let bar = if cfg!(debug_assertions) { 2.0 } else { 4.0 };
            assert!(
                n.simd_speedup >= bar,
                "SIMD matvec only {:.1}x faster than scalar (bar {bar}x)",
                n.simd_speedup
            );
            assert!(n.sim.functional_ips > 0.0 && n.sim.threaded_ips > 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::bubble_sort;

    #[test]
    fn helpers_run_and_verify() {
        let w = bubble_sort(8);
        let t = translate(&w);
        let stats = run_art9(&w, &t);
        let pico = run_picorv32(&w);
        assert!(stats.cycles > 0 && pico.cycles > 0);
    }

    #[test]
    fn dmips_arithmetic() {
        // 1355 cycles/iteration -> 0.42 DMIPS/MHz (Table II).
        assert!((dmips_per_mhz(1355 * 10, 10) - 0.42).abs() < 0.01);
    }
}
