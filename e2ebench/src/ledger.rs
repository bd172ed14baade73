//! The per-layer ledger: each layer's public entry points timed from
//! outside, by interleaved best-of-rounds.
//!
//! Every item is measured in `ROUNDS` rounds, and in each round every
//! item gets one equal slice of the budget, so a host-frequency
//! excursion or a noisy neighbour hits all items alike instead of
//! skewing one. Within a slice an item runs batches sized to about
//! 2 ms; the fastest batch mean of all rounds is kept, because host
//! noise only ever slows a batch down.
//!
//! The compile-path rows (`_us` per pass) cover one pass over the four
//! `paper_suite()` programs; the simulator rates run the same four
//! programs to halt. Each row names the end-to-end metric and workload
//! it is predicted to move ([`PREDICTIONS`]), so a later change can be
//! held to the prediction it was made under.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use art9_hw::activity::{dynamic_energy, measured_power};
use art9_service::protocol::parse_request;
use art9_service::{Client, ImageCache, JobSpec};
use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, Budget, Checkpoint, PredecodedProgram, SimBuilder};
use ternary::simd::{matvec, LaneWeights, PackedWeights};
use ternary::{Trit, Word9};
use workloads::batch::DEFAULT_MAX_STEPS;
use workloads::{
    bubble_sort_seeded, dhrystone_seeded, gemm_seeded, sobel_seeded, Workload,
    PAPER_DHRYSTONE_ITERATIONS,
};

use crate::common::{split_seed, Row};
use crate::paper::{self, Hw, PaperJob};

const ROUNDS: u32 = 3;

/// Ledger row → the end-to-end metric and workload it should move.
/// While every request round trip costs about 44 ms (README, finding
/// 1), that wait hides the layers below the protocol from the
/// host-time metrics of both workloads; the predictions name where a
/// change shows once it no longer does.
pub const PREDICTIONS: &[(&str, &str)] = &[
    ("ternary.word9_add_ns", "sim_ips on service-sweep"),
    ("ternary.word9_flips_ns", "sim_ips on service-sweep"),
    (
        "ternary.word9xn_matvec_ns",
        "none (no workload runs the host SIMD matvec)",
    ),
    ("rv32.parse_us", "job_p50_ms on service-interactive"),
    ("compiler.translate_us", "job_p50_ms on service-interactive"),
    ("sim.predecode_us", "job_p50_ms on service-interactive"),
    ("service.prepare_us", "job_p50_ms on service-interactive"),
    ("compiler.tim_words", "sim_cycles and dmips_per_watt"),
    ("compiler.dyn_expansion", "sim_cycles and dmips_per_watt"),
    ("sim.functional_ips", "job_p50_ms on service-interactive"),
    (
        "sim.threaded_ips",
        "none (no workload runs the bare threaded backend)",
    ),
    (
        "sim.pipelined_cps",
        "none (no workload runs the bare pipelined backend)",
    ),
    ("sim.build_threaded_us", "jobs_per_s on service-sweep"),
    (
        "sim.functional_observed_ips",
        "none (no workload observes the functional backend)",
    ),
    ("sim.threaded_observed_ips", "sim_ips on service-sweep"),
    ("sim.pipelined_observed_cps", "setup_s (the exact figures)"),
    ("sim.slice_us", "jobs_per_s on service-sweep"),
    ("sim.snapshot_us", "jobs_per_s on service-sweep"),
    ("sim.restore_us", "jobs_per_s on service-sweep"),
    (
        "sim.ckpt_to_text_us",
        "none (text checkpoints cross processes only)",
    ),
    (
        "sim.ckpt_from_text_us",
        "none (text checkpoints cross processes only)",
    ),
    ("workloads.generate_us", "job_p50_ms on service-interactive"),
    ("workloads.verify_us", "job_p50_ms on service-interactive"),
    ("hw.energy_us", "setup_s (the exact figures)"),
    (
        "service.hello_rtt_us",
        "job_p50_ms on service-interactive, jobs_per_s on service-sweep",
    ),
    (
        "service.submit_rtt_us",
        "job_p50_ms on service-interactive, jobs_per_s on service-sweep",
    ),
    (
        "service.wait_rtt_us",
        "job_p50_ms on service-interactive, jobs_per_s on service-sweep",
    ),
    (
        "service.parse_request_ns",
        "job_p50_ms on service-interactive, jobs_per_s on service-sweep",
    ),
    (
        "service.overhead_frac",
        "job_p50_ms on service-interactive, jobs_per_s on service-sweep",
    ),
    (
        "service.cache_hit_frac",
        "job_p50_ms on service-interactive",
    ),
    ("service.slices_per_job", "jobs_per_s on service-sweep"),
    ("service.steals", "jobs_per_s on service-sweep"),
    ("service.migrations", "jobs_per_s on service-sweep"),
];

/// How an item's best per-call time becomes its reported value.
#[derive(Clone, Copy)]
enum Scale {
    Ns,
    Us,
    /// Events per call → events per second.
    Rate(f64),
}

struct Item<'a> {
    name: &'static str,
    unit: &'static str,
    scale: Scale,
    /// Runs the measured call `iters` times and returns the time those
    /// calls took (untimed preparation excluded).
    run: Box<dyn FnMut(u64) -> Duration + 'a>,
}

/// Times `iters` calls of `f`.
fn timed(iters: u64, mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed()
}

/// Interleaved best-of-rounds over `items` within about `budget_s`.
fn measure(items: &mut [Item<'_>], budget_s: f64) -> Vec<Row> {
    let slice = Duration::from_secs_f64(budget_s / (f64::from(ROUNDS) * items.len() as f64));
    let iters: Vec<u64> = items
        .iter_mut()
        .map(|item| {
            let once = (item.run)(1).max(Duration::from_nanos(1));
            (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u64
        })
        .collect();
    let mut best = vec![f64::INFINITY; items.len()];
    for _ in 0..ROUNDS {
        for ((item, &n), best) in items.iter_mut().zip(&iters).zip(&mut best) {
            let t = Instant::now();
            loop {
                let per_call = (item.run)(n).as_nanos() as f64 / n as f64;
                *best = best.min(per_call);
                if t.elapsed() >= slice {
                    break;
                }
            }
        }
    }
    items
        .iter()
        .zip(best)
        .map(|(item, ns)| {
            let value = match item.scale {
                Scale::Ns => ns,
                Scale::Us => ns / 1e3,
                Scale::Rate(events) => events * 1e9 / ns,
            };
            Row::new(item.name, value, item.unit)
        })
        .collect()
}

/// The four paper programs as the paper flow left them, plus totals.
struct Suite {
    jobs: Vec<PaperJob>,
    retired: u64,
    cycles: u64,
    rv32_retired: u64,
}

impl Suite {
    fn new(hw: &Hw) -> Result<Suite, String> {
        let jobs = paper::suite(hw)?;
        let mut rv32_retired = 0;
        for j in &jobs {
            let mut machine = rv32::Machine::new(&j.source);
            machine.run(DEFAULT_MAX_STEPS).map_err(|e| e.to_string())?;
            rv32_retired += machine.instret();
        }
        Ok(Suite {
            retired: jobs.iter().map(|j| j.retired).sum(),
            cycles: jobs.iter().map(|j| j.cycles).sum(),
            rv32_retired,
            jobs,
        })
    }

    /// Runs every program to halt on `backend`, optionally observed.
    fn run_all(&self, backend: Backend, observed: bool) {
        for j in &self.jobs {
            let mut builder = SimBuilder::new(&j.image).backend(backend);
            if observed {
                builder = builder.observer(Arc::new(Mutex::new(EnergyAccounting::new())));
            }
            let mut core = builder.build();
            let s = core
                .run_for(Budget::Steps(DEFAULT_MAX_STEPS))
                .expect("paper program runs");
            assert!(s.halt.is_some(), "paper program halts");
        }
    }
}

/// Fresh-seeded instances of the four paper programs, `k` cycling
/// through them.
fn generate(k: u64, seed: u64) -> Workload {
    match k % 4 {
        0 => bubble_sort_seeded(20, seed),
        1 => gemm_seeded(6, seed),
        2 => sobel_seeded(seed),
        _ => dhrystone_seeded(PAPER_DHRYSTONE_ITERATIONS, seed),
    }
}

/// A threaded core with the energy observer over a long Dhrystone —
/// the sweep's execution path — for slice and checkpoint timings.
fn long_dhrystone() -> Result<SimBuilder, String> {
    let w = workloads::by_name("dhrystone", Some(2000)).ok_or("dhrystone n=2000")?;
    let rv = w.rv32_program().map_err(|e| e.to_string())?;
    let t = art9_compiler::translate(&rv).map_err(|e| e.to_string())?;
    Ok(SimBuilder::new(&t.program)
        .backend(Backend::Threaded)
        .observer(Arc::new(Mutex::new(EnergyAccounting::new()))))
}

fn word_pool() -> Vec<Word9> {
    (0..64u64)
        .map(|k| Word9::from_i64_wrapping(split_seed(0xA11, k) as i64))
        .collect()
}

/// Measures every ledger row in about `budget_s` seconds.
pub fn run(budget_s: f64) -> Result<Vec<Row>, String> {
    let hw = Hw::new();
    let suite = Suite::new(&hw)?;
    let pool = word_pool();
    let weights = {
        let columns: Vec<LaneWeights> = (0..40u64)
            .map(|c| {
                let column: Vec<Trit> = (0..40u64)
                    .map(|r| match split_seed(c, r) % 3 {
                        0 => Trit::N,
                        1 => Trit::Z,
                        _ => Trit::P,
                    })
                    .collect();
                LaneWeights::new(&column)
            })
            .collect();
        PackedWeights::from_columns(&columns)
    };
    let x: Vec<Word9> = pool[..40].to_vec();

    let dhry = long_dhrystone()?;
    let mut slicer = dhry.build();
    let mut mid = dhry.build();
    mid.run_for(Budget::Retired(500_000))
        .map_err(|e| e.to_string())?;
    let checkpoint = mid.snapshot();
    let checkpoint_text = checkpoint.to_text();
    let mut restored = dhry.build();

    let server = art9_service::Server::start(art9_service::ServiceConfig::default())
        .map_err(|e| format!("ledger server: {e}"))?;
    // The three round-trip items share one connection.
    let client = RefCell::new(Client::connect(server.local_addr()).map_err(|e| e.to_string())?);
    let finished = {
        let mut c = client.borrow_mut();
        let id = c
            .submit_workload("sobel", "")
            .map_err(|e| format!("ledger client: {e}"))?;
        c.wait(id).map_err(|e| format!("ledger client: {e}"))?;
        id
    };
    let cache = ImageCache::new();
    let specs: Vec<JobSpec> = suite
        .jobs
        .iter()
        .map(|j| {
            let args = [("workload".to_string(), j.workload.name.to_string())].into();
            JobSpec::from_args(&args, None).expect("paper workload spec")
        })
        .collect();
    let mut generated = 0u64;

    let exact = vec![
        Row::new(
            "compiler.tim_words",
            suite
                .jobs
                .iter()
                .map(|j| j.program.text().len())
                .sum::<usize>() as f64,
            "words",
        ),
        Row::new(
            "compiler.dyn_expansion",
            suite.retired as f64 / suite.rv32_retired as f64,
            "ratio",
        ),
    ];

    let retired = suite.retired as f64;
    let cycles = suite.cycles as f64;
    let s = &suite;
    let mut items: Vec<Item<'_>> = vec![
        Item {
            name: "ternary.word9_add_ns",
            unit: "ns",
            scale: Scale::Ns,
            run: Box::new(|n| {
                let mut k = 0usize;
                timed(n, || {
                    k = k.wrapping_add(1);
                    black_box(pool[k & 63].wrapping_add(pool[(k * 7 + 3) & 63]));
                })
            }),
        },
        Item {
            name: "ternary.word9_flips_ns",
            unit: "ns",
            scale: Scale::Ns,
            run: Box::new(|n| {
                let mut k = 0usize;
                timed(n, || {
                    k = k.wrapping_add(1);
                    black_box(pool[k & 63].flips_from(&pool[(k * 7 + 3) & 63]));
                })
            }),
        },
        Item {
            name: "ternary.word9xn_matvec_ns",
            unit: "ns",
            scale: Scale::Ns,
            run: Box::new(|n| timed(n, || drop(black_box(matvec(black_box(&x), &weights))))),
        },
        Item {
            name: "rv32.parse_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for j in &s.jobs {
                        black_box(
                            rv32::parse_program(&j.workload.source).expect("paper source parses"),
                        );
                    }
                })
            }),
        },
        Item {
            name: "compiler.translate_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for j in &s.jobs {
                        black_box(
                            art9_compiler::translate(&j.source).expect("paper program translates"),
                        );
                    }
                })
            }),
        },
        Item {
            name: "sim.predecode_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for j in &s.jobs {
                        black_box(PredecodedProgram::new(&j.program));
                    }
                })
            }),
        },
        Item {
            name: "service.prepare_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for spec in &specs {
                        black_box(spec.prepare(&cache).expect("paper job prepares"));
                    }
                })
            }),
        },
        Item {
            name: "sim.functional_ips",
            unit: "instr/s",
            scale: Scale::Rate(retired),
            run: Box::new(|n| timed(n, || s.run_all(Backend::Functional, false))),
        },
        Item {
            name: "sim.threaded_ips",
            unit: "instr/s",
            scale: Scale::Rate(retired),
            run: Box::new(|n| timed(n, || s.run_all(Backend::Threaded, false))),
        },
        Item {
            name: "sim.pipelined_cps",
            unit: "cycles/s",
            scale: Scale::Rate(cycles),
            run: Box::new(|n| timed(n, || s.run_all(Backend::Pipelined, false))),
        },
        Item {
            name: "sim.functional_observed_ips",
            unit: "instr/s",
            scale: Scale::Rate(retired),
            run: Box::new(|n| timed(n, || s.run_all(Backend::Functional, true))),
        },
        Item {
            name: "sim.threaded_observed_ips",
            unit: "instr/s",
            scale: Scale::Rate(retired),
            run: Box::new(|n| timed(n, || s.run_all(Backend::Threaded, true))),
        },
        Item {
            name: "sim.pipelined_observed_cps",
            unit: "cycles/s",
            scale: Scale::Rate(cycles),
            run: Box::new(|n| timed(n, || s.run_all(Backend::Pipelined, true))),
        },
        Item {
            name: "sim.build_threaded_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                let mut total = Duration::ZERO;
                for _ in 0..n {
                    for j in &s.jobs {
                        // A fresh image, so the threaded compile is not
                        // served from the image's cache.
                        let builder = SimBuilder::new(&j.program);
                        let t = Instant::now();
                        black_box(builder.build_threaded());
                        total += t.elapsed();
                    }
                }
                total
            }),
        },
        Item {
            name: "sim.slice_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                let mut total = Duration::ZERO;
                for _ in 0..n {
                    if slicer.halted().is_some() {
                        slicer = dhry.build();
                    }
                    let target = slicer.retired() + 1000;
                    let t = Instant::now();
                    black_box(slicer.run_for(Budget::Retired(target)).expect("slice runs"));
                    total += t.elapsed();
                }
                total
            }),
        },
        Item {
            name: "sim.snapshot_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| timed(n, || drop(black_box(mid.snapshot())))),
        },
        Item {
            name: "sim.restore_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    restored.restore(&checkpoint).expect("checkpoint restores")
                })
            }),
        },
        Item {
            name: "sim.ckpt_to_text_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| timed(n, || drop(black_box(checkpoint.to_text())))),
        },
        Item {
            name: "sim.ckpt_from_text_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    black_box(Checkpoint::from_text(&checkpoint_text).expect("checkpoint parses"));
                })
            }),
        },
        Item {
            name: "workloads.generate_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for k in 0..4 {
                        black_box(generate(k, split_seed(0x5EED, generated)));
                        generated += 1;
                    }
                })
            }),
        },
        Item {
            name: "workloads.verify_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for j in &s.jobs {
                        j.workload
                            .verify_art9(&j.final_state)
                            .expect("paper output verifies");
                    }
                })
            }),
        },
        Item {
            name: "hw.energy_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    for j in &s.jobs {
                        let e = dynamic_energy(black_box(&j.activity), &hw.lib);
                        black_box(measured_power(&hw.analysis, &e, j.cycles));
                    }
                })
            }),
        },
        Item {
            name: "service.hello_rtt_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    client
                        .borrow_mut()
                        .command("HELLO")
                        .expect("HELLO answered");
                })
            }),
        },
        Item {
            name: "service.submit_rtt_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    client
                        .borrow_mut()
                        .submit_workload("sobel", "")
                        .expect("SUBMIT answered");
                })
            }),
        },
        Item {
            name: "service.wait_rtt_us",
            unit: "us",
            scale: Scale::Us,
            run: Box::new(|n| {
                timed(n, || {
                    client.borrow_mut().wait(finished).expect("WAIT answered");
                })
            }),
        },
        Item {
            name: "service.parse_request_ns",
            unit: "ns",
            scale: Scale::Ns,
            run: Box::new(|n| {
                timed(n, || {
                    black_box(
                        parse_request(black_box(
                            "SUBMIT workload=dhrystone n=2000 seed=12345 config=art9-threaded energy=1",
                        ))
                        .expect("request parses"),
                    );
                })
            }),
        },
    ];
    let mut rows = measure(&mut items, budget_s);
    drop(items);
    drop(client);
    drop(server);
    rows.extend(exact);
    Ok(rows)
}
