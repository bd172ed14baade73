//! Superblock and fusion statistics plus a threaded-vs-functional
//! timing probe (a profiling aid; the canonical numbers come from
//! `--bin report`). Profiles every registered workload at its default
//! size, then any `name=n` images given as arguments:
//!
//! ```sh
//! cargo run --release -p art9-bench --example blockstats -- \
//!     dhrystone=2000 bubble-sort=48 gemm=7 nn-mlp=10
//! ```
//!
//! One line per image: blocks, fused pairs, retired instructions, the
//! share of them that retired inside fused pairs, and both backends'
//! ns per instruction. Then one line per entry of the threaded
//! backend's fusion table (`ThreadedSim::fusion_profile`): its static
//! occurrences and whole-block executions, summed over the images.

use std::time::Instant;

use art9_bench::translate;
use art9_sim::{Backend, Budget, Core, PredecodedProgram, SimBuilder};
use workloads::{by_name, WORKLOAD_NAMES};

fn time_ns_per_instr(b: &SimBuilder, backend: Backend, instrs: u64) -> f64 {
    let run = || {
        let mut sim = b.clone().backend(backend).build();
        sim.run_for(Budget::Steps(100_000_000)).unwrap();
        assert!(sim.halted().is_some());
    };
    // Warm up, then take the best of 7 batches to suppress host noise.
    run();
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            run();
        }
        let ns = t0.elapsed().as_nanos() as f64 / (reps as f64 * instrs as f64);
        best = best.min(ns);
    }
    best
}

fn main() {
    let mut images: Vec<(String, Option<usize>)> = WORKLOAD_NAMES
        .iter()
        .map(|n| (n.to_string(), None))
        .collect();
    for arg in std::env::args().skip(1) {
        let (name, n) = arg.split_once('=').expect("arguments are name=n");
        images.push((name.to_string(), Some(n.parse().expect("n is a size"))));
    }
    let mut table: Vec<(String, usize, u64)> = Vec::new();
    for (name, n) in &images {
        let w = by_name(name, *n).unwrap_or_else(|| panic!("no workload {name} at {n:?}"));
        let t = translate(&w);
        let image = PredecodedProgram::new(&t.program);
        let b = SimBuilder::new(&image);
        let mut sim = b.build_threaded();
        sim.run_for(Budget::Steps(100_000_000)).unwrap();
        let blocks = sim.superblocks();
        let profile = sim.fusion_profile();
        let in_pairs: u64 = profile.iter().map(|(_, _, executed)| 2 * executed).sum();
        if table.is_empty() {
            table = profile
                .iter()
                .map(|(pair, _, _)| (pair.clone(), 0, 0))
                .collect();
        }
        for (row, (_, sites, executed)) in table.iter_mut().zip(&profile) {
            row.1 += sites;
            row.2 += executed;
        }
        let f_ns = time_ns_per_instr(&b, Backend::Functional, sim.retired());
        let t_ns = time_ns_per_instr(&b, Backend::Threaded, sim.retired());
        let label = n.map_or(name.clone(), |n| format!("{name}={n}"));
        println!(
            "{label:<16} blocks {:>4} fused {:>3} retired {:>8} in pairs {:>5.1}% | fun {:>6.2} ns/i  thr {:>6.2} ns/i  ratio {:.2}x",
            blocks.len(),
            sim.fused_pairs(),
            sim.retired(),
            100.0 * in_pairs as f64 / sim.retired() as f64,
            f_ns,
            t_ns,
            f_ns / t_ns,
        );
    }
    println!("\n{:<12} {:>7} {:>12}", "pair", "static", "executed");
    for (pair, sites, executed) in &table {
        println!("{pair:<12} {sites:>7} {executed:>12}");
    }
}
