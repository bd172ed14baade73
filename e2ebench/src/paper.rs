//! The paper's evaluation flow as a library call, run over
//! `paper_suite()` at default inputs: parse the RV32 source, translate
//! it to ART-9, predecode, run on the cycle-accurate pipelined core with
//! trit-flip accounting attached, verify the output and convert the
//! flips to energy (and, for Dhrystone, DMIPS/W).
//!
//! Every workload's set-up derives the exact figures from it, and the
//! per-layer ledger times each of its layers on what it leaves behind.

use std::sync::{Arc, Mutex};

use art9_hw::activity::{dynamic_energy, measured_dmips_per_watt, measured_power, ActivityCounts};
use art9_hw::analyzer::{analyze, GateAnalysis};
use art9_hw::datapath::Datapath;
use art9_hw::tech::{cntfet32, TechLibrary};
use art9_sim::observers::{EnergyAccounting, OpcodeActivity};
use art9_sim::{Backend, Budget, CoreState, PredecodedProgram, SimBuilder};
use workloads::batch::DEFAULT_MAX_STEPS;
use workloads::{paper_suite, Workload, PAPER_DHRYSTONE_ITERATIONS};

use crate::common::Anchors;

/// The technology model the energy conversion uses (Table IV's
/// cntfet-32nm library and the ART-9 datapath's gate analysis).
pub struct Hw {
    pub analysis: GateAnalysis,
    pub lib: TechLibrary,
}

impl Hw {
    pub fn new() -> Hw {
        let lib = cntfet32();
        Hw {
            analysis: analyze(&Datapath::art9(), &lib),
            lib,
        }
    }
}

/// One verified paper job and what each layer produced on the way.
pub struct PaperJob {
    pub workload: Workload,
    pub source: rv32::Rv32Program,
    pub program: art9_isa::Program,
    pub image: PredecodedProgram,
    pub final_state: CoreState,
    pub activity: ActivityCounts,
    pub retired: u64,
    pub cycles: u64,
    pub dmips_per_watt: Option<f64>,
}

/// The energy observer's totals as the hardware model's input.
pub fn activity_counts(t: &OpcodeActivity) -> ActivityCounts {
    ActivityCounts {
        retired: t.retired,
        regfile: t.regfile,
        tdm: t.tdm,
        fetch: t.fetch,
        alu: t.alu,
    }
}

/// Runs one paper program through the whole flow.
pub fn job(hw: &Hw, workload: Workload) -> Result<PaperJob, String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", workload.name);
    let source = workload.rv32_program().map_err(|e| fail("parse", &e))?;
    let program = art9_compiler::translate(&source)
        .map_err(|e| fail("translate", &e))?
        .program;
    let image = PredecodedProgram::new(&program);
    let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    let mut core = SimBuilder::new(&image)
        .backend(Backend::Pipelined)
        .observer(energy.clone())
        .build();
    let summary = core
        .run_for(Budget::Steps(DEFAULT_MAX_STEPS))
        .map_err(|e| fail("run", &e))?;
    if summary.halt.is_none() {
        return Err(fail("run", &"did not halt within the step budget"));
    }
    workload
        .verify_art9(core.state())
        .map_err(|e| fail("verify", &e))?;
    let cycles = core.pipeline_stats().expect("pipelined core").cycles;
    let activity = activity_counts(&energy.lock().expect("energy observer lock").totals());
    let e = dynamic_energy(&activity, &hw.lib);
    std::hint::black_box(measured_power(&hw.analysis, &e, cycles));
    let dmips_per_watt = (workload.name == "dhrystone").then(|| {
        measured_dmips_per_watt(&hw.analysis, &e, cycles, PAPER_DHRYSTONE_ITERATIONS as u64)
            .dmips_per_watt
    });
    Ok(PaperJob {
        source,
        program,
        image,
        final_state: core.state().clone(),
        activity,
        retired: summary.retired,
        cycles,
        dmips_per_watt,
        workload,
    })
}

/// The four `paper_suite()` programs at default inputs, in order
/// (bubble sort, GEMM, Sobel, Dhrystone).
pub fn suite(hw: &Hw) -> Result<Vec<PaperJob>, String> {
    paper_suite().into_iter().map(|w| job(hw, w)).collect()
}

/// The exact figures of a [`suite`] run.
pub fn anchors(suite: &[PaperJob]) -> Anchors {
    Anchors {
        sim_cycles: suite.iter().map(|j| j.cycles).sum(),
        dmips_per_watt: suite[3].dmips_per_watt.expect("job 3 is dhrystone(100)"),
    }
}

/// Derives the exact figures from a fresh [`suite`] run.
pub fn derive_anchors() -> Result<Anchors, String> {
    Ok(anchors(&suite(&Hw::new())?))
}
