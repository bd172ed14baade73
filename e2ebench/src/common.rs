//! Types shared by the workloads: the timed window's record, seed
//! derivation and order statistics.

use crate::trace::Span;

/// The paper's exact figures, re-derived by every run from
/// `paper_suite()` at default inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchors {
    /// Pipelined cycles of the four paper programs.
    pub sim_cycles: u64,
    /// Measured Table IV DMIPS/W of `dhrystone(100)`.
    pub dmips_per_watt: f64,
}

/// What one timed window did.
#[derive(Debug, Default)]
pub struct Window {
    /// Jobs started.
    pub attempted: u64,
    /// One line per failed, unverified or errored job.
    pub failures: Vec<String>,
    /// Simulated instructions retired by jobs that passed every check.
    pub retired: u64,
    /// Latency of each job that passed every check, start → result, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time from the first job's start to the last one's end, s.
    pub elapsed_s: f64,
    /// Spans of a traced window (empty otherwise).
    pub spans: Vec<Span>,
    /// The workload's own per-layer rows (traced windows only).
    pub rows: Vec<Row>,
}

impl Window {
    /// Jobs that passed every check.
    pub fn verified(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.verified() as f64 / self.elapsed_s
    }

    pub fn sim_ips(&self) -> f64 {
        self.retired as f64 / self.elapsed_s
    }
}

/// A workload of the benchmark: set up once per repetition, then run
/// closed-loop windows against the same state.
pub trait Bench: Sized {
    /// Generates inputs, compiles what the workload compiles ahead of
    /// time, starts servers and warms up.
    fn setup(seed: u64) -> Result<Self, String>;

    /// The exact paper figures this set-up derived.
    fn anchors(&self) -> Anchors;

    /// Runs the closed loop for `seconds` (in-flight jobs finish),
    /// then checks every job of the window.
    fn window(&mut self, seconds: f64, traced: bool) -> Window;
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Row {
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Row {
        Row {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// An independent sub-seed for `lane` under `seed` (one SplitMix64
/// round).
pub fn split_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of `values` (`q` in (0, 1]); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_eq!(split_seed(7, 0), split_seed(7, 0));
        assert_ne!(split_seed(7, 0), split_seed(7, 1));
        assert_ne!(split_seed(7, 0), split_seed(8, 0));
    }
}
