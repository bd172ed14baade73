//! The bench regression gate behind `cargo run -p art9-bench --bin gate`.
//!
//! Compares two `BENCH_ternary.json` documents (the committed baseline
//! and a freshly regenerated one) and fails when any simulator
//! throughput metric (`functional_ips`, `threaded_ips`,
//! `pipelined_cps`) regressed by more than the allowed fraction.
//! `threaded_ips` is optional so baselines committed before the
//! direct-threaded backend existed still parse; once a baseline
//! carries it, dropping it from the current document fails the gate.
//! The measured-energy section (`energy_nj` up, `dmips_per_watt`
//! down = regression) is pinned the same way: absent from older
//! baselines, gated once committed. So is the `service` section
//! (scheduler throughput from an in-process multi-tenant load run),
//! except its `per_worker_ips` is gated at *twice* the allowed
//! fraction — a threaded scheduler under a full worker fleet is far
//! noisier on shared runners than a single-threaded simulator loop.
//! The `nn` section (ternary-NN golden-path SIMD speedup and simulator
//! throughput) is pinned the same way; its `simd_speedup` is a ratio
//! of two timings from the same run, so host speed cancels and the
//! plain threshold applies.
//! The `wide` section (multi-plane 27/81-trit word and tapered-real
//! operation timings) is pinned the same way; its rows gate at the
//! service section's doubled threshold because per-op timings, even
//! the wide ones, are noisier on shared runners than whole-simulator
//! rates (`ns_per_op` up = regression).
//! `Word9`-operation timings are reported
//! but not gated — they are nanosecond-scale and too noisy on shared
//! CI runners; the whole-simulator rates integrate over millions of
//! operations and are the metrics PR 2's history is recorded in.
//!
//! The parser below handles exactly the schema `perf::bench_json`
//! emits (documented in `docs/PERFORMANCE.md`) — a deliberate
//! non-goal: it is not a general JSON parser, and unknown fields are
//! simply ignored.
//!
//! **Cross-host caveat:** the committed baseline carries the numbers
//! of whatever machine regenerated it last. Comparing against a
//! different host (as CI does) makes the gate a coarse tripwire —
//! that is why the default threshold is a generous 25% — while
//! same-host comparisons are exact. PRs that intentionally change
//! performance should regenerate and commit `BENCH_ternary.json`.

/// One simulator row from a bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRow {
    /// Workload name.
    pub workload: String,
    /// Functional-simulator instructions per second.
    pub functional_ips: f64,
    /// Direct-threaded-simulator instructions per second (`None` in
    /// documents that predate the threaded backend).
    pub threaded_ips: Option<f64>,
    /// Pipelined-simulator cycles per second.
    pub pipelined_cps: f64,
    /// The three rates with an energy observer attached:
    /// `functional_observed_ips`, `threaded_observed_ips`,
    /// `pipelined_observed_cps` (each `None` in documents that predate
    /// the observed rows).
    pub observed: [Option<f64>; 3],
}

/// The observed-rate fields of a simulator row, in [`SimRow::observed`]
/// order.
const OBSERVED: [&str; 3] = [
    "functional_observed_ips",
    "threaded_observed_ips",
    "pipelined_observed_cps",
];

/// One energy row from a bench document's `energy` section.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyGateRow {
    /// Workload name.
    pub workload: String,
    /// Total dynamic switching energy of the measured run, nJ.
    pub energy_nj: f64,
    /// Measured DMIPS/W (present on Dhrystone rows only).
    pub dmips_per_watt: Option<f64>,
}

/// The service-scheduler row from a bench document's `service`
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceGateRow {
    /// Aggregate retired instructions per second per worker.
    pub per_worker_ips: f64,
}

/// The ternary-NN row from a bench document's `nn` section.
#[derive(Debug, Clone, PartialEq)]
pub struct NnGateRow {
    /// Host golden-path speedup of the bitplane-SIMD matvec over the
    /// scalar word-at-a-time loop.
    pub simd_speedup: f64,
    /// Functional-simulator instructions per second of the `nn-mlp`
    /// workload.
    pub functional_ips: f64,
}

/// One wide-word operation row from a bench document's `wide` section.
#[derive(Debug, Clone, PartialEq)]
pub struct WideGateRow {
    /// Operation name (`word27_add`, `word81_mul`, `real_add`, …).
    pub name: String,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
}

/// The gated contents of one `BENCH_ternary.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// One row per workload.
    pub simulators: Vec<SimRow>,
    /// Measured-energy rows (empty for baselines committed before the
    /// energy section existed; once a baseline carries it, the section
    /// is pinned).
    pub energy: Vec<EnergyGateRow>,
    /// Scheduler throughput (`None` for baselines committed before the
    /// service existed; pinned once present).
    pub service: Option<ServiceGateRow>,
    /// Ternary-NN golden-path and simulator rates (`None` for baselines
    /// committed before the SIMD subsystem; pinned once present).
    pub nn: Option<NnGateRow>,
    /// Wide-word operation timings (empty for baselines committed
    /// before the multi-plane subsystem; pinned once present).
    pub wide: Vec<WideGateRow>,
}

/// One metric comparison.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// `"<workload>/<metric>"`.
    pub name: String,
    /// The committed value.
    pub baseline: f64,
    /// The regenerated value.
    pub current: f64,
}

impl MetricDelta {
    /// Relative change: positive = the value went up, negative = it
    /// went down. Whether up is good depends on the metric (throughput:
    /// up is good; `energy_nj`: down is good).
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline - 1.0
    }
}

/// The gate's verdict.
#[derive(Debug, Clone)]
pub struct GateResult {
    /// Every throughput comparison made.
    pub deltas: Vec<MetricDelta>,
    /// The comparisons that regressed beyond the threshold.
    pub regressions: Vec<MetricDelta>,
    /// Workloads (or per-workload metrics) present in the baseline but
    /// missing from the current document (a silent drop must fail the
    /// gate too).
    pub missing: Vec<String>,
}

impl GateResult {
    /// `true` when the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Renders the comparison table.
    pub fn render(&self, max_regress: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>8}",
            "metric", "baseline", "current", "change"
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "{:<28} {:>12.3e} {:>12.3e} {:>+7.1}%",
                d.name,
                d.baseline,
                d.current,
                d.ratio() * 100.0
            );
        }
        for w in &self.missing {
            let _ = writeln!(out, "MISSING: {w} dropped from the current document");
        }
        if self.regressions.is_empty() {
            let _ = writeln!(
                out,
                "gate: OK (no gated metric regressed more than {:.0}%)",
                max_regress * 100.0
            );
        } else {
            for d in &self.regressions {
                let _ = writeln!(
                    out,
                    "gate: REGRESSION {} moved {:+.1}% (limit {:.0}%)",
                    d.name,
                    d.ratio() * 100.0,
                    max_regress * 100.0
                );
            }
        }
        out
    }
}

/// Compares `current` against `baseline` with the given allowed
/// regression fraction (e.g. `0.25` for 25%).
pub fn compare(baseline: &BenchDoc, current: &BenchDoc, max_regress: f64) -> GateResult {
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.simulators {
        let Some(cur) = current
            .simulators
            .iter()
            .find(|r| r.workload == base.workload)
        else {
            missing.push(base.workload.clone());
            continue;
        };
        let mut metrics = vec![
            ("functional_ips", base.functional_ips, cur.functional_ips),
            ("pipelined_cps", base.pipelined_cps, cur.pipelined_cps),
        ];
        let optional = [("threaded_ips", base.threaded_ips, cur.threaded_ips)]
            .into_iter()
            .chain((0..3).map(|k| (OBSERVED[k], base.observed[k], cur.observed[k])));
        for (metric, base_value, cur_value) in optional {
            match (base_value, cur_value) {
                (Some(b), Some(c)) => metrics.push((metric, b, c)),
                // A baseline that carries the metric pins it: silently
                // dropping it from the regenerated document fails the
                // gate just like dropping a whole workload would.
                (Some(_), None) => missing.push(format!("{}/{metric}", base.workload)),
                // A baseline without it (older than the threaded
                // backend or the observed rows) does not gate it.
                (None, _) => {}
            }
        }
        for (metric, b, c) in metrics {
            let delta = MetricDelta {
                name: format!("{}/{metric}", base.workload),
                baseline: b,
                current: c,
            };
            if c < b * (1.0 - max_regress) {
                regressions.push(delta.clone());
            }
            deltas.push(delta);
        }
    }
    // Pin-once, like threaded_ips: a baseline without the energy
    // section gates nothing here; one that carries it fails the gate
    // when a row (or the whole section) silently disappears.
    for base in &baseline.energy {
        let Some(cur) = current.energy.iter().find(|r| r.workload == base.workload) else {
            missing.push(format!("{}/energy", base.workload));
            continue;
        };
        // The simulation is deterministic, so measured energy should be
        // bit-stable; the threshold only tolerates intentional model
        // retunes inside the allowed band. More energy = regression.
        let delta = MetricDelta {
            name: format!("{}/energy_nj", base.workload),
            baseline: base.energy_nj,
            current: cur.energy_nj,
        };
        if cur.energy_nj > base.energy_nj * (1.0 + max_regress) {
            regressions.push(delta.clone());
        }
        deltas.push(delta);
        match (base.dmips_per_watt, cur.dmips_per_watt) {
            (Some(b), Some(c)) => {
                let delta = MetricDelta {
                    name: format!("{}/dmips_per_watt", base.workload),
                    baseline: b,
                    current: c,
                };
                if c < b * (1.0 - max_regress) {
                    regressions.push(delta.clone());
                }
                deltas.push(delta);
            }
            (Some(_), None) => missing.push(format!("{}/dmips_per_watt", base.workload)),
            (None, _) => {}
        }
    }
    // Scheduler throughput, pin-once like the other late sections. The
    // allowed regression is doubled: the multi-threaded scheduler's
    // rate depends on how many of the fleet's workers the host actually
    // ran concurrently, which shared CI runners vary far more than a
    // single simulator loop.
    match (&baseline.service, &current.service) {
        (Some(base), Some(cur)) => {
            let delta = MetricDelta {
                name: "service/per_worker_ips".into(),
                baseline: base.per_worker_ips,
                current: cur.per_worker_ips,
            };
            if cur.per_worker_ips < base.per_worker_ips * (1.0 - (2.0 * max_regress).min(0.95)) {
                regressions.push(delta.clone());
            }
            deltas.push(delta);
        }
        (Some(_), None) => missing.push("service/per_worker_ips".into()),
        (None, _) => {}
    }
    // Ternary-NN, pin-once. Both gated metrics go down = regression.
    match (&baseline.nn, &current.nn) {
        (Some(base), Some(cur)) => {
            for (metric, b, c) in [
                ("simd_speedup", base.simd_speedup, cur.simd_speedup),
                ("functional_ips", base.functional_ips, cur.functional_ips),
            ] {
                let delta = MetricDelta {
                    name: format!("nn/{metric}"),
                    baseline: b,
                    current: c,
                };
                if c < b * (1.0 - max_regress) {
                    regressions.push(delta.clone());
                }
                deltas.push(delta);
            }
        }
        (Some(_), None) => missing.push("nn/simd_speedup".into()),
        (None, _) => {}
    }
    // Wide-word operation timings, pin-once per row. Unlike the Word9
    // suite these rows integrate enough work per call (multi-word carry
    // ripples, shift-and-add multiplies) to be gateable, but per-op
    // timings are still noisier than whole-simulator rates, so the
    // allowed increase is doubled like the service threshold. More
    // nanoseconds = regression.
    for base in &baseline.wide {
        let Some(cur) = current.wide.iter().find(|r| r.name == base.name) else {
            missing.push(format!("wide/{}", base.name));
            continue;
        };
        let delta = MetricDelta {
            name: format!("wide/{}/ns_per_op", base.name),
            baseline: base.ns_per_op,
            current: cur.ns_per_op,
        };
        if cur.ns_per_op > base.ns_per_op * (1.0 + 2.0 * max_regress) {
            regressions.push(delta.clone());
        }
        deltas.push(delta);
    }
    GateResult {
        deltas,
        regressions,
        missing,
    }
}

/// Parses the `simulators` array of a `BENCH_ternary.json` document.
///
/// # Errors
///
/// Returns a description when the document lacks the array or a row
/// lacks one of the gated fields.
pub fn parse_bench_json(text: &str) -> Result<BenchDoc, String> {
    let array = section(text, "\"simulators\"").ok_or("no \"simulators\" array")?;
    let mut simulators = Vec::new();
    for obj in objects(array) {
        simulators.push(SimRow {
            workload: string_field(obj, "workload")
                .ok_or_else(|| format!("row without \"workload\": {obj}"))?,
            functional_ips: number_field(obj, "functional_ips")
                .ok_or_else(|| format!("row without \"functional_ips\": {obj}"))?,
            threaded_ips: number_field(obj, "threaded_ips"),
            pipelined_cps: number_field(obj, "pipelined_cps")
                .ok_or_else(|| format!("row without \"pipelined_cps\": {obj}"))?,
            observed: OBSERVED.map(|key| number_field(obj, key)),
        });
    }
    if simulators.is_empty() {
        return Err("empty \"simulators\" array".into());
    }
    // The energy section postdates the simulators section: absent in
    // older documents, required-well-formed when present. The key
    // search cannot false-positive on row fields like "energy_nj"
    // because the pattern includes the closing quote.
    let mut energy = Vec::new();
    if let Some(array) = section(text, "\"energy\"") {
        for obj in objects(array) {
            energy.push(EnergyGateRow {
                workload: string_field(obj, "workload")
                    .ok_or_else(|| format!("energy row without \"workload\": {obj}"))?,
                energy_nj: number_field(obj, "energy_nj")
                    .ok_or_else(|| format!("energy row without \"energy_nj\": {obj}"))?,
                dmips_per_watt: number_field(obj, "dmips_per_watt"),
            });
        }
        if energy.is_empty() {
            return Err("empty \"energy\" array".into());
        }
    }
    // The service section postdates both: same pin-once contract.
    let mut service = None;
    if let Some(array) = section(text, "\"service\"") {
        let obj = objects(array).next().ok_or("empty \"service\" array")?;
        service = Some(ServiceGateRow {
            per_worker_ips: number_field(obj, "per_worker_ips")
                .ok_or_else(|| format!("service row without \"per_worker_ips\": {obj}"))?,
        });
    }
    // The nn section postdates all of the above: same pin-once
    // contract. The key search cannot false-positive on the row's
    // "workload": "nn-mlp" value because the pattern includes the
    // closing quote.
    let mut nn = None;
    if let Some(array) = section(text, "\"nn\"") {
        let obj = objects(array).next().ok_or("empty \"nn\" array")?;
        nn = Some(NnGateRow {
            simd_speedup: number_field(obj, "simd_speedup")
                .ok_or_else(|| format!("nn row without \"simd_speedup\": {obj}"))?,
            functional_ips: number_field(obj, "functional_ips")
                .ok_or_else(|| format!("nn row without \"functional_ips\": {obj}"))?,
        });
    }
    // The wide section postdates everything above: same pin-once
    // contract, one row per wide operation.
    let mut wide = Vec::new();
    if let Some(array) = section(text, "\"wide\"") {
        for obj in objects(array) {
            wide.push(WideGateRow {
                name: string_field(obj, "name")
                    .ok_or_else(|| format!("wide row without \"name\": {obj}"))?,
                ns_per_op: number_field(obj, "ns_per_op")
                    .ok_or_else(|| format!("wide row without \"ns_per_op\": {obj}"))?,
            });
        }
        if wide.is_empty() {
            return Err("empty \"wide\" array".into());
        }
    }
    Ok(BenchDoc {
        simulators,
        energy,
        service,
        nn,
        wide,
    })
}

/// The bracketed `[...]` contents following `key`.
fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(key)?;
    let open = at + text[at..].find('[')?;
    let close = open + text[open..].find(']')?;
    Some(&text[open + 1..close])
}

/// Splits an array body into `{...}` object bodies (the schema nests
/// no objects, so plain brace matching suffices).
fn objects(array: &str) -> impl Iterator<Item = &str> {
    array.split('{').skip(1).filter_map(|chunk| {
        let end = chunk.find('}')?;
        Some(&chunk[..end])
    })
}

/// Value of `"key": "string"` within an object body.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let rest = field_value(obj, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Value of `"key": number` within an object body.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let rest = field_value(obj, key)?;
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The text right after `"key":`, trimmed.
fn field_value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)?;
    let rest = &obj[at + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?;
    Some(rest.trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "art9-bench-ternary/v1",
  "word_ops": [
    {"name": "add", "ns_per_op": 4.30}
  ],
  "simulators": [
    {"workload": "bubble-sort", "instructions": 3177, "functional_ips": 6.75e7, "pipelined_cps": 2.31e7},
    {"workload": "gemm", "instructions": 14084, "functional_ips": 6.19e7, "pipelined_cps": 2.12e7}
  ]
}"#;

    fn doc(f_scale: f64, p_scale: f64) -> BenchDoc {
        let base = parse_bench_json(SAMPLE).unwrap();
        BenchDoc {
            simulators: base
                .simulators
                .into_iter()
                .map(|r| SimRow {
                    workload: r.workload,
                    functional_ips: r.functional_ips * f_scale,
                    threaded_ips: r.threaded_ips.map(|t| t * f_scale),
                    pipelined_cps: r.pipelined_cps * p_scale,
                    observed: r.observed,
                })
                .collect(),
            energy: Vec::new(),
            service: None,
            nn: None,
            wide: Vec::new(),
        }
    }

    /// `doc()` with a wide section at `w_scale` times nominal per-op
    /// costs (scale *up* = slower = worse).
    fn doc_with_wide(w_scale: f64) -> BenchDoc {
        let mut d = doc(1.0, 1.0);
        d.wide = vec![
            WideGateRow {
                name: "word81_add".into(),
                ns_per_op: 7.0 * w_scale,
            },
            WideGateRow {
                name: "real_mul".into(),
                ns_per_op: 45.0 * w_scale,
            },
        ];
        d
    }

    /// `doc()` with an nn section at `n_scale` times nominal rates.
    fn doc_with_nn(n_scale: f64) -> BenchDoc {
        let mut d = doc(1.0, 1.0);
        d.nn = Some(NnGateRow {
            simd_speedup: 5.0 * n_scale,
            functional_ips: 3.0e7 * n_scale,
        });
        d
    }

    /// `doc()` with a service section at `s_scale` times a nominal
    /// per-worker rate.
    fn doc_with_service(s_scale: f64) -> BenchDoc {
        let mut d = doc(1.0, 1.0);
        d.service = Some(ServiceGateRow {
            per_worker_ips: 4.0e6 * s_scale,
        });
        d
    }

    /// `doc()` with an energy section: one plain row and one Dhrystone
    /// row carrying DMIPS/W, both scaled by `e_scale`.
    fn doc_with_energy(e_scale: f64) -> BenchDoc {
        let mut d = doc(1.0, 1.0);
        d.energy = vec![
            EnergyGateRow {
                workload: "bubble-sort".into(),
                energy_nj: 120.0 * e_scale,
                dmips_per_watt: None,
            },
            EnergyGateRow {
                workload: "dhrystone".into(),
                energy_nj: 540.0 * e_scale,
                // DMIPS/W moves inversely with energy at fixed runtime.
                dmips_per_watt: Some(7.0e6 / e_scale),
            },
        ];
        d
    }

    /// `doc()` with the threaded metric populated at `t_scale` times
    /// 3x the functional rate.
    fn doc_with_threaded(t_scale: f64) -> BenchDoc {
        let mut d = doc(1.0, 1.0);
        for r in &mut d.simulators {
            r.threaded_ips = Some(r.functional_ips * 3.0 * t_scale);
        }
        d
    }

    #[test]
    fn parses_the_emitted_schema() {
        let d = parse_bench_json(SAMPLE).unwrap();
        assert_eq!(d.simulators.len(), 2);
        assert_eq!(d.simulators[0].workload, "bubble-sort");
        assert!((d.simulators[0].functional_ips - 6.75e7).abs() < 1.0);
        assert!((d.simulators[1].pipelined_cps - 2.12e7).abs() < 1.0);
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The real committed file must stay parseable, or the CI gate
        // goes blind silently.
        let committed = include_str!("../../../BENCH_ternary.json");
        let d = parse_bench_json(committed).unwrap();
        assert_eq!(d.simulators.len(), 4);
        assert!(d.simulators.iter().any(|r| r.workload == "dhrystone"));
        // The committed baseline carries the threaded metric, so the
        // gate actually exercises it on every CI run.
        assert!(d.simulators.iter().all(|r| r.threaded_ips.is_some()));
        // And the observed rates of all three backends.
        assert!(d
            .simulators
            .iter()
            .all(|r| r.observed.iter().all(|o| o.is_some())));
        // Likewise the measured-energy section: all four paper kernels,
        // DMIPS/W pinned on the Dhrystone row.
        assert_eq!(d.energy.len(), 4);
        assert!(d.energy.iter().all(|r| r.energy_nj > 0.0));
        let dhry = d.energy.iter().find(|r| r.workload == "dhrystone").unwrap();
        assert!(dhry.dmips_per_watt.unwrap() > 0.0);
        // And the service section, so scheduler throughput is gated on
        // every CI run from here on.
        assert!(d.service.as_ref().unwrap().per_worker_ips > 0.0);
        // And the nn section: the ISSUE 9 acceptance bar (>= 4x SIMD
        // speedup) is recorded in the committed baseline and gated.
        let nn = d.nn.as_ref().unwrap();
        assert!(nn.simd_speedup >= 4.0);
        assert!(nn.functional_ips > 0.0);
        // And the wide section: the multi-plane 27/81-trit words and
        // the tapered reals are pinned from this PR on.
        assert!(!d.wide.is_empty());
        assert!(d.wide.iter().any(|r| r.name == "word81_add"));
        assert!(d.wide.iter().any(|r| r.name == "real_mul"));
        assert!(d.wide.iter().all(|r| r.ns_per_op > 0.0));
    }

    #[test]
    fn pre_threaded_baselines_still_gate_the_legacy_metrics() {
        // SAMPLE predates the threaded backend: no threaded_ips field,
        // so only functional/pipelined are compared and nothing is
        // reported missing.
        let base = doc(1.0, 1.0);
        assert!(base.simulators.iter().all(|r| r.threaded_ips.is_none()));
        let r = compare(&base, &doc_with_threaded(1.0), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert_eq!(r.deltas.len(), 4);
    }

    #[test]
    fn threaded_regression_fails() {
        let base = doc_with_threaded(1.0);
        let current = doc_with_threaded(0.5); // threaded halved
        let r = compare(&base, &current, 0.25);
        assert!(!r.ok());
        assert_eq!(r.deltas.len(), 6);
        assert_eq!(r.regressions.len(), 2);
        assert!(r
            .regressions
            .iter()
            .all(|d| d.name.ends_with("threaded_ips")));
    }

    #[test]
    fn dropping_the_threaded_metric_fails() {
        let base = doc_with_threaded(1.0);
        let current = doc(1.0, 1.0); // regenerated without threaded_ips
        let r = compare(&base, &current, 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "bubble-sort/threaded_ips"));
        assert!(r.render(0.25).contains("MISSING"));
    }

    /// `doc_with_threaded(1.0)` with the observed rates populated at
    /// `o_scale` times a fifth of the bare rates.
    fn doc_with_observed(o_scale: f64) -> BenchDoc {
        let mut d = doc_with_threaded(1.0);
        for r in &mut d.simulators {
            let bare = [r.functional_ips, r.threaded_ips.unwrap(), r.pipelined_cps];
            r.observed = bare.map(|v| Some(v / 5.0 * o_scale));
        }
        d
    }

    #[test]
    fn observed_rates_parse_and_gate_pin_once() {
        let row = r#"{"simulators": [{"workload": "gemm", "functional_ips": 6.1e7, "threaded_ips": 2.0e8, "pipelined_cps": 2.1e7, "functional_observed_ips": 1.5e7, "threaded_observed_ips": 1.8e7, "pipelined_observed_cps": 1.0e7}]}"#;
        let d = parse_bench_json(row).unwrap();
        assert_eq!(
            d.simulators[0].observed,
            [Some(1.5e7), Some(1.8e7), Some(1.0e7)]
        );
        assert_eq!(d.simulators[0].threaded_ips, Some(2.0e8));

        // Pre-observed baselines gate only the bare rates.
        let r = compare(&doc_with_threaded(1.0), &doc_with_observed(1.0), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert_eq!(r.deltas.len(), 6);

        // Once pinned, a slowdown of the observed path fails...
        let r = compare(&doc_with_observed(1.0), &doc_with_observed(0.5), 0.25);
        assert!(!r.ok());
        assert_eq!(r.regressions.len(), 6, "three observed rates x two rows");
        assert!(r.regressions.iter().all(|d| d.name.contains("_observed_")));

        // ...and so does dropping the rows.
        let r = compare(&doc_with_observed(1.0), &doc_with_threaded(1.0), 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "gemm/threaded_observed_ips"));
    }

    #[test]
    fn parses_an_energy_section() {
        let text = r#"{
  "simulators": [
    {"workload": "gemm", "functional_ips": 6.19e7, "pipelined_cps": 2.12e7}
  ],
  "energy": [
    {"workload": "gemm", "cycles": 120, "instructions": 90, "energy_nj": 1.25e2, "epi_pj": 1.4, "dynamic_uw": 3.0, "total_uw": 4.5},
    {"workload": "dhrystone", "energy_nj": 5.4e2, "dmips_per_watt": 7.5e6}
  ]
}"#;
        let d = parse_bench_json(text).unwrap();
        assert_eq!(d.energy.len(), 2);
        assert!((d.energy[0].energy_nj - 125.0).abs() < 1e-9);
        assert_eq!(d.energy[0].dmips_per_watt, None);
        assert!((d.energy[1].dmips_per_watt.unwrap() - 7.5e6).abs() < 1.0);
        // Pre-energy documents parse to an empty (ungated) section.
        assert!(parse_bench_json(SAMPLE).unwrap().energy.is_empty());
        // A present-but-malformed section is rejected, not ignored.
        let bad = text.replace("\"energy_nj\": 1.25e2, ", "");
        assert!(parse_bench_json(&bad).is_err());
    }

    #[test]
    fn energy_increase_fails_and_decrease_passes() {
        let base = doc_with_energy(1.0);
        // 10% more energy (and correspondingly lower DMIPS/W): within
        // the 25% band, passes.
        let r = compare(&base, &doc_with_energy(1.1), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert_eq!(r.deltas.len(), 4 + 3); // sims + 2 energy + 1 dpw
                                           // 50% more energy: both the energy and the DMIPS/W gate trip.
        let r = compare(&base, &doc_with_energy(1.5), 0.25);
        assert!(!r.ok());
        assert!(r
            .regressions
            .iter()
            .any(|d| d.name == "bubble-sort/energy_nj"));
        assert!(r
            .regressions
            .iter()
            .any(|d| d.name == "dhrystone/dmips_per_watt"));
        assert!(r.render(0.25).contains("REGRESSION"));
        // Energy going *down* is an improvement, not a regression.
        let r = compare(&base, &doc_with_energy(0.5), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
    }

    #[test]
    fn dropping_the_energy_section_fails_once_pinned() {
        let base = doc_with_energy(1.0);
        // Current regenerated without the energy section entirely.
        let r = compare(&base, &doc(1.0, 1.0), 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "bubble-sort/energy"));
        assert!(r.missing.iter().any(|m| m == "dhrystone/energy"));
        // Dropping just the DMIPS/W pin fails too.
        let mut current = doc_with_energy(1.0);
        current.energy[1].dmips_per_watt = None;
        let r = compare(&base, &current, 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "dhrystone/dmips_per_watt"));
        // A pre-energy baseline gates nothing against an energy-bearing
        // current document.
        let r = compare(&doc(1.0, 1.0), &doc_with_energy(1.0), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
    }

    #[test]
    fn service_section_parses_and_gates_at_a_doubled_threshold() {
        let text = r#"{
  "simulators": [
    {"workload": "gemm", "functional_ips": 6.19e7, "pipelined_cps": 2.12e7}
  ],
  "service": [
    {"sessions": 512, "workers": 8, "sessions_per_second": 1.3050e2, "per_worker_ips": 4.2000e6, "p99_slice_us": 210.250, "migrations": 97, "steals": 41}
  ]
}"#;
        let d = parse_bench_json(text).unwrap();
        let row = d.service.as_ref().expect("service section parses");
        assert!((row.per_worker_ips - 4.2e6).abs() < 1.0);
        // A present-but-malformed section is rejected, not ignored.
        assert!(parse_bench_json(&text.replace("per_worker_ips", "nope")).is_err());
        // Pre-service documents parse to no section at all.
        assert!(parse_bench_json(SAMPLE).unwrap().service.is_none());

        let base = doc_with_service(1.0);
        // A 40% drop stays inside the doubled 2 * 25% band.
        let r = compare(&base, &doc_with_service(0.6), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert!(r.deltas.iter().any(|d| d.name == "service/per_worker_ips"));
        // A 60% drop trips it.
        let r = compare(&base, &doc_with_service(0.4), 0.25);
        assert!(!r.ok());
        assert!(r
            .regressions
            .iter()
            .any(|d| d.name == "service/per_worker_ips"));
    }

    #[test]
    fn dropping_the_service_section_fails_once_pinned() {
        let r = compare(&doc_with_service(1.0), &doc(1.0, 1.0), 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "service/per_worker_ips"));
        // A pre-service baseline gates nothing against a service-bearing
        // current document.
        let r = compare(&doc(1.0, 1.0), &doc_with_service(1.0), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
    }

    #[test]
    fn nn_section_parses_and_gates() {
        let text = r#"{
  "simulators": [
    {"workload": "gemm", "functional_ips": 6.19e7, "pipelined_cps": 2.12e7}
  ],
  "nn": [
    {"workload": "nn-mlp", "rows": 40, "cols": 40, "scalar_ns_per_matvec": 4200.00, "simd_ns_per_matvec": 860.00, "simd_speedup": 4.88, "instructions": 120000, "cycles": 150000, "functional_ips": 3.1000e7, "threaded_ips": 9.0000e7, "pipelined_cps": 2.0000e7}
  ]
}"#;
        let d = parse_bench_json(text).unwrap();
        let row = d.nn.as_ref().expect("nn section parses");
        assert!((row.simd_speedup - 4.88).abs() < 1e-9);
        assert!((row.functional_ips - 3.1e7).abs() < 1.0);
        // A present-but-malformed section is rejected, not ignored.
        assert!(parse_bench_json(&text.replace("simd_speedup", "nope")).is_err());
        // Pre-nn documents parse to no section at all — and the
        // "nn-mlp" workload name alone must not look like one.
        assert!(parse_bench_json(SAMPLE).unwrap().nn.is_none());

        let base = doc_with_nn(1.0);
        // 10% noise passes; a halved speedup trips the gate.
        let r = compare(&base, &doc_with_nn(0.9), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert!(r.deltas.iter().any(|d| d.name == "nn/simd_speedup"));
        let r = compare(&base, &doc_with_nn(0.5), 0.25);
        assert!(!r.ok());
        assert!(r.regressions.iter().any(|d| d.name == "nn/simd_speedup"));
        assert!(r.regressions.iter().any(|d| d.name == "nn/functional_ips"));
    }

    #[test]
    fn dropping_the_nn_section_fails_once_pinned() {
        let r = compare(&doc_with_nn(1.0), &doc(1.0, 1.0), 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "nn/simd_speedup"));
        // A pre-nn baseline gates nothing against an nn-bearing current
        // document.
        let r = compare(&doc(1.0, 1.0), &doc_with_nn(1.0), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
    }

    #[test]
    fn wide_section_parses_and_gates_slowdowns_only() {
        let text = r#"{
  "simulators": [
    {"workload": "gemm", "functional_ips": 6.19e7, "pipelined_cps": 2.12e7}
  ],
  "wide": [
    {"name": "word81_add", "ns_per_op": 7.25},
    {"name": "real_mul", "ns_per_op": 44.50}
  ]
}"#;
        let d = parse_bench_json(text).unwrap();
        assert_eq!(d.wide.len(), 2);
        assert_eq!(d.wide[0].name, "word81_add");
        assert!((d.wide[1].ns_per_op - 44.5).abs() < 1e-9);
        // A present-but-malformed section is rejected, not ignored.
        assert!(parse_bench_json(&text.replace("ns_per_op", "nope")).is_err());
        // Pre-wide documents parse to an empty (ungated) section.
        assert!(parse_bench_json(SAMPLE).unwrap().wide.is_empty());

        let base = doc_with_wide(1.0);
        // 40% slower stays inside the doubled 2 * 25% band.
        let r = compare(&base, &doc_with_wide(1.4), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert!(r
            .deltas
            .iter()
            .any(|d| d.name == "wide/word81_add/ns_per_op"));
        // 60% slower trips it.
        let r = compare(&base, &doc_with_wide(1.6), 0.25);
        assert!(!r.ok());
        assert!(r
            .regressions
            .iter()
            .any(|d| d.name == "wide/real_mul/ns_per_op"));
        // Getting *faster* is an improvement, never a regression.
        let r = compare(&base, &doc_with_wide(0.3), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
    }

    #[test]
    fn dropping_the_wide_section_fails_once_pinned() {
        let r = compare(&doc_with_wide(1.0), &doc(1.0, 1.0), 0.25);
        assert!(!r.ok());
        assert!(r.missing.iter().any(|m| m == "wide/word81_add"));
        assert!(r.missing.iter().any(|m| m == "wide/real_mul"));
        // A pre-wide baseline gates nothing against a wide-bearing
        // current document.
        let r = compare(&doc(1.0, 1.0), &doc_with_wide(1.0), 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
    }

    #[test]
    fn small_noise_passes() {
        let base = doc(1.0, 1.0);
        let current = doc(0.9, 1.1); // ±10% noise
        let r = compare(&base, &current, 0.25);
        assert!(r.ok(), "{}", r.render(0.25));
        assert_eq!(r.deltas.len(), 4);
    }

    #[test]
    fn big_regression_fails() {
        let base = doc(1.0, 1.0);
        let current = doc(1.0, 0.5); // pipelined halved
        let r = compare(&base, &current, 0.25);
        assert!(!r.ok());
        assert_eq!(r.regressions.len(), 2);
        assert!(r
            .regressions
            .iter()
            .all(|d| d.name.ends_with("pipelined_cps")));
        assert!(r.render(0.25).contains("REGRESSION"));
    }

    #[test]
    fn dropped_workload_fails() {
        let base = doc(1.0, 1.0);
        let mut current = doc(1.0, 1.0);
        current.simulators.pop();
        let r = compare(&base, &current, 0.25);
        assert!(!r.ok());
        assert_eq!(r.missing, vec!["gemm".to_string()]);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json(r#"{"simulators": []}"#).is_err());
        assert!(parse_bench_json(r#"{"simulators": [{"workload": "x"}]}"#).is_err());
    }
}
