//! The bench regression gate behind `cargo run -p art9-bench --bin gate`.
//!
//! [`parse_bench_json`] flattens a `BENCH_ternary.json` document into
//! the [`Metric`]s the [`GATED`] table names (`docs/PERFORMANCE.md` §6
//! lists it); [`compare`] walks the baseline's list once. A metric the
//! baseline carries and the current document lacks fails as missing;
//! one the baseline lacks is not gated (pin-once). Counters must match
//! exactly; rates and timings gate inside `scale × --max-regress`, a
//! coarse tripwire across hosts. The scanner reads only the schema
//! `perf::bench_json` emits.

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Higher is better (rates, speedups).
    Up,
    /// Lower is better (per-operation timings).
    Down,
    /// A deterministic counter: any difference fails.
    Exact,
}

use Better::{Down, Exact, Up};

/// How one field of one section's rows is gated.
#[derive(Debug, PartialEq)]
pub struct Rule {
    /// Top-level array of the bench document (`simulators`, `energy`, …).
    pub section: &'static str,
    /// Numeric field of that array's rows.
    pub field: &'static str,
    /// Which direction of change is a regression.
    pub better: Better,
    /// Multiplier on the allowed fraction (banded rows only).
    pub scale: f64,
}

impl Rule {
    /// The allowed relative move in the bad direction (`0` for exact).
    fn bound(&self, max_regress: f64) -> f64 {
        match self.better {
            Up => (self.scale * max_regress).min(0.95),
            Down => self.scale * max_regress,
            Exact => 0.0,
        }
    }

    /// `true` when `current` moved from `baseline` past the bound.
    fn regressed(&self, baseline: f64, current: f64, max_regress: f64) -> bool {
        match self.better {
            Up => current < baseline * (1.0 - self.bound(max_regress)),
            Down => current > baseline * (1.0 + self.bound(max_regress)),
            Exact => current != baseline,
        }
    }
}

const fn rule(section: &'static str, field: &'static str, better: Better, scale: f64) -> Rule {
    Rule {
        section,
        field,
        better,
        scale,
    }
}

/// Every gated field. The scheduler rate and wide-word timings get twice
/// the band: on shared runners they are far noisier than a simulator
/// loop. `Word9` timings are not gated.
pub const GATED: &[Rule] = &[
    rule("simulators", "instructions", Exact, 1.0),
    rule("simulators", "cycles", Exact, 1.0),
    rule("simulators", "functional_ips", Up, 1.0),
    rule("simulators", "threaded_ips", Up, 1.0),
    rule("simulators", "pipelined_cps", Up, 1.0),
    rule("simulators", "functional_observed_ips", Up, 1.0),
    rule("simulators", "threaded_observed_ips", Up, 1.0),
    rule("simulators", "pipelined_observed_cps", Up, 1.0),
    rule("energy", "instructions", Exact, 1.0),
    rule("energy", "cycles", Exact, 1.0),
    rule("energy", "energy_nj", Exact, 1.0),
    rule("energy", "dmips_per_watt", Exact, 1.0),
    rule("service", "per_worker_ips", Up, 2.0),
    rule("nn", "simd_speedup", Up, 1.0),
    rule("nn", "instructions", Exact, 1.0),
    rule("nn", "cycles", Exact, 1.0),
    rule("nn", "functional_ips", Up, 1.0),
    rule("wide", "ns_per_op", Down, 2.0),
];

/// One gated value of a bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `section/id/field`, `id` = the row's `workload` or `name`; none
    /// in a single-row section without either.
    pub key: String,
    /// The value as written.
    pub value: f64,
    /// The row of [`GATED`] that gates it.
    pub rule: &'static Rule,
}

/// One comparison: the baseline's metric and the current value.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// The baseline's metric.
    pub base: Metric,
    /// The regenerated value.
    pub current: f64,
}

/// The gate's verdict.
#[derive(Debug, Clone, Default)]
pub struct GateResult {
    /// Every comparison made.
    pub deltas: Vec<MetricDelta>,
    /// The comparisons that moved past their bound.
    pub regressions: Vec<MetricDelta>,
    /// Keys the baseline carries and the current document lacks.
    pub missing: Vec<String>,
}

impl GateResult {
    /// `true` when the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Renders the comparison table and the verdict.
    pub fn render(&self, max_regress: f64) -> String {
        use std::fmt::Write as _;
        let width = self.deltas.iter().fold(6, |w, d| w.max(d.base.key.len()));
        let mut out = format!("{:<width$}     baseline      current   change\n", "metric");
        for d in &self.deltas {
            let (key, b, c) = (&d.base.key, d.base.value, d.current);
            let pct = (c / b - 1.0) * 100.0;
            let _ = writeln!(out, "{key:<width$} {b:>12.3e} {c:>12.3e} {pct:>+7.1}%");
        }
        for key in &self.missing {
            let _ = writeln!(out, "MISSING: {key} dropped from the current document");
        }
        for d in &self.regressions {
            let (key, b, c, rule) = (&d.base.key, d.base.value, d.current, d.base.rule);
            let (better, bound) = (rule.better, rule.bound(max_regress) * 100.0);
            let _ = writeln!(
                out,
                "gate: REGRESSION {key} {b:.6e} -> {c:.6e} ({better:?}, bound {bound:.0}%)"
            );
        }
        let (r, m) = (self.regressions.len(), self.missing.len());
        let verdict = if self.ok() { "OK" } else { "FAILED" };
        let _ = writeln!(out, "gate: {verdict} ({r} regressed, {m} missing)");
        out
    }
}

/// Compares `current` against `baseline` with the given allowed
/// regression fraction (e.g. `0.25` for 25%).
pub fn compare(baseline: &[Metric], current: &[Metric], max_regress: f64) -> GateResult {
    let mut result = GateResult::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.key == base.key) else {
            result.missing.push(base.key.clone());
            continue;
        };
        let delta = MetricDelta {
            base: base.clone(),
            current: cur.value,
        };
        if base.rule.regressed(base.value, cur.value, max_regress) {
            result.regressions.push(delta.clone());
        }
        result.deltas.push(delta);
    }
    result
}

/// Flattens a `BENCH_ternary.json` document into its gated metrics.
///
/// # Errors
///
/// Returns a description when the document has no gated `simulators`
/// field, or a section with several rows has one without a `workload`
/// or `name`.
pub fn parse_bench_json(text: &str) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    let mut sections: Vec<&str> = GATED.iter().map(|r| r.section).collect();
    sections.dedup();
    for name in sections {
        // The pattern includes both quotes, so a field or value such as
        // "energy_nj" or "nn-mlp" never matches a section name.
        let Some(array) = section(text, &format!("\"{name}\"")) else {
            continue;
        };
        let rows: Vec<&str> = objects(array).collect();
        for obj in &rows {
            let prefix = match string_field(obj, "workload").or_else(|| string_field(obj, "name")) {
                Some(id) => format!("{name}/{id}"),
                None if rows.len() == 1 => name.to_string(),
                None => return Err(format!("{name} row without an id: {obj}")),
            };
            for rule in GATED.iter().filter(|r| r.section == name) {
                if let Some(value) = number_field(obj, rule.field) {
                    let key = format!("{prefix}/{}", rule.field);
                    metrics.push(Metric { key, value, rule });
                }
            }
        }
    }
    if !metrics.iter().any(|m| m.rule.section == "simulators") {
        return Err("no gated \"simulators\" field".into());
    }
    Ok(metrics)
}

/// The bracketed `[...]` contents following `key`.
fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let (_, rest) = text.split_once(key)?;
    let (_, rest) = rest.split_once('[')?;
    Some(rest.split_once(']')?.0)
}

/// Splits an array body into `{...}` object bodies (the schema nests
/// no objects, so plain brace matching suffices).
fn objects(array: &str) -> impl Iterator<Item = &str> {
    array
        .split('{')
        .skip(1)
        .filter_map(|chunk| Some(chunk.split_once('}')?.0))
}

/// Value of `"key": "string"` within an object body.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let (value, _) = field_value(obj, key)?.strip_prefix('"')?.split_once('"')?;
    Some(value.to_string())
}

/// Value of `"key": number` within an object body.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let end = |c: char| c == ',' || c == '}' || c.is_whitespace();
    field_value(obj, key)?.split(end).next()?.parse().ok()
}

/// The text right after `"key":`, trimmed.
fn field_value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let (_, rest) = obj.split_once(&format!("\"{key}\""))?;
    Some(rest.trim_start().strip_prefix(':')?.trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: f64 = 0.25;

    fn committed() -> Vec<Metric> {
        parse_bench_json(include_str!("../../../BENCH_ternary.json")).unwrap()
    }

    /// The committed keys matching `pick`, in document order.
    fn keys(pick: impl Fn(&str) -> bool) -> Vec<String> {
        let all = committed().into_iter().map(|m| m.key);
        all.filter(|k| pick(k)).collect()
    }

    /// Writes metrics back in the bench schema, one row per run of
    /// keys sharing `section/id`, the id as `workload`.
    fn to_json(metrics: &[Metric]) -> String {
        let (mut out, mut last) = (String::from("{"), ("", ""));
        for m in metrics {
            let (prefix, field) = m.key.rsplit_once('/').unwrap();
            let (section, id) = prefix.split_once('/').unwrap_or((prefix, ""));
            if section != last.0 {
                let close = if last.0.is_empty() { "" } else { "}],\n" };
                out += &format!("{close}\"{section}\": [{{");
            } else {
                out += if id != last.1 { "},\n{" } else { ", " };
            }
            if (section, id) != last && !id.is_empty() {
                out += &format!("\"workload\": \"{id}\", ");
            }
            out += &format!("\"{field}\": {:?}", m.value);
            last = (section, id);
        }
        out + "}]}"
    }

    /// The committed metrics with every key matching `pick` mapped by
    /// `f` (`None` drops it), round-tripped through the text form.
    fn edited(pick: impl Fn(&str) -> bool, f: impl Fn(f64) -> Option<f64>) -> Vec<Metric> {
        let mut metrics = committed();
        metrics.retain_mut(|m| !pick(&m.key) || f(m.value).map(|v| m.value = v).is_some());
        parse_bench_json(&to_json(&metrics)).unwrap()
    }

    /// The keys that regress when every key matching `pick` is scaled.
    fn regressed_when_scaled(pick: impl Fn(&str) -> bool, factor: f64) -> Vec<String> {
        let r = compare(&committed(), &edited(pick, |v| Some(v * factor)), MAX);
        assert!(r.missing.is_empty());
        r.regressions.into_iter().map(|d| d.base.key).collect()
    }

    /// Keys matching `pick` dropped from the current document are
    /// missing, exactly; dropped from the baseline they are not gated.
    fn assert_pinned_once(pick: impl Fn(&str) -> bool + Copy) {
        let dropped = edited(pick, |_| None);
        let r = compare(&committed(), &dropped, MAX);
        assert_eq!((r.missing, r.regressions.len()), (keys(pick), 0));
        let r = compare(&dropped, &committed(), MAX);
        assert!(r.ok());
        assert_eq!(r.deltas.len(), 62 - keys(pick).len());
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The real committed file must stay parseable, or the CI gate
        // goes blind silently.
        let metrics = committed();
        assert_eq!(metrics.len(), 62);
        let count = |b: Better| metrics.iter().filter(|m| m.rule.better == b).count();
        assert_eq!((count(Up), count(Down), count(Exact)), (27, 12, 23));
        let mut unique = keys(|_| true);
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 62);
        let service = keys(|k| k.starts_with("service/"));
        assert_eq!(service, ["service/per_worker_ips"]);
        // The recorded SIMD speedup meets the nn subsystem's 4x bar.
        let simd = metrics.iter().find(|m| m.key == "nn/nn-mlp/simd_speedup");
        assert!(simd.unwrap().value >= 4.0);
    }

    #[test]
    fn parses_the_emitted_schema() {
        let text = r#"{"word_ops": [{"name": "add", "ns_per_op": 4.30}],
  "simulators": [
    {"workload": "bubble-sort", "instructions": 3177, "functional_ips": 6.75e7, "seed_functional_ips": 1.0},
    {"workload": "gemm", "pipelined_cps": 2.12e7}
  ]}"#;
        let parsed: Vec<(String, f64)> = parse_bench_json(text)
            .unwrap()
            .into_iter()
            .map(|m| (m.key, m.value))
            .collect();
        let expected = [
            ("simulators/bubble-sort/instructions", 3177.0),
            ("simulators/bubble-sort/functional_ips", 6.75e7),
            ("simulators/gemm/pipelined_cps", 2.12e7),
        ];
        assert_eq!(parsed, expected.map(|(k, v)| (k.to_string(), v)));
    }

    #[test]
    fn parses_an_energy_section() {
        let text = r#"{"simulators": [{"workload": "gemm", "cycles": 1}], "energy": [
    {"workload": "gemm", "cycles": 120, "instructions": 90, "energy_nj": 1.25e2, "epi_pj": 1.4},
    {"workload": "dhrystone", "energy_nj": 5.4e2, "dmips_per_watt": 7.5e6}]}"#;
        let metrics = parse_bench_json(text).unwrap();
        let energy: Vec<&str> = metrics.iter().skip(1).map(|m| m.key.as_str()).collect();
        let gemm = ["instructions", "cycles", "energy_nj"].map(|f| format!("energy/gemm/{f}"));
        let dhry = ["energy_nj", "dmips_per_watt"].map(|f| format!("energy/dhrystone/{f}"));
        assert_eq!(energy, [gemm.as_slice(), &dhry].concat());
        assert_eq!(metrics.last().unwrap().value, 7.5e6);
    }

    #[test]
    fn bands_reproduce_the_per_section_bounds() {
        for m in committed() {
            let doubled = m.key == "service/per_worker_ips" || m.key.starts_with("wide/");
            let expected = match m.rule.better {
                Exact => 0.0,
                _ if doubled => 0.5,
                _ => 0.25,
            };
            assert_eq!(m.rule.bound(MAX), expected, "{}", m.key);
        }
        // A doubled rate band never reaches a 100% drop.
        let service = GATED.iter().find(|r| r.field == "per_worker_ips").unwrap();
        assert_eq!(service.bound(0.6), 0.95);
        assert!(service.regressed(1.0, 0.04, 0.6));
        assert!(!service.regressed(1.0, 0.06, 0.6));
    }

    #[test]
    fn unchanged_document_passes_with_an_aligned_table() {
        let r = compare(&committed(), &committed(), MAX);
        assert!(r.ok() && r.deltas.len() == 62);
        let text = r.render(MAX);
        let table: Vec<&str> = text.lines().take(63).collect();
        assert!(table.iter().all(|l| l.len() == table[0].len()), "{text}");
        assert!(text.ends_with("gate: OK (0 regressed, 0 missing)\n"));
    }

    #[test]
    fn every_metric_trips_just_past_its_bound_and_nowhere_else() {
        for m in committed() {
            let (b, edge) = (m.value, m.rule.bound(MAX));
            // (current value, passes?)
            let cases = match m.rule.better {
                Up => vec![
                    (b * (1.0 - edge) * (1.0 - 1e-9), false),
                    (b * (1.0 - edge) * (1.0 + 1e-9), true),
                    (b * 1.5, true),
                ],
                Down => vec![
                    (b * (1.0 + edge) * (1.0 + 1e-9), false),
                    (b * (1.0 + edge) * (1.0 - 1e-9), true),
                    (b * 0.5, true),
                ],
                Exact => vec![
                    (b.next_up(), false),
                    (b.next_down(), false),
                    (b * 1.5, false),
                    (b * 0.5, false),
                    (b, true),
                ],
            };
            for (value, passes) in cases {
                let r = compare(&committed(), &edited(|k| k == m.key, |_| Some(value)), MAX);
                assert!(r.missing.is_empty() && r.deltas.len() == 62);
                let regressed: Vec<String> =
                    r.regressions.into_iter().map(|d| d.base.key).collect();
                let expected = if passes { vec![] } else { vec![m.key.clone()] };
                assert_eq!(regressed, expected, "{} at {value:e}", m.key);
            }
        }
    }

    #[test]
    fn every_dropped_metric_is_missing_but_a_new_one_is_not_gated() {
        for m in committed() {
            assert_pinned_once(|k| k == m.key);
        }
        let r = compare(
            &committed(),
            &edited(|k| k.ends_with("/cycles"), |_| None),
            MAX,
        );
        assert!(r.render(MAX).contains("MISSING: nn/nn-mlp/cycles dropped"));
    }

    #[test]
    fn pre_threaded_baselines_still_gate_the_legacy_metrics() {
        assert_pinned_once(|k| k.ends_with("/threaded_ips"));
    }

    #[test]
    fn threaded_regression_fails() {
        let threaded = |k: &str| k.ends_with("/threaded_ips");
        assert_eq!(regressed_when_scaled(threaded, 0.5), keys(threaded));
    }

    #[test]
    fn dropping_the_threaded_metric_fails() {
        assert_pinned_once(|k| k.starts_with("simulators/") && k.ends_with("/threaded_ips"));
    }

    #[test]
    fn observed_rates_parse_and_gate_pin_once() {
        let observed = |k: &str| k.contains("_observed_");
        assert_eq!(keys(observed).len(), 12);
        assert_eq!(regressed_when_scaled(observed, 0.5), keys(observed));
        assert_pinned_once(observed);
    }

    #[test]
    fn energy_changes_fail_in_either_direction() {
        // The flip counts are deterministic, so energy is pinned exactly.
        let energy = |k: &str| k.ends_with("/energy_nj") || k.ends_with("/dmips_per_watt");
        assert_eq!(regressed_when_scaled(energy, 1.1), keys(energy));
        assert_eq!(regressed_when_scaled(energy, 0.9), keys(energy));
        let r = compare(&committed(), &edited(energy, |v| Some(v * 2.0)), MAX);
        assert!(r
            .render(MAX)
            .contains("gate: REGRESSION energy/gemm/energy_nj"));
    }

    #[test]
    fn dropping_the_energy_section_fails_once_pinned() {
        assert_pinned_once(|k| k.starts_with("energy/"));
    }

    #[test]
    fn service_section_parses_and_gates_at_a_doubled_threshold() {
        let service = |k: &str| k == "service/per_worker_ips";
        assert!(regressed_when_scaled(service, 0.6).is_empty());
        assert_eq!(regressed_when_scaled(service, 0.4), keys(service));
    }

    #[test]
    fn dropping_the_service_section_fails_once_pinned() {
        assert_pinned_once(|k| k.starts_with("service/"));
    }

    #[test]
    fn nn_section_parses_and_gates() {
        let rates = |k: &str| k.starts_with("nn/") && (k.ends_with("_ips") || k.ends_with("up"));
        assert_eq!(keys(rates).len(), 2);
        assert!(regressed_when_scaled(rates, 0.9).is_empty());
        assert_eq!(regressed_when_scaled(rates, 0.5), keys(rates));
    }

    #[test]
    fn dropping_the_nn_section_fails_once_pinned() {
        assert_pinned_once(|k| k.starts_with("nn/"));
    }

    #[test]
    fn wide_section_parses_and_gates_slowdowns_only() {
        let wide = |k: &str| k.starts_with("wide/");
        assert_eq!(keys(wide).len(), 12);
        assert!(regressed_when_scaled(wide, 1.4).is_empty());
        assert_eq!(regressed_when_scaled(wide, 1.6), keys(wide));
        assert!(regressed_when_scaled(wide, 0.3).is_empty());
    }

    #[test]
    fn dropping_the_wide_section_fails_once_pinned() {
        assert_pinned_once(|k| k.starts_with("wide/"));
    }

    #[test]
    fn small_noise_passes() {
        let rates = |k: &str| k.ends_with("_ips") || k.ends_with("_cps");
        assert!(regressed_when_scaled(rates, 0.9).is_empty());
        assert!(regressed_when_scaled(rates, 1.1).is_empty());
    }

    #[test]
    fn big_regression_fails() {
        let pipelined = |k: &str| k.ends_with("/pipelined_cps");
        assert_eq!(regressed_when_scaled(pipelined, 0.5), keys(pipelined));
        let r = compare(&committed(), &edited(pipelined, |v| Some(v / 2.0)), MAX);
        assert!(r
            .render(MAX)
            .contains("gate: FAILED (4 regressed, 0 missing)"));
    }

    #[test]
    fn dropped_workload_fails() {
        assert_eq!(keys(|k| k.starts_with("simulators/gemm/")).len(), 8);
        assert_pinned_once(|k| k.starts_with("simulators/gemm/"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json(r#"{"simulators": []}"#).is_err());
        let anonymous = r#"{"simulators": [{"workload": "a", "cycles": 1}, {"cycles": 2}]}"#;
        assert!(parse_bench_json(anonymous).is_err());
    }
}
