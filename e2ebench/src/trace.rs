//! In-memory spans recorded around calls into each layer, and the
//! self-time table derived from them.
//!
//! A span is opened by the benchmark's own code immediately before it
//! calls a crate's public function and closed when the call returns;
//! nothing inside the program is instrumented. Spans live in memory
//! until the run ends and are then written out in one go, so the
//! traced window pays only for two clock reads and a `Vec` push per
//! span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` relative to the tracer's
/// epoch, the span that encloses it, and the job it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. When `on` is false every method is a
/// branch and nothing is recorded, so timed and traced windows run the
/// same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span enclosing the spans recorded until the matching
    /// [`Tracer::end`]; `job` tags it and everything nested in it.
    pub fn begin(&mut self, name: &'static str, job: u64) {
        if !self.on {
            return;
        }
        self.job = job;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records one leaf call into a layer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let job = self.job;
        self.begin(name, job);
        let r = f();
        self.end();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time per span name, as a share of the wall time of the root
/// spans (one per job, or per burst for the sweep).
#[derive(Debug, Clone)]
pub struct SelfTimes {
    /// Summed root-span duration, ns.
    pub root_ns: u64,
    /// name → (calls, self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Name of the root spans.
    pub root: &'static str,
}

impl SelfTimes {
    pub fn from_spans(spans: &[Span]) -> SelfTimes {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut root_ns = 0;
        let mut root = "job";
        for (s, children) in spans.iter().zip(&child_ns) {
            if s.parent.is_none() {
                root_ns += s.duration_ns();
                root = s.name;
            }
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.duration_ns().saturating_sub(*children);
        }
        SelfTimes {
            root_ns,
            by_name,
            root,
        }
    }

    /// Share of root wall time spent in `name`'s own code (0 when the
    /// layer was never called).
    pub fn frac(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some((_, self_ns)) if self.root_ns > 0 => *self_ns as f64 / self.root_ns as f64,
            _ => 0.0,
        }
    }

    /// Share of root wall time the layer spans account for: everything
    /// but the roots' own self time (benchmark bookkeeping).
    pub fn coverage(&self) -> f64 {
        1.0 - self.frac(self.root)
    }

    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# self time, workload {workload}: {:.3} ms of {} spans",
            self.root_ns as f64 / 1e6,
            self.root
        );
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>12} {:>9}",
            "span", "calls", "self_ms", "self_frac"
        );
        for (name, (calls, self_ns)) in &self.by_name {
            let _ = writeln!(
                out,
                "{name:<22} {calls:>9} {:>12.3} {:>9.4}",
                *self_ns as f64 / 1e6,
                self.frac(name)
            );
        }
        let _ = writeln!(
            out,
            "coverage (layer self time / root wall) {:.4}",
            self.coverage()
        );
        out
    }
}

/// Tab-separated span dump: `index job name parent start_ns end_ns`.
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::from("index\tjob\tname\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.job, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_covers_roots() {
        let spans = vec![
            span("job", None, 0, 100),
            span("sim.run", Some(0), 10, 70),
            span("workloads.verify", Some(0), 70, 90),
            span("job", None, 100, 150),
            span("sim.run", Some(3), 100, 150),
        ];
        let t = SelfTimes::from_spans(&spans);
        assert_eq!(t.root_ns, 150);
        assert_eq!(t.by_name["job"], (2, 20));
        assert_eq!(t.by_name["sim.run"], (2, 110));
        assert!((t.frac("sim.run") - 110.0 / 150.0).abs() < 1e-12);
        assert!((t.coverage() - 130.0 / 150.0).abs() < 1e-12);
        assert_eq!(t.frac("rv32.parse"), 0.0);
    }

    #[test]
    fn merge_rebases_parents_and_tracer_nests() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.begin("job", 1);
        a.span("sim.run", || ());
        a.end();
        let mut off = Tracer::new(false, epoch);
        off.begin("job", 2);
        off.span("sim.run", || ());
        off.end();
        assert!(off.into_spans().is_empty());
        let merged = merge(vec![a.into_spans().clone(), {
            let mut b = Tracer::new(true, epoch);
            b.begin("job", 3);
            b.span("sim.run", || ());
            b.end();
            b.into_spans()
        }]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[3].job, 3);
    }
}
