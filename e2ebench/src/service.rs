//! The two service workloads, both against an in-process `Server` on
//! an ephemeral loopback port, driven through the protocol's own
//! `Client`.
//!
//! * `service-interactive`: one scheduler worker, two client threads
//!   with one connection each, closed loop of `SUBMIT` then `WAIT`.
//!   Jobs are the paper programs at their default sizes on the default
//!   functional backend; every second submission repeats an earlier
//!   (name, seed), so the image cache sees hits and misses. Jobs are
//!   short: the protocol and the per-`SUBMIT` prepare dominate.
//! * `service-sweep`: two workers, one connection submitting bursts of
//!   long observed-threaded jobs (`config=art9-threaded energy=1`) and
//!   then waiting for each in submission order. Each `SUBMIT` waits out
//!   a full round trip, longer than most jobs run, so about one job is
//!   queued at a time; the re-queued session moves between the two
//!   workers after its 1000-instruction slices, which is where the
//!   sweep's steals and checkpoint migrations come from.
//!
//! The service reports `verified=ok` only after its own golden check;
//! the benchmark additionally replays every job in-process after the
//! window and requires the service's retired count (and, where both
//! observe energy, its flip count) to match exactly. A job counts
//! toward the window's retired instructions and latencies only once
//! every check on it has passed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use art9_service::scheduler::SchedulerConfig;
use art9_service::{Client, ImageCache, JobSpec, Server, ServiceConfig};
use art9_sim::observers::EnergyAccounting;
use art9_sim::{Budget, SimBuilder};

use crate::common::{split_seed, Anchors, Bench, Row, Window};
use crate::paper;
use crate::trace::{merge, Tracer};

/// The paper programs; submitted without `n=`, so at default sizes.
/// GEMM comes up twice per rotation, so the median job falls inside
/// one program's latency mode.
const INTERACTIVE_NAMES: [&str; 5] = ["bubble-sort", "gemm", "sobel", "dhrystone", "gemm"];

/// One sweep burst: long Dhrystones beside shorter kernels. Every size
/// lies inside both the `by_name` range and the range its generator
/// accepts. Nine jobs, so the median falls on the fifth job of a burst
/// rather than between the fourth and the fifth.
const BURST: [(&str, Option<usize>); 9] = [
    ("dhrystone", Some(2000)),
    ("bubble-sort", Some(48)),
    ("gemm", Some(7)),
    ("nn-mlp", Some(10)),
    ("dhrystone", Some(2000)),
    ("bubble-sort", Some(48)),
    ("gemm", Some(7)),
    ("nn-mlp", Some(10)),
    ("dhrystone", Some(2000)),
];

const SWEEP_WORKERS: usize = 2;

/// One job as submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Spec {
    name: &'static str,
    n: Option<usize>,
    seed: u64,
    /// `config=art9-threaded energy=1` (the sweep's jobs).
    observed_threaded: bool,
}

impl Spec {
    /// The `SUBMIT` arguments after `workload=<name>`.
    fn options(&self) -> String {
        let mut o = format!("seed={}", self.seed);
        if let Some(n) = self.n {
            o.push_str(&format!(" n={n}"));
        }
        if self.observed_threaded {
            o.push_str(" config=art9-threaded energy=1");
        }
        o
    }

    /// The same job as the server's parsed argument map.
    fn args(&self) -> HashMap<String, String> {
        let mut args: HashMap<String, String> = self
            .options()
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        args.insert("workload".into(), self.name.into());
        args
    }
}

/// A job the service finished with `state=done verified=ok`.
#[derive(Debug, Clone, Copy)]
struct Done {
    spec: Spec,
    retired: u64,
    flips: Option<u64>,
    /// Start → `WAIT` reply, ms.
    latency_ms: f64,
}

/// The value of `key=` in a status line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// Parses a `WAIT` reply; `Err` unless the job is done and verified.
fn parse_done(spec: Spec, line: &str) -> Result<Done, String> {
    if field(line, "state") != Some("done") || field(line, "verified") != Some("ok") {
        return Err(format!("{} {}: {line}", spec.name, spec.options()));
    }
    let retired = field(line, "retired")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no retired count in {line:?}"))?;
    let flips = field(line, "flips").and_then(|v| v.parse().ok());
    Ok(Done {
        spec,
        retired,
        flips,
        latency_ms: 0.0,
    })
}

fn submit(client: &mut Client, spec: Spec) -> Result<u64, String> {
    client
        .submit_workload(spec.name, &spec.options())
        .map_err(|e| format!("SUBMIT {} {}: {e}", spec.name, spec.options()))
}

/// `WAIT`s for job `id`, submitted at `t0`.
fn wait(client: &mut Client, spec: Spec, id: u64, t0: Instant) -> Result<Done, String> {
    let line = client
        .command(&format!("WAIT {id}"))
        .map_err(|e| format!("WAIT {id}: {e}"))?;
    let done = parse_done(spec, &line)?;
    Ok(Done {
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        ..done
    })
}

/// What an in-process run of a job gave.
struct Replayed {
    retired: u64,
    flips: Option<u64>,
    /// `JobSpec::prepare` plus the run, s.
    seconds: f64,
}

/// Runs `spec` in-process the way the server does: `JobSpec::prepare`,
/// then a core on the same backend, with the energy observer only when
/// `observed`. The output is verified against the golden reference.
fn replay(spec: Spec, observed: bool, cache: &ImageCache) -> Result<Replayed, String> {
    let t0 = Instant::now();
    let job = JobSpec::from_args(&spec.args(), None)?;
    let prepared = job.prepare(cache).map_err(|e| e.to_string())?;
    let mut builder = SimBuilder::new(&prepared.image)
        .backend(job.config.backend)
        .forwarding(job.config.forwarding);
    let energy = (observed && job.energy).then(|| Arc::new(Mutex::new(EnergyAccounting::new())));
    if let Some(e) = &energy {
        builder = builder.observer(e.clone());
    }
    let mut core = builder.build();
    let summary = core
        .run_for(Budget::Retired(job.max_retired))
        .map_err(|e| e.to_string())?;
    let seconds = t0.elapsed().as_secs_f64();
    if summary.halt.is_none() {
        return Err(format!("{} did not halt in-process", spec.name));
    }
    if let Some(w) = &prepared.workload {
        w.verify_art9(core.state()).map_err(|e| e.to_string())?;
    }
    let flips = energy.map(|e| {
        let t = e.lock().expect("energy observer lock").totals();
        t.regfile + t.tdm + t.fetch + t.alu
    });
    Ok(Replayed {
        retired: summary.retired,
        flips,
        seconds,
    })
}

/// Compares each finished job against its in-process replay. Jobs
/// that match count toward `window`'s retired instructions and
/// latencies; the others are failures. Returns the replays' summed
/// prepare + run time.
fn check_against_replay(done: &[Done], observed: bool, window: &mut Window) -> f64 {
    let cache = ImageCache::new();
    let mut seconds = 0.0;
    for d in done {
        match replay(d.spec, observed, &cache) {
            Ok(r) => {
                seconds += r.seconds;
                let flips_differ = observed && r.flips.is_some() && r.flips != d.flips;
                if r.retired == d.retired && !flips_differ {
                    window.retired += d.retired;
                    window.latencies_ms.push(d.latency_ms);
                } else {
                    window.failures.push(format!(
                        "{} {}: service retired {} flips {:?}, in-process retired {} flips {:?}",
                        d.spec.name,
                        d.spec.options(),
                        d.retired,
                        d.flips,
                        r.retired,
                        r.flips
                    ));
                }
            }
            Err(e) => {
                window
                    .failures
                    .push(format!("replay {} {}: {e}", d.spec.name, d.spec.options()))
            }
        }
    }
    seconds
}

/// Scheduler and cache counters from `METRICS`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    sessions: f64,
    slices: f64,
    steals: f64,
    migrations: f64,
    hits: f64,
    misses: f64,
}

fn counters(client: &mut Client) -> Counters {
    let m = client.metrics().unwrap_or_default();
    let get = |k: &str| m.get(k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    Counters {
        sessions: get("sessions-total"),
        slices: get("slices"),
        steals: get("steals"),
        migrations: get("migrations"),
        hits: get("cache-hits"),
        misses: get("cache-misses"),
    }
}

/// What a timed window left for the checks after it.
struct Finished {
    done: Vec<Done>,
    before: Counters,
    after: Counters,
    /// Worker-seconds the window's jobs had: summed job latency
    /// (interactive, one worker) or burst wall time × workers (sweep).
    service_s: f64,
}

/// Replays the window's jobs and, for a traced window, derives the
/// service rows. Untraced windows replay without the energy observer,
/// checking retired counts (the sweep's first burst had its flips
/// checked in the window); traced windows replay exactly as the server
/// ran, to time the in-process equivalent and check every job's flips
/// too.
fn finish(f: Finished, window: &mut Window, traced: bool) {
    let inproc_s = check_against_replay(&f.done, traced, window);
    if traced {
        window.rows = service_rows(&f, inproc_s);
    }
}

/// Per-layer rows both service workloads own.
fn service_rows(f: &Finished, inproc_s: f64) -> Vec<Row> {
    let (b, a) = (f.before, f.after);
    let sessions = (a.sessions - b.sessions).max(1.0);
    let lookups = (a.hits - b.hits) + (a.misses - b.misses);
    vec![
        Row::new(
            "service.overhead_frac",
            1.0 - inproc_s / f.service_s,
            "ratio",
        ),
        Row::new(
            "service.cache_hit_frac",
            if lookups > 0.0 {
                (a.hits - b.hits) / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        Row::new(
            "service.slices_per_job",
            (a.slices - b.slices) / sessions,
            "count",
        ),
        Row::new("service.steals", a.steals - b.steals, "count"),
        Row::new("service.migrations", a.migrations - b.migrations, "count"),
    ]
}

fn start_server(workers: usize) -> Result<Server, String> {
    Server::start(ServiceConfig {
        addr: String::new(),
        scheduler: SchedulerConfig {
            workers,
            ..SchedulerConfig::default()
        },
    })
    .map_err(|e| format!("server start: {e}"))
}

fn connect(server: &Server) -> Result<Client, String> {
    Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))
}

/// `service-interactive`.
pub struct Interactive {
    // Clients first: they disconnect before the server shuts down.
    clients: Vec<Client>,
    _server: Server,
    seed: u64,
    windows: u64,
    anchors: Anchors,
}

impl Interactive {
    /// One client's closed loop until `deadline`.
    fn client_loop(
        client: &mut Client,
        stream: u64,
        deadline: f64,
        mut tr: Tracer,
        start: Instant,
    ) -> (Window, Vec<Done>) {
        let mut w = Window::default();
        let mut done = Vec::new();
        let mut rng = stream;
        // Per program, the (name, seed) pairs submitted so far.
        let mut history: Vec<Vec<Spec>> = vec![Vec::new(); INTERACTIVE_NAMES.len()];
        let mut j = 0u64;
        while start.elapsed().as_secs_f64() < deadline {
            // Programs rotate in a fixed order, each submitted twice in
            // a row: first with a fresh seed, then as a repeat of one of
            // its earlier submissions. The mix is the same on every
            // seed; only the inputs and the repeats drawn differ.
            rng = split_seed(rng, 0);
            let kind = (j / 2) as usize % INTERACTIVE_NAMES.len();
            let spec = if j % 2 == 1 {
                let earlier = &history[kind];
                earlier[rng as usize % earlier.len()]
            } else {
                let spec = Spec {
                    name: INTERACTIVE_NAMES[kind],
                    n: None,
                    seed: rng,
                    observed_threaded: false,
                };
                history[kind].push(spec);
                spec
            };
            let t0 = Instant::now();
            tr.begin("job", stream ^ j);
            let result = tr
                .span("service.submit", || submit(client, spec))
                .and_then(|id| tr.span("service.wait", || wait(client, spec, id, t0)));
            tr.end();
            w.attempted += 1;
            match result {
                Ok(d) => done.push(d),
                Err(e) => w.failures.push(e),
            }
            j += 1;
        }
        w.spans = tr.into_spans();
        (w, done)
    }
}

impl Bench for Interactive {
    fn setup(seed: u64) -> Result<Self, String> {
        let anchors = paper::derive_anchors()?;
        let server = start_server(1)?;
        let mut clients = vec![connect(&server)?, connect(&server)?];
        for (k, client) in clients.iter_mut().enumerate() {
            let spec = Spec {
                name: INTERACTIVE_NAMES[k],
                n: None,
                seed: split_seed(seed, u64::MAX - k as u64),
                observed_threaded: false,
            };
            let id = submit(client, spec)?;
            wait(client, spec, id, Instant::now())?;
        }
        Ok(Interactive {
            clients,
            _server: server,
            seed,
            windows: 0,
            anchors,
        })
    }

    fn anchors(&self) -> Anchors {
        self.anchors
    }

    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let before = counters(&mut self.clients[0]);
        let start = Instant::now();
        let streams: Vec<u64> = (0..self.clients.len() as u64)
            .map(|t| split_seed(self.seed, (self.windows << 8) | t))
            .collect();
        let results: Vec<(Window, Vec<Done>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&streams)
                .map(|(client, &stream)| {
                    let tr = Tracer::new(traced, start);
                    s.spawn(move || Self::client_loop(client, stream, seconds, tr, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        self.windows += 1;

        let mut w = Window {
            elapsed_s,
            ..Window::default()
        };
        let mut done = Vec::new();
        let mut spans = Vec::new();
        for (part, part_done) in results {
            w.attempted += part.attempted;
            w.failures.extend(part.failures);
            spans.push(part.spans);
            done.extend(part_done);
        }
        w.spans = merge(spans);
        let finished = Finished {
            service_s: done.iter().map(|d| d.latency_ms).sum::<f64>() / 1e3,
            done,
            before,
            after: counters(&mut self.clients[0]),
        };
        finish(finished, &mut w, traced);
        w
    }
}

/// `service-sweep`.
pub struct Sweep {
    client: Client,
    _server: Server,
    seed: u64,
    anchors: Anchors,
    windows: u64,
    /// In-process retired and flip counts of the first window's first
    /// burst, from set-up.
    first_burst: Vec<(u64, Option<u64>)>,
}

impl Sweep {
    /// Burst `b` of window `window`: fresh seeds everywhere, so no
    /// image repeats within a run.
    fn burst(&self, window: u64, b: u64) -> Vec<Spec> {
        BURST
            .iter()
            .enumerate()
            .map(|(j, &(name, n))| Spec {
                name,
                n,
                seed: split_seed(
                    self.seed,
                    (window << 32) | (b * BURST.len() as u64 + j as u64),
                ),
                observed_threaded: true,
            })
            .collect()
    }
}

impl Bench for Sweep {
    fn setup(seed: u64) -> Result<Self, String> {
        let anchors = paper::derive_anchors()?;
        let server = start_server(SWEEP_WORKERS)?;
        let mut sweep = Sweep {
            client: connect(&server)?,
            _server: server,
            seed,
            anchors,
            windows: 0,
            first_burst: Vec::new(),
        };
        let cache = ImageCache::new();
        for spec in sweep.burst(0, 0) {
            let r = replay(spec, true, &cache)?;
            sweep.first_burst.push((r.retired, r.flips));
        }
        let warm = Spec {
            name: "bubble-sort",
            n: Some(48),
            seed: split_seed(seed, u64::MAX),
            observed_threaded: true,
        };
        let id = submit(&mut sweep.client, warm)?;
        wait(&mut sweep.client, warm, id, Instant::now())?;
        Ok(sweep)
    }

    fn anchors(&self) -> Anchors {
        self.anchors
    }

    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let before = counters(&mut self.client);
        let start = Instant::now();
        let mut tr = Tracer::new(traced, start);
        let mut w = Window::default();
        let mut done = Vec::new();
        let mut burst_s = 0.0;
        let mut b = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let specs = self.burst(self.windows, b);
            let checked = self.windows == 0 && b == 0;
            let b0 = Instant::now();
            tr.begin("burst", b);
            let mut submitted = Vec::new();
            for (j, spec) in specs.into_iter().enumerate() {
                let t0 = Instant::now();
                w.attempted += 1;
                match tr.span("service.submit", || submit(&mut self.client, spec)) {
                    Ok(id) => submitted.push((j, spec, id, t0)),
                    Err(e) => w.failures.push(e),
                }
            }
            for (j, spec, id, t0) in submitted {
                let result = tr.span("service.wait", || wait(&mut self.client, spec, id, t0));
                let result = result.and_then(|d| match self.first_burst[j] {
                    (retired, flips) if checked && (retired, flips) != (d.retired, d.flips) => {
                        Err(format!(
                            "{} {}: service retired {} flips {:?}, set-up in-process run {retired} {flips:?}",
                            spec.name, spec.options(), d.retired, d.flips
                        ))
                    }
                    _ => Ok(d),
                });
                match result {
                    Ok(d) => done.push(d),
                    Err(e) => w.failures.push(e),
                }
            }
            tr.end();
            burst_s += b0.elapsed().as_secs_f64();
            b += 1;
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        w.spans = tr.into_spans();
        self.windows += 1;
        let finished = Finished {
            done,
            before,
            after: counters(&mut self.client),
            service_s: burst_s * SWEEP_WORKERS as f64,
        };
        finish(finished, &mut w, traced);
        w
    }
}
