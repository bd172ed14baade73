//! The job schema: what a `SUBMIT` line describes and how it becomes
//! a runnable session.
//!
//! Jobs reference programs two ways — by **workload name** (the
//! [`workloads::by_name`] registry; RV32 sources go through the
//! compiling framework exactly as in a batch run) or as **inline
//! ART-9 assembly** uploaded with the request. Execution options ride
//! on [`ExecConfig`] names (`config=art9-threaded`, …); only ART-9
//! machines are schedulable — the RV32 cycle models have no
//! preemptible [`art9_sim::Core`] and stay batch-only.
//!
//! Preparation failures come back as the same typed
//! [`WorkloadError`] the batch API's `try_run` surfaces.

use std::collections::HashMap;

use art9_sim::PredecodedProgram;
use workloads::batch::ExecConfig;
use workloads::{Workload, WorkloadError};

use crate::cache::ImageCache;

/// Default per-job retired-instruction budget: a job that has not
/// halted after this many instructions fails with a simulator timeout.
pub const DEFAULT_JOB_RETIRED: u64 = 500_000_000;

/// The program a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A registered workload (`workload=<name>`), optionally resized
    /// (`n=<k>`) and reseeded (`seed=<u64>`).
    Workload {
        /// Registry name (see [`workloads::WORKLOAD_NAMES`]).
        name: String,
        /// Size override.
        n: Option<usize>,
        /// Input seed.
        seed: Option<u64>,
    },
    /// ART-9 assembly uploaded with the request (`program=inline
    /// lines=<k>` followed by `k` raw source lines).
    Inline {
        /// The assembly source.
        assembly: String,
    },
}

/// One parsed job request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// What to run.
    pub source: JobSource,
    /// How to run it (must be an ART-9 machine).
    pub config: ExecConfig,
    /// Retired-instruction budget before the job times out.
    pub max_retired: u64,
    /// Attach an energy observer and report trit-flip snapshots.
    pub energy: bool,
    /// Record per-slice events for `EVENTS` streaming.
    pub events: bool,
}

/// A prepared job: the shared program image plus what the scheduler
/// needs to verify and report it.
#[derive(Debug)]
pub struct PreparedJob {
    /// Display name (workload name or `inline`).
    pub name: String,
    /// The interned, shared program image.
    pub image: PredecodedProgram,
    /// The workload for output verification (`None` for inline jobs).
    pub workload: Option<Workload>,
    /// The spec the job was built from.
    pub spec: JobSpec,
}

impl JobSpec {
    /// Builds a spec from the parsed `key=value` arguments of a
    /// `SUBMIT` line plus the inline assembly body (when the request
    /// carried one).
    ///
    /// # Errors
    ///
    /// A protocol-level diagnostic for unknown keys, malformed values,
    /// missing sources or non-ART-9 configs.
    pub fn from_args(
        args: &HashMap<String, String>,
        inline_body: Option<String>,
    ) -> Result<JobSpec, String> {
        for key in args.keys() {
            if !matches!(
                key.as_str(),
                "workload"
                    | "program"
                    | "lines"
                    | "n"
                    | "seed"
                    | "config"
                    | "max-retired"
                    | "energy"
                    | "events"
            ) {
                return Err(format!("unknown SUBMIT key {key:?}"));
            }
        }
        let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
            args.get(key)
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("{key} must be an unsigned integer, got {v:?}"))
                })
                .transpose()
        };
        let parse_flag = |key: &str| -> Result<bool, String> {
            match args.get(key).map(String::as_str) {
                None | Some("0") => Ok(false),
                Some("1") => Ok(true),
                Some(v) => Err(format!("{key} must be 0 or 1, got {v:?}")),
            }
        };

        let source = match (args.get("workload"), args.get("program"), inline_body) {
            (Some(_), None, Some(_)) => {
                return Err("workload jobs take no inline body (drop lines=<k>)".into())
            }
            (Some(name), None, None) => JobSource::Workload {
                name: name.clone(),
                n: parse_u64("n")?.map(|v| v as usize),
                seed: parse_u64("seed")?,
            },
            (None, Some(kind), Some(assembly)) if kind == "inline" => {
                JobSource::Inline { assembly }
            }
            (None, Some(kind), _) => {
                return Err(format!(
                    "program={kind:?} not supported (only program=inline lines=<k>)"
                ))
            }
            (Some(_), Some(_), _) => {
                return Err("give either workload=<name> or program=inline, not both".into())
            }
            (None, None, _) => return Err("missing workload=<name> or program=inline".into()),
        };

        let config = match args.get("config") {
            None => ExecConfig::art9(art9_sim::Backend::Functional),
            Some(name) => name.parse::<ExecConfig>()?,
        };
        if !config.is_art9() {
            return Err(format!(
                "config {} is batch-only: the scheduler slices preemptible ART-9 cores, \
                 RV32 cycle models have none",
                config.name()
            ));
        }

        Ok(JobSpec {
            source,
            config,
            max_retired: parse_u64("max-retired")?.unwrap_or(DEFAULT_JOB_RETIRED),
            energy: parse_flag("energy")?,
            events: parse_flag("events")?,
        })
    }

    /// Resolves the spec into a shared program image: builds or
    /// assembles the program, translates workload sources through the
    /// compiling framework, predecodes once and interns the image in
    /// `cache`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] exactly as the batch prepare stage would
    /// report it (unknown names surface as [`WorkloadError::Unavailable`]).
    pub fn prepare(&self, cache: &ImageCache) -> Result<PreparedJob, WorkloadError> {
        match &self.source {
            JobSource::Workload { name, n, seed } => {
                let workload =
                    workloads::by_name(name, *n).ok_or_else(|| WorkloadError::Unavailable {
                        workload: name.clone(),
                        detail: format!(
                            "unknown workload or out-of-range size (known: {})",
                            workloads::WORKLOAD_NAMES.join(", ")
                        ),
                    })?;
                let workload = match seed {
                    Some(seed) => workload.with_input_seed(*seed),
                    None => workload,
                };
                let rv = workload.rv32_program().map_err(|e| WorkloadError::Parse {
                    workload: name.clone(),
                    detail: e.to_string(),
                })?;
                let translation =
                    art9_compiler::translate(&rv).map_err(|e| WorkloadError::Translate {
                        workload: name.clone(),
                        detail: e.to_string(),
                    })?;
                let image = cache.intern(PredecodedProgram::new(&translation.program));
                Ok(PreparedJob {
                    name: workload.name.to_string(),
                    image,
                    workload: Some(workload),
                    spec: self.clone(),
                })
            }
            JobSource::Inline { assembly } => {
                let program = art9_isa::assemble(assembly).map_err(|e| WorkloadError::Parse {
                    workload: "inline".into(),
                    detail: e.to_string(),
                })?;
                let image = cache.intern(PredecodedProgram::new(&program));
                Ok(PreparedJob {
                    name: "inline".into(),
                    image,
                    workload: None,
                    spec: self.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_sim::Backend;

    fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn every_admitted_workload_size_prepares_and_the_rest_are_typed_errors() {
        // The SUBMIT path for every (name, n) the registry admits, plus
        // the first size past each end: admitted sizes prepare without
        // a panic, rejected ones fail with a typed error. Each prepare
        // gets its own cache so the images do not accumulate.
        let prepare = |name: &str, n: usize| {
            let n = n.to_string();
            JobSpec::from_args(&args(&[("workload", name), ("n", &n)]), None)
                .unwrap()
                .prepare(&ImageCache::new())
        };
        for name in workloads::WORKLOAD_NAMES {
            let Some((_, range)) = workloads::size_range(name) else {
                continue;
            };
            for n in range.clone() {
                if let Err(e) = prepare(name, n) {
                    panic!("{name} n={n} is admitted but failed: {e}");
                }
            }
            for n in [*range.start() - 1, *range.end() + 1] {
                assert!(
                    matches!(prepare(name, n), Err(WorkloadError::Unavailable { .. })),
                    "{name} n={n} should be rejected"
                );
            }
        }
    }

    #[test]
    fn workload_spec_parses_with_defaults() {
        let spec = JobSpec::from_args(&args(&[("workload", "gemm")]), None).unwrap();
        assert_eq!(
            spec.source,
            JobSource::Workload {
                name: "gemm".into(),
                n: None,
                seed: None,
            }
        );
        assert_eq!(spec.config, ExecConfig::art9(Backend::Functional));
        assert_eq!(spec.max_retired, DEFAULT_JOB_RETIRED);
        assert!(!spec.energy);
    }

    #[test]
    fn rv32_configs_are_rejected() {
        let err = JobSpec::from_args(
            &args(&[("workload", "gemm"), ("config", "rv32-picorv32")]),
            None,
        )
        .unwrap_err();
        assert!(err.contains("batch-only"), "{err}");
    }

    #[test]
    fn unknown_keys_and_bad_values_are_diagnosed() {
        assert!(JobSpec::from_args(&args(&[("frobnicate", "1")]), None).is_err());
        assert!(JobSpec::from_args(&args(&[("workload", "gemm"), ("n", "x")]), None).is_err());
        assert!(
            JobSpec::from_args(&args(&[("workload", "gemm"), ("energy", "yes")]), None).is_err()
        );
        assert!(JobSpec::from_args(&args(&[]), None).is_err());
    }

    #[test]
    fn inline_jobs_prepare_and_share_images() {
        let cache = ImageCache::new();
        let spec = JobSpec::from_args(
            &args(&[("program", "inline"), ("config", "art9-threaded")]),
            Some("LI t3, 41\nADDI t3, 1\nJAL t0, 0\n".into()),
        )
        .unwrap();
        let a = spec.prepare(&cache).unwrap();
        let b = spec.prepare(&cache).unwrap();
        assert_eq!(a.name, "inline");
        assert!(a.workload.is_none());
        assert_eq!(a.image.text().as_ptr(), b.image.text().as_ptr());
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let cache = ImageCache::new();
        let spec = JobSpec::from_args(&args(&[("workload", "quux")]), None).unwrap();
        match spec.prepare(&cache).unwrap_err() {
            WorkloadError::Unavailable { workload, detail } => {
                assert_eq!(workload, "quux");
                assert!(detail.contains("bubble-sort"), "{detail}");
            }
            other => panic!("expected Unavailable, got {other}"),
        }
    }

    #[test]
    fn bad_inline_assembly_is_a_parse_error() {
        let cache = ImageCache::new();
        let spec = JobSpec::from_args(
            &args(&[("program", "inline")]),
            Some("NOT AN OPCODE\n".into()),
        )
        .unwrap();
        assert!(matches!(
            spec.prepare(&cache).unwrap_err(),
            WorkloadError::Parse { .. }
        ));
    }
}
