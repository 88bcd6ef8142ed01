//! The declarative scenario layer.
//!
//! Every experiment before this module drove the paper's four synthetic
//! cells through knobs scattered across `WorkloadConfig`, `DiurnalConfig`,
//! `FaultPlan`, and CLI flags. A [`ScenarioSpec`] replaces that with one
//! serializable description — arrival process, capacity distribution,
//! tenants with quotas, correlated failure domains, churn, diurnal
//! availability — compiled deterministically from one seed into the
//! structures the engine already consumes (`Workload` + `FaultPlan` +
//! availability schedule + `ChurnConfig`). Compilation draws only from
//! dedicated RNG streams, so nothing the engine replays byte-identically
//! today is perturbed.

use dgrid_core::{
    AvailabilityEvent, ChurnConfig, Engine, EngineConfig, FaultPlan, JobDag, JobSubmission,
    Matchmaker,
};
use dgrid_resources::{JobId, JobProfile, JobRequirements};
use dgrid_sim::rng::{rng_for, streams};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::availability::{diurnal_schedule, DiurnalConfig};
use crate::generator::{
    random_requirements, ConstraintLevel, JobMix, NodePopulation, RuntimeDistribution, Workload,
    WorkloadConfig,
};
use crate::tenants::{assign_tenants, validate_tenants, TenantSpec};

/// How a correlated failure domain fails.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DomainFailure {
    /// The domain is cut off from the rest of the grid for the outage
    /// window (a rack uplink or AS route failure); members keep running
    /// and reappear when the window heals.
    Partition,
    /// Every member crashes at the outage start (a rack power failure);
    /// with `rejoin` they come back, queues empty, when the window ends.
    Crash {
        /// Whether members rejoin at the end of the outage.
        rejoin: bool,
    },
}

/// A rack- or AS-level failure domain: a correlated group of nodes that
/// fails together. Lowered onto the engine's existing `FaultPlan`
/// primitives (partitions and scheduled crashes); membership is sampled
/// from a dedicated RNG stream at compile time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureDomain {
    /// Display name ("rack-7", "AS-3356").
    pub name: String,
    /// Fraction of the node population in this domain (0, 1].
    pub fraction: f64,
    /// When the correlated outage starts, seconds.
    pub outage_at_secs: f64,
    /// Outage length, seconds.
    pub outage_duration_secs: f64,
    /// Failure mode.
    pub failure: DomainFailure,
}

/// One declarative scenario: everything a production-shaped run needs,
/// compiled from a single seed. Serializes to the JSON the CLI's
/// `--scenario-file` flag loads; unspecified fields take defaults, so a
/// spec file only states what it changes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Display name (reports, bench tables, artifact keys).
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of jobs.
    pub jobs: usize,
    /// Node capacity distribution (clustered classes or fully mixed).
    pub node_population: NodePopulation,
    /// Job constraint distribution.
    pub job_mix: JobMix,
    /// Constraint intensity.
    pub constraint_level: ConstraintLevel,
    /// Mean job runtime, seconds.
    pub mean_runtime_secs: f64,
    /// Distribution of runtimes around the mean.
    pub runtime_distribution: RuntimeDistribution,
    /// Arrival process for the job stream.
    pub arrivals: ArrivalProcess,
    /// Submitting tenants; tenant `i` is engine client `i`.
    pub tenants: Vec<TenantSpec>,
    /// Correlated failure domains.
    pub failure_domains: Vec<FailureDomain>,
    /// Independent per-message loss probability.
    pub loss_prob: f64,
    /// Stochastic churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Diurnal availability, if any (the compile seed overrides the
    /// config's own `seed` field so one seed governs the whole scenario).
    pub diurnal: Option<DiurnalConfig>,
    /// Simulation horizon, seconds.
    pub horizon_secs: f64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "custom".into(),
            nodes: 96,
            jobs: 400,
            node_population: NodePopulation::Mixed,
            job_mix: JobMix::Mixed,
            constraint_level: ConstraintLevel::Light,
            mean_runtime_secs: 100.0,
            runtime_distribution: RuntimeDistribution::Exponential,
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival_secs: 1.0,
            },
            tenants: vec![TenantSpec::new("default", 1.0)],
            failure_domains: Vec::new(),
            loss_prob: 0.0,
            churn: None,
            diurnal: None,
            horizon_secs: 3_000_000.0,
        }
    }
}

/// The deserialization overlay behind [`ScenarioSpec::from_json`]: every
/// field optional, so a spec file only states what it changes.
#[derive(Deserialize)]
struct SparseSpec {
    #[serde(default)]
    name: Option<String>,
    #[serde(default)]
    nodes: Option<usize>,
    #[serde(default)]
    jobs: Option<usize>,
    #[serde(default)]
    node_population: Option<NodePopulation>,
    #[serde(default)]
    job_mix: Option<JobMix>,
    #[serde(default)]
    constraint_level: Option<ConstraintLevel>,
    #[serde(default)]
    mean_runtime_secs: Option<f64>,
    #[serde(default)]
    runtime_distribution: Option<RuntimeDistribution>,
    #[serde(default)]
    arrivals: Option<ArrivalProcess>,
    #[serde(default)]
    tenants: Option<Vec<TenantSpec>>,
    #[serde(default)]
    failure_domains: Option<Vec<FailureDomain>>,
    #[serde(default)]
    loss_prob: Option<f64>,
    #[serde(default)]
    churn: Option<Option<ChurnConfig>>,
    #[serde(default)]
    diurnal: Option<Option<DiurnalConfig>>,
    #[serde(default)]
    horizon_secs: Option<f64>,
}

/// A compiled scenario: exactly the structures the engine consumes today.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// Node population and job stream.
    pub workload: Workload,
    /// Message loss, partitions, and scheduled crashes.
    pub fault_plan: FaultPlan,
    /// Diurnal availability events (empty when the spec has none).
    pub schedule: Vec<AvailabilityEvent>,
    /// Stochastic churn (`ChurnConfig::none()` when the spec has none).
    pub churn: ChurnConfig,
    /// Simulation horizon, seconds.
    pub horizon_secs: f64,
    /// Tenant names, indexed by `ClientId`.
    pub tenant_names: Vec<String>,
}

impl CompiledScenario {
    /// The engine that runs this scenario under `matchmaker`, assembled but
    /// not yet run. This is the one place a run of `dgrid run`, `dgrid
    /// compare` or `dgrid check` becomes an [`Engine`]: `cfg` supplies the
    /// seed, leases and the rest, the scenario its horizon, workload, churn,
    /// availability schedule and fault plan.
    pub fn engine(self, cfg: EngineConfig, matchmaker: Box<dyn Matchmaker>) -> Engine {
        let cfg = EngineConfig {
            max_sim_secs: self.horizon_secs,
            ..cfg
        };
        let mut engine = Engine::with_dag_and_schedule(
            cfg,
            self.churn,
            matchmaker,
            self.workload.nodes,
            self.workload.submissions,
            JobDag::none(),
            self.schedule,
        );
        // An empty plan stays uninstalled: the engine's fault-free path is
        // the bit-exact one.
        if !self.fault_plan.is_none() {
            engine.set_fault_plan(self.fault_plan);
        }
        engine
    }
}

impl ScenarioSpec {
    /// Check the whole spec, with messages a CLI user can act on.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be at least 1".into());
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1".into());
        }
        if !(self.mean_runtime_secs > 0.0 && self.mean_runtime_secs.is_finite()) {
            return Err(format!(
                "mean_runtime_secs must be positive and finite, got {}",
                self.mean_runtime_secs
            ));
        }
        if !(self.horizon_secs > 0.0 && self.horizon_secs.is_finite()) {
            return Err(format!(
                "horizon_secs must be positive and finite, got {}",
                self.horizon_secs
            ));
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Err(format!("loss_prob {} out of [0, 1]", self.loss_prob));
        }
        self.arrivals
            .validate()
            .map_err(|e| format!("arrivals: {e}"))?;
        validate_tenants(&self.tenants).map_err(|e| format!("tenants: {e}"))?;
        for (i, d) in self.failure_domains.iter().enumerate() {
            if !(d.fraction > 0.0 && d.fraction <= 1.0) {
                return Err(format!(
                    "failure domain {i} ({}): fraction {} out of (0, 1]",
                    d.name, d.fraction
                ));
            }
            if !(d.outage_at_secs >= 0.0 && d.outage_at_secs.is_finite()) {
                return Err(format!(
                    "failure domain {i} ({}): outage_at_secs must be ≥ 0",
                    d.name
                ));
            }
            if !(d.outage_duration_secs > 0.0 && d.outage_duration_secs.is_finite()) {
                return Err(format!(
                    "failure domain {i} ({}): outage_duration_secs must be positive",
                    d.name
                ));
            }
        }
        if let Some(d) = &self.diurnal {
            crate::availability::validate_diurnal(d).map_err(|e| format!("diurnal: {e}"))?;
        }
        Ok(())
    }

    /// Parse a spec from JSON (the `--scenario-file` format), validating
    /// it. Fields absent from the file keep their [`Default`] values, so a
    /// spec only states what it changes.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let sparse: SparseSpec =
            serde_json::from_str(json).map_err(|e| format!("scenario spec: {e}"))?;
        let d = ScenarioSpec::default();
        let spec = ScenarioSpec {
            name: sparse.name.unwrap_or(d.name),
            nodes: sparse.nodes.unwrap_or(d.nodes),
            jobs: sparse.jobs.unwrap_or(d.jobs),
            node_population: sparse.node_population.unwrap_or(d.node_population),
            job_mix: sparse.job_mix.unwrap_or(d.job_mix),
            constraint_level: sparse.constraint_level.unwrap_or(d.constraint_level),
            mean_runtime_secs: sparse.mean_runtime_secs.unwrap_or(d.mean_runtime_secs),
            runtime_distribution: sparse
                .runtime_distribution
                .unwrap_or(d.runtime_distribution),
            arrivals: sparse.arrivals.unwrap_or(d.arrivals),
            tenants: sparse.tenants.unwrap_or(d.tenants),
            failure_domains: sparse.failure_domains.unwrap_or(d.failure_domains),
            loss_prob: sparse.loss_prob.unwrap_or(d.loss_prob),
            churn: sparse.churn.unwrap_or(d.churn),
            diurnal: sparse.diurnal.unwrap_or(d.diurnal),
            horizon_secs: sparse.horizon_secs.unwrap_or(d.horizon_secs),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Compile the spec deterministically from one seed.
    ///
    /// Node capacities, requirements, and runtimes draw from the same
    /// streams the classic generator uses; arrivals, tenant assignment,
    /// and failure-domain membership draw from dedicated new streams
    /// (`MODULATION`, `TENANTS`, `CORRELATED_FAULTS`), so a scenario can
    /// never perturb a draw an existing experiment replays.
    pub fn compile(&self, seed: u64) -> CompiledScenario {
        if let Err(e) = self.validate() {
            panic!("invalid scenario '{}': {e}", self.name);
        }
        // Node population: identical streams and draw order to the
        // classic generator, so `nodes`/`node_population` mean the same
        // thing in both worlds.
        let wc = WorkloadConfig {
            seed,
            nodes: self.nodes,
            jobs: self.jobs,
            node_population: self.node_population,
            constraint_level: self.constraint_level,
            mean_runtime_secs: self.mean_runtime_secs,
            runtime_distribution: self.runtime_distribution,
            ..WorkloadConfig::default()
        };
        let mut cap_rng = rng_for(seed, streams::NODE_CAPS);
        let nodes = wc.generate_nodes(&mut cap_rng);

        let mut arr_rng = rng_for(seed, streams::MODULATION);
        let times = self.arrivals.generate(self.jobs, &mut arr_rng);

        let mut tenant_rng = rng_for(seed, streams::TENANTS);
        let clients = assign_tenants(&self.tenants, self.jobs, &mut tenant_rng);

        let mut job_rng = rng_for(seed, streams::JOB_CONSTRAINTS);
        let mut run_rng = rng_for(seed, streams::RUNTIMES);
        let class_templates: Vec<JobRequirements> = match self.job_mix {
            JobMix::Clustered { classes } => (0..classes)
                .map(|_| random_requirements(&nodes, self.constraint_level, true, &mut job_rng))
                .collect(),
            JobMix::Mixed => Vec::new(),
        };
        let submissions: Vec<JobSubmission> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let requirements = match self.job_mix {
                    JobMix::Clustered { classes } => class_templates[i % classes],
                    JobMix::Mixed => {
                        random_requirements(&nodes, self.constraint_level, false, &mut job_rng)
                    }
                };
                let runtime = self
                    .runtime_distribution
                    .sample(self.mean_runtime_secs, &mut run_rng)
                    .max(1.0);
                let mut profile =
                    JobProfile::new(JobId(i as u64), clients[i], requirements, runtime);
                profile.input_bytes = job_rng.gen_range(512..8 * 1024);
                profile.output_bytes = job_rng.gen_range(512..8 * 1024);
                JobSubmission {
                    profile,
                    arrival_secs: t,
                    actual_runtime_secs: None,
                }
            })
            .collect();

        let fault_plan = self.lower_faults(seed);

        let schedule = match self.diurnal {
            Some(d) => {
                // One seed governs the scenario: the run seed replaces
                // whatever seed the spec file carried.
                let cfg = DiurnalConfig { seed, ..d };
                diurnal_schedule(self.nodes, &cfg)
            }
            None => Vec::new(),
        };

        CompiledScenario {
            workload: Workload { nodes, submissions },
            fault_plan,
            schedule,
            churn: self.churn.unwrap_or_else(ChurnConfig::none),
            horizon_secs: self.horizon_secs,
            tenant_names: self.tenants.iter().map(|t| t.name.clone()).collect(),
        }
    }

    /// Lower the failure domains (plus base message loss) onto a
    /// `FaultPlan`. Membership of each domain is a distinct random subset
    /// of the population, drawn from the `CORRELATED_FAULTS` stream by
    /// partial Fisher–Yates, so domains may overlap exactly as racks and
    /// AS paths do.
    fn lower_faults(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::with_loss(self.loss_prob);
        let mut rng = rng_for(seed, streams::CORRELATED_FAULTS);
        for domain in &self.failure_domains {
            let count =
                ((self.nodes as f64 * domain.fraction).round() as usize).clamp(1, self.nodes);
            let mut pool: Vec<u32> = (0..self.nodes as u32).collect();
            for i in 0..count {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let members = &pool[..count];
            let end = domain.outage_at_secs + domain.outage_duration_secs;
            match domain.failure {
                DomainFailure::Partition => {
                    plan = plan.with_partition(domain.outage_at_secs, end, members.to_vec());
                }
                DomainFailure::Crash { rejoin } => {
                    for &n in members {
                        plan = plan.with_crash(
                            domain.outage_at_secs,
                            n,
                            rejoin.then_some(domain.outage_duration_secs),
                        );
                    }
                }
            }
        }
        plan.validate();
        plan
    }
}

/// The built-in scenario presets: the production-shaped stress cells the
/// bench and CI matrices run. Label → constructor; `scenario_preset`
/// resolves a label, `SCENARIO_PRESETS` drives usage text.
pub const SCENARIO_PRESETS: &[&str] = &["flash-crowd", "diurnal-wave"];

/// Resolve a preset label to its spec; `None` for unknown labels.
pub fn scenario_preset(label: &str) -> Option<ScenarioSpec> {
    match label {
        "flash-crowd" => Some(flash_crowd()),
        "diurnal-wave" => Some(diurnal_wave()),
        _ => None,
    }
}

/// The flash-crowd preset: three tenants (one quota-capped heavy sweep
/// user), a 20× submission burst, one rack partition during the burst, and
/// light message loss — the "popular deadline" stress cell.
pub fn flash_crowd() -> ScenarioSpec {
    ScenarioSpec {
        name: "flash-crowd".into(),
        nodes: 96,
        jobs: 600,
        arrivals: ArrivalProcess::FlashCrowd {
            base_interarrival_secs: 2.0,
            peak_multiplier: 20.0,
            flash_at_secs: 200.0,
            flash_duration_secs: 60.0,
        },
        tenants: vec![
            TenantSpec::new("sweep", 6.0).with_quota(300),
            TenantSpec::new("lab", 2.0),
            TenantSpec::new("grad", 1.0),
        ],
        failure_domains: vec![FailureDomain {
            name: "rack-7".into(),
            fraction: 0.15,
            outage_at_secs: 220.0,
            outage_duration_secs: 120.0,
            failure: DomainFailure::Partition,
        }],
        loss_prob: 0.02,
        ..ScenarioSpec::default()
    }
}

/// The diurnal-wave preset: MMPP day/night arrival states over a diurnal
/// availability trace, heterogeneous clustered capacity, and one rack
/// power failure with rejoin — the "production week" stress cell.
pub fn diurnal_wave() -> ScenarioSpec {
    ScenarioSpec {
        name: "diurnal-wave".into(),
        nodes: 96,
        jobs: 600,
        node_population: NodePopulation::Clustered { classes: 6 },
        arrivals: ArrivalProcess::Mmpp {
            states: vec![
                crate::arrivals::MmppState {
                    rate_per_sec: 0.2,
                    mean_dwell_secs: 600.0,
                },
                crate::arrivals::MmppState {
                    rate_per_sec: 2.0,
                    mean_dwell_secs: 300.0,
                },
            ],
        },
        tenants: vec![
            TenantSpec::new("physics", 3.0),
            TenantSpec::new("biology", 2.0),
            TenantSpec::new("misc", 1.0),
        ],
        failure_domains: vec![FailureDomain {
            name: "rack-2".into(),
            fraction: 0.1,
            outage_at_secs: 900.0,
            outage_duration_secs: 300.0,
            failure: DomainFailure::Crash { rejoin: true },
        }],
        loss_prob: 0.01,
        diurnal: Some(DiurnalConfig {
            seed: 0,
            day_secs: 2_000.0,
            days: 3,
            busy_fraction: 0.35,
            timezones: 4,
            jitter_fraction: 0.02,
            dedicated_fraction: 0.3,
        }),
        ..ScenarioSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_resources::ClientId;

    #[test]
    fn presets_validate_and_resolve() {
        for &label in SCENARIO_PRESETS {
            let spec = scenario_preset(label).expect("preset resolves");
            assert_eq!(spec.name, label);
            spec.validate().expect("preset validates");
        }
        assert!(scenario_preset("no-such").is_none());
    }

    #[test]
    fn compile_is_deterministic_per_seed() {
        for &label in SCENARIO_PRESETS {
            let spec = scenario_preset(label).unwrap();
            let a = spec.compile(42);
            let b = spec.compile(42);
            assert_eq!(a.workload.nodes.len(), b.workload.nodes.len());
            for (x, y) in a.workload.nodes.iter().zip(&b.workload.nodes) {
                assert_eq!(x.capabilities, y.capabilities);
            }
            assert_eq!(a.workload.submissions.len(), b.workload.submissions.len());
            for (x, y) in a.workload.submissions.iter().zip(&b.workload.submissions) {
                assert_eq!(x.profile, y.profile);
                assert_eq!(x.arrival_secs, y.arrival_secs);
            }
            assert_eq!(a.fault_plan, b.fault_plan);
            assert_eq!(a.schedule.len(), b.schedule.len());
        }
    }

    #[test]
    fn node_population_matches_classic_generator() {
        // Same seed + same population knobs ⇒ the scenario's nodes are the
        // classic generator's nodes (shared stream, shared draw order).
        let spec = ScenarioSpec::default();
        let compiled = spec.compile(7);
        let classic = WorkloadConfig {
            seed: 7,
            nodes: spec.nodes,
            jobs: spec.jobs,
            ..WorkloadConfig::default()
        }
        .generate();
        for (a, b) in compiled.workload.nodes.iter().zip(&classic.nodes) {
            assert_eq!(a.capabilities, b.capabilities);
        }
    }

    #[test]
    fn every_scenario_job_is_satisfiable() {
        for &label in SCENARIO_PRESETS {
            let c = scenario_preset(label).unwrap().compile(3);
            for s in &c.workload.submissions {
                assert!(
                    c.workload
                        .nodes
                        .iter()
                        .any(|n| s.profile.requirements.satisfied_by(&n.capabilities)),
                    "unsatisfiable job {:?} in {label}",
                    s.profile.id
                );
            }
        }
    }

    #[test]
    fn quota_holds_in_compiled_stream() {
        let c = flash_crowd().compile(11);
        let sweep = c
            .workload
            .submissions
            .iter()
            .filter(|s| s.profile.client == ClientId(0))
            .count();
        assert!(sweep <= 300, "sweep tenant exceeded quota: {sweep}");
        assert!(sweep > 0);
    }

    #[test]
    fn failure_domains_lower_to_fault_plan() {
        let fc = flash_crowd().compile(5);
        assert_eq!(fc.fault_plan.partitions.len(), 1);
        let island = &fc.fault_plan.partitions[0].island;
        assert_eq!(island.len(), (96.0f64 * 0.15).round() as usize);
        assert_eq!(fc.fault_plan.loss_prob, 0.02);

        let dw = diurnal_wave().compile(5);
        assert!(fc.fault_plan.crashes.is_empty());
        assert_eq!(
            dw.fault_plan.crashes.len(),
            (96.0f64 * 0.1).round() as usize
        );
        assert!(dw
            .fault_plan
            .crashes
            .iter()
            .all(|c| c.rejoin_after_secs == Some(300.0)));
        assert!(!dw.schedule.is_empty(), "diurnal preset has a schedule");
    }

    #[test]
    fn spec_round_trips_through_json() {
        for &label in SCENARIO_PRESETS {
            let spec = scenario_preset(label).unwrap();
            let json = serde_json::to_string_pretty(&spec).unwrap();
            let back = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(back.name, spec.name);
            assert_eq!(back.arrivals, spec.arrivals);
            assert_eq!(back.tenants, spec.tenants);
            assert_eq!(back.failure_domains, spec.failure_domains);
        }
    }

    #[test]
    fn sparse_json_takes_defaults() {
        let spec = ScenarioSpec::from_json(r#"{"name": "tiny", "jobs": 10}"#).unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.jobs, 10);
        assert_eq!(spec.nodes, ScenarioSpec::default().nodes);
    }

    #[test]
    fn invalid_specs_give_actionable_errors() {
        let bad = ScenarioSpec {
            loss_prob: 1.5,
            ..ScenarioSpec::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("loss_prob"), "{err}");

        let bad = ScenarioSpec {
            tenants: vec![],
            ..ScenarioSpec::default()
        };
        assert!(bad.validate().unwrap_err().contains("tenant"));

        let bad = ScenarioSpec {
            failure_domains: vec![FailureDomain {
                name: "r".into(),
                fraction: 2.0,
                outage_at_secs: 0.0,
                outage_duration_secs: 1.0,
                failure: DomainFailure::Partition,
            }],
            ..ScenarioSpec::default()
        };
        assert!(bad.validate().unwrap_err().contains("fraction"));
    }
}
