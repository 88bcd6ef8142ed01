//! Scenario generation.
//!
//! A [`Scenario`] is a fully serializable description of one randomized
//! simulation: grid size, workload preset, stochastic churn, and a scheduled
//! [`FaultPlan`]. Scenarios are pure functions of their seed, so any
//! violation the sweep finds can be replayed bit-exactly from the artifact.
//! [`Scenario::compile`] turns one into the [`CompiledRun`] every check
//! runs, the same type a declarative scenario compiles to.

use dgrid_core::{ChurnConfig, EngineConfig, FaultPlan, PlacementPolicy};
use dgrid_workloads::{paper_scenario, CompiledScenario, PaperScenario};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

use crate::CompiledRun;

/// Deliberate bugs the checker can inject into the engine to prove its
/// oracles have teeth (`dgrid check --inject-bug ...`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inject {
    /// Disable the at-most-once epoch dedup on result commit
    /// ([`EngineConfig::check_disable_epoch_dedup`]).
    pub disable_epoch_dedup: bool,
}

/// Lease knobs a leased scenario threads into the engine. Mirrors the
/// `EngineConfig` lease fields, but packaged so a scenario either runs
/// fully leased (`Some`) or with the classic reassign-on-death recovery
/// (`None`) — the pair the lease differential compares.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaseSpec {
    /// Lease time-to-live in seconds.
    pub ttl_secs: f64,
    /// Owner renewal period.
    pub renew_secs: f64,
    /// Grace on top of the TTL before expiry.
    pub grace_secs: f64,
    /// Owner placement policy for grants and transfers.
    pub placement: PlacementPolicy,
}

impl LeaseSpec {
    /// The no-orphan bound: a job may stay unowned at most this long while
    /// a live candidate node exists.
    pub fn bound_secs(&self) -> f64 {
        self.ttl_secs + self.grace_secs
    }

    /// Set `cfg`'s lease knobs from this spec: the one place a lease
    /// reaches an [`EngineConfig`], for `dgrid run` and `compare` as for
    /// the checker.
    pub fn configure(self, cfg: &mut EngineConfig) {
        cfg.lease_ttl_secs = Some(self.ttl_secs);
        cfg.lease_renew_secs = self.renew_secs;
        cfg.lease_grace_secs = self.grace_secs;
        cfg.placement = Some(self.placement);
    }

    /// The knobs the check sweeps use: short enough that scheduled crashes
    /// and partitions (all within the first ~2000 virtual seconds) overlap
    /// several renew/expiry cycles.
    pub fn for_check(placement: PlacementPolicy) -> Self {
        LeaseSpec {
            ttl_secs: 60.0,
            renew_secs: 15.0,
            grace_secs: 10.0,
            placement,
        }
    }
}

/// One randomized model-checking scenario. Everything is serializable so a
/// failing scenario round-trips through the repro artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Root seed: workload, engine, and fault randomness all derive from it.
    pub seed: u64,
    /// Grid size at t=0.
    pub nodes: usize,
    /// Number of job submissions.
    pub jobs: usize,
    /// Which paper workload quadrant generates nodes and jobs.
    pub preset: PaperScenario,
    /// Stochastic churn (exponential lifetimes), if any.
    pub churn: ChurnConfig,
    /// Scheduled faults: loss, partitions, crashes.
    pub faults: FaultPlan,
    /// Hard horizon: jobs still unfinished at this virtual time are failed.
    pub horizon_secs: f64,
    /// Lease configuration: `Some` runs the engine with epoch-tagged job
    /// leases (and arms the no-orphan oracle plus the lease-vs-reassign
    /// differential); `None` — the generator's default, and the default for
    /// artifacts serialized before leases existed — runs the classic
    /// reassign-on-death recovery.
    #[serde(default)]
    pub lease: Option<LeaseSpec>,
}

/// Number of discrete scheduled fault events in a scenario (the shrink
/// target the acceptance criteria bound).
pub fn fault_event_count(sc: &Scenario) -> usize {
    sc.faults.partitions.len() + sc.faults.spikes.len() + sc.faults.crashes.len()
}

impl Scenario {
    /// Generate the scenario for `seed`. Pure: same seed, same scenario.
    ///
    /// Scheduled fault times are kept early (within the first ~2000 virtual
    /// seconds) because the engine's event loop exits once every job has
    /// terminated — late faults would never fire and only pad the plan.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE1_A210_F022_ED01);
        let nodes = rng.gen_range(8..=64usize);
        let jobs = rng.gen_range(2 * nodes..=5 * nodes);
        let preset = PaperScenario::ALL[rng.gen_range(0..4usize)];

        let mut faults = FaultPlan::none();
        if rng.gen_bool(0.5) {
            faults.loss_prob = rng.gen_range(0.01..0.25f64);
        }
        for _ in 0..rng.gen_range(0..=2u32) {
            let start = rng.gen_range(50.0..1500.0f64);
            // Zero-duration windows are legal and must be no-ops.
            let dur = if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(30.0..600.0f64)
            };
            let island_size = rng.gen_range(1..=(nodes / 3).max(1));
            let mut island: Vec<u32> = (0..island_size)
                .map(|_| rng.gen_range(0..nodes as u32))
                .collect();
            island.sort_unstable();
            island.dedup();
            faults = faults.with_partition(start, start + dur, island);
        }
        for _ in 0..rng.gen_range(0..=4u32) {
            let at = rng.gen_range(50.0..1500.0f64);
            let node = rng.gen_range(0..nodes as u32);
            let rejoin = if rng.gen_bool(0.7) {
                Some(rng.gen_range(60.0..600.0f64))
            } else {
                None
            };
            faults = faults.with_crash(at, node, rejoin);
        }

        let churn = if rng.gen_bool(0.3) {
            ChurnConfig {
                mttf_secs: Some(rng.gen_range(2_000.0..20_000.0f64)),
                rejoin_after_secs: Some(rng.gen_range(120.0..900.0f64)),
                graceful_fraction: rng.gen_range(0.0..0.5f64),
            }
        } else {
            ChurnConfig::none()
        };

        Scenario {
            seed,
            nodes,
            jobs,
            preset,
            churn,
            faults,
            horizon_secs: 400_000.0,
            lease: None,
        }
    }

    /// The same scenario with leases switched on. Generation stays pure —
    /// lease mode is injected after the fact so leased and unleased sweeps
    /// of a seed agree on everything except the recovery protocol.
    pub fn with_lease(mut self, lease: LeaseSpec) -> Scenario {
        self.lease = Some(lease);
        self
    }

    /// This scenario as a checked run: its paper workload, churn, fault
    /// plan and horizon with no availability schedule, at its own seed and
    /// lease, broken as `inject` says.
    pub fn compile(&self, inject: Inject) -> CompiledRun {
        CompiledRun {
            scenario: CompiledScenario {
                workload: paper_scenario(self.preset, self.nodes, self.jobs, self.seed),
                fault_plan: self.faults.clone(),
                schedule: Vec::new(),
                churn: self.churn,
                horizon_secs: self.horizon_secs,
                tenant_names: Vec::new(),
            },
            seed: self.seed,
            lease: self.lease,
            inject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_core::Algorithm;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Scenario::generate(17), Scenario::generate(17));
    }

    #[test]
    fn generation_varies_with_seed() {
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        assert!(a.nodes != b.nodes || a.jobs != b.jobs || a.faults != b.faults);
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let sc = Scenario::generate(23);
        let json = serde_json::to_string(&sc).expect("serialize");
        let back: Scenario = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(sc, back);
    }

    #[test]
    fn lease_spec_roundtrips_and_defaults_to_none() {
        let sc = Scenario::generate(23).with_lease(LeaseSpec::for_check(PlacementPolicy::Hash));
        let json = serde_json::to_string(&sc).expect("serialize");
        let back: Scenario = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(sc, back);
        assert!((back.lease.unwrap().bound_secs() - 70.0).abs() < 1e-12);
        // Artifacts serialized before leases existed must still load.
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        v.as_object_mut().unwrap().remove("lease");
        let legacy: Scenario = serde_json::from_value(v).expect("legacy deserialize");
        assert_eq!(legacy.lease, None);
    }

    #[test]
    fn leased_run_still_terminates_every_job() {
        let mut sc = Scenario::generate(5);
        sc.nodes = 10;
        sc.jobs = 20;
        sc.faults = FaultPlan::none().with_crash(120.0, 3, None);
        sc.churn = ChurnConfig::none();
        sc.lease = Some(LeaseSpec::for_check(PlacementPolicy::LoadAware));
        let report = sc
            .compile(Inject::default())
            .engine(Algorithm::RnTree)
            .run();
        assert_eq!(report.jobs_completed + report.jobs_failed, 20);
    }

    #[test]
    fn run_produces_a_trace_and_report() {
        let mut sc = Scenario::generate(5);
        sc.nodes = 10;
        sc.jobs = 20;
        // Keep the plan consistent with the shrunken grid.
        sc.faults = FaultPlan::none();
        sc.churn = ChurnConfig::none();
        let run = sc.compile(Inject::default());
        assert_eq!(run.engine(Algorithm::Central).run().jobs_total, 20);
        assert!(!run.check(Algorithm::Central).terminal.is_empty());
    }
}
