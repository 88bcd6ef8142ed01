//! What the golden suites share: the [`golden`] registry of every pinned
//! engine stream, the [`pin`] helpers, and runs shaped to corner one part of
//! the engine — the event queue's hand-over of the initial submissions, the
//! DAG hold, the owner lists a departure reads — which the registry pins on
//! both kernels.
//!
//! Each test binary uses only part of this module.
#![allow(dead_code)]

pub mod golden;
pub mod pin;

use dgrid::core::{
    AvailabilityEvent, ChurnConfig, Engine, EngineConfig, FaultPlan, GridNodeId, JobDag,
};
use dgrid::harness::Algorithm;
use dgrid::resources::JobId;
use dgrid::sim::SimDuration;
use dgrid::workloads::{paper_scenario, PaperScenario, Workload};

fn churny_cfg(seed: u64) -> (EngineConfig, ChurnConfig) {
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(40_000.0),
        rejoin_after_secs: Some(900.0),
        graceful_fraction: 0.25,
    };
    (cfg, churn)
}

/// RN-Tree on 40 nodes whose 120 arrivals are rounded down to 10 s (so
/// several share one instant) and handed over in blocks of five, each
/// block reversed: the stream steps backwards inside every block and
/// forwards between them, with ties on both sides of each step.
pub fn reversed_blocks_engine(seed: u64) -> Engine {
    let mut workload = paper_scenario(PaperScenario::MixedLight, 40, 120, seed);
    for sub in &mut workload.submissions {
        sub.arrival_secs = (sub.arrival_secs / 10.0).floor() * 10.0;
    }
    for block in workload.submissions.chunks_mut(5) {
        block.reverse();
    }
    let (cfg, churn) = churny_cfg(seed);
    Engine::new(
        cfg,
        churn,
        Algorithm::RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
}

/// The DAG edges of [`dag_engine`], `(child, parent)`: a diamond
/// 3 → {8, 9} → 30, a chain 12 → 13 → 14 → 15, two short parents whose
/// children arrive long after they finish (0 → 110, 1 → 111), and a
/// runaway parent whose chain and fan-out cascade when the sandbox kills
/// it (20 → 21 → 22 → 100, 20 → 40).
pub const DAG_EDGES: &[(u64, u64)] = &[
    (8, 3),
    (9, 3),
    (30, 8),
    (30, 9),
    (13, 12),
    (14, 13),
    (15, 14),
    (110, 0),
    (111, 1),
    (21, 20),
    (22, 21),
    (100, 22),
    (40, 20),
];

/// The parents [`dag_engine`] shortens to 5 s, so their children are
/// released before their nominal arrival.
pub const DAG_SHORT_PARENTS: [u64; 2] = [0, 1];

/// The job [`dag_engine`] makes runaway (50 × its declared runtime), so the
/// default sandbox kills it.
pub const DAG_RUNAWAY: u64 = 20;

/// The 40 nodes and 120 jobs of [`dag_engine`], with the short parents
/// and the runaway applied.
pub fn dag_workload(seed: u64) -> Workload {
    let mut workload = paper_scenario(PaperScenario::MixedLight, 40, 120, seed);
    for sub in &mut workload.submissions {
        let id = sub.profile.id.0;
        if DAG_SHORT_PARENTS.contains(&id) {
            sub.profile.run_time_secs = 5.0;
        }
        if id == DAG_RUNAWAY {
            sub.actual_runtime_secs = Some(50.0 * sub.profile.run_time_secs);
        }
    }
    workload
}

/// RN-Tree on [`dag_workload`] under [`DAG_EDGES`], with harsher churn
/// than the other goldens and 3 % loss. Children are held at
/// `Engine::new` and released either after their nominal arrival (the
/// diamond and the chain) or before it (the children of the short
/// parents); the runaway parent's four descendants fail by cascade.
pub fn dag_engine(seed: u64) -> Engine {
    let workload = dag_workload(seed);
    let mut dag = JobDag::none();
    for &(child, parent) in DAG_EDGES {
        dag.add_dependency(JobId(child), JobId(parent));
    }
    let (cfg, _) = churny_cfg(seed);
    let churn = ChurnConfig {
        mttf_secs: Some(2_000.0),
        rejoin_after_secs: Some(300.0),
        graceful_fraction: 0.25,
    };
    Engine::with_dag(
        cfg,
        churn,
        Algorithm::RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
        dag,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
}

/// RN-Tree without leases on 40 nodes running 400 jobs under churn fast
/// enough that owners depart while they hold jobs, and 5 % loss, so both
/// real and spurious owner failures drive the run node's owner recovery.
pub fn owner_departure_engine(seed: u64) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 40, 400, seed);
    let (cfg, _) = churny_cfg(seed);
    let churn = ChurnConfig {
        mttf_secs: Some(3_000.0),
        rejoin_after_secs: Some(300.0),
        graceful_fraction: 0.25,
    };
    Engine::new(
        cfg,
        churn,
        Algorithm::RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.05))
}

/// Central on 40 nodes whose first ten arrivals fall at t = 0, the same
/// instant four nodes leave on an availability trace (rejoining at
/// 600 s) and the time-series sampler takes its first sample, under
/// stochastic churn on top.
pub fn t0_pileup_engine(seed: u64) -> Engine {
    let mut workload = paper_scenario(PaperScenario::MixedLight, 40, 120, seed);
    for sub in workload.submissions.iter_mut().take(10) {
        sub.arrival_secs = 0.0;
    }
    let trace: Vec<AvailabilityEvent> = (0..4)
        .flat_map(|n| {
            let node = GridNodeId(n);
            [
                AvailabilityEvent {
                    at_secs: 0.0,
                    node,
                    up: false,
                },
                AvailabilityEvent {
                    at_secs: 600.0,
                    node,
                    up: true,
                },
            ]
        })
        .collect();
    let (cfg, churn) = churny_cfg(seed);
    Engine::with_dag_and_schedule(
        cfg,
        churn,
        Algorithm::Central.matchmaker(),
        workload.nodes,
        workload.submissions,
        JobDag::none(),
        trace,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_timeseries_sampling(SimDuration::from_secs(60))
}
