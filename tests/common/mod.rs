//! Arrival streams shaped to corner the event queue's hand-over of the
//! initial submissions, shared by the golden suites that pin them on both
//! kernels.

use dgrid::core::{
    AvailabilityEvent, ChurnConfig, Engine, EngineConfig, FaultPlan, GridNodeId, JobDag,
};
use dgrid::harness::Algorithm;
use dgrid::sim::SimDuration;
use dgrid::workloads::{paper_scenario, PaperScenario};

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
