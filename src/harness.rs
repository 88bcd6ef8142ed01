//! One-call experiment harness.
//!
//! Everything the examples, integration tests, and benchmark binaries need
//! to run a paper experiment: pick an [`Algorithm`], a
//! [`PaperScenario`] (or a custom
//! workload), and get back a [`SimReport`]. Replicated runs fan out over
//! rayon — each replication is an independent, deterministic simulation
//! with its own seed, so parallelism never changes results.

use dgrid_core::{ChurnConfig, Engine, EngineConfig, FaultPlan, SimReport};
use dgrid_workloads::{paper_scenario, PaperScenario, Workload};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The matchmaking algorithms under evaluation; defined in `dgrid-core` so
/// the checker and the CLI name matchmakers with the same enum.
pub use dgrid_core::Algorithm;

/// Engine configuration used by all paper experiments (failure-free; the
/// robustness experiment overrides churn separately).
pub fn paper_engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        max_sim_secs: 1_000_000.0,
        ..EngineConfig::default()
    }
}

/// Run one algorithm over one pre-built workload.
pub fn run_workload(
    algorithm: Algorithm,
    workload: &Workload,
    cfg: EngineConfig,
    churn: ChurnConfig,
) -> SimReport {
    let engine = Engine::new(
        cfg,
        churn,
        algorithm.matchmaker(),
        workload.nodes.clone(),
        workload.submissions.clone(),
    );
    engine.run()
}

/// Like [`run_workload`], but with a deterministic network [`FaultPlan`]
/// installed (message loss, partitions, latency spikes, scheduled crashes).
/// An empty plan reproduces [`run_workload`] bit for bit.
pub fn run_workload_with_faults(
    algorithm: Algorithm,
    workload: &Workload,
    cfg: EngineConfig,
    churn: ChurnConfig,
    plan: FaultPlan,
) -> SimReport {
    Engine::new(
        cfg,
        churn,
        algorithm.matchmaker(),
        workload.nodes.clone(),
        workload.submissions.clone(),
    )
    .with_fault_plan(plan)
    .run()
}

/// Run one algorithm over one paper quadrant at the given scale.
pub fn run_scenario(
    algorithm: Algorithm,
    scenario: PaperScenario,
    nodes: usize,
    jobs: usize,
    seed: u64,
) -> SimReport {
    let workload = paper_scenario(scenario, nodes, jobs, seed);
    run_workload(
        algorithm,
        &workload,
        paper_engine_config(seed),
        ChurnConfig::none(),
    )
}

/// Aggregated results of replicated runs of one (algorithm, scenario) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Scenario label.
    pub scenario: String,
    /// Mean of per-replication mean wait times, seconds.
    pub mean_wait: f64,
    /// Mean of per-replication wait-time standard deviations, seconds.
    pub std_wait: f64,
    /// Mean matchmaking hops per job.
    pub mean_match_hops: f64,
    /// Mean owner-routing hops per job.
    pub mean_owner_hops: f64,
    /// Average completion rate.
    pub completion_rate: f64,
    /// Average Jain fairness of executed work across nodes.
    pub load_fairness: f64,
    /// Number of replications aggregated.
    pub replications: usize,
}

/// Mean over replications of one per-replication quantity: the only
/// averaging the tables do (the paper's figures are averages over runs).
pub fn mean_over(reports: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

impl CellResult {
    /// Average the replications of one cell. `algorithm` is the reports'
    /// matchmaker name; `scenario` is left empty for the caller to label.
    pub fn from_reports(reports: &[SimReport]) -> CellResult {
        assert!(!reports.is_empty());
        CellResult {
            algorithm: reports[0].algorithm.clone(),
            scenario: String::new(),
            mean_wait: mean_over(reports, SimReport::mean_wait),
            std_wait: mean_over(reports, SimReport::std_wait),
            mean_match_hops: mean_over(reports, |r| r.match_hops.mean()),
            mean_owner_hops: mean_over(reports, |r| r.owner_hops.mean()),
            completion_rate: mean_over(reports, SimReport::completion_rate),
            load_fairness: mean_over(reports, SimReport::load_fairness),
            replications: reports.len(),
        }
    }
}

/// Run `replications` independent seeds of one cell in parallel and average
/// the reported metrics.
pub fn run_cell(
    algorithm: Algorithm,
    scenario: PaperScenario,
    nodes: usize,
    jobs: usize,
    base_seed: u64,
    replications: usize,
) -> CellResult {
    assert!(replications >= 1);
    let reports: Vec<SimReport> = (0..replications as u64)
        .into_par_iter()
        .map(|r| run_scenario(algorithm, scenario, nodes, jobs, base_seed ^ (r + 1)))
        .collect();
    CellResult {
        scenario: scenario.label().to_string(),
        ..CellResult::from_reports(&reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_aggregation_runs_in_parallel_deterministically() {
        let a = run_cell(
            Algorithm::Central,
            PaperScenario::ClusteredLight,
            32,
            100,
            9,
            2,
        );
        let b = run_cell(
            Algorithm::Central,
            PaperScenario::ClusteredLight,
            32,
            100,
            9,
            2,
        );
        assert_eq!(a.mean_wait, b.mean_wait);
        assert_eq!(a.std_wait, b.std_wait);
        assert!(a.completion_rate > 0.99);
    }
}
