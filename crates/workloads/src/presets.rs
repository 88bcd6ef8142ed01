//! Ready-made scenarios: the paper's four workload quadrants and an
//! astronomy-flavoured parameter sweep for the examples.

use dgrid_core::JobSubmission;
use dgrid_resources::{
    ClientId, JobId, JobProfile, JobRequirements, OsRequirement, OsType, ResourceKind,
};
use dgrid_sim::rng::{rng_for, sample_exp, sample_truncated_normal, streams};
use serde::{Deserialize, Serialize};

use crate::generator::{ConstraintLevel, JobMix, NodePopulation, Workload, WorkloadConfig};

/// The four quadrants of Figure 2 (clustered/mixed × light/heavy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaperScenario {
    /// Clustered nodes and jobs, lightly constrained (Figure 2a/2b left).
    ClusteredLight,
    /// Clustered nodes and jobs, heavily constrained (Figure 2a/2b right).
    ClusteredHeavy,
    /// Mixed nodes and jobs, lightly constrained (Figure 2c/2d left) — the
    /// case where basic CAN collapses.
    MixedLight,
    /// Mixed nodes and jobs, heavily constrained (Figure 2c/2d right).
    MixedHeavy,
}

impl PaperScenario {
    /// All four quadrants in figure order.
    pub const ALL: [PaperScenario; 4] = [
        PaperScenario::ClusteredLight,
        PaperScenario::ClusteredHeavy,
        PaperScenario::MixedLight,
        PaperScenario::MixedHeavy,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PaperScenario::ClusteredLight => "clustered/light",
            PaperScenario::ClusteredHeavy => "clustered/heavy",
            PaperScenario::MixedLight => "mixed/light",
            PaperScenario::MixedHeavy => "mixed/heavy",
        }
    }

    /// Resolve a table label back to its quadrant; `None` for unknown
    /// labels. This is the registry the CLI's `--scenario` parser and
    /// usage text are generated from — labels can't drift out of sync
    /// with the help text because both come from `ALL`/`label()`.
    pub fn from_label(label: &str) -> Option<PaperScenario> {
        PaperScenario::ALL.into_iter().find(|s| s.label() == label)
    }

    /// Is this a clustered-population scenario?
    pub fn clustered(self) -> bool {
        matches!(
            self,
            PaperScenario::ClusteredLight | PaperScenario::ClusteredHeavy
        )
    }

    /// The constraint level of this scenario.
    pub fn level(self) -> ConstraintLevel {
        match self {
            PaperScenario::ClusteredLight | PaperScenario::MixedLight => ConstraintLevel::Light,
            PaperScenario::ClusteredHeavy | PaperScenario::MixedHeavy => ConstraintLevel::Heavy,
        }
    }
}

/// The paper's configuration for one quadrant, at a chosen scale.
///
/// Paper scale is 1000 nodes / 5000 jobs; tests and the benchmark use
/// other `nodes`/`jobs` with the same arrival *intensity per node* so the
/// system operates at the same utilization.
pub fn paper_scenario(scenario: PaperScenario, nodes: usize, jobs: usize, seed: u64) -> Workload {
    // Keep offered load per node constant across scales: the paper offers
    // 1000 nodes a job every 0.1 s of 100 s mean runtime (≈ utilization 1.0
    // during the arrival burst).
    let mean_interarrival = 0.1 * 1000.0 / nodes as f64;
    let (population, mix) = if scenario.clustered() {
        (
            NodePopulation::Clustered { classes: 5 },
            JobMix::Clustered { classes: 5 },
        )
    } else {
        (NodePopulation::Mixed, JobMix::Mixed)
    };
    WorkloadConfig {
        seed,
        nodes,
        jobs,
        node_population: population,
        job_mix: mix,
        constraint_level: scenario.level(),
        mean_runtime_secs: 100.0,
        mean_interarrival_secs: mean_interarrival,
        clients: 16,
        client_demand: crate::generator::ClientDemand::Uniform,
        runtime_distribution: crate::generator::RuntimeDistribution::Exponential,
    }
    .generate()
}

/// An astronomy-style parameter sweep, as the paper's motivating
/// applications run them: one client submits a burst of independent,
/// compute-heavy simulation jobs (gravity/N-body steps) with near-identical
/// requirements, KB-scale I/O, and runtimes normally distributed around the
/// configured mean.
pub fn astronomy_sweep(nodes: usize, jobs: usize, mean_runtime_secs: f64, seed: u64) -> Workload {
    let base = WorkloadConfig {
        seed,
        nodes,
        jobs: 1, // node population only; jobs replaced below
        node_population: NodePopulation::Mixed,
        ..WorkloadConfig::default()
    }
    .generate();

    let mut arr = rng_for(seed, streams::ARRIVALS ^ 0xA57);
    let mut run = rng_for(seed, streams::RUNTIMES ^ 0xA57);
    // The sweep needs a solid mid-range machine: 1 GHz, 1 GiB, any Unix.
    let req = JobRequirements::unconstrained()
        .with_min(ResourceKind::CpuSpeed, 1.0)
        .with_min(ResourceKind::Memory, 1.0)
        .with_os(OsRequirement::any_of(&[
            OsType::Linux,
            OsType::MacOs,
            OsType::Solaris,
        ]));

    let mut t = 0.0;
    let submissions = (0..jobs)
        .map(|i| {
            t += sample_exp(&mut arr, 0.05); // a burst: 20 jobs/s
            let runtime =
                sample_truncated_normal(&mut run, mean_runtime_secs, mean_runtime_secs * 0.2, 1.0);
            let mut profile = JobProfile::new(JobId(i as u64), ClientId(0), req, runtime);
            profile.input_bytes = 2 * 1024; // initial conditions, a few KB
            profile.output_bytes = 4 * 1024; // trajectory summary
            JobSubmission {
                profile,
                arrival_secs: t,
                actual_runtime_secs: None,
            }
        })
        .collect();

    Workload {
        nodes: base.nodes,
        submissions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrants_have_expected_structure() {
        for s in PaperScenario::ALL {
            let w = paper_scenario(s, 100, 500, 3);
            assert_eq!(w.nodes.len(), 100);
            assert_eq!(w.submissions.len(), 500);
            let mut distinct: Vec<_> = w
                .nodes
                .iter()
                .map(|n| format!("{:?}", n.capabilities))
                .collect();
            distinct.sort();
            distinct.dedup();
            if s.clustered() {
                assert_eq!(distinct.len(), 5, "{s:?}");
            } else {
                assert!(distinct.len() > 50, "{s:?}");
            }
        }
    }

    #[test]
    fn labels_round_trip_through_the_registry() {
        for s in PaperScenario::ALL {
            assert_eq!(PaperScenario::from_label(s.label()), Some(s));
        }
        assert_eq!(PaperScenario::from_label("nope"), None);
    }

    #[test]
    fn scaling_preserves_offered_load() {
        let small = paper_scenario(PaperScenario::MixedLight, 100, 500, 4);
        let big = paper_scenario(PaperScenario::MixedLight, 1000, 500, 4);
        let last_small = small.submissions.last().unwrap().arrival_secs;
        let last_big = big.submissions.last().unwrap().arrival_secs;
        // Same job count into 10× the nodes ⇒ arrivals stretched 10×... no:
        // fewer nodes get slower arrivals to hold per-node intensity fixed.
        assert!(
            last_small > 5.0 * last_big,
            "small grid must see proportionally slower arrivals \
             ({last_small:.0}s vs {last_big:.0}s)"
        );
    }

    #[test]
    fn astronomy_sweep_is_satisfiable_and_bursty() {
        let w = astronomy_sweep(64, 300, 400.0, 5);
        assert_eq!(w.submissions.len(), 300);
        let satisfiable = w.submissions.iter().all(|s| {
            w.nodes
                .iter()
                .any(|n| s.profile.requirements.satisfied_by(&n.capabilities))
        });
        assert!(satisfiable);
        let last = w.submissions.last().unwrap().arrival_secs;
        assert!(
            last < 60.0,
            "burst should land within a minute, got {last:.0}s"
        );
        let mean_rt: f64 = w
            .submissions
            .iter()
            .map(|s| s.profile.run_time_secs)
            .sum::<f64>()
            / w.submissions.len() as f64;
        assert!(
            (320.0..480.0).contains(&mean_rt),
            "mean runtime {mean_rt:.0}"
        );
    }
}
