//! End-to-end engine tests: the Figure-1 lifecycle, the recovery protocol,
//! the sandbox, and determinism — for each of the three matchmakers.

use dgrid_core::{
    CanMatchmaker, CentralizedMatchmaker, ChurnConfig, Engine, EngineConfig, JobSubmission,
    Matchmaker, RnTreeMatchmaker, SandboxPolicy,
};
use dgrid_resources::{
    Capabilities, ClientId, JobId, JobProfile, JobRequirements, NodeProfile, OsType, ResourceKind,
};
use dgrid_sim::rng::{rng_for, sample_exp, streams};
use rand::Rng;

fn mixed_nodes(n: usize, seed: u64) -> Vec<NodeProfile> {
    let mut rng = rng_for(seed, streams::NODE_CAPS);
    (0..n)
        .map(|_| {
            NodeProfile::new(Capabilities::new(
                rng.gen_range(0.5..4.0),
                rng.gen_range(0.25..8.0),
                rng.gen_range(10.0..500.0),
                OsType::Linux,
            ))
        })
        .collect()
}

fn easy_jobs(n: usize, seed: u64, mean_runtime: f64, mean_interarrival: f64) -> Vec<JobSubmission> {
    let mut arr = rng_for(seed, streams::ARRIVALS);
    let mut run = rng_for(seed, streams::RUNTIMES);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += sample_exp(&mut arr, mean_interarrival);
            JobSubmission {
                profile: JobProfile::new(
                    JobId(i as u64),
                    ClientId((i % 8) as u32),
                    JobRequirements::unconstrained(),
                    sample_exp(&mut run, mean_runtime).max(1.0),
                ),
                arrival_secs: t,
                actual_runtime_secs: None,
            }
        })
        .collect()
}

fn base_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        max_sim_secs: 200_000.0,
        ..EngineConfig::default()
    }
}

fn run_with(
    mm: Box<dyn Matchmaker>,
    seed: u64,
    nodes: usize,
    jobs: usize,
) -> dgrid_core::SimReport {
    let engine = Engine::new(
        base_cfg(seed),
        ChurnConfig::none(),
        mm,
        mixed_nodes(nodes, seed),
        easy_jobs(jobs, seed, 100.0, 1.0),
    );
    engine.run()
}

#[test]
fn centralized_completes_all_jobs() {
    let r = run_with(Box::new(CentralizedMatchmaker::new()), 1, 50, 200);
    assert_eq!(r.jobs_completed, 200);
    assert_eq!(r.jobs_failed, 0);
    assert_eq!(r.wait_time.len(), 200);
    assert!(
        r.match_hops.mean() == 0.0,
        "central matchmaking costs 0 hops"
    );
}

#[test]
fn rntree_completes_all_jobs_with_log_hops() {
    let r = run_with(Box::new(RnTreeMatchmaker::with_defaults()), 2, 64, 200);
    assert_eq!(r.jobs_completed, 200);
    assert_eq!(r.jobs_failed, 0);
    let mean_hops = r.match_hops.mean() + r.owner_hops.mean();
    assert!(mean_hops > 0.0, "P2P matchmaking costs hops");
    assert!(
        mean_hops < 40.0,
        "matchmaking cost should be small (got {mean_hops:.1})"
    );
}

#[test]
fn can_completes_all_jobs() {
    let r = run_with(Box::new(CanMatchmaker::with_defaults()), 3, 64, 200);
    assert_eq!(r.jobs_completed, 200);
    assert_eq!(r.jobs_failed, 0);
    assert!(r.owner_hops.mean() > 0.0);
}

#[test]
fn can_push_completes_all_jobs() {
    let r = run_with(Box::new(CanMatchmaker::with_push()), 4, 64, 200);
    assert_eq!(r.jobs_completed, 200);
    assert_eq!(r.jobs_failed, 0);
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run_with(Box::new(RnTreeMatchmaker::with_defaults()), 7, 48, 150);
    let b = run_with(Box::new(RnTreeMatchmaker::with_defaults()), 7, 48, 150);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.wait_time.samples(), b.wait_time.samples());
    assert_eq!(a.match_hops.samples(), b.match_hops.samples());
    assert_eq!(a.makespan_secs, b.makespan_secs);
}

#[test]
fn different_seeds_differ() {
    let a = run_with(Box::new(CentralizedMatchmaker::new()), 8, 48, 150);
    let b = run_with(Box::new(CentralizedMatchmaker::new()), 9, 48, 150);
    assert_ne!(a.wait_time.samples(), b.wait_time.samples());
}

#[test]
fn constrained_jobs_run_only_on_capable_nodes() {
    // 10 strong nodes + 40 weak; jobs require what only the strong have.
    let mut nodes = Vec::new();
    for i in 0..50 {
        let caps = if i < 10 {
            Capabilities::new(3.5, 8.0, 400.0, OsType::Linux)
        } else {
            Capabilities::new(1.0, 0.5, 20.0, OsType::Linux)
        };
        nodes.push(NodeProfile::new(caps));
    }
    let jobs: Vec<JobSubmission> = (0..100)
        .map(|i| JobSubmission {
            profile: JobProfile::new(
                JobId(i),
                ClientId(0),
                JobRequirements::unconstrained()
                    .with_min(ResourceKind::Memory, 4.0)
                    .with_min(ResourceKind::CpuSpeed, 2.0),
                50.0,
            ),
            arrival_secs: i as f64,
            actual_runtime_secs: None,
        })
        .collect();
    for mm in [
        Box::new(CentralizedMatchmaker::new()) as Box<dyn Matchmaker>,
        Box::new(RnTreeMatchmaker::with_defaults()),
        Box::new(CanMatchmaker::with_defaults()),
    ] {
        let name = mm.name();
        let r = Engine::new(
            base_cfg(11),
            ChurnConfig::none(),
            mm,
            nodes.clone(),
            jobs.clone(),
        )
        .run();
        assert_eq!(r.jobs_completed, 100, "{name}: all jobs must complete");
        // Only the 10 strong nodes may have executed anything.
        for (i, &count) in r.node_jobs.iter().enumerate() {
            if i >= 10 {
                assert_eq!(count, 0, "{name}: weak node {i} ran a constrained job");
            }
        }
    }
}

#[test]
fn impossible_jobs_fail_with_no_match() {
    let nodes = mixed_nodes(20, 13);
    let jobs: Vec<JobSubmission> = (0..5)
        .map(|i| JobSubmission {
            profile: JobProfile::new(
                JobId(i),
                ClientId(0),
                JobRequirements::unconstrained().with_min(ResourceKind::Memory, 1e6),
                50.0,
            ),
            arrival_secs: i as f64,
            actual_runtime_secs: None,
        })
        .collect();
    let r = Engine::new(
        base_cfg(14),
        ChurnConfig::none(),
        Box::new(CentralizedMatchmaker::new()),
        nodes,
        jobs,
    )
    .run();
    assert_eq!(r.jobs_completed, 0);
    assert_eq!(r.jobs_failed, 5);
    assert!(r.match_failures >= 5);
}

#[test]
fn recovery_from_run_node_failures() {
    // Aggressive churn with rejoin: the owner/run pair must recover; with
    // resubmission as the backstop every job still completes or fails
    // explicitly — none may be lost.
    let cfg = EngineConfig {
        seed: 21,
        max_sim_secs: 2_000_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(4_000.0),
        rejoin_after_secs: Some(600.0),
        graceful_fraction: 0.0,
    };
    let r = Engine::new(
        cfg,
        churn,
        Box::new(CentralizedMatchmaker::new()),
        mixed_nodes(40, 21),
        easy_jobs(300, 21, 200.0, 5.0),
    )
    .run();
    assert_eq!(r.jobs_completed + r.jobs_failed, 300, "no job may be lost");
    assert!(r.node_failures > 0, "churn must actually fire");
    assert!(
        r.run_recoveries > 0,
        "owner must have recovered run failures"
    );
    assert!(
        r.completion_rate() > 0.95,
        "recovery should save nearly all jobs (rate {:.3})",
        r.completion_rate()
    );
}

#[test]
fn p2p_recovery_owner_and_run_roles() {
    let cfg = EngineConfig {
        seed: 22,
        max_sim_secs: 2_000_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(3_000.0),
        rejoin_after_secs: Some(500.0),
        graceful_fraction: 0.0,
    };
    let r = Engine::new(
        cfg,
        churn,
        Box::new(RnTreeMatchmaker::with_defaults()),
        mixed_nodes(48, 22),
        easy_jobs(300, 22, 200.0, 5.0),
    )
    .run();
    assert_eq!(r.jobs_completed + r.jobs_failed, 300);
    assert!(r.node_failures > 0);
    assert!(
        r.run_recoveries + r.owner_recoveries + r.client_resubmits > 0,
        "some recovery path must have fired"
    );
    assert!(
        r.completion_rate() > 0.9,
        "P2P recovery should save most jobs (rate {:.3})",
        r.completion_rate()
    );
}

/// Both execution kernels, for the cases that must hold on each: the
/// sequential one and the sharded one at the CLI's shard count.
const KERNELS: [Option<usize>; 2] = [None, Some(Engine::DEFAULT_SHARDS)];

#[test]
fn sandbox_kills_runaway_jobs() {
    for shards in KERNELS {
        let nodes = mixed_nodes(10, 31);
        // Declared 10 s, actually runs 1000 s: killed at slack × declared.
        let jobs: Vec<JobSubmission> = (0..20)
            .map(|i| JobSubmission {
                profile: JobProfile::new(
                    JobId(i),
                    ClientId(0),
                    JobRequirements::unconstrained(),
                    10.0,
                ),
                arrival_secs: i as f64 * 5.0,
                actual_runtime_secs: Some(if i % 2 == 0 { 1000.0 } else { 10.0 }),
            })
            .collect();
        let cfg = EngineConfig {
            seed: 31,
            sandbox: SandboxPolicy {
                runtime_slack: 3.0,
                max_output_bytes: u64::MAX,
            },
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(
            cfg,
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            nodes,
            jobs,
        );
        if let Some(s) = shards {
            engine.set_sharded_execution(s);
        }
        let r = engine.run();
        assert_eq!(
            r.sandbox_kills, 10,
            "every runaway job is killed (shards: {shards:?})"
        );
        assert_eq!(r.jobs_completed, 10, "shards: {shards:?}");
        assert_eq!(r.jobs_failed, 10, "shards: {shards:?}");
        assert_eq!(r.jobs_total, 20, "shards: {shards:?}");
    }
}

#[test]
fn sandbox_admission_rejects_oversized_output() {
    for shards in KERNELS {
        let nodes = mixed_nodes(5, 32);
        let mut profile = JobProfile::new(
            JobId(0),
            ClientId(0),
            JobRequirements::unconstrained(),
            10.0,
        );
        profile.output_bytes = 1 << 40; // 1 TiB declared output
        let cfg = EngineConfig {
            seed: 32,
            sandbox: SandboxPolicy {
                runtime_slack: f64::INFINITY,
                max_output_bytes: 1 << 30,
            },
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(
            cfg,
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            nodes,
            vec![JobSubmission {
                profile,
                arrival_secs: 0.0,
                actual_runtime_secs: None,
            }],
        );
        if let Some(s) = shards {
            engine.set_sharded_execution(s);
        }
        let r = engine.run();
        assert_eq!(r.sandbox_kills, 1, "shards: {shards:?}");
        assert_eq!(r.jobs_failed, 1, "shards: {shards:?}");
        assert_eq!(r.jobs_completed, 0, "shards: {shards:?}");
        assert_eq!(r.jobs_total, 1, "shards: {shards:?}");
    }
}

#[test]
fn fifo_order_on_a_single_node() {
    // One node, jobs arriving back to back: waits must be monotone in
    // arrival order (FIFO), and each wait ≈ sum of predecessors' runtimes.
    let nodes = vec![NodeProfile::new(Capabilities::new(
        2.0,
        4.0,
        100.0,
        OsType::Linux,
    ))];
    let jobs: Vec<JobSubmission> = (0..5)
        .map(|i| JobSubmission {
            profile: JobProfile::new(
                JobId(i),
                ClientId(0),
                JobRequirements::unconstrained(),
                100.0,
            ),
            arrival_secs: i as f64 * 0.01,
            actual_runtime_secs: None,
        })
        .collect();
    let r = Engine::new(
        base_cfg(33),
        ChurnConfig::none(),
        Box::new(CentralizedMatchmaker::new()),
        nodes,
        jobs,
    )
    .run();
    assert_eq!(r.jobs_completed, 5);
    let waits = r.wait_time.samples();
    // Five jobs on one node, 100 s each: waits roughly 0, 100, ..., 400.
    let mut sorted = waits.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (i, w) in sorted.iter().enumerate() {
        let expected = 100.0 * i as f64;
        assert!(
            (w - expected).abs() < 10.0,
            "wait {i} = {w:.1}, expected ≈ {expected}"
        );
    }
}

#[test]
fn utilization_accounting_is_conserved() {
    let r = run_with(Box::new(CentralizedMatchmaker::new()), 41, 30, 100);
    let total_busy: f64 = r.node_busy_secs.iter().sum();
    // All jobs completed, so total busy time equals the sum of runtimes.
    let total_jobs: u64 = r.node_jobs.iter().sum();
    assert_eq!(total_jobs, 100);
    assert!(total_busy > 0.0);
    // Mean runtime 100 s × 100 jobs ⇒ total ≈ 10 000 s (exponential spread).
    assert!(
        (5_000.0..20_000.0).contains(&total_busy),
        "total busy {total_busy}"
    );
}
