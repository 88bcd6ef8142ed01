//! Edge-case engine tests: horizon expiry, resubmission exhaustion, empty
//! grids, runtime scaling, and mid-flight churn races.

use dgrid_core::{
    CentralizedMatchmaker, ChurnConfig, Engine, EngineConfig, JobSubmission, RnTreeMatchmaker,
};
use dgrid_resources::{
    Capabilities, ClientId, JobId, JobProfile, JobRequirements, NodeProfile, OsType,
};

fn node(cpu: f64) -> NodeProfile {
    NodeProfile::new(Capabilities::new(cpu, 4.0, 100.0, OsType::Linux))
}

fn job(id: u64, arrival: f64, runtime: f64) -> JobSubmission {
    JobSubmission {
        profile: JobProfile::new(
            JobId(id),
            ClientId(0),
            JobRequirements::unconstrained(),
            runtime,
        ),
        arrival_secs: arrival,
        actual_runtime_secs: None,
    }
}

#[test]
fn horizon_fails_unfinished_jobs_explicitly() {
    // One node, five 100 s jobs, but only 250 s of simulated time: the
    // queue tail must be failed at the horizon, not silently dropped.
    let cfg = EngineConfig {
        seed: 1,
        max_sim_secs: 250.0,
        ..EngineConfig::default()
    };
    let r = Engine::new(
        cfg,
        ChurnConfig::none(),
        Box::new(CentralizedMatchmaker::new()),
        vec![node(2.0)],
        (0..5).map(|i| job(i, 0.0, 100.0)).collect(),
    )
    .run();
    assert_eq!(
        r.jobs_completed + r.jobs_failed,
        5,
        "conservation at the horizon"
    );
    assert!(r.jobs_completed >= 1, "the head of the queue finishes");
    assert!(r.jobs_failed >= 2, "the tail is failed explicitly");
}

#[test]
fn permanent_grid_outage_exhausts_resubmits() {
    // The only node dies before the job arrives and never comes back: the
    // job must fail after max_resubmits, not loop forever.
    let cfg = EngineConfig {
        seed: 2,
        max_resubmits: 2,
        max_sim_secs: 1_000_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(0.001), // dies almost immediately
        rejoin_after_secs: None,
        graceful_fraction: 0.0,
    };
    let r = Engine::new(
        cfg,
        churn,
        Box::new(RnTreeMatchmaker::with_defaults()),
        vec![node(2.0), node(2.0)],
        vec![job(0, 10.0, 50.0)],
    )
    .run();
    assert_eq!(r.jobs_failed, 1);
    assert_eq!(r.jobs_completed, 0);
    assert!(r.client_resubmits >= 1, "the client kept trying first");
}

#[test]
fn runtime_scaling_by_cpu_speed() {
    // Same job on a 1 GHz node vs a 4 GHz node with scaling on: the fast
    // node finishes 4× sooner (reference 2 GHz ⇒ 2× vs 0.5× the declared).
    let run_on = |cpu: f64| {
        let cfg = EngineConfig {
            seed: 3,
            scale_runtime_by_cpu: true,
            reference_cpu_ghz: 2.0,
            ..EngineConfig::default()
        };
        Engine::new(
            cfg,
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            vec![node(cpu)],
            vec![job(0, 0.0, 100.0)],
        )
        .run()
    };
    let slow = run_on(1.0);
    let fast = run_on(4.0);
    assert_eq!(slow.jobs_completed, 1);
    assert_eq!(fast.jobs_completed, 1);
    // Turnaround ≈ runtime (no queueing): 200 s vs 50 s plus small latency.
    let t_slow = slow.turnaround.mean();
    let t_fast = fast.turnaround.mean();
    assert!(
        (195.0..215.0).contains(&t_slow),
        "slow node turnaround {t_slow:.1}"
    );
    assert!(
        (45.0..65.0).contains(&t_fast),
        "fast node turnaround {t_fast:.1}"
    );
}

#[test]
fn admission_failures_behind_a_running_job_leave_its_queue_alone() {
    // One node, busy with a 1000 s job. While it runs, a long run of jobs
    // with oversized declared output arrives — each is failed at admission
    // and must never take a queue slot — plus one ordinary job, which must
    // start the moment the long job completes, on both kernels. (Entries
    // that die *while queued* need a superseded epoch; the run-node module's
    // unit test drives `start_next_on` over a long run of those directly.)
    use dgrid_core::SandboxPolicy;
    const REJECTED: u64 = 2_000;
    for shards in [None, Some(Engine::DEFAULT_SHARDS)] {
        let mut jobs = vec![job(0, 0.0, 1000.0), job(REJECTED + 1, 500.0, 10.0)];
        jobs.extend((1..=REJECTED).map(|i| {
            let mut oversized = job(i, 1.0 + i as f64 * 0.4, 10.0);
            oversized.profile.output_bytes = 1 << 40;
            oversized
        }));
        let mut engine = Engine::new(
            EngineConfig {
                seed: 41,
                sandbox: SandboxPolicy {
                    runtime_slack: f64::INFINITY,
                    max_output_bytes: 1 << 30,
                },
                ..EngineConfig::default()
            },
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            vec![node(2.0)],
            jobs,
        );
        if let Some(s) = shards {
            engine.set_sharded_execution(s);
        }
        let r = engine.run();
        assert_eq!(r.sandbox_kills, REJECTED, "shards: {shards:?}");
        assert_eq!(r.jobs_failed, REJECTED, "shards: {shards:?}");
        assert_eq!(r.jobs_completed, 2, "shards: {shards:?}");
        // The ordinary job waited for the long one and for nothing else:
        // submitted at 500, started when the node freed up at ~1000.
        let longest = r.wait_time.max().expect("two completions");
        assert!(
            (495.0..505.0).contains(&longest),
            "ordinary job waited {longest:.1} s (shards: {shards:?})"
        );
    }
}

#[test]
fn single_node_single_job_smoke() {
    let r = Engine::new(
        EngineConfig {
            seed: 4,
            ..EngineConfig::default()
        },
        ChurnConfig::none(),
        Box::new(RnTreeMatchmaker::with_defaults()),
        vec![node(2.0)],
        vec![job(0, 0.0, 10.0)],
    )
    .run();
    assert_eq!(r.jobs_completed, 1);
    assert_eq!(r.owner_hops.len(), 1);
    assert_eq!(r.match_hops.len(), 1);
}

#[test]
fn zero_jobs_is_a_clean_no_op() {
    let r = Engine::new(
        EngineConfig {
            seed: 5,
            ..EngineConfig::default()
        },
        ChurnConfig::none(),
        Box::new(CentralizedMatchmaker::new()),
        vec![node(2.0)],
        Vec::new(),
    )
    .run();
    assert_eq!(r.jobs_total, 0);
    assert_eq!(r.jobs_completed, 0);
    assert_eq!(r.completion_rate(), 1.0);
}

#[test]
fn late_arrivals_after_all_nodes_left_still_terminate() {
    // Every node departs gracefully at t=5; a job arrives at t=100. The
    // client retries and ultimately gives up — never a hang.
    use dgrid_core::{AvailabilityEvent, GridNodeId, JobDag};
    let schedule = vec![
        AvailabilityEvent {
            at_secs: 5.0,
            node: GridNodeId(0),
            up: false,
        },
        AvailabilityEvent {
            at_secs: 5.0,
            node: GridNodeId(1),
            up: false,
        },
    ];
    let cfg = EngineConfig {
        seed: 6,
        max_resubmits: 1,
        max_sim_secs: 100_000.0,
        ..EngineConfig::default()
    };
    let r = Engine::with_dag_and_schedule(
        cfg,
        ChurnConfig::none(),
        Box::new(RnTreeMatchmaker::with_defaults()),
        vec![node(2.0), node(2.0)],
        vec![job(0, 100.0, 10.0)],
        JobDag::none(),
        schedule,
    )
    .run();
    assert_eq!(r.jobs_completed + r.jobs_failed, 1);
    assert_eq!(r.jobs_failed, 1, "no capacity ever returns");
}

#[test]
fn duplicate_job_ids_rejected() {
    let result = std::panic::catch_unwind(|| {
        Engine::new(
            EngineConfig::default(),
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            vec![node(2.0)],
            vec![job(7, 0.0, 10.0), job(7, 1.0, 10.0)],
        )
    });
    assert!(
        result.is_err(),
        "duplicate job ids must panic at construction"
    );
}
