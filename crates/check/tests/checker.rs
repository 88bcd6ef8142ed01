//! End-to-end tests for the model checker: a clean sweep over pinned seeds,
//! and the fault-injection self-test the acceptance criteria require — a
//! deliberately broken engine (epoch dedup disabled) must be caught by the
//! oracles and shrunk to a small repro.

use dgrid_check::{fault_event_count, shrink, CompiledRun, Inject, LeaseSpec, Scenario, CHECKED};
use dgrid_core::{Engine, PlacementPolicy};
use dgrid_workloads::{ArrivalProcess, DomainFailure, FailureDomain, ScenarioSpec, TenantSpec};

/// Pinned seed range for the in-tree sweep; CI sweeps a wider range.
const SWEEP_SEEDS: u64 = 6;

#[test]
fn clean_sweep_over_pinned_seeds() {
    for seed in 0..SWEEP_SEEDS {
        let scenario = Scenario::generate(seed);
        let verdict = scenario.compile(Inject::default()).verdict(&CHECKED);
        assert!(
            verdict.is_clean(),
            "seed {seed} ({scenario:?}) violated: {:?}",
            verdict.all_violations()
        );
    }
}

#[test]
fn sharded_kernel_passes_the_oracles_and_terminates_the_sequential_job_set() {
    // The sharded kernel draws from per-shard RNG streams, so its trace is
    // not the sequential kernel's — but it is the same protocol, so the
    // same fuzzed scenarios must satisfy the same oracle battery, and drive
    // the same job population to some terminal state (the model is the
    // lease-vs-reassign differential). Odd seeds run leased, so lease
    // renewals and transfers interleave with shard-local completions at the
    // barrier and the no-orphan oracle is armed.
    for seed in 0..8u64 {
        let mut scenario = Scenario::generate(seed);
        if seed % 2 == 1 {
            scenario = scenario.with_lease(LeaseSpec::for_check(PlacementPolicy::LoadAware));
        }
        let run = scenario.compile(Inject::default());
        for mm in CHECKED {
            let engine = run
                .engine(mm)
                .with_sharded_execution(Engine::DEFAULT_SHARDS);
            let sharded = run.judge(mm, engine);
            assert!(
                sharded.violations.is_empty(),
                "seed {seed} under {} violated on the sharded kernel: {:?}",
                mm.label(),
                sharded.violations
            );
            let sequential = run.check(mm);
            assert!(
                sharded.terminal.keys().eq(sequential.terminal.keys()),
                "seed {seed} under {}: the kernels terminated different job sets \
                 ({} sharded, {} sequential)",
                mm.label(),
                sharded.terminal.len(),
                sequential.terminal.len()
            );
        }
    }
}

#[test]
fn declarative_scenario_checks_clean_across_all_matchmakers() {
    // A miniature production-shaped spec exercising every scenario feature:
    // a flash crowd, weighted tenants with a quota, a correlated crash
    // domain, and message loss — differentially checked under all six
    // matchmakers, with the fairness oracle auditing per-tenant accounting.
    let spec = ScenarioSpec {
        name: "check-mini".into(),
        nodes: 16,
        jobs: 48,
        arrivals: ArrivalProcess::FlashCrowd {
            base_interarrival_secs: 2.0,
            peak_multiplier: 10.0,
            flash_at_secs: 30.0,
            flash_duration_secs: 20.0,
        },
        tenants: vec![
            TenantSpec::new("sweep", 3.0).with_quota(30),
            TenantSpec::new("lab", 1.0),
        ],
        failure_domains: vec![FailureDomain {
            name: "rack-0".into(),
            fraction: 0.2,
            outage_at_secs: 60.0,
            outage_duration_secs: 60.0,
            failure: DomainFailure::Crash { rejoin: true },
        }],
        loss_prob: 0.02,
        ..ScenarioSpec::default()
    };
    let run = CompiledRun {
        scenario: spec.compile(7),
        seed: 7,
        lease: None,
        inject: Inject::default(),
    };
    let verdict = run.verdict(&CHECKED);
    assert_eq!(verdict.runs.len(), CHECKED.len());
    assert!(
        verdict.is_clean(),
        "declarative scenario violated: {:?}",
        verdict.all_violations()
    );
}

#[test]
fn injected_epoch_dedup_bug_is_caught_and_shrunk() {
    let inject = Inject {
        disable_epoch_dedup: true,
    };

    // Find seeds whose scenarios trip an oracle under the broken engine.
    // Duplicate commits need spurious failure detections, which need
    // message loss, so only some scenarios can express the bug — and how
    // far a violating scenario shrinks depends on the matchmaker, so scan
    // violating (scenario, matchmaker) pairs until one yields the small
    // repro the acceptance criteria demand.
    let mut caught = false;
    let mut shrunk = None;
    'scan: for seed in 0..60u64 {
        let scenario = Scenario::generate(seed);
        for mm in CHECKED {
            let verdict = scenario.compile(inject).check(mm);
            if verdict.violations.is_empty() {
                continue;
            }
            assert!(
                verdict
                    .violations
                    .iter()
                    .any(|v| v.oracle == "at-most-once-commit" || v.oracle == "job-conservation"),
                "expected a commit/conservation violation, got {:?}",
                verdict.violations
            );
            caught = true;

            // Shrink while the violation still reproduces under the same
            // matchmaker.
            let result = shrink(
                &scenario,
                |cand| !cand.compile(inject).check(mm).violations.is_empty(),
                150,
            );
            if result.scenario.nodes <= 8 && fault_event_count(&result.scenario) <= 10 {
                shrunk = Some((result, mm));
                break 'scan;
            }
        }
    }
    assert!(
        caught,
        "the epoch-dedup bug escaped a 60-seed sweep: the oracles have no teeth"
    );
    let (result, mm) =
        shrunk.expect("no violating scenario shrank to <= 8 nodes and <= 10 fault events");
    // The shrunk scenario must itself still reproduce.
    assert!(!result
        .scenario
        .compile(inject)
        .check(mm)
        .violations
        .is_empty());
}

#[test]
fn clean_engine_passes_the_shrunk_bug_scenario() {
    // Complement of the self-test: with dedup enabled the same scenarios
    // are clean, so the checker attributes the violation to the injected
    // bug, not to scenario shape.
    for seed in 0..10u64 {
        let scenario = Scenario::generate(seed);
        for mm in CHECKED {
            let verdict = scenario.compile(Inject::default()).check(mm);
            assert!(
                verdict.violations.is_empty(),
                "seed {seed} under {} violated without injection: {:?}",
                mm.label(),
                verdict.violations
            );
        }
    }
}
