//! End-to-end determinism proof for the declarative scenario subsystem: a
//! compiled [`ScenarioSpec`] — flash-crowd or MMPP arrivals, weighted
//! tenants with quotas, correlated failure domains, message loss, diurnal
//! availability — must drive the engine to byte-identical JSONL and binary
//! event streams whether it runs on the sequential kernel or the sharded
//! conservative-window kernel at 1, 2, or 8 worker threads. This is the
//! in-tree form of the CI `scenario-matrix` stream comparison.

mod common;

use common::golden::{self, capture, compact, scenario, SCENARIO_SEED as SEED};
use dgrid::core::{Engine, EngineConfig, JobDag, StreamFormat};
use dgrid::harness::Algorithm;
use dgrid::workloads::flash_crowd;

/// The acceptance matrix: both production-shaped presets, both stream
/// formats, the sharded conservative-window kernel pinned at one worker
/// thread and held to the pin at 2 and 8 — the same fixed-shard-count
/// contract the parallel-determinism suite holds the classic workloads to.
/// The pins were recorded on the commit before the run-node handlers were
/// unified: thread-count identity alone would not notice a refactor that
/// changed the sharded kernel's bytes at every thread count alike.
#[test]
fn scenario_streams_byte_identical_across_thread_counts() {
    golden::check_at(&["scenario/flash-crowd", "scenario/diurnal-wave"], &[2, 8]);
}

/// The pub/sub discovery baseline is the newest matchmaker; its scenario
/// streams must be just as thread-count-independent.
#[test]
fn pub_sub_scenario_stream_is_thread_count_independent() {
    golden::check_at(&["scenario/pub-sub"], &[8]);
}

/// Compiling and running the same spec twice must reproduce the bytes:
/// scenario compilation draws only from seeded streams, never from global
/// state.
#[test]
fn scenario_rerun_reproduces_the_same_bytes() {
    let run = || {
        capture(
            scenario(flash_crowd(), Algorithm::RnTree),
            StreamFormat::Jsonl,
        )
        .bytes
    };
    assert_eq!(run(), run(), "scenario rerun did not reproduce itself");
}

/// Per-tenant accounting on the report side: tenant `i` submits as client
/// `i`, every wait sample lands in exactly one tenant accumulator, and the
/// finalized fairness index is present and in (0, 1].
#[test]
fn scenario_report_carries_per_tenant_fairness() {
    let spec = compact(flash_crowd());
    let compiled = spec.compile(SEED);
    let report = Engine::with_dag_and_schedule(
        EngineConfig {
            seed: SEED,
            max_sim_secs: compiled.horizon_secs,
            ..EngineConfig::default()
        },
        compiled.churn,
        Algorithm::PubSub.matchmaker(),
        compiled.workload.nodes,
        compiled.workload.submissions,
        JobDag::none(),
        compiled.schedule,
    )
    .with_fault_plan(compiled.fault_plan)
    .run();

    let fairness = report
        .tenant_fairness
        .expect("finalized runs set tenant fairness");
    assert!(
        fairness > 0.0 && fairness <= 1.0 + 1e-9,
        "fairness {fairness} out of (0, 1]"
    );
    let attributed: u64 = report.client_waits.values().map(|s| s.count()).sum();
    assert_eq!(
        attributed,
        report.wait_time.len() as u64,
        "per-tenant accumulators must tile the global wait population"
    );
    assert!(
        report.client_waits.len() <= spec.tenants.len(),
        "more client accumulators than tenants"
    );
}
