//! End-to-end determinism proof for the declarative scenario subsystem: a
//! compiled [`ScenarioSpec`] — flash-crowd or MMPP arrivals, weighted
//! tenants with quotas, correlated failure domains, message loss, diurnal
//! availability — must drive the engine to byte-identical JSONL and binary
//! event streams whether it runs on the sequential kernel or the sharded
//! conservative-window kernel at 1, 2, or 8 worker threads. This is the
//! in-tree form of the CI `scenario-matrix` stream comparison.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use dgrid::core::{BinaryObserver, Engine, EngineConfig, JobDag, JsonlObserver, StreamFormat};
use dgrid::harness::Algorithm;
use dgrid::workloads::{diurnal_wave, flash_crowd, ScenarioSpec};

/// A `Write` sink that survives the engine consuming its observer.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// FNV-1a over the stream bytes: stable, dependency-free, and sensitive to
/// every byte and position.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert a sharded 1-thread baseline against its pinned `(fnv1a, length)`,
/// recorded on the commit before the run-node handlers were unified:
/// thread-count identity alone would not notice a refactor that changed the
/// sharded kernel's bytes at every thread count alike.
fn assert_pinned(bytes: &[u8], pinned: (u64, usize), what: &str) {
    assert_eq!(
        (fnv1a(bytes), bytes.len()),
        pinned,
        "{what}: sharded stream drifted from the pinned bytes (got hash {:#x}, len {})",
        fnv1a(bytes),
        bytes.len()
    );
}

/// Shrink a preset so the full thread × format matrix stays fast while
/// every scenario feature (burst, tenants, quota, failure domain, loss,
/// diurnal schedule) still fires.
fn compact(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.nodes = 48;
    spec.jobs = 200;
    for t in &mut spec.tenants {
        // Keep quotas binding relative to the shrunken job count.
        t.quota = t.quota.map(|q| q.min(100));
    }
    spec
}

/// One traced scenario run: compile `spec` at `seed`, hand the compiled
/// workload, churn, fault plan, and availability schedule to the engine —
/// exactly what `dgrid run --scenario-file` executes — and capture the
/// stream. `threads: Some(t)` runs the sharded conservative-window kernel
/// inside a `t`-worker pool; `None` runs the sequential kernel.
fn spec_stream(
    spec: &ScenarioSpec,
    alg: Algorithm,
    seed: u64,
    format: StreamFormat,
    threads: Option<usize>,
) -> Vec<u8> {
    let compiled = spec.compile(seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: compiled.horizon_secs,
        ..EngineConfig::default()
    };
    let buf = SharedBuf::default();
    let observer: Box<dyn dgrid::core::Observer> = match format {
        StreamFormat::Jsonl => Box::new(JsonlObserver::new(buf.clone())),
        StreamFormat::Binary => Box::new(BinaryObserver::new(buf.clone())),
    };
    let mut engine = Engine::with_dag_and_schedule(
        cfg,
        compiled.churn,
        alg.matchmaker(),
        compiled.workload.nodes,
        compiled.workload.submissions,
        JobDag::none(),
        compiled.schedule,
    );
    if !compiled.fault_plan.is_none() {
        engine.set_fault_plan(compiled.fault_plan);
    }
    engine.set_observer(observer);
    match threads {
        Some(t) => {
            engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
            rayon::Pool::install(t, || {
                engine.run();
            });
        }
        None => {
            engine.run();
        }
    }
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced scenario run must emit events");
    bytes
}

const SEED: u64 = 2007;

/// The acceptance matrix: both production-shaped presets, both stream
/// formats, the sharded conservative-window kernel at 1, 2, and 8 worker
/// threads — every thread count must produce the same bytes (the same
/// fixed-shard-count contract the parallel-determinism suite holds the
/// classic workloads to).
#[test]
fn scenario_streams_byte_identical_across_thread_counts() {
    // Per preset: the pinned JSONL then binary `(fnv1a, length)`.
    let cases = [
        (
            compact(flash_crowd()),
            [(0xe8c39f4016627fca, 78_880), (0x2bf9aa4b7bfaa416, 10_392)],
        ),
        (
            compact(diurnal_wave()),
            [(0xe1f6d12d71633e11, 82_680), (0xe9a4520eb798beb2, 10_995)],
        ),
    ];
    for (spec, pinned) in cases {
        for (format, pinned) in [StreamFormat::Jsonl, StreamFormat::Binary]
            .into_iter()
            .zip(pinned)
        {
            let baseline = spec_stream(&spec, Algorithm::RnTree, SEED, format, Some(1));
            assert_pinned(&baseline, pinned, &format!("{} [{format:?}]", spec.name));
            for threads in [2, 8] {
                let sharded = spec_stream(&spec, Algorithm::RnTree, SEED, format, Some(threads));
                assert_eq!(
                    sharded, baseline,
                    "{} [{format:?}]: sharded stream at {threads} thread(s) \
                     diverged from the 1-thread run",
                    spec.name
                );
            }
        }
    }
}

/// The pub/sub discovery baseline is the newest matchmaker; its scenario
/// streams must be just as thread-count-independent.
#[test]
fn pub_sub_scenario_stream_is_thread_count_independent() {
    let spec = compact(flash_crowd());
    let pinned = [(0xeb78cf0fc483b445, 81_233), (0xc97fc1a44685f78f, 10_770)];
    for (format, pinned) in [StreamFormat::Jsonl, StreamFormat::Binary]
        .into_iter()
        .zip(pinned)
    {
        let baseline = spec_stream(&spec, Algorithm::PubSub, SEED, format, Some(1));
        assert_pinned(&baseline, pinned, &format!("pub-sub [{format:?}]"));
        let sharded = spec_stream(&spec, Algorithm::PubSub, SEED, format, Some(8));
        assert_eq!(
            sharded, baseline,
            "pub-sub [{format:?}]: 8-thread sharded stream diverged from 1 thread"
        );
    }
}

/// Compiling and running the same spec twice must reproduce the bytes:
/// scenario compilation draws only from seeded streams, never from global
/// state.
#[test]
fn scenario_rerun_reproduces_the_same_bytes() {
    let spec = compact(flash_crowd());
    let first = spec_stream(&spec, Algorithm::RnTree, SEED, StreamFormat::Jsonl, None);
    let second = spec_stream(&spec, Algorithm::RnTree, SEED, StreamFormat::Jsonl, None);
    assert_eq!(first, second, "scenario rerun did not reproduce itself");
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
