//! End-to-end determinism under parallelism: running replications on the
//! work-stealing pool must not change a single byte of any output, at any
//! thread count. These tests deliberately include churn + network faults so
//! the replications exercise the order-sensitive engine paths (owned-job
//! iteration on a departure, horizon failure order) that would leak a
//! per-thread hash seed if the engine used hash-ordered iteration there.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use dgrid::core::{
    BinaryObserver, ChurnConfig, Engine, EngineConfig, FaultPlan, JsonlObserver, StreamFormat,
};
use dgrid::harness::{run_cell, Algorithm};
use dgrid::workloads::{paper_scenario, PaperScenario};
use rayon::prelude::*;
use rayon::Pool;

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

/// Assert a sharded 1-thread baseline against its pinned `(fnv1a, length)`.
fn assert_pinned(bytes: &[u8], pinned: (u64, usize), what: &str) {
    assert_eq!(
        (fnv1a(bytes), bytes.len()),
        pinned,
        "{what}: sharded stream drifted from the pinned bytes (got hash {:#x}, len {})",
        fnv1a(bytes),
        bytes.len()
    );
}

/// One traced replication under churn and message loss, returning its event
/// stream in the requested format. `shards: Some(s)` runs it on the sharded
/// conservative-window kernel instead of the sequential one.
fn faulty_replication_sharded(
    alg: Algorithm,
    seed: u64,
    format: StreamFormat,
    shards: Option<usize>,
) -> Vec<u8> {
    let workload = paper_scenario(PaperScenario::MixedLight, 40, 120, seed);
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
    let buf = SharedBuf::default();
    let observer: Box<dyn dgrid::core::Observer> = match format {
        StreamFormat::Jsonl => Box::new(JsonlObserver::new(buf.clone())),
        StreamFormat::Binary => Box::new(BinaryObserver::new(buf.clone())),
    };
    let mut engine = Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(observer);
    if let Some(s) = shards {
        engine.set_sharded_execution(s);
    }
    engine.run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

/// Sequential-kernel variant of [`faulty_replication_sharded`].
fn faulty_replication(alg: Algorithm, seed: u64, format: StreamFormat) -> Vec<u8> {
    faulty_replication_sharded(alg, seed, format, None)
}

/// Concatenated event streams of `reps` replications, fanned out over the
/// pool at the given thread count.
fn replicated_streams(alg: Algorithm, base_seed: u64, reps: u64, threads: usize) -> Vec<u8> {
    replicated_streams_in(alg, base_seed, reps, threads, StreamFormat::Jsonl)
}

fn replicated_streams_in(
    alg: Algorithm,
    base_seed: u64,
    reps: u64,
    threads: usize,
    format: StreamFormat,
) -> Vec<u8> {
    Pool::install(threads, || {
        (0..reps)
            .into_par_iter()
            .map(|r| faulty_replication(alg, base_seed ^ (r + 1), format))
            .collect::<Vec<Vec<u8>>>()
            .concat()
    })
}

/// One traced replication at kernel scale: 10,000 nodes under the same
/// churn + message loss, horizon pulled in so the case stays suite-cheap.
/// This is the size where the id-indexed, radix-heap kernel actually carries
/// the run — a 40-node case would never notice a kernel that leaked
/// allocator addresses or hash order only under load.
fn ten_k_replication(alg: Algorithm, seed: u64, format: StreamFormat) -> Vec<u8> {
    ten_k_replication_sharded(alg, seed, format, None)
}

/// [`ten_k_replication`] with an optional shard count for the
/// conservative-window kernel.
fn ten_k_replication_sharded(
    alg: Algorithm,
    seed: u64,
    format: StreamFormat,
    shards: Option<usize>,
) -> Vec<u8> {
    let workload = paper_scenario(PaperScenario::MixedLight, 10_000, 2_000, seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 8_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(400_000.0),
        rejoin_after_secs: Some(900.0),
        graceful_fraction: 0.25,
    };
    let buf = SharedBuf::default();
    let observer: Box<dyn dgrid::core::Observer> = match format {
        StreamFormat::Jsonl => Box::new(JsonlObserver::new(buf.clone())),
        StreamFormat::Binary => Box::new(BinaryObserver::new(buf.clone())),
    };
    let mut engine = Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(observer);
    if let Some(s) = shards {
        engine.set_sharded_execution(s);
    }
    engine.run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

#[test]
fn ten_thousand_node_streams_byte_identical_across_thread_counts() {
    // The 10k-node kernel run on the work-stealing pool at 1, 2, and 8
    // threads: the job table order, event-queue bucket layout,
    // and lazy overlay snapshots must depend only on the seed, never on
    // which worker thread drives the replication.
    let run = |threads: usize| -> Vec<u8> {
        Pool::install(threads, || {
            (0..1u64)
                .into_par_iter()
                .map(|_| ten_k_replication(Algorithm::RnTree, 1993, StreamFormat::Binary))
                .collect::<Vec<Vec<u8>>>()
                .concat()
        })
    };
    let baseline = run(1);
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "rn-tree: {threads}-thread 10k-node stream diverged from sequential"
        );
    }
}

#[test]
fn event_streams_byte_identical_across_thread_counts() {
    for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::Central] {
        let baseline = replicated_streams(alg, 1301, 6, 1);
        for threads in [2, 8] {
            let stream = replicated_streams(alg, 1301, 6, threads);
            assert_eq!(
                stream,
                baseline,
                "{}: {threads}-thread stream diverged from sequential",
                alg.label()
            );
        }
    }
}

#[test]
fn binary_streams_byte_identical_across_thread_counts() {
    // The binary encoder is stateful (intern tables, time deltas), which is
    // exactly the kind of state a work-stealing pool would scramble if it
    // were shared; each replication owns its encoder, so concatenated
    // binary streams must be bit-exact at any thread count — and each
    // replication restarts at the magic header, which the decoder must
    // accept mid-stream.
    for alg in [Algorithm::RnTree, Algorithm::Central] {
        let baseline = replicated_streams_in(alg, 1301, 6, 1, StreamFormat::Binary);
        for threads in [2, 8] {
            let stream = replicated_streams_in(alg, 1301, 6, threads, StreamFormat::Binary);
            assert_eq!(
                stream,
                baseline,
                "{}: {threads}-thread binary stream diverged from sequential",
                alg.label()
            );
        }
        // The concatenated multi-header stream decodes cleanly end to end,
        // and carries the same records as the JSONL twin of the same run.
        let records = dgrid::core::decode_stream(&baseline).expect("concatenated stream decodes");
        let jsonl = replicated_streams_in(alg, 1301, 6, 1, StreamFormat::Jsonl);
        let jsonl_records: Vec<_> = std::str::from_utf8(&jsonl)
            .expect("jsonl is utf-8")
            .lines()
            .filter_map(|l| dgrid::core::parse_jsonl_line(l).expect("golden line parses"))
            .collect();
        assert_eq!(records, jsonl_records, "{}: formats disagree", alg.label());
    }
}

#[test]
fn overlay_matrix_streams_byte_identical_across_thread_counts() {
    // The overlay ablation: the RN-Tree matchmaker on every KeyRouter
    // substrate, under the same churn + message loss, must stay bit-exact
    // at any thread count — new substrates get no determinism discount.
    for alg in Algorithm::OVERLAYS {
        let baseline = replicated_streams(alg, 2203, 4, 1);
        for threads in [2, 8] {
            let stream = replicated_streams(alg, 2203, 4, threads);
            assert_eq!(
                stream,
                baseline,
                "{}: {threads}-thread stream diverged from sequential",
                alg.label()
            );
        }
    }
}

#[test]
fn cell_results_identical_across_thread_counts() {
    let run = |threads: usize| {
        Pool::install(threads, || {
            Algorithm::FIGURE2.map(|alg| {
                let cell = run_cell(alg, PaperScenario::ClusteredHeavy, 40, 120, 907, 5);
                serde_json::to_string(&cell).expect("cell serializes")
            })
        })
    };
    let baseline = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), baseline, "threads={threads} diverged");
    }
}

#[test]
fn check_sweep_reports_the_same_violation_at_any_thread_count() {
    use dgrid::check::{sweep, Inject, Scenario, SweepOutcome, CHECKED};

    // The epoch-dedup backdoor makes some seed in this window violate; the
    // parallel sweep must report exactly the seed a sequential sweep finds.
    let inject = Inject {
        disable_epoch_dedup: true,
    };
    let outcome_at = |threads: usize| {
        let check = |seed| Scenario::generate(seed).compile(inject).verdict(&CHECKED);
        Pool::install(threads, || match sweep(42, 4, check, |_| {}) {
            SweepOutcome::Violation { seed, verdict, .. } => {
                (Some(seed), verdict.all_violations().len())
            }
            SweepOutcome::AllClean { .. } => (None, 0),
        })
    };
    let baseline = outcome_at(1);
    assert!(
        baseline.0.is_some(),
        "the injected bug must trip within the seed window"
    );
    for threads in [2, 8] {
        assert_eq!(outcome_at(threads), baseline, "threads={threads} diverged");
    }
}

#[test]
fn clean_check_sweep_is_clean_in_parallel() {
    use dgrid::check::{sweep, Inject, Scenario, SweepOutcome, CHECKED};

    let check = |seed| {
        let run = Scenario::generate(seed).compile(Inject::default());
        run.verdict(&CHECKED)
    };
    let checked = Pool::install(4, || match sweep(42, 6, check, |_| {}) {
        SweepOutcome::AllClean { checked } => checked,
        SweepOutcome::Violation { seed, verdict, .. } => panic!(
            "seed {seed} violated on a clean engine: {:?}",
            verdict.all_violations()
        ),
    });
    assert_eq!(checked, 6);
}

// ---------------------------------------------------------------------
// Space-parallel single-replication execution: the sharded
// conservative-window kernel must be byte-identical at every worker
// thread count for a fixed shard count, in both stream formats.
// ---------------------------------------------------------------------

/// `(format, fnv1a, byte length)` of the sharded 10k-node stream at
/// `DEFAULT_SHARDS`, recorded on the commit before the run-node handlers
/// were unified: thread-count identity alone would not notice a refactor
/// that changed the sharded kernel's bytes at every thread count alike.
const SHARDED_TEN_K_PINNED: &[(StreamFormat, u64, usize)] = &[
    (StreamFormat::Jsonl, 0x0742deb17fd37a66, 762_088),
    (StreamFormat::Binary, 0x4952680636338adb, 121_025),
];

#[test]
fn sharded_ten_k_streams_byte_identical_across_thread_counts() {
    // ONE 10k-node churny replication executed space-parallel: the node
    // shards of a single engine run on the pool. Unlike the replication
    // fan-out above, every thread mutates state of the same simulation,
    // so this is the test that would catch a shard reading half-merged
    // state, a thread-dependent RNG stream, or an unordered barrier.
    for &(format, hash, len) in SHARDED_TEN_K_PINNED {
        let run = |threads: usize| -> Vec<u8> {
            Pool::install(threads, || {
                ten_k_replication_sharded(
                    Algorithm::RnTree,
                    1993,
                    format,
                    Some(Engine::DEFAULT_SHARDS),
                )
            })
        };
        let baseline = run(1);
        assert_pinned(&baseline, (hash, len), &format!("rn-tree 10k [{format:?}]"));
        for threads in [2, 8] {
            assert_eq!(
                run(threads),
                baseline,
                "rn-tree: {threads}-thread sharded 10k {format:?} stream diverged"
            );
        }
    }
}

/// `(variant, fnv1a, byte length)` of the sharded JSONL stream at
/// `DEFAULT_SHARDS`, recorded on the same commit as
/// [`SHARDED_TEN_K_PINNED`].
const SHARDED_PINNED: &[(Algorithm, u64, usize)] = &[
    (Algorithm::RnTree, 0x14d9d6077d120175, 44_688),
    (Algorithm::Can, 0xb5d57464bf95acc5, 44_646),
    (Algorithm::CanPush, 0xedc045e1fd59dd5e, 44_641),
    (Algorithm::CanNoVirtualDim, 0xb826718c8a488098, 44_613),
    (Algorithm::Central, 0x73490d07f68c6206, 44_327),
];

#[test]
fn sharded_streams_byte_identical_for_every_matchmaker() {
    // All five matchmaker variants on the sharded kernel: matchmaking
    // itself stays on the barrier (it is global by design), but each
    // variant steers different jobs onto different nodes and therefore
    // different shards — no variant gets a determinism discount.
    for &(alg, hash, len) in SHARDED_PINNED {
        let run = |threads: usize| -> Vec<u8> {
            Pool::install(threads, || {
                faulty_replication_sharded(
                    alg,
                    4111,
                    StreamFormat::Jsonl,
                    Some(Engine::DEFAULT_SHARDS),
                )
            })
        };
        let baseline = run(1);
        assert_pinned(&baseline, (hash, len), alg.label());
        for threads in [2, 8] {
            assert_eq!(
                run(threads),
                baseline,
                "{}: {threads}-thread sharded stream diverged",
                alg.label()
            );
        }
    }
}

#[test]
fn sharded_replications_compose_with_replication_parallelism() {
    // Both parallelism levels at once: replications fan out over the pool
    // AND each replication runs the sharded kernel, so the shard-level
    // par_iter nests inside the replication-level one. The nested pool
    // budget split must neither deadlock nor change a byte.
    let run = |threads: usize| -> Vec<u8> {
        Pool::install(threads, || {
            (0..4u64)
                .into_par_iter()
                .map(|r| {
                    faulty_replication_sharded(
                        Algorithm::RnTree,
                        6007 ^ (r + 1),
                        StreamFormat::Binary,
                        Some(Engine::DEFAULT_SHARDS),
                    )
                })
                .collect::<Vec<Vec<u8>>>()
                .concat()
        })
    };
    let baseline = run(1);
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "threads={threads}: nested replication x shard parallelism diverged"
        );
    }
}
