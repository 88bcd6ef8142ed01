//! End-to-end determinism under parallelism: running replications on the
//! work-stealing pool must not change a single byte of any output, at any
//! thread count. These tests deliberately include churn + network faults so
//! the replications exercise the order-sensitive engine paths (owned-job
//! iteration on a departure, horizon failure order) that would leak a
//! per-thread hash seed if the engine used hash-ordered iteration there.

mod common;

use common::golden::{self, capture, forty, sharded, ten_k};
use dgrid::core::StreamFormat;
use dgrid::harness::{run_cell, Algorithm};
use dgrid::workloads::PaperScenario;
use rayon::prelude::*;
use rayon::Pool;

/// One traced replication of the 40-node churn + loss run, returning its
/// event stream in the requested format.
fn faulty_replication(alg: Algorithm, seed: u64, format: StreamFormat) -> Vec<u8> {
    capture(forty(alg, seed), format).bytes
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
                .map(|_| capture(ten_k(Algorithm::RnTree), StreamFormat::Binary).bytes)
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

#[test]
fn sharded_ten_k_streams_byte_identical_across_thread_counts() {
    // ONE 10k-node churny replication executed space-parallel: the node
    // shards of a single engine run on the pool. Unlike the replication
    // fan-out above, every thread mutates state of the same simulation,
    // so this is the test that would catch a shard reading half-merged
    // state, a thread-dependent RNG stream, or an unordered barrier. The
    // pin at one thread keeps a change that moved the sharded kernel's
    // bytes at every thread count alike from passing.
    golden::check_at(&["sharded/ten_k"], &[2, 8]);
}

#[test]
fn sharded_streams_byte_identical_for_every_matchmaker() {
    // All five matchmaker variants on the sharded kernel: matchmaking
    // itself stays on the barrier (it is global by design), but each
    // variant steers different jobs onto different nodes and therefore
    // different shards — no variant gets a determinism discount.
    golden::check_at(&["sharded/forty"], &[2, 8]);
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
                    let engine = sharded(forty(Algorithm::RnTree, 6007 ^ (r + 1)));
                    capture(engine, StreamFormat::Binary).bytes
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
