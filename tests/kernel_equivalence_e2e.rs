//! Kernel-equivalence differential harness: the million-node simulation
//! kernel (id-indexed state, radix-heap scheduler, lazy overlay bootstrap)
//! claims to be a pure performance change. This suite holds it to that
//! claim the strong way — for **all five matchmaker variants**, both the
//! JSONL and the binary event stream of a churny, lossy run must be
//! byte-identical to the goldens pinned before the kernel landed (the
//! `forty` rows of the registry in `common/golden.rs`), the two formats
//! must carry exactly the same records, re-running the same seed must
//! reproduce the same bytes, and the streams must not change with the
//! thread count of the surrounding pool.

mod common;

use common::golden::{self, capture, forty, FORTY, SEED};
use common::pin::Pin;
use dgrid::core::StreamFormat;

#[test]
fn all_variants_reproduce_pinned_jsonl_and_binary_goldens() {
    golden::check(&["forty"]);
}

/// The two formats are independent observers over the same run — if the
/// kernel were only *mostly* deterministic, they would be the first place
/// a divergence shows. Decoding both must yield identical record
/// sequences for every variant.
#[test]
fn binary_and_jsonl_streams_carry_identical_records() {
    for alg in FORTY {
        let jsonl = capture(forty(alg, SEED), StreamFormat::Jsonl).bytes;
        let bin = capture(forty(alg, SEED), StreamFormat::Binary).bytes;
        let bin_records = dgrid::core::decode_stream(&bin).expect("binary stream decodes");
        let jsonl_records: Vec<_> = std::str::from_utf8(&jsonl)
            .expect("jsonl is utf-8")
            .lines()
            .filter_map(|l| dgrid::core::parse_jsonl_line(l).expect("golden line parses"))
            .collect();
        assert_eq!(
            bin_records,
            jsonl_records,
            "{}: binary and JSONL observers disagree on the run",
            alg.label()
        );
    }
}

/// Re-running the same seed in the same process must reproduce the same
/// bytes: the event queue's bucket layout, the job table's insertion order,
/// and the lazy overlay snapshots all depend only on the seed, never on
/// allocator addresses or iteration order of hashed containers.
#[test]
fn reruns_are_byte_identical_across_seeds() {
    for seed in [SEED, 7, 424_242] {
        for alg in FORTY {
            let first = capture(forty(alg, seed), StreamFormat::Jsonl).bytes;
            let second = capture(forty(alg, seed), StreamFormat::Jsonl).bytes;
            assert_eq!(
                first,
                second,
                "{}: seed {seed} did not reproduce itself",
                alg.label()
            );
        }
    }
}

/// The kernel must be oblivious to the surrounding work-stealing pool:
/// every variant's binary stream run on a 2-thread pool is byte-identical
/// to its `forty` row, pinned at one thread. This is the test the CI
/// `kernel-equivalence` job runs.
#[test]
fn streams_byte_identical_at_one_and_two_threads() {
    use rayon::prelude::*;
    use rayon::Pool;

    let two: Vec<Vec<u8>> = Pool::install(2, || {
        FORTY
            .into_par_iter()
            .map(|alg| capture(forty(alg, SEED), StreamFormat::Binary).bytes)
            .collect()
    });
    for (alg, bytes) in FORTY.into_iter().zip(two) {
        let row = golden::row(&format!("forty/{}", alg.label()), StreamFormat::Binary);
        assert_eq!(
            Pin::of(&bytes),
            row.pin,
            "{}: 2-thread stream diverged from sequential",
            row.id()
        );
    }
}

/// Central on the sharded kernel, sized so its scan has work to rank.
/// Shards mutate checked-out node copies and commit them back between the
/// barrier-phase matchmaking calls, so this is the run in which the
/// matchmaker reads queues the sharded kernel wrote.
#[test]
fn central_on_the_sharded_kernel_reproduces_pinned_goldens_at_one_and_two_threads() {
    golden::check_at(&["sharded/central_churn"], &[2]);
}

/// The arrivals reach the windowed loop through `peek_time` and
/// `drain_window` only.
#[test]
fn out_of_order_and_t0_arrivals_on_the_sharded_kernel_reproduce_pinned_goldens() {
    golden::check_at(&["sharded/reversed_blocks", "sharded/t0_pileup"], &[2]);
}

#[test]
fn dag_and_owner_departure_runs_on_the_sharded_kernel_reproduce_pinned_goldens() {
    golden::check_at(&["sharded/dag", "sharded/owner_departure"], &[2]);
}
