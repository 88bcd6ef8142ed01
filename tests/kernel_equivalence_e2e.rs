//! Kernel-equivalence differential harness: the million-node simulation
//! kernel (arena state, calendar-queue scheduler, lazy overlay bootstrap)
//! claims to be a pure performance change. This suite holds it to that
//! claim the strong way — for **all five matchmaker variants**, both the
//! JSONL and the binary event stream of a churny, lossy run must be
//! byte-identical to the goldens pinned before the kernel landed, the two
//! formats must carry exactly the same records, re-running the same seed
//! must reproduce the same bytes, and the streams must not change with
//! the thread count of the surrounding pool.
//!
//! The JSONL constants are the same pre-refactor goldens pinned in
//! `stream_golden_e2e.rs`; the binary constants were harvested from the
//! same runs. Re-pinning either is only legitimate when a PR deliberately
//! changes the event stream and says so.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

mod common;

use dgrid::core::{
    BinaryObserver, ChurnConfig, Engine, EngineConfig, FaultPlan, JsonlObserver, StreamFormat,
};
use dgrid::harness::Algorithm;
use dgrid::workloads::{paper_scenario, PaperScenario};

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

/// One traced run under churn and message loss — the identical
/// order-sensitive configuration the golden-stream and
/// parallel-determinism suites use, in the requested stream format.
fn stream(alg: Algorithm, seed: u64, format: StreamFormat) -> Vec<u8> {
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
    Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(observer)
    .run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

const SEED: u64 = 1993;

/// `(variant, jsonl fnv1a, jsonl len, binary fnv1a, binary len)` — the
/// JSONL pair is the pre-KeyRouter golden from `stream_golden_e2e.rs`;
/// the binary pair was harvested from the same pre-kernel runs.
const PINNED: &[(Algorithm, u64, usize, u64, usize)] = &[
    (
        Algorithm::RnTree,
        0xc27b93d5c4666b3a,
        44_666,
        0xdac90070a29c074a,
        5_957,
    ),
    (
        Algorithm::Can,
        0xcd99c1924fe56479,
        44_802,
        0xf21f867a2da3eddf,
        5_813,
    ),
    (
        Algorithm::CanPush,
        0xcb962c1e160b0a09,
        44_655,
        0x0b4a_b684_4e07_09b4,
        5_871,
    ),
    (
        Algorithm::CanNoVirtualDim,
        0xeedac32629bc6f6b,
        44_707,
        0x93ee017ba33679bf,
        5_786,
    ),
    (
        Algorithm::Central,
        0x659c34daabb90735,
        44_289,
        0xb3bd041fabd1eb5e,
        5_751,
    ),
];

#[test]
fn all_variants_reproduce_pinned_jsonl_and_binary_goldens() {
    for &(alg, jh, jl, bh, bl) in PINNED {
        let jsonl = stream(alg, SEED, StreamFormat::Jsonl);
        assert_eq!(
            (fnv1a(&jsonl), jsonl.len()),
            (jh, jl),
            "{}: JSONL stream drifted from the pre-kernel golden \
             (got hash {:#x}, len {})",
            alg.label(),
            fnv1a(&jsonl),
            jsonl.len()
        );
        let bin = stream(alg, SEED, StreamFormat::Binary);
        assert_eq!(
            (fnv1a(&bin), bin.len()),
            (bh, bl),
            "{}: binary stream drifted from the pre-kernel golden \
             (got hash {:#x}, len {})",
            alg.label(),
            fnv1a(&bin),
            bin.len()
        );
    }
}

/// The two formats are independent observers over the same run — if the
/// kernel were only *mostly* deterministic, they would be the first place
/// a divergence shows. Decoding both must yield identical record
/// sequences for every variant.
#[test]
fn binary_and_jsonl_streams_carry_identical_records() {
    for &(alg, ..) in PINNED {
        let jsonl = stream(alg, SEED, StreamFormat::Jsonl);
        let bin = stream(alg, SEED, StreamFormat::Binary);
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
/// bytes: the calendar queue's bucket layout, the arenas' slot assignment,
/// and the lazy overlay snapshots all depend only on the seed, never on
/// allocator addresses or iteration order of hashed containers.
#[test]
fn reruns_are_byte_identical_across_seeds() {
    for seed in [SEED, 7, 424_242] {
        for &(alg, ..) in PINNED {
            let first = stream(alg, seed, StreamFormat::Jsonl);
            let second = stream(alg, seed, StreamFormat::Jsonl);
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
/// every variant's stream at 2 threads is byte-identical to 1 thread.
/// This is the test the CI `kernel-equivalence` job runs.
#[test]
fn streams_byte_identical_at_one_and_two_threads() {
    use rayon::prelude::*;
    use rayon::Pool;

    let replicated = |threads: usize| -> Vec<Vec<u8>> {
        Pool::install(threads, || {
            (0..PINNED.len())
                .into_par_iter()
                .map(|i| stream(PINNED[i].0, SEED, StreamFormat::Binary))
                .collect()
        })
    };
    let baseline = replicated(1);
    let two = replicated(2);
    for (i, &(alg, ..)) in PINNED.iter().enumerate() {
        assert_eq!(
            two[i],
            baseline[i],
            "{}: 2-thread stream diverged from sequential",
            alg.label()
        );
    }
}

/// The central matchmaker on the sharded kernel, sized so its scan has
/// work to rank: 300 nodes (several 64-node words of the node table) at
/// full offered load under churn. Shards mutate checked-out node copies and
/// commit them back between the barrier-phase matchmaking calls, so this is
/// the run in which the matchmaker reads queues the sharded kernel wrote.
fn central_sharded_stream(format: StreamFormat) -> Vec<u8> {
    let workload = paper_scenario(PaperScenario::MixedLight, 300, 3_000, SEED);
    let cfg = EngineConfig {
        seed: SEED,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(10_000.0),
        rejoin_after_secs: Some(300.0),
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
        Algorithm::Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(observer);
    engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
    engine.run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

/// `(format, fnv1a, byte length)` of [`central_sharded_stream`], recorded
/// on the commit before the central scan moved onto the node table's
/// columns.
const CENTRAL_SHARDED_PINNED: &[(StreamFormat, u64, usize)] = &[
    (StreamFormat::Jsonl, 0x3a1f5c3b99b58c21, 1_152_923),
    (StreamFormat::Binary, 0x43de4a46c870e358, 158_364),
];

#[test]
fn central_on_the_sharded_kernel_reproduces_pinned_goldens_at_one_and_two_threads() {
    use rayon::Pool;
    for &(format, hash, len) in CENTRAL_SHARDED_PINNED {
        for threads in [1, 2] {
            let bytes = Pool::install(threads, || central_sharded_stream(format));
            assert_eq!(
                (fnv1a(&bytes), bytes.len()),
                (hash, len),
                "central, sharded, {threads} thread(s), {format:?}: stream drifted \
                 from the pinned bytes (got hash {:#x}, len {})",
                fnv1a(&bytes),
                bytes.len()
            );
        }
    }
}

/// The JSONL stream of one run on the sharded kernel, followed by its
/// time series as JSON when the run sampled one. The arrivals reach the
/// windowed loop through `peek_time` and `drain_window` only.
fn sharded_with_series(mut engine: Engine) -> Vec<u8> {
    let buf = SharedBuf::default();
    engine.set_observer(Box::new(JsonlObserver::new(buf.clone())));
    engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
    let report = engine.run();
    let mut bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    if let Some(ts) = &report.timeseries {
        let json = serde_json::to_string(ts).expect("time series serializes");
        bytes.extend_from_slice(json.as_bytes());
    }
    bytes
}

/// `(fnv1a, byte length)` of [`common::reversed_blocks_engine`] and
/// [`common::t0_pileup_engine`] on the sharded kernel, recorded on the
/// commit before the event queue took the arrival stream as a sorted run.
const SHARDED_REVERSED_BLOCKS_PINNED: (u64, usize) = (0xd5e4276c3852cb21, 44_826);
const SHARDED_T0_PILEUP_PINNED: (u64, usize) = (0x0600bf1aceaa14e8, 45_179);

#[test]
fn out_of_order_and_t0_arrivals_on_the_sharded_kernel_reproduce_pinned_goldens() {
    use rayon::Pool;
    type Build = fn(u64) -> Engine;
    let runs: [(&str, Build, (u64, usize)); 2] = [
        (
            "reversed blocks",
            common::reversed_blocks_engine,
            SHARDED_REVERSED_BLOCKS_PINNED,
        ),
        (
            "t = 0 pile-up",
            common::t0_pileup_engine,
            SHARDED_T0_PILEUP_PINNED,
        ),
    ];
    for (name, build, pinned) in runs {
        for threads in [1, 2] {
            let bytes = Pool::install(threads, || sharded_with_series(build(SEED)));
            assert_eq!(
                (fnv1a(&bytes), bytes.len()),
                pinned,
                "{name}, sharded, {threads} thread(s): stream drifted from the \
                 pinned bytes (got hash {:#x}, len {})",
                fnv1a(&bytes),
                bytes.len()
            );
        }
    }
}

/// Harvest helper for deliberate re-pins: `cargo test -q --test
/// kernel_equivalence_e2e -- --ignored --nocapture print_kernel_goldens`.
#[test]
#[ignore]
fn print_kernel_goldens() {
    for &(alg, ..) in PINNED {
        let jsonl = stream(alg, SEED, StreamFormat::Jsonl);
        let bin = stream(alg, SEED, StreamFormat::Binary);
        println!(
            "    (Algorithm::{alg:?}, {:#x}, {}, {:#x}, {}),",
            fnv1a(&jsonl),
            jsonl.len(),
            fnv1a(&bin),
            bin.len()
        );
    }
}
