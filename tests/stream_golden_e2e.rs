//! Golden-stream regression: the per-seed JSONL event stream of every
//! pre-existing matchmaker variant is pinned by content hash. A refactor
//! that claims to be behavior-preserving — like the `KeyRouter` substrate
//! extraction — must not move a single byte of these streams.
//!
//! The pinned constants were recorded from the tree *before* the refactor
//! landed; re-pinning is only legitimate when a PR deliberately changes the
//! event stream (new event kind, different RNG draw order) and says so.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::rc::Rc;

mod common;

use dgrid::core::{
    parse_jsonl_line, ChurnConfig, Engine, EngineConfig, EventRecord, FaultPlan, JsonlObserver,
    SimReport, TraceEvent,
};
use dgrid::harness::Algorithm;
use dgrid::sim::SimTime;
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

/// One traced run under churn and message loss — the same order-sensitive
/// configuration the parallel-determinism e2e tests use.
fn stream(alg: Algorithm, seed: u64) -> Vec<u8> {
    stream_with(alg, seed, EngineConfig::default())
}

fn stream_with(alg: Algorithm, seed: u64, base_cfg: EngineConfig) -> Vec<u8> {
    let workload = paper_scenario(PaperScenario::MixedLight, 40, 120, seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        ..base_cfg
    };
    let churn = ChurnConfig {
        mttf_secs: Some(40_000.0),
        rejoin_after_secs: Some(900.0),
        graceful_fraction: 0.25,
    };
    let buf = SharedBuf::default();
    Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(Box::new(JsonlObserver::new(buf.clone())))
    .run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

/// One traced run at kernel scale: 10,000 nodes under churn and message
/// loss, with the sim horizon pulled in so the case stays test-suite
/// cheap. This is the size where the id-indexed, calendar-queue kernel carries
/// the run — a keyed-map kernel survives the 40-node goldens unnoticed.
fn ten_k_stream(alg: Algorithm, seed: u64) -> Vec<u8> {
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
    Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(Box::new(JsonlObserver::new(buf.clone())))
    .run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

const SEED: u64 = 1993;

/// `(variant, fnv1a, byte length)` recorded before the KeyRouter refactor.
const PINNED: &[(Algorithm, u64, usize)] = &[
    (Algorithm::RnTree, 0xc27b93d5c4666b3a, 44_666),
    (Algorithm::Can, 0xcd99c1924fe56479, 44_802),
    (Algorithm::CanPush, 0xcb962c1e160b0a09, 44_655),
    (Algorithm::CanNoVirtualDim, 0xeedac32629bc6f6b, 44_707),
    (Algorithm::Central, 0x659c34daabb90735, 44_289),
];

#[test]
fn legacy_variant_streams_match_pinned_hashes() {
    for &(alg, hash, len) in PINNED {
        let bytes = stream(alg, SEED);
        assert_eq!(
            (fnv1a(&bytes), bytes.len()),
            (hash, len),
            "{}: event stream drifted from the pinned pre-refactor bytes \
             (got hash {:#x}, len {})",
            alg.label(),
            fnv1a(&bytes),
            bytes.len()
        );
    }
}

/// `lease_ttl = ∞` is the documented spelling for "leases that never
/// expire", which must degenerate to reassign-on-death recovery — not
/// approximately, but *byte-for-byte*: no lease event is scheduled, no RNG
/// stream advances, and every pinned golden stream stays identical.
#[test]
fn infinite_ttl_reproduces_reassign_on_death_streams_byte_identically() {
    use dgrid::core::PlacementPolicy;
    for &(alg, hash, len) in PINNED {
        let cfg = EngineConfig {
            lease_ttl_secs: Some(f64::INFINITY),
            lease_renew_secs: 15.0,
            lease_grace_secs: 10.0,
            placement: Some(PlacementPolicy::LoadAware),
            ..EngineConfig::default()
        };
        let bytes = stream_with(alg, SEED, cfg);
        assert_eq!(
            (fnv1a(&bytes), bytes.len()),
            (hash, len),
            "{}: lease_ttl = inf must leave the reassign-on-death stream \
             byte-identical (got hash {:#x}, len {})",
            alg.label(),
            fnv1a(&bytes),
            bytes.len()
        );
    }
}

/// The binary format must be a *lossless* re-encoding of the JSONL stream:
/// JSONL → binary → JSONL reproduces every pinned golden stream
/// byte-for-byte, for every matchmaker variant. The binary intermediate
/// must also be strictly smaller, and re-encoding the decoded records must
/// reproduce the identical binary bytes (encode ∘ decode is the identity
/// on canonical streams).
#[test]
fn golden_streams_round_trip_through_binary_byte_identically() {
    use dgrid::core::{binary_to_jsonl, decode_stream, encode_events, jsonl_to_binary};
    for &(alg, hash, len) in PINNED {
        let jsonl = stream(alg, SEED);
        assert_eq!(
            (fnv1a(&jsonl), jsonl.len()),
            (hash, len),
            "{}: precondition",
            alg.label()
        );
        let text = std::str::from_utf8(&jsonl).expect("jsonl is utf-8");
        let bin = jsonl_to_binary(text).expect("golden stream encodes");
        assert!(
            bin.len() < jsonl.len(),
            "{}: binary ({} bytes) must be strictly smaller than JSONL ({} bytes)",
            alg.label(),
            bin.len(),
            jsonl.len()
        );
        let back = binary_to_jsonl(&bin).expect("binary stream decodes");
        assert_eq!(
            back.as_bytes(),
            &jsonl[..],
            "{}: JSONL -> binary -> JSONL must be byte-identical",
            alg.label()
        );
        let records = decode_stream(&bin).expect("binary stream decodes to records");
        assert_eq!(
            encode_events(&records),
            bin,
            "{}: decode -> encode must reproduce the binary bytes",
            alg.label()
        );
    }
}

/// `(variant, fnv1a, byte length)` of the 10,000-node runs. RN-Tree exercises
/// the overlay-backed path, Central the overlay-free one; both were pinned
/// when the kernel landed. The RN-Tree rows over Pastry and Tapestry were
/// recorded at `886afc4`, before the three substrates came to share one
/// membership type: under churn and loss these runs are where an overlay
/// flips between settled and unsettled both ways.
const PINNED_10K: &[(Algorithm, u64, usize)] = &[
    (Algorithm::RnTree, 0xd04004fd7cc07c7d, 762_263),
    (Algorithm::Central, 0xdab563c9363b4965, 751_837),
    (Algorithm::RnTreePastry, 0xc4cef2f1ac3a173d, 762_770),
    (Algorithm::RnTreeTapestry, 0x035c16b2cf754b3a, 775_751),
];

#[test]
fn ten_thousand_node_streams_match_pinned_hashes() {
    for &(alg, hash, len) in PINNED_10K {
        let bytes = ten_k_stream(alg, SEED);
        assert_eq!(
            (fnv1a(&bytes), bytes.len()),
            (hash, len),
            "{}: 10k-node event stream drifted from the pinned bytes \
             (got hash {:#x}, len {})",
            alg.label(),
            fnv1a(&bytes),
            bytes.len()
        );
    }
}

/// The central matchmaker where its scan has something to rank: 300 nodes
/// (the node table spans several 64-node words) offered 3 000 jobs at full
/// load, so queues build and ties on exactly equal committed work decide
/// placements, while ~40 crashes and rejoins clear and refill slots
/// mid-run. The 40-node rows above fit one word and mostly see idle ties.
fn central_churn_stream(seed: u64) -> Vec<u8> {
    let workload = paper_scenario(PaperScenario::MixedLight, 300, 3_000, seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(10_000.0),
        rejoin_after_secs: Some(300.0),
        graceful_fraction: 0.25,
    };
    let buf = SharedBuf::default();
    Engine::new(
        cfg,
        churn,
        Algorithm::Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
    .with_observer(Box::new(JsonlObserver::new(buf.clone())))
    .run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    bytes
}

/// `(fnv1a, byte length)` of [`central_churn_stream`], recorded on the
/// commit before the central scan moved onto the node table's columns.
const CENTRAL_CHURN_PINNED: (u64, usize) = (0xb81035d9d1d95356, 1_155_299);

#[test]
fn central_stream_under_churn_matches_pinned_hash() {
    let bytes = central_churn_stream(SEED);
    assert_eq!(
        (fnv1a(&bytes), bytes.len()),
        CENTRAL_CHURN_PINNED,
        "central under churn: event stream drifted from the pinned bytes \
         (got hash {:#x}, len {})",
        fnv1a(&bytes),
        bytes.len()
    );
    let text = std::str::from_utf8(&bytes).expect("jsonl is utf-8");
    for kind in ["NodeDown", "NodeUp", "RunRecovery"] {
        assert!(text.contains(kind), "the run must exercise {kind}");
    }
}

/// The JSONL stream of one run, followed by its time series as JSON when
/// the run sampled one.
fn traced_with_series(engine: Engine) -> Vec<u8> {
    let buf = SharedBuf::default();
    let report = engine
        .with_observer(Box::new(JsonlObserver::new(buf.clone())))
        .run();
    let mut bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    if let Some(ts) = &report.timeseries {
        let json = serde_json::to_string(ts).expect("time series serializes");
        bytes.extend_from_slice(json.as_bytes());
    }
    bytes
}

/// `(fnv1a, byte length)` of [`common::reversed_blocks_engine`] and
/// [`common::t0_pileup_engine`], recorded on the commit before the event
/// queue took the arrival stream as a sorted run.
const REVERSED_BLOCKS_PINNED: (u64, usize) = (0x8fa048e8abf2b782, 44_382);
const T0_PILEUP_PINNED: (u64, usize) = (0x8adc34920eeb67d0, 44_982);

#[test]
fn out_of_order_and_t0_arrival_streams_match_pinned_hashes() {
    let runs = [
        (
            "reversed blocks",
            common::reversed_blocks_engine(SEED),
            REVERSED_BLOCKS_PINNED,
        ),
        (
            "t = 0 pile-up",
            common::t0_pileup_engine(SEED),
            T0_PILEUP_PINNED,
        ),
    ];
    for (name, engine, pinned) in runs {
        let bytes = traced_with_series(engine);
        assert_eq!(
            (fnv1a(&bytes), bytes.len()),
            pinned,
            "{name}: stream drifted from the pinned bytes (got hash {:#x}, len {})",
            fnv1a(&bytes),
            bytes.len()
        );
    }
}

/// The JSONL stream and the report of one run.
fn traced(engine: Engine) -> (Vec<u8>, SimReport) {
    let buf = SharedBuf::default();
    let report = engine
        .with_observer(Box::new(JsonlObserver::new(buf.clone())))
        .run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    (bytes, report)
}

/// `(fnv1a, byte length)` of [`common::dag_engine`] and
/// [`common::owner_departure_engine`], recorded on the commit before the
/// DAG hold moved out of the job record and the owner sets became per-node
/// lists.
const DAG_PINNED: (u64, usize) = (0x9ef41d4be839ca33, 46_885);
const OWNER_DEPARTURE_PINNED: (u64, usize) = (0x86bcfa2d0b7567a3, 158_600);

#[test]
fn dag_stream_under_churn_matches_pinned_hash() {
    let (bytes, report) = traced(common::dag_engine(SEED));
    assert_eq!(
        (fnv1a(&bytes), bytes.len()),
        DAG_PINNED,
        "DAG under churn: stream drifted from the pinned bytes (got hash {:#x}, len {})",
        fnv1a(&bytes),
        bytes.len()
    );
    assert_eq!(report.sandbox_kills, 1, "the runaway parent is killed");
    assert_eq!(report.dependency_failures, 4, "its descendants cascade");
    assert!(report.node_failures > 0, "the run is under churn");
    assert_eq!(report.unknown_job_events, 0);

    // When each child was first submitted, against its nominal arrival.
    let text = std::str::from_utf8(&bytes).expect("jsonl is utf-8");
    let mut first_submit: HashMap<u64, u64> = HashMap::new();
    for line in text.lines() {
        let rec = parse_jsonl_line(line).expect("golden line parses");
        if let Some(EventRecord {
            t_ns,
            event: TraceEvent::Submitted { job, .. },
        }) = rec
        {
            first_submit.entry(job.0).or_insert(t_ns);
        }
    }
    let workload = common::dag_workload(SEED);
    let nominal = |id: u64| {
        let sub = workload.submissions.iter().find(|s| s.profile.id.0 == id);
        SimTime::from_secs_f64(sub.expect("DAG job is in the workload").arrival_secs).as_nanos()
    };
    for child in [8, 9, 30, 13, 14, 15] {
        assert!(
            first_submit[&child] > nominal(child),
            "job {child} is released after its nominal arrival"
        );
    }
    for child in [110, 111] {
        assert_eq!(
            first_submit[&child],
            nominal(child),
            "job {child} is released before its nominal arrival and waits for it"
        );
    }
    for child in [21, 22, 100, 40] {
        assert!(
            !first_submit.contains_key(&child),
            "job {child} fails held, never submitted"
        );
    }
}

#[test]
fn owner_departure_stream_matches_pinned_hash() {
    let (bytes, report) = traced(common::owner_departure_engine(SEED));
    assert_eq!(
        (fnv1a(&bytes), bytes.len()),
        OWNER_DEPARTURE_PINNED,
        "owner departures: stream drifted from the pinned bytes (got hash {:#x}, len {})",
        fnv1a(&bytes),
        bytes.len()
    );
    assert!(report.node_failures > 0);
    assert!(report.spurious_detections > 0);
    // A spurious detection recovers at most one owner, so the surplus is
    // recoveries that a departed owner's list drove.
    assert!(
        report.owner_recoveries > report.spurious_detections,
        "owner recoveries {} must include departures, not only the {} spurious",
        report.owner_recoveries,
        report.spurious_detections
    );
    assert_eq!(report.unknown_job_events, 0);
}

/// Harvest helper for deliberate re-pins of the 10k goldens: `cargo test
/// -q --test stream_golden_e2e -- --ignored --nocapture print_10k_hashes`.
#[test]
#[ignore]
fn print_10k_hashes() {
    for &(alg, ..) in PINNED_10K {
        let bytes = ten_k_stream(alg, SEED);
        println!(
            "    (Algorithm::{alg:?}, {:#x}, {}),",
            fnv1a(&bytes),
            bytes.len()
        );
    }
}

/// Harvest helper for deliberate re-pins: `cargo test -q --test
/// stream_golden_e2e -- --ignored --nocapture print_stream_hashes`.
#[test]
#[ignore]
fn print_stream_hashes() {
    for alg in [
        Algorithm::RnTree,
        Algorithm::Can,
        Algorithm::CanPush,
        Algorithm::CanNoVirtualDim,
        Algorithm::Central,
    ] {
        let bytes = stream(alg, SEED);
        println!(
            "    (Algorithm::{alg:?}, {:#x}, {}),",
            fnv1a(&bytes),
            bytes.len()
        );
    }
}
