//! Pins for the paths that membership churn and leases drive: the RN-Tree
//! index kept up with joins and departures on every substrate, and the
//! lease-expiry clock, on both kernels and cut short by the horizon.
//!
//! Every constant was recorded on the commit before the RN-Tree index was
//! refreshed in place and a leased job kept one pending expiry event; both
//! changes claim to move host time only, so none of these bytes may move.
//! Re-pinning is only legitimate when a change deliberately alters the
//! simulation and says so.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use dgrid::core::{
    ChurnConfig, Engine, EngineConfig, FaultPlan, JsonlObserver, PlacementPolicy, SimReport,
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const SEED: u64 = 4_111;

/// Lease settings of the leased runs: a renewal every 30 s and an expiry
/// bound of 130 s, so every live lease has four renewals in flight within
/// one bound.
fn leased_cfg(max_sim_secs: f64) -> EngineConfig {
    EngineConfig {
        seed: SEED,
        max_sim_secs,
        lease_ttl_secs: Some(120.0),
        lease_renew_secs: 30.0,
        lease_grace_secs: 10.0,
        placement: Some(PlacementPolicy::LoadAware),
        ..EngineConfig::default()
    }
}

/// A leased RN-Tree run over Chord under churn and 2 % loss on 300 nodes,
/// its JSONL stream and report.
fn leased_churn_engine(max_sim_secs: f64) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 300, 2_400, SEED);
    let churn = ChurnConfig {
        mttf_secs: Some(20_000.0),
        rejoin_after_secs: Some(600.0),
        graceful_fraction: 0.5,
    };
    Engine::new(
        leased_cfg(max_sim_secs),
        churn,
        Algorithm::RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.02))
}

fn streamed(mut engine: Engine) -> (Vec<u8>, SimReport) {
    let buf = SharedBuf::default();
    engine.set_observer(Box::new(JsonlObserver::new(buf.clone())));
    let report = engine.run();
    let bytes = buf.0.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    (bytes, report)
}

/// The timestamps of the stream's last `failed` lines, each a `Failed`:
/// the horizon sweep's, which fails every open job at the makespan.
fn horizon_failure_times(stream: &[u8], failed: u64) -> Vec<u64> {
    let text = std::str::from_utf8(stream).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len() - failed as usize..]
        .iter()
        .map(|line| {
            assert!(line.contains("\"Failed\""), "{line}: not a horizon failure");
            let t = line
                .strip_prefix("{\"t_ns\":")
                .and_then(|rest| rest.split(',').next())
                .expect("a line opens with its timestamp");
            t.parse().expect("t_ns is an integer")
        })
        .collect()
}

/// Horizons that cut [`leased_churn_engine`] while leases still renew: jobs
/// are still arriving at the first and still queued at the last.
const HORIZONS: [f64; 4] = [400.0, 555.5, 701.25, 900.0];

/// `(stream fnv1a, stream length, makespan_secs bits, jobs failed, the
/// horizon sweep's t_ns)` of [`leased_churn_engine`] at each of
/// [`HORIZONS`].
const LEASED_HORIZON_PINNED: [(u64, usize, u64, u64, u64); 4] = [
    (
        0x4fe6_872f_53ce_14f4,
        516_208,
        0x4078_fff8_baaa_9c87,
        1_556,
        399_998_224_894,
    ),
    (
        0xca07_d3d4_a6e6_35c4,
        662_093,
        0x4081_5bbd_8919_a246,
        1_187,
        555_467_546_654,
    ),
    (
        0x56bb_4886_61cc_96ba,
        806_431,
        0x4085_e9d5_f7a8_42aa,
        807,
        701_229_476_275,
    ),
    (
        0xdaf8_a3bb_6195_ec9b,
        906_625,
        0x408c_2000_0000_0000,
        329,
        900_000_000_000,
    ),
];

/// A run cut by `max_sim_secs` ends at the last event it processed before
/// the horizon, and the horizon sweep fails every open job at that instant.
/// Lease-expiry events that find their lease renewed do nothing, but they
/// are events: the makespan and the sweep's timestamps count them.
#[test]
fn leased_runs_cut_by_the_horizon_keep_their_makespan_and_stream() {
    for (&horizon, &pinned) in HORIZONS.iter().zip(&LEASED_HORIZON_PINNED) {
        let (bytes, report) = streamed(leased_churn_engine(horizon));
        assert!(
            report.jobs_failed > 0,
            "the horizon at {horizon} s cuts jobs"
        );
        assert!(report.lease_renewals > 0, "leases renew before {horizon} s");
        assert!(report.makespan_secs <= horizon);
        let swept = horizon_failure_times(&bytes, report.jobs_failed);
        assert!(swept.windows(2).all(|w| w[0] == w[1]), "one sweep instant");
        let got = (
            fnv1a(&bytes),
            bytes.len(),
            report.makespan_secs.to_bits(),
            report.jobs_failed,
            swept[0],
        );
        assert_eq!(
            got, pinned,
            "leased run cut at {horizon} s drifted from its pin (got {got:#x?})"
        );
    }
}

/// RN-Tree over `alg`'s substrate on 1 000 nodes under churn fast enough to
/// rebuild the index hundreds of times, and 2 % loss.
fn churned_engine(alg: Algorithm, jobs: usize, mttf_secs: f64, max_sim_secs: f64) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 1_000, jobs, SEED);
    let cfg = EngineConfig {
        seed: SEED,
        max_sim_secs,
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(mttf_secs),
        rejoin_after_secs: Some(300.0),
        graceful_fraction: 0.5,
    };
    Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.02))
}

/// `(stream fnv1a, stream length, node departures)` of
/// [`churned_engine`] on Pastry and on Tapestry.
const PASTRY_CHURN_PINNED: (u64, usize, u64) = (0x2383_d138_d1de_94b2, 822_564, 344);
const TAPESTRY_CHURN_PINNED: (u64, usize, u64) = (0x1923_34af_bd91_3225, 483_498, 701);

/// Pastry's and Tapestry's ownership put no order between a node's rank
/// and its parent's, so their trees are folded in depth-first order; every
/// index rebuild through this churn must match the one before it.
#[test]
fn churned_pastry_and_tapestry_streams_match_their_pins() {
    let runs = [
        (
            Algorithm::RnTreePastry,
            churned_engine(Algorithm::RnTreePastry, 2_000, 4_000.0, 3_000_000.0),
            PASTRY_CHURN_PINNED,
        ),
        (
            Algorithm::RnTreeTapestry,
            churned_engine(Algorithm::RnTreeTapestry, 1_000, 4_000.0, 3_000.0),
            TAPESTRY_CHURN_PINNED,
        ),
    ];
    for (alg, engine, pinned) in runs {
        let (bytes, report) = streamed(engine);
        let departures = report.node_failures + report.graceful_leaves;
        assert!(
            departures >= 100,
            "{}: {departures} departures",
            alg.label()
        );
        let got = (fnv1a(&bytes), bytes.len(), departures);
        assert_eq!(
            got,
            pinned,
            "{}: churned stream drifted from its pin (got {got:#x?})",
            alg.label()
        );
    }
}

/// `(stream fnv1a, stream length, makespan_secs bits)` of
/// [`leased_churn_engine`] on the sharded kernel, at one and two threads.
const LEASED_SHARDED_PINNED: (u64, usize, u64) =
    (0xdc34_2590_2a95_e6a7, 925_820, 0x409c_2438_a1a8_05ee);

/// The sharded kernel runs the lease handlers at its barrier, the same
/// ones the sequential kernel runs; its windows open at the next pending
/// event, lease expiries included.
#[test]
fn a_leased_run_on_the_sharded_kernel_matches_its_pin_at_one_and_two_threads() {
    use rayon::Pool;
    for threads in [1, 2] {
        let (bytes, report) = Pool::install(threads, || {
            let mut engine = leased_churn_engine(3_000_000.0);
            engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
            streamed(engine)
        });
        assert!(report.lease_renewals > 0 && report.lease_expiries > 0);
        let got = (fnv1a(&bytes), bytes.len(), report.makespan_secs.to_bits());
        assert_eq!(
            got, LEASED_SHARDED_PINNED,
            "leased, sharded, {threads} thread(s): stream drifted from its pin \
             (got {got:#x?})"
        );
    }
}

/// A leased run whose expiry bound (20 ms) is shorter than the sharded
/// kernel's window (the 30 ms one-hop floor), renewing every 10 ms under
/// 2 % loss: a window holds several arms of one job, and an expiry that a
/// renewal superseded has its successor fall due inside the same window.
fn short_lease_engine() -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 400, 40, SEED);
    let cfg = EngineConfig {
        seed: SEED,
        max_sim_secs: 12.0,
        lease_ttl_secs: Some(0.02),
        lease_renew_secs: 0.01,
        lease_grace_secs: 0.0,
        placement: Some(PlacementPolicy::Hash),
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        ChurnConfig::none(),
        Algorithm::RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.02))
}

/// `(stream fnv1a, stream length, makespan_secs bits)` of
/// [`short_lease_engine`] on the sharded kernel.
const SHORT_LEASE_SHARDED_PINNED: (u64, usize, u64) =
    (0xe1f7_3759_c024_787c, 72_194, 0x4027_ffc1_4947_2cf6);

#[test]
fn a_lease_shorter_than_a_window_on_the_sharded_kernel_matches_its_pin() {
    use rayon::Pool;
    for threads in [1, 2] {
        let (bytes, report) = Pool::install(threads, || {
            let mut engine = short_lease_engine();
            engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
            streamed(engine)
        });
        assert!(report.lease_renewals > 0 && report.lease_expiries > 0);
        let got = (fnv1a(&bytes), bytes.len(), report.makespan_secs.to_bits());
        assert_eq!(
            got, SHORT_LEASE_SHARDED_PINNED,
            "short lease, sharded, {threads} thread(s): stream drifted from its pin \
             (got {got:#x?})"
        );
    }
}
