//! End-to-end checks on the binary event stream and the streaming-analytics
//! layer against a *live* engine: the bytes a [`BinaryObserver`] writes
//! during a run must decode to exactly the events a [`VecObserver`] saw,
//! and the online percentile sketches fed event-by-event must agree with
//! the post-hoc report percentiles within one log₂ bucket.

use std::cell::RefCell;
use std::rc::Rc;

#[path = "common/pin.rs"]
mod pin;

use dgrid::core::{
    decode_stream, BinaryObserver, ChurnConfig, Engine, EngineConfig, EventKind, EventRecord,
    FaultPlan, SimReport, StreamAnalytics, TraceEvent, VecObserver,
};
use dgrid::harness::Algorithm;
use dgrid::sim::{SimDuration, SimTime};
use dgrid::workloads::{paper_scenario, PaperScenario};
use pin::SharedBuf;

/// A [`VecObserver`] handle that survives the engine consuming it.
#[derive(Clone, Default)]
struct SharedVec(Rc<RefCell<VecObserver>>);

impl dgrid::core::Observer for SharedVec {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.0.borrow_mut().events.push((at, event));
    }
}

/// An analytics handle that survives the engine consuming it.
#[derive(Clone)]
struct SharedAnalytics(Rc<RefCell<StreamAnalytics>>);

impl dgrid::core::Observer for SharedAnalytics {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.0.borrow_mut().feed(at.as_nanos(), &event);
    }
}

fn engine(alg: Algorithm, seed: u64) -> Engine {
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
    Engine::new(
        cfg,
        churn,
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
}

#[test]
fn live_binary_stream_decodes_to_the_observed_events() {
    for alg in [Algorithm::RnTree, Algorithm::CanPush] {
        let vec = SharedVec::default();
        engine(alg, 71).with_observer(Box::new(vec.clone())).run();
        let expected: Vec<EventRecord> = vec
            .0
            .borrow()
            .events
            .iter()
            .map(|&(at, event)| EventRecord {
                t_ns: at.as_nanos(),
                event,
            })
            .collect();
        assert!(!expected.is_empty(), "traced run must emit events");

        let buf = SharedBuf::default();
        engine(alg, 71)
            .with_observer(Box::new(BinaryObserver::new(buf.clone())))
            .run();
        let bytes = buf.take();
        let decoded = decode_stream(&bytes).expect("live binary stream decodes");
        assert_eq!(
            decoded,
            expected,
            "{}: decoded binary stream must equal the in-memory event log",
            alg.label()
        );
    }
}

/// The online sketch percentile must bracket the post-hoc exact percentile
/// within one log₂ bucket (the sketch's resolution guarantee).
fn assert_within_one_bucket(
    metric: &str,
    sketch: &dgrid::sim::telemetry::sketch::QuantileSketch,
    q: f64,
    post_hoc_secs: f64,
) {
    let (lo, hi) = sketch
        .quantile_bounds(q)
        .expect("sketch has samples when the report does");
    let post_ns = (post_hoc_secs * 1e9).round() as u64;
    let lo = lo / 2;
    let hi = hi.saturating_mul(2);
    assert!(
        post_ns >= lo && post_ns <= hi,
        "{metric} p{:.0}: post-hoc {post_ns} ns outside widened sketch bucket [{lo}, {hi}]",
        q * 100.0
    );
}

#[test]
fn online_sketches_match_post_hoc_percentiles_within_one_bucket() {
    for alg in [Algorithm::RnTree, Algorithm::Central] {
        let shared = SharedAnalytics(Rc::new(RefCell::new(StreamAnalytics::new(
            SimDuration::from_secs(60),
            64,
        ))));
        let report: SimReport = engine(alg, 907)
            .with_observer(Box::new(shared.clone()))
            .run();
        let analytics = shared.0.borrow();

        let wait = report.wait_stats.as_ref().expect("report has wait stats");
        assert!(wait.count > 0, "workload must complete jobs");
        assert_eq!(
            analytics.wait_sketch().count(),
            wait.count,
            "{}: online wait sample count must match the report",
            alg.label()
        );
        for (q, post) in [(0.50, wait.p50), (0.95, wait.p95), (0.99, wait.p99)] {
            assert_within_one_bucket("wait", analytics.wait_sketch(), q, post);
        }
        let turn = report
            .turnaround_stats
            .as_ref()
            .expect("report has turnaround stats");
        for (q, post) in [(0.50, turn.p50), (0.95, turn.p95), (0.99, turn.p99)] {
            assert_within_one_bucket("turnaround", analytics.turnaround_sketch(), q, post);
        }
    }
}

#[test]
fn windowed_aggregates_cover_the_run() {
    let shared = SharedAnalytics(Rc::new(RefCell::new(StreamAnalytics::new(
        SimDuration::from_secs(60),
        4096,
    ))));
    let report = engine(Algorithm::RnTree, 907)
        .with_observer(Box::new(shared.clone()))
        .run();
    let analytics = shared.0.borrow();
    let snap = analytics.snapshot();

    // Closed windows plus the open one account for every event exactly once.
    let mut per_kind = [0u64; dgrid::core::WINDOW_COUNTER_ARITY];
    for row in &snap.recent {
        for (k, n) in row.counts.iter().enumerate() {
            per_kind[k] += n;
        }
    }
    for (k, n) in snap.current.iter().enumerate() {
        per_kind[k] += n;
    }
    assert_eq!(per_kind, snap.per_kind, "window rows must partition events");
    assert_eq!(
        per_kind.iter().sum::<u64>(),
        snap.events_total,
        "per-kind totals must sum to the event total"
    );
    assert_eq!(
        snap.per_kind[EventKind::Completed.index()],
        report.jobs_completed,
        "completion counter must match the report"
    );
    // Windows are disjoint, aligned, and strictly increasing.
    let window = snap.window_ns;
    for pair in snap.recent.windows(2) {
        assert!(pair[0].start_ns < pair[1].start_ns, "rows out of order");
        assert_eq!(pair[0].start_ns % window, 0, "row not window-aligned");
    }
    // Every event ever fed landed at or before the snapshot's last time.
    assert!(snap.last_t_ns >= snap.recent.last().map_or(0, |r| r.start_ns));
}
