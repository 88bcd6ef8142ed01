//! End-to-end telemetry: golden-file determinism of the JSONL event stream,
//! exact span/turnaround accounting, zero-impact sampling, and the overlay
//! telemetry hook.

#[path = "common/pin.rs"]
mod pin;

use std::collections::HashMap;

use dgrid::core::{
    parse_jsonl_line, BinaryObserver, ChurnConfig, Engine, EngineConfig, FaultPlan, JobSpan,
    JsonlObserver, Observer, Phase, SimReport, SpanAssembler, SpanOutcome, TraceEvent,
};
use dgrid::harness::Algorithm;
use dgrid::resources::JobId;
use dgrid::sim::telemetry::shared_registry;
use dgrid::sim::{SimDuration, SimTime};
use dgrid::workloads::{paper_scenario, PaperScenario, Workload};
use pin::SharedBuf;

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    }
}

fn engine(alg: Algorithm, workload: &Workload, seed: u64) -> Engine {
    Engine::new(
        cfg(seed),
        ChurnConfig::none(),
        alg.matchmaker(),
        workload.nodes.clone(),
        workload.submissions.clone(),
    )
}

/// Run with a JSONL observer and return (stream bytes, report).
fn traced_run(
    alg: Algorithm,
    workload: &Workload,
    seed: u64,
    plan: FaultPlan,
) -> (Vec<u8>, SimReport) {
    let buf = SharedBuf::default();
    let report = engine(alg, workload, seed)
        .with_fault_plan(plan)
        .with_observer(Box::new(JsonlObserver::new(buf.clone())))
        .run();
    (buf.take(), report)
}

/// The stream's spans, and for each job the instant its closing event
/// names: results at the client for `Completed`, the event's own time for
/// `Failed`.
fn spans_of(bytes: &[u8]) -> (Vec<JobSpan>, HashMap<JobId, SimTime>) {
    let text = std::str::from_utf8(bytes).expect("stream is utf-8");
    let mut assembler = SpanAssembler::new();
    let mut ends = HashMap::new();
    for line in text.lines() {
        let rec = parse_jsonl_line(line)
            .expect("well-formed event line")
            .expect("no blank lines in stream");
        let at = SimTime::ZERO + SimDuration::from_nanos(rec.t_ns);
        match rec.event {
            TraceEvent::Completed { job, results_at } => ends.insert(job, results_at),
            TraceEvent::Failed { job } => ends.insert(job, at),
            _ => None,
        };
        assembler.observe(at, rec.event);
    }
    (assembler.finish(), ends)
}

#[test]
fn jsonl_stream_is_byte_identical_across_runs() {
    let workload = paper_scenario(PaperScenario::MixedLight, 48, 200, 71);
    for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::Central] {
        let (a, _) = traced_run(alg, &workload, 71, FaultPlan::none());
        let (b, _) = traced_run(alg, &workload, 71, FaultPlan::none());
        assert!(!a.is_empty(), "{}: stream must not be empty", alg.label());
        assert_eq!(
            a,
            b,
            "{}: same seed must replay byte-identically",
            alg.label()
        );
    }
}

#[test]
fn span_phase_durations_sum_exactly_to_turnaround() {
    let workload = paper_scenario(PaperScenario::MixedHeavy, 48, 250, 13);
    for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::Central] {
        let (bytes, report) = traced_run(alg, &workload, 13, FaultPlan::none());
        let (spans, ends) = spans_of(&bytes);
        assert_eq!(spans.len() as u64, report.jobs_total);
        let mut completed = 0u64;
        let mut span_turnarounds: Vec<f64> = Vec::new();
        for s in &spans {
            if s.outcome() != SpanOutcome::Completed {
                continue;
            }
            completed += 1;
            let turnaround = s.turnaround().expect("completed span closes");
            // Integer-nanosecond phase segments telescope, so the sum from
            // submission is *exactly* the instant results reach the client.
            assert_eq!(
                s.submitted_at() + turnaround,
                ends[&s.job()],
                "{}: phase durations must sum to turnaround for {}",
                alg.label(),
                s.job()
            );
            span_turnarounds.push(turnaround.as_secs_f64());
        }
        assert_eq!(completed, report.jobs_completed, "{}", alg.label());
        // And the spans' turnarounds are the report's turnarounds.
        let mut reported: Vec<f64> = report.turnaround.samples().to_vec();
        reported.sort_by(f64::total_cmp);
        span_turnarounds.sort_by(f64::total_cmp);
        assert_eq!(span_turnarounds, reported, "{}", alg.label());
    }
}

#[test]
fn span_accounting_stays_exact_under_faults() {
    // Message loss forces retries, recoveries, and resubmissions; the
    // telescoping-sum invariant must hold through all of them.
    let workload = paper_scenario(PaperScenario::MixedLight, 48, 200, 29);
    let plan = FaultPlan::with_loss(0.08).with_partition(500.0, 2_500.0, vec![2, 5, 9]);
    for alg in [Algorithm::RnTree, Algorithm::Can] {
        let (bytes, report) = traced_run(alg, &workload, 29, plan.clone());
        let (spans, ends) = spans_of(&bytes);
        for s in &spans {
            if let Some(turnaround) = s.turnaround() {
                let end = ends[&s.job()];
                assert_eq!(
                    s.submitted_at() + turnaround,
                    end,
                    "{}: {}",
                    alg.label(),
                    s.job()
                );
            }
        }
        // The fault plan actually bit: something was lost and retried.
        assert!(report.messages_lost > 0, "{}", alg.label());
        let recovery_secs: f64 = spans
            .iter()
            .map(|s| s.phase(Phase::Recovery).as_secs_f64())
            .sum();
        let resubmitted: u32 = spans.iter().map(JobSpan::resubmits).sum();
        if resubmitted > 0 {
            assert!(
                recovery_secs > 0.0,
                "{}: resubmissions imply recovery time",
                alg.label()
            );
        }
    }
}

#[test]
fn timeseries_sampling_does_not_change_the_simulation() {
    let workload = paper_scenario(PaperScenario::ClusteredLight, 48, 200, 57);
    for alg in [Algorithm::RnTree, Algorithm::Central] {
        let plain = engine(alg, &workload, 57).run();
        let mut sampled = engine(alg, &workload, 57)
            .with_timeseries_sampling(SimDuration::from_secs(120))
            .run();
        let ts = sampled.timeseries.take().expect("sampling was enabled");
        assert!(!ts.is_empty(), "{}: series must have rows", alg.label());
        assert_eq!(
            ts.names(),
            vec![
                "free_nodes",
                "in_flight",
                "nodes_alive",
                "queue_depth",
                "retries"
            ],
            "{}",
            alg.label()
        );
        // With the series removed, the sampled report is bit-identical to
        // the plain one: sampling observes, never perturbs.
        let a = serde_json::to_string(&plain).unwrap();
        let b = serde_json::to_string(&sampled).unwrap();
        assert_eq!(
            a,
            b,
            "{}: sampling must not change the simulation",
            alg.label()
        );
        // Gauges are internally consistent: in-flight jobs start at the
        // full workload and end at zero for a fully-completed run.
        let in_flight = ts.get("in_flight").unwrap();
        assert_eq!(
            in_flight.first(),
            Some(&(workload.submissions.len() as f64))
        );
        // Deterministic replay of the series itself.
        let again = engine(alg, &workload, 57)
            .with_timeseries_sampling(SimDuration::from_secs(120))
            .run();
        assert_eq!(again.timeseries.as_ref(), Some(&ts), "{}", alg.label());
    }
}

#[test]
fn overlay_hook_reports_into_the_registry() {
    let workload = paper_scenario(PaperScenario::MixedLight, 48, 150, 83);
    for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::CanPush] {
        let registry = shared_registry();
        let report = engine(alg, &workload, 83)
            .with_telemetry_registry(registry.clone())
            .run();
        assert!(report.jobs_completed > 0, "{}", alg.label());
        let reg = registry.borrow();
        assert!(
            reg.counter("overlay.lookups") > 0,
            "{}: overlay operations must report lookups",
            alg.label()
        );
        let hist = reg.histogram("overlay.hops").expect("hop histogram exists");
        assert!(hist.count() > 0, "{}", alg.label());
        // No faults, no failures: nothing should have needed a failover.
        assert_eq!(reg.counter("overlay.failovers"), 0, "{}", alg.label());
        assert_eq!(reg.counter("overlay.lookup_retries"), 0, "{}", alg.label());
    }
}

#[test]
fn installing_telemetry_does_not_change_the_simulation() {
    let workload = paper_scenario(PaperScenario::MixedLight, 48, 150, 91);
    for alg in [Algorithm::RnTree, Algorithm::Can] {
        let plain = serde_json::to_string(&engine(alg, &workload, 91).run()).unwrap();
        let instrumented = engine(alg, &workload, 91)
            .with_telemetry_registry(shared_registry())
            .run();
        assert_eq!(
            plain,
            serde_json::to_string(&instrumented).unwrap(),
            "{}: the hook only observes",
            alg.label()
        );
        // Everything switched on at once, under either stream writer: only
        // the payload that exists when telemetry is on may differ.
        let writers: [Box<dyn Observer>; 2] = [
            Box::new(JsonlObserver::new(std::io::sink())),
            Box::new(BinaryObserver::new(std::io::sink())),
        ];
        for writer in writers {
            let mut traced = engine(alg, &workload, 91)
                .with_observer(writer)
                .with_telemetry_registry(shared_registry())
                .with_timeseries_sampling(SimDuration::from_secs(120))
                .run();
            assert!(traced.stream_bytes_written > 0 && traced.timeseries.is_some());
            traced.stream_bytes_written = 0;
            traced.timeseries = None;
            assert_eq!(
                plain,
                serde_json::to_string(&traced).unwrap(),
                "{}",
                alg.label()
            );
        }
    }
}

#[test]
fn report_percentiles_are_filled_and_ordered() {
    let workload = paper_scenario(PaperScenario::MixedLight, 48, 200, 47);
    let report = engine(Algorithm::Central, &workload, 47).run();
    let w = report.wait_stats.expect("wait percentiles filled");
    assert_eq!(w.count, report.jobs_completed);
    assert!(w.min <= w.p50 && w.p50 <= w.p95 && w.p95 <= w.p99 && w.p99 <= w.max);
    let t = report
        .turnaround_stats
        .expect("turnaround percentiles filled");
    assert!(t.p50 >= w.p50, "turnaround includes execution");
    // Percentiles survive the JSON round trip (the report is the API).
    let back: SimReport = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(back.wait_stats, Some(w));
}
