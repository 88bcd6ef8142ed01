//! One whole run of one workload in this process: generate the inputs,
//! build the engine, run it, do the post-run work `dgrid run` (and, on the
//! stream workload, `dgrid report`) would do, check the output, and report.
//!
//! The parent starts every timed run as a fresh child process, so peak RSS
//! and allocator state belong to that run alone.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dgrid::check::oracle::{AtMostOnceCommit, JobConservation, SpanConservation};
use dgrid::check::TraceOracle;
use dgrid::core::{
    decode_stream, jsonl_to_binary, phase_samples, Engine, EventRecord, JsonlObserver, Observer,
    SimReport, SpanAssembler, StreamAnalytics,
};
use dgrid::sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::timed::{
    busy_ns, calls, phase, self_ns, Counted, CountingObserver, Fnv1a, SharedSink, SharedTracer,
    Span, TimedMatchmaker, TimedObserver, Tracer,
};
use crate::workloads::{build_engine, ObserverKind, Workload};

/// The phases one run is made of, in order; their spans have no parent and
/// together account for the run's wall time.
pub const TOP_LEVEL_PHASES: [&str; 4] = ["workloads.generate", "engine.new", "engine.run", "post"];

/// How a child runs its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// As a user would: no decorators. The source of every end-to-end metric.
    Plain,
    /// Matchmaker and observer decorated; oracles fed from the stream.
    Traced,
    /// The sharded kernel (`Engine::DEFAULT_SHARDS`) on two pool threads.
    Sharded,
}

impl Mode {
    /// Command-line spelling.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Sharded => "sharded",
        }
    }

    /// Parse the command-line spelling.
    pub fn from_label(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Sharded]
            .into_iter()
            .find(|m| m.label() == s)
    }
}

/// What one run reports back: timings, exact simulation results, broken
/// checks, and (traced runs) the span book.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunRecord {
    /// [`Mode::label`] of the run.
    pub mode: String,
    /// Input generation + `Engine::new` + observer install, seconds.
    pub setup_s: f64,
    /// `Engine::run`, seconds.
    pub run_s: f64,
    /// Post-run work (report statistics, stream analysis), seconds.
    pub post_s: f64,
    /// Whole run, first input byte to last statistic, seconds.
    pub wall_s: f64,
    /// Events the observer saw.
    pub events: u64,
    /// `events / run_s`.
    pub events_per_s: f64,
    /// `VmHWM` of this process when it reported, MB.
    pub peak_rss_mb: f64,
    /// `SimReport::mean_wait()`, simulated seconds (exact per seed).
    pub sim_mean_wait_s: f64,
    /// (owner-routing hops + matchmaking hops) / jobs (exact per seed).
    pub hops_per_job: f64,
    /// Order-sensitive digest of the event stream (exact per seed).
    pub digest: u64,
    /// Jobs submitted.
    pub jobs_total: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs permanently failed.
    pub jobs_failed: u64,
    /// Exact engine counters from the report (must repeat exactly).
    pub counts: BTreeMap<String, u64>,
    /// Correctness checks this run broke; empty when clean.
    pub errors: Vec<String>,
    /// Per-layer metrics measured by this run (traced and sharded runs).
    pub layers: BTreeMap<String, f64>,
    /// The span book: phases always, per-call spans on traced runs.
    pub spans: Vec<Span>,
}

/// What the installed observer left behind, readable after `Engine::run`
/// consumed the observer itself.
enum Watch {
    Counted(Counted),
    Stream(SharedSink),
}

fn install_observer(
    engine: &mut Engine,
    kind: ObserverKind,
    tracer: Option<&SharedTracer>,
) -> Watch {
    let (observer, watch): (Box<dyn Observer>, Watch) = match kind {
        ObserverKind::Counting => {
            let (o, cell) = CountingObserver::new();
            (Box::new(o), Watch::Counted(cell))
        }
        ObserverKind::JsonlStream => {
            let sink = SharedSink::default();
            (
                Box::new(JsonlObserver::new(sink.clone())),
                Watch::Stream(sink),
            )
        }
    };
    engine.set_observer(match tracer {
        Some(t) => Box::new(TimedObserver::new(observer, t.clone())),
        None => observer,
    });
    watch
}

/// The statistics `dgrid run` prints after a run.
fn finalize(report: &mut SimReport) -> f64 {
    let (hop_mean, hop_p99) = report.hop_summary();
    report.mean_wait()
        + report.std_wait()
        + report.turnaround.mean()
        + report.owner_hops.mean()
        + hop_mean
        + hop_p99
        + report.load_fairness()
        + report.client_fairness()
        + report.total_messages()
}

/// The recorded stream after `dgrid events convert` + `dgrid report` +
/// `dgrid watch`-style analytics.
struct Analysed {
    jsonl: String,
    binary_bytes: usize,
    records: Vec<EventRecord>,
    spans: usize,
}

fn analyse_stream(bytes: Vec<u8>, tracer: &SharedTracer) -> Result<Analysed, String> {
    const POST: Option<&str> = Some("post");
    let (jsonl, binary) = phase(tracer, "trace.jsonl_to_binary", POST, || {
        let jsonl = String::from_utf8(bytes).map_err(|e| format!("stream not UTF-8: {e}"))?;
        let binary = jsonl_to_binary(&jsonl).map_err(|e| format!("jsonl_to_binary: {e}"))?;
        Ok::<_, String>((jsonl, binary))
    })?;
    let records = phase(tracer, "trace.decode", POST, || decode_stream(&binary))
        .map_err(|e| format!("decode_stream: {e}"))?;
    let spans = phase(tracer, "span.assemble", POST, || {
        let mut assembler = SpanAssembler::new();
        for r in &records {
            assembler.observe(SimTime::ZERO + SimDuration::from_nanos(r.t_ns), r.event);
        }
        let spans = assembler.finish();
        for (_, mut samples) in phase_samples(&spans) {
            black_box(samples.summary());
        }
        spans.len()
    });
    phase(tracer, "analytics.feed", POST, || {
        let mut analytics = StreamAnalytics::new(SimDuration::from_secs(60), 64);
        for r in &records {
            analytics.feed_record(r);
        }
        black_box(analytics.snapshot());
    });
    Ok(Analysed {
        jsonl,
        binary_bytes: binary.len(),
        records,
        spans,
    })
}

/// `VmHWM` from `/proc/self/status`, MB; 0 where the file has no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Run `workload` once in this process.
pub fn run_once(workload: &Workload, seed: u64, scale_div: usize, mode: Mode) -> RunRecord {
    let (_, jobs) = workload.size(scale_div);
    let traced = mode == Mode::Traced;
    // Eight events per job covers every workload here; the log only exists
    // on traced runs.
    let tracer = Tracer::shared(seed, if traced { 8 * jobs } else { 0 });
    let decorate = traced.then_some(&tracer);
    let t0 = Instant::now();

    let inputs = phase(&tracer, "workloads.generate", None, || {
        workload.generate(seed, scale_div)
    });
    let (engine, watch) = phase(&tracer, "engine.new", None, || {
        let matchmaker = workload.algorithm.matchmaker();
        let mut engine = build_engine(
            inputs,
            match decorate {
                Some(t) => Box::new(TimedMatchmaker::new(matchmaker, t.clone())),
                None => matchmaker,
            },
        );
        let watch = install_observer(&mut engine, workload.observer, decorate);
        if mode == Mode::Sharded {
            engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
        }
        (engine, watch)
    });
    let mut report = phase(&tracer, "engine.run", None, || match mode {
        Mode::Sharded => rayon::Pool::install(crate::env::pool_threads(), || engine.run()),
        _ => engine.run(),
    });
    let analysed = phase(&tracer, "post", None, || {
        phase(&tracer, "report.finalize", Some("post"), || {
            black_box(finalize(&mut report));
        });
        match &watch {
            Watch::Stream(sink) => Some(analyse_stream(sink.0.take(), &tracer)),
            Watch::Counted(_) => None,
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // ---- untimed from here: checks and bookkeeping -------------------------
    let mut errors = Vec::new();
    let mut layers = BTreeMap::new();
    if report.jobs_completed + report.jobs_failed != report.jobs_total {
        errors.push(format!(
            "job conservation: {} completed + {} failed != {} total",
            report.jobs_completed, report.jobs_failed, report.jobs_total
        ));
    }
    if report.unknown_job_events != 0 {
        errors.push(format!("{} unknown-job events", report.unknown_job_events));
    }

    let (events, digest) = match (&watch, analysed) {
        (Watch::Counted(cell), _) => cell.get(),
        (Watch::Stream(_), Some(Ok(a))) => {
            let lines = a.jsonl.bytes().filter(|&b| b == b'\n').count();
            if a.records.len() != lines {
                errors.push(format!(
                    "decoded {} records from {lines} emitted events",
                    a.records.len()
                ));
            }
            if a.spans as u64 != report.jobs_total {
                errors.push(format!(
                    "{} spans assembled for {} jobs",
                    a.spans, report.jobs_total
                ));
            }
            if traced {
                let log = &tracer.borrow().log;
                let same = log.len() == a.records.len()
                    && log
                        .iter()
                        .zip(&a.records)
                        .all(|((at, ev), r)| at.as_nanos() == r.t_ns && *ev == r.event);
                if !same {
                    errors.push("decoded records differ from the events emitted".into());
                }
            }
            layers.insert("trace.jsonl_bytes".into(), a.jsonl.len() as f64);
            layers.insert("trace.binary_bytes".into(), a.binary_bytes as f64);
            (lines as u64, Fnv1a::INIT.bytes(a.jsonl.as_bytes()).0)
        }
        (Watch::Stream(_), Some(Err(e))) => {
            errors.push(e);
            (0, 0)
        }
        (Watch::Stream(_), None) => unreachable!("stream workloads are always analysed"),
    };

    if traced {
        let started = Instant::now();
        let mut oracles: [Box<dyn TraceOracle>; 3] = [
            Box::new(JobConservation::new(jobs)),
            Box::new(AtMostOnceCommit::new()),
            Box::new(SpanConservation::new()),
        ];
        let t = tracer.borrow();
        for (at, event) in &t.log {
            for o in &mut oracles {
                o.on_event(*at, event);
            }
        }
        let violations: Vec<String> = oracles
            .iter_mut()
            .flat_map(|o| o.finish(&report))
            .map(|v| v.to_string())
            .collect();
        layers.insert("check.oracle_s".into(), started.elapsed().as_secs_f64());
        layers.insert("check.violations".into(), violations.len() as f64);
        if t.log.len() as u64 != events {
            errors.push(format!(
                "observer saw {events} events, the tracer logged {}",
                t.log.len()
            ));
        }
        errors.extend(violations);
    }

    let spans = tracer.borrow().spans();
    let setup_s = secs(busy_ns(&spans, "workloads.generate") + busy_ns(&spans, "engine.new"));
    let run_s = secs(busy_ns(&spans, "engine.run"));
    if traced {
        trace_layers(&mut layers, &spans, &tracer, events, &report);
    }
    let hops: f64 = report.owner_hops.samples().iter().sum::<f64>()
        + report.match_hops.samples().iter().sum::<f64>();
    let counts = [
        ("engine.heartbeat_messages", report.heartbeat_messages),
        ("engine.messages_lost", report.messages_lost),
        ("engine.lease_renewals", report.lease_renewals),
        ("engine.lease_transfers", report.lease_transfers),
        ("engine.run_recoveries", report.run_recoveries),
        ("engine.node_failures", report.node_failures),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    RunRecord {
        mode: mode.label().to_string(),
        setup_s,
        run_s,
        post_s: secs(busy_ns(&spans, "post")),
        wall_s,
        events,
        events_per_s: events as f64 / run_s,
        peak_rss_mb: peak_rss_mb(),
        sim_mean_wait_s: report.mean_wait(),
        hops_per_job: hops / report.jobs_total as f64,
        digest,
        jobs_total: report.jobs_total,
        jobs_completed: report.jobs_completed,
        jobs_failed: report.jobs_failed,
        counts,
        errors,
        layers,
        spans,
    }
}

/// The per-layer metrics a traced run's span book yields.
fn trace_layers(
    layers: &mut BTreeMap<String, f64>,
    spans: &[Span],
    tracer: &SharedTracer,
    events: u64,
    report: &SimReport,
) {
    // Zero on the workloads that keep no stream.
    for stream_only in ["trace.jsonl_bytes", "trace.binary_bytes"] {
        layers.entry(stream_only.to_string()).or_insert(0.0);
    }
    let under = |name: &str, parent: &str| -> (f64, f64) {
        spans
            .iter()
            .find(|s| s.name == name && s.parent.as_deref() == Some(parent))
            .map_or((0.0, 0.0), |s| (secs(s.busy_ns), s.calls as f64))
    };
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    put(
        "workloads.generate_s",
        secs(busy_ns(spans, "workloads.generate")),
    );
    put("engine.new_self_s", secs(self_ns(spans, "engine.new")));
    put(
        "matchmaker.bootstrap_s",
        secs(busy_ns(spans, "matchmaker.bootstrap")),
    );
    put(
        "matchmaker.first_tick_s",
        under("matchmaker.tick", "engine.new").0,
    );
    let (tick_s, tick_calls) = under("matchmaker.tick", "engine.run");
    put("matchmaker.tick_s", tick_s);
    put("matchmaker.tick_calls", tick_calls);
    for call in [
        "assign_owner",
        "find_run_node",
        "reassign_owner",
        "membership",
        "lease_registrar",
    ] {
        let span = format!("matchmaker.{call}");
        put(&format!("{span}_s"), secs(busy_ns(spans, &span)));
        put(&format!("{span}_calls"), calls(spans, &span) as f64);
    }
    let attempts = calls(spans, "matchmaker.find_run_node");
    put(
        "matchmaker.match_success_ratio",
        if attempts == 0 {
            0.0
        } else {
            tracer.borrow().matches as f64 / attempts as f64
        },
    );
    put(
        "observer.on_event_s",
        secs(busy_ns(spans, "observer.on_event")),
    );
    put("observer.events", events as f64);
    put("observer.bytes", report.stream_bytes_written as f64);

    let run_self = self_ns(spans, "engine.run");
    put("engine.run_self_s", secs(run_self));
    put(
        "engine.self_ns_per_event",
        run_self as f64 / events.max(1) as f64,
    );
    for (metric, span) in [
        ("report.finalize_s", "report.finalize"),
        ("trace.jsonl_to_binary_s", "trace.jsonl_to_binary"),
        ("trace.decode_s", "trace.decode"),
        ("span.assemble_s", "span.assemble"),
        ("analytics.feed_s", "analytics.feed"),
    ] {
        put(metric, secs(busy_ns(spans, span)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::SMOKE_DIV;
    use crate::workloads::{by_name, WORKLOADS};

    /// FNV-1a of the JSONL stream of one 64-node run of `churn-lease-3k` —
    /// the workload that reaches every `Matchmaker` method the engine calls —
    /// with or without the decorators around matchmaker and observer.
    fn jsonl_digest(decorated: bool) -> (u64, usize, Vec<Span>) {
        let workload = by_name("churn-lease-3k").unwrap();
        let scale_div = workload.nodes / 64;
        let tracer = Tracer::shared(11, 0);
        let matchmaker = workload.algorithm.matchmaker();
        let sink = SharedSink::default();
        let observer: Box<dyn Observer> = Box::new(JsonlObserver::new(sink.clone()));
        let report = phase(&tracer, "engine.run", None, || {
            let mut engine = build_engine(
                workload.generate(11, scale_div),
                if decorated {
                    Box::new(TimedMatchmaker::new(matchmaker, tracer.clone()))
                } else {
                    matchmaker
                },
            );
            engine.set_observer(if decorated {
                Box::new(TimedObserver::new(observer, tracer.clone()))
            } else {
                observer
            });
            engine.run()
        });
        let bytes = sink.0.take();
        assert_eq!(report.stream_bytes_written, bytes.len() as u64);
        let spans = tracer.borrow().spans();
        (Fnv1a::INIT.bytes(&bytes).0, bytes.len(), spans)
    }

    #[test]
    fn decorators_are_transparent_on_a_64_node_run() {
        let (bare, bare_len, bare_spans) = jsonl_digest(false);
        let (decorated, decorated_len, spans) = jsonl_digest(true);
        assert!(bare_len > 10_000, "the run must emit a real stream");
        assert_eq!(bare_len, decorated_len);
        assert_eq!(bare, decorated, "decorators changed the event stream");
        // The bare run records no per-call span; the decorated one saw the
        // calls that only churn and leases cause.
        assert_eq!(bare_spans.len(), 1);
        for call in [
            "matchmaker.bootstrap",
            "matchmaker.set_placement",
            "matchmaker.tick",
            "matchmaker.assign_owner",
            "matchmaker.find_run_node",
            "matchmaker.membership",
            "matchmaker.lease_registrar",
            "observer.on_event",
        ] {
            assert!(calls(&spans, call) > 0, "{call} was never timed");
        }
    }

    #[test]
    fn every_workload_runs_clean_in_every_mode_at_smoke_size() {
        for workload in &WORKLOADS {
            let plain = run_once(workload, 3, SMOKE_DIV, Mode::Plain);
            assert!(
                plain.errors.is_empty(),
                "{}: {:?}",
                workload.name,
                plain.errors
            );
            assert_eq!(plain.jobs_completed + plain.jobs_failed, plain.jobs_total);
            assert_eq!(plain.jobs_failed, 0, "{} must not fail jobs", workload.name);
            assert!(plain.events > 0 && plain.wall_s >= plain.setup_s + plain.run_s);

            let traced = run_once(workload, 3, SMOKE_DIV, Mode::Traced);
            assert!(
                traced.errors.is_empty(),
                "{}: {:?}",
                workload.name,
                traced.errors
            );
            assert_eq!(traced.digest, plain.digest, "{}", workload.name);
            assert_eq!(traced.events, plain.events);
            assert_eq!(
                traced.sim_mean_wait_s.to_bits(),
                plain.sim_mean_wait_s.to_bits()
            );
            assert_eq!(traced.counts, plain.counts);
            assert_eq!(traced.layers["check.violations"], 0.0);
            // The books close: top-level spans account for the wall time.
            let top: u64 = TOP_LEVEL_PHASES
                .iter()
                .map(|p| busy_ns(&traced.spans, p))
                .sum();
            assert!(secs(top) <= traced.wall_s && secs(top) > 0.95 * traced.wall_s);

            let sharded = run_once(workload, 3, SMOKE_DIV, Mode::Sharded);
            assert!(
                sharded.errors.is_empty(),
                "{}: {:?}",
                workload.name,
                sharded.errors
            );
            assert_eq!(sharded.jobs_completed, sharded.jobs_total);
        }
    }

    #[test]
    fn a_seed_fixes_the_inputs_and_another_changes_them() {
        let w = by_name("rntree-100k").unwrap();
        let a = run_once(w, 5, SMOKE_DIV, Mode::Plain);
        let b = run_once(w, 5, SMOKE_DIV, Mode::Plain);
        let c = run_once(w, 6, SMOKE_DIV, Mode::Plain);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }
}
