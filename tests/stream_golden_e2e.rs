//! Golden streams: every pinned engine stream is a row of the registry in
//! `common/golden.rs`, checked here or by the suite that pinned it. A
//! refactor that claims to be behavior-preserving must not move a single
//! byte of them; re-pinning is only legitimate when a change deliberately
//! alters the event stream and says so (the recipe is the registry's).
//!
//! The post-run pipeline is pinned here too: the spans assembled from a
//! stream, the analytics snapshot over it and the report's percentile
//! summaries, hashed bit for bit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

mod common;

use common::golden::{self, Capture, SEED};
use common::pin::Pin;
use dgrid::core::trace::binary::MAGIC;
use dgrid::core::{
    parse_jsonl_line, phase_samples, ChurnConfig, Engine, EngineConfig, EventRecord, FaultPlan,
    JobSpan, Observer, Phase, SimReport, SpanAssembler, SpanOutcome, StreamAnalytics, StreamFormat,
    TraceEvent,
};
use dgrid::harness::Algorithm;
use dgrid::resources::JobId;
use dgrid::sim::stats::SampleSummary;
use dgrid::sim::{SimDuration, SimTime};
use dgrid::workloads::{paper_scenario, PaperScenario};

/// Every row, the heavy ones included: the re-pin recipe's one run.
#[test]
#[ignore]
fn every_row_matches_its_pin() {
    golden::check_all();
}

/// The drift output is paste-ready: each row prints as the line the table
/// holds for it, and no two rows share a name and format.
#[test]
fn every_row_prints_as_its_table_line() {
    let table = include_str!("common/golden.rs");
    for (i, row) in golden::ROWS.iter().enumerate() {
        let line = row.line(row.pin, row.facts);
        assert!(
            table.contains(&format!("{line}\n")),
            "not in the table: {line}"
        );
        assert!(
            golden::ROWS[..i]
                .iter()
                .all(|r| (r.name, r.format) != (row.name, row.format)),
            "{} appears twice",
            row.id()
        );
    }
}

/// The five 40-node JSONL streams, one per matchmaker variant, against the
/// bytes pinned before the engine refactors.
#[test]
fn legacy_variant_streams_match_pinned_hashes() {
    for alg in golden::FORTY {
        let row = golden::row(&format!("forty/{}", alg.label()), StreamFormat::Jsonl);
        let got = Pin::of(&row.capture().bytes);
        assert_eq!(
            got,
            row.pin,
            "{}: event stream drifted from the pinned pre-refactor bytes",
            row.id()
        );
    }
}

/// `lease_ttl = ∞` is the documented spelling for "leases that never
/// expire", which must degenerate to reassign-on-death recovery — not
/// approximately, but *byte-for-byte*: no lease event is scheduled, no RNG
/// stream advances, and every 40-node JSONL row stays identical.
#[test]
fn infinite_ttl_reproduces_reassign_on_death_streams_byte_identically() {
    use dgrid::core::PlacementPolicy;
    for alg in golden::FORTY {
        let cfg = EngineConfig {
            lease_ttl_secs: Some(f64::INFINITY),
            lease_renew_secs: 15.0,
            lease_grace_secs: 10.0,
            placement: Some(PlacementPolicy::LoadAware),
            ..EngineConfig::default()
        };
        let engine = golden::forty_with(alg, SEED, cfg);
        let bytes = golden::capture(engine, StreamFormat::Jsonl).bytes;
        let row = golden::row(&format!("forty/{}", alg.label()), StreamFormat::Jsonl);
        assert_eq!(
            Pin::of(&bytes),
            row.pin,
            "{}: lease_ttl = inf must leave the reassign-on-death stream byte-identical",
            row.id()
        );
    }
}

/// The binary format must be a *lossless* re-encoding of the JSONL stream:
/// Every sequential run the registry pins in both formats — the five
/// `forty` runs, `central_churn`, `central_tie` and `leased_horizon/900` —
/// converts between them byte for byte: `jsonl_to_binary` of the JSONL row
/// is the binary row, and `binary_to_jsonl` of the binary row is the JSONL
/// row. The binary must also be strictly smaller, re-encoding its decoded
/// records must reproduce it (encode ∘ decode is the identity on canonical
/// streams), and between them the runs carry all fourteen wire tags
/// through the converter.
#[test]
fn golden_streams_round_trip_through_binary_byte_identically() {
    use dgrid::core::{binary_to_jsonl, decode_stream, encode_events, jsonl_to_binary};
    let twins: Vec<(&golden::Row, &golden::Row)> = golden::ROWS
        .iter()
        .filter(|r| r.format == StreamFormat::Binary && r.is_sequential())
        .map(|bin| {
            let name = bin.name.strip_prefix("binary/").unwrap_or(bin.name);
            (golden::row(name, StreamFormat::Jsonl), bin)
        })
        .collect();
    let names: Vec<&str> = twins.iter().flat_map(|(j, b)| [j.name, b.name]).collect();
    let runs = golden::check(&names);
    let bytes = |row: &golden::Row| {
        let (_, run) = runs
            .iter()
            .find(|(r, _)| (r.name, r.format) == (row.name, row.format))
            .expect("every twin was checked against its pin");
        &run.bytes
    };
    let mut seen = [false; 256];
    for (jsonl_row, binary_row) in twins {
        let (jsonl, binary) = (bytes(jsonl_row), bytes(binary_row));
        let text = std::str::from_utf8(jsonl).expect("jsonl is utf-8");
        let bin = jsonl_to_binary(text).expect("golden stream encodes");
        assert!(
            bin == *binary,
            "{}: JSONL -> binary must be the binary row",
            jsonl_row.id()
        );
        assert!(
            bin.len() < jsonl.len(),
            "{}: binary ({} bytes) must be strictly smaller than JSONL ({} bytes)",
            jsonl_row.id(),
            bin.len(),
            jsonl.len()
        );
        let back = binary_to_jsonl(&bin).expect("binary stream decodes");
        assert!(
            back.as_bytes() == jsonl,
            "{}: binary -> JSONL must be the JSONL row",
            binary_row.id()
        );
        let records = decode_stream(&bin).expect("binary stream decodes to records");
        assert!(
            encode_events(&records) == bin,
            "{}: decode -> encode must reproduce the binary bytes",
            binary_row.id()
        );
        for tag in frame_tags(&bin) {
            seen[usize::from(tag)] = true;
        }
    }
    let missing: Vec<u8> = (0x10..=0x1d).filter(|&t| !seen[usize::from(t)]).collect();
    assert!(missing.is_empty(), "no twin converts tags {missing:#04x?}");
}

/// The four 10⁴-node rows, run side by side.
#[test]
fn ten_thousand_node_streams_match_pinned_hashes() {
    golden::check(&["ten_k"]);
}

/// The one run `selector` names, checked against its pin.
fn checked(selector: &str) -> Capture {
    let mut checked = golden::check(&[selector]);
    assert_eq!(checked.len(), 1, "{selector} names one row");
    checked.pop().unwrap().1
}

#[test]
fn central_stream_under_churn_matches_pinned_hash() {
    let bytes = checked("central_churn").bytes;
    let text = std::str::from_utf8(&bytes).expect("jsonl is utf-8");
    for kind in ["NodeDown", "NodeUp", "RunRecovery"] {
        assert!(text.contains(kind), "the run must exercise {kind}");
    }
}

/// Every node busy, and busy nodes tied on exactly equal committed work:
/// the central scan's phase 1 draws among them.
#[test]
fn central_busy_node_tie_stream_matches_pinned_hash() {
    let report = checked("central_tie").report;
    assert_eq!(report.jobs_completed, 1_000);
    assert_eq!(report.node_failures, 0);
}

/// The tag byte of every frame of a binary stream, read frame by frame
/// without the decoder: a varint length, then the payload, whose first
/// byte is the tag.
fn frame_tags(stream: &[u8]) -> Vec<u8> {
    let mut at = MAGIC.len();
    assert_eq!(stream[..at], MAGIC, "a binary stream opens with the magic");
    let mut tags = Vec::new();
    while at < stream.len() {
        let (mut len, mut shift) = (0usize, 0);
        while stream[at] & 0x80 != 0 {
            len |= usize::from(stream[at] & 0x7f) << shift;
            (at, shift) = (at + 1, shift + 7);
        }
        len |= usize::from(stream[at]) << shift;
        tags.push(stream[at + 1]);
        at += 1 + len;
    }
    assert_eq!(at, stream.len(), "the last frame ends the stream");
    tags
}

/// Each of the 14 event tags (`0x10..=0x1d`) occurs in a binary row of the
/// sequential kernel, so an encoder and decoder that changed one tag the
/// same way would still move a pin.
#[test]
fn every_event_tag_occurs_in_a_sequential_binary_row() {
    let mut seen = [false; 256];
    for (row, run) in golden::check(&["forty", "binary"]) {
        if row.format == StreamFormat::Binary {
            for tag in frame_tags(&run.bytes) {
                seen[usize::from(tag)] = true;
            }
        }
    }
    let missing: Vec<u8> = (0x10..=0x1d).filter(|&t| !seen[usize::from(t)]).collect();
    assert!(missing.is_empty(), "no row carries tags {missing:#04x?}");
}

/// Heavy: CI runs it by name on a release build.
#[test]
#[ignore]
fn central_10k() {
    golden::check(&["central_10k"]);
}

/// The stream of a 10⁵-node churn row, which must churn.
fn check_churn_100k(name: &str) {
    for (_, run) in golden::check(&[name]) {
        let text = std::str::from_utf8(&run.bytes).expect("jsonl is utf-8");
        assert!(text.contains("NodeDown"), "the run must churn");
    }
}

/// Heavy: CI runs it by name on a release build.
#[test]
#[ignore]
fn rn_tree_100k_rare_failures() {
    check_churn_100k("rn_tree_100k_rare_failures");
}

/// Heavy: CI runs it by name on a release build.
#[test]
#[ignore]
fn rn_tree_100k_daily_failures() {
    check_churn_100k("rn_tree_100k_daily_failures");
}

#[test]
fn out_of_order_and_t0_arrival_streams_match_pinned_hashes() {
    golden::check(&["reversed_blocks", "t0_pileup"]);
}

#[test]
fn dag_stream_under_churn_matches_pinned_hash() {
    let Capture { bytes, report } = checked("dag");
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
    let report = checked("owner_departure").report;
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

/// FNV-1a over a sequence of 64-bit words, each fed little-endian.
struct Words(u64);

impl Words {
    fn new() -> Self {
        Words(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn summary(&mut self, s: &SampleSummary) {
        self.word(s.count);
        for x in [s.mean, s.std_dev, s.min, s.p50, s.p95, s.p99, s.max] {
            self.float(x);
        }
    }

    fn optional_summary(&mut self, s: Option<&SampleSummary>) {
        self.word(u64::from(s.is_some()));
        if let Some(s) = s {
            self.summary(s);
        }
    }
}

/// An event log that survives the engine consuming its observer.
#[derive(Clone, Default)]
struct SharedLog(Rc<RefCell<Vec<(SimTime, TraceEvent)>>>);

impl Observer for SharedLog {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.0.borrow_mut().push((at, event));
    }
}

fn logged(engine: Engine) -> (Vec<(SimTime, TraceEvent)>, SimReport) {
    let log = SharedLog::default();
    let report = engine.with_observer(Box::new(log.clone())).run();
    let events = log.0.take();
    assert!(!events.is_empty(), "traced run must emit events");
    (events, report)
}

/// The central matchmaker on 500 nodes offered 10 000 jobs: the shape of
/// the stream workload the post-run pipeline is timed on.
fn central_10k_run(seed: u64) -> (Vec<(SimTime, TraceEvent)>, SimReport) {
    let workload = paper_scenario(PaperScenario::MixedLight, 500, 10_000, seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    };
    logged(Engine::new(
        cfg,
        ChurnConfig::none(),
        Algorithm::Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    ))
}

/// Leased RN-Tree on 120 nodes under heavy churn and 2 % loss, with one
/// RPC retry, one resubmit and one matchmaking attempt allowed: recoveries,
/// lease transfers, a resubmit and failed jobs all occur.
fn leased_churn_run(seed: u64) -> (Vec<(SimTime, TraceEvent)>, SimReport) {
    let workload = paper_scenario(PaperScenario::MixedLight, 120, 1_500, seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        max_rpc_retries: 1,
        max_resubmits: 1,
        max_match_attempts: 1,
        lease_ttl_secs: Some(60.0),
        lease_renew_secs: 15.0,
        lease_grace_secs: 10.0,
        placement: Some(dgrid::core::PlacementPolicy::LoadAware),
        ..EngineConfig::default()
    };
    let churn = ChurnConfig {
        mttf_secs: Some(2_000.0),
        rejoin_after_secs: Some(600.0),
        graceful_fraction: 0.25,
    };
    logged(
        Engine::new(
            cfg,
            churn,
            Algorithm::RnTree.matchmaker(),
            workload.nodes,
            workload.submissions,
        )
        .with_fault_plan(FaultPlan::with_loss(0.02)),
    )
}

/// Where the leased stream is cut: a stream tailed mid-run, so jobs are
/// still open at its end.
const LEASED_CUT_SECS: u64 = 1_500;

/// The events of `events` up to and including `cut`.
fn cut_at(events: &[(SimTime, TraceEvent)], cut: SimTime) -> Vec<(SimTime, TraceEvent)> {
    events
        .iter()
        .copied()
        .filter(|&(at, _)| at <= cut)
        .collect()
}

/// `events` twice, the second copy shifted to start where the first ends
/// (its results instants too, so results never precede their event), so
/// every job id recurs: closed jobs reopen and open ones continue.
fn twice(events: &[(SimTime, TraceEvent)]) -> Vec<(SimTime, TraceEvent)> {
    let shift = events
        .last()
        .expect("a non-empty stream")
        .0
        .since(SimTime::ZERO);
    let mut out = events.to_vec();
    out.extend(events.iter().map(|&(at, ev)| {
        let ev = match ev {
            TraceEvent::Completed { job, results_at } => TraceEvent::Completed {
                job,
                results_at: results_at + shift,
            },
            ev => ev,
        };
        (at + shift, ev)
    }));
    out
}

/// The dense/sparse boundary of the job-id tables (`DENSE_ID_LIMIT`).
const DENSE_LIMIT: u64 = 1 << 21;

/// `events` with two thirds of its job ids moved to or above the dense
/// limit: ids `3k + 1` to `DENSE_LIMIT + 3k` (job 1 lands exactly on the
/// limit) and ids `3k + 2` to `u64::MAX - id`; the rest stay dense.
fn sparse_ids(events: &[(SimTime, TraceEvent)]) -> Vec<(SimTime, TraceEvent)> {
    let remap = |job: JobId| match job.0 % 3 {
        1 => JobId(DENSE_LIMIT + job.0 - 1),
        2 => JobId(u64::MAX - job.0),
        _ => job,
    };
    events
        .iter()
        .map(|&(at, ev)| {
            let ev = match ev {
                TraceEvent::Submitted { job, resubmits } => TraceEvent::Submitted {
                    job: remap(job),
                    resubmits,
                },
                TraceEvent::OwnerAssigned { job, owner } => TraceEvent::OwnerAssigned {
                    job: remap(job),
                    owner,
                },
                TraceEvent::Matched {
                    job,
                    run_node,
                    hops,
                } => TraceEvent::Matched {
                    job: remap(job),
                    run_node,
                    hops,
                },
                TraceEvent::Started { job, run_node } => TraceEvent::Started {
                    job: remap(job),
                    run_node,
                },
                TraceEvent::Completed { job, results_at } => TraceEvent::Completed {
                    job: remap(job),
                    results_at,
                },
                TraceEvent::Failed { job } => TraceEvent::Failed { job: remap(job) },
                TraceEvent::RunRecovery { job } => TraceEvent::RunRecovery { job: remap(job) },
                TraceEvent::OwnerRecovery { job } => TraceEvent::OwnerRecovery { job: remap(job) },
                TraceEvent::LeaseExpired { job } => TraceEvent::LeaseExpired { job: remap(job) },
                TraceEvent::LeaseTransferred { job, owner } => TraceEvent::LeaseTransferred {
                    job: remap(job),
                    owner,
                },
                TraceEvent::NodeDown { .. } | TraceEvent::NodeUp { .. } => ev,
            };
            (at, ev)
        })
        .collect()
}

/// Every field of every assembled span in `finish()` order, then the six
/// phase summaries.
fn hash_spans(h: &mut Words, events: &[(SimTime, TraceEvent)]) -> Vec<JobSpan> {
    let mut assembler = SpanAssembler::new();
    for &(at, ev) in events {
        assembler.observe(at, ev);
    }
    let spans = assembler.finish();
    h.word(spans.len() as u64);
    for s in &spans {
        h.word(s.job().0);
        h.word(s.submitted_at().as_nanos());
        h.word(s.finished_at().map_or(u64::MAX, SimTime::as_nanos));
        h.word(match s.outcome() {
            SpanOutcome::Completed => 0,
            SpanOutcome::Failed => 1,
            SpanOutcome::Open => 2,
        });
        h.word(u64::from(s.resubmits()));
        h.word(u64::from(s.recoveries()));
        for p in Phase::ALL {
            h.word(s.phase(p).as_nanos());
        }
    }
    for (_, mut set) in phase_samples(&spans) {
        h.summary(&set.summary());
    }
    spans
}

/// Every field of the analytics snapshot after the whole stream.
fn hash_analytics(h: &mut Words, events: &[(SimTime, TraceEvent)]) {
    let mut analytics = StreamAnalytics::new(SimDuration::from_secs(60), 64);
    for (at, ev) in events {
        analytics.feed(at.as_nanos(), ev);
    }
    let snap = analytics.snapshot();
    h.word(snap.events_total);
    for n in snap.per_kind {
        h.word(n);
    }
    h.word(snap.inflight);
    h.word(snap.executing);
    for stats in [snap.wait, snap.turnaround] {
        h.word(u64::from(stats.is_some()));
        if let Some(s) = stats {
            for w in [s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns] {
                h.word(w);
            }
            h.float(s.mean_ns);
        }
    }
    h.word(snap.window_ns);
    h.word(snap.recent.len() as u64);
    for row in &snap.recent {
        h.word(row.start_ns);
        for &n in &row.counts {
            h.word(n);
        }
    }
    h.word(snap.current_start_ns);
    for &n in &snap.current {
        h.word(n);
    }
    h.word(snap.last_t_ns);
}

/// The report's end-of-run summaries, `hop_summary()`, and the means read
/// after them (which sum the samples in the order the summaries left).
fn hash_report(h: &mut Words, report: &mut SimReport) {
    h.optional_summary(report.wait_stats.as_ref());
    h.optional_summary(report.turnaround_stats.as_ref());
    let (hop_mean, hop_p99) = report.hop_summary();
    h.float(hop_mean);
    h.float(hop_p99);
    h.float(report.mean_wait());
    h.float(report.std_wait());
    h.float(report.turnaround.mean());
}

/// The four post-run inputs, each hashed as spans + analytics (+ report for
/// the two whole runs).
fn post_run_digests(seed: u64) -> [(u64, Vec<JobSpan>); 4] {
    let digest = |events: &[(SimTime, TraceEvent)], report: Option<&mut SimReport>| {
        let mut h = Words::new();
        let spans = hash_spans(&mut h, events);
        hash_analytics(&mut h, events);
        if let Some(r) = report {
            hash_report(&mut h, r);
        }
        (h.0, spans)
    };
    let (central, mut central_report) = central_10k_run(seed);
    let (leased, mut leased_report) = leased_churn_run(seed);
    let cut = cut_at(&leased, SimTime::from_secs(LEASED_CUT_SECS));
    [
        digest(&central, Some(&mut central_report)),
        digest(&cut, Some(&mut leased_report)),
        digest(&twice(&cut), None),
        digest(&sparse_ids(&cut), None),
    ]
}

/// Digests of [`post_run_digests`] for [`SEED`], recorded on the commit
/// before the span assembler, the analytics and the summaries left their
/// B-tree, hash map and full sort; "leased cut twice" re-recorded on the
/// commit before spans derived their close instant, once [`twice`] shifted
/// results instants too. A drift prints the lines to paste here.
const POST_RUN_PINNED: [u64; 4] = [
    0x1b62c71c50688033, // central 10k: 10000 spans, 10000 completed, 0 failed, 0 open
    0xadbca48d14cec2af, // leased cut: 1500 spans, 1309 completed, 2 failed, 189 open
    0xa6e7bc3986420ad0, // leased cut twice: 2811 spans, 2618 completed, 4 failed, 189 open
    0xa92ef05398950acd, // sparse ids: 1500 spans, 1309 completed, 2 failed, 189 open
];

/// `phase_samples` yields the six phases in `Phase::ALL` order, each with
/// exactly the samples one eager pass over the spans collects, on the
/// spans of the churned and leased rows (recoveries, resubmissions, lease
/// transfers and horizon failures).
#[test]
fn phase_samples_yield_each_phase_in_order_on_churned_and_leased_spans() {
    for (row, run) in golden::check(&["churned", "leased_horizon"]) {
        let mut assembler = SpanAssembler::new();
        let text = std::str::from_utf8(&run.bytes).expect("jsonl is utf-8");
        for line in text.lines() {
            let rec = parse_jsonl_line(line)
                .expect("a pinned line parses")
                .expect("no blank lines in a pinned stream");
            assembler.observe(SimTime::from_nanos(rec.t_ns), rec.event);
        }
        let spans = assembler.finish();
        let bits = |xs: &mut dyn Iterator<Item = f64>| xs.map(f64::to_bits).collect::<Vec<_>>();
        let lazy: Vec<_> = phase_samples(&spans)
            .map(|(p, set)| (p, bits(&mut set.samples().iter().copied())))
            .collect();
        let eager: Vec<_> = Phase::ALL
            .iter()
            .map(|&p| (p, bits(&mut spans.iter().map(|s| s.phase(p).as_secs_f64()))))
            .collect();
        assert!(lazy == eager, "{}: lazy phase samples differ", row.id());
    }
}

#[test]
fn post_run_spans_analytics_and_summaries_match_pinned_digests() {
    let got = post_run_digests(SEED);
    let outcomes =
        |spans: &[JobSpan], o: SpanOutcome| spans.iter().filter(|s| s.outcome() == o).count();
    let names = [
        "central 10k",
        "leased cut",
        "leased cut twice",
        "sparse ids",
    ];
    let lines: Vec<String> = names
        .iter()
        .zip(&got)
        .map(|(name, (digest, spans))| {
            format!(
                "    {digest:#018x}, // {name}: {} spans, {} completed, {} failed, {} open",
                spans.len(),
                outcomes(spans, SpanOutcome::Completed),
                outcomes(spans, SpanOutcome::Failed),
                outcomes(spans, SpanOutcome::Open)
            )
        })
        .collect();
    assert!(
        got.iter().map(|(digest, _)| *digest).eq(POST_RUN_PINNED),
        "post-run digests drifted. If the change declares that it alters them, \
         paste these lines over POST_RUN_PINNED's:\n{}",
        lines.join("\n")
    );
    // The inputs reach what the pins are meant to cover.
    let cut = &got[1].1;
    assert!(
        outcomes(cut, SpanOutcome::Open) > 0,
        "the cut leaves spans open"
    );
    assert!(
        outcomes(cut, SpanOutcome::Failed) > 0,
        "jobs fail before the cut"
    );
    assert!(cut.iter().any(|s| s.resubmits() > 0), "clients resubmit");
    assert!(cut.iter().any(|s| s.recoveries() > 0), "jobs recover");
    let twice = &got[2].1;
    assert!(
        twice.len() > cut.len(),
        "closed jobs reopen in the second copy"
    );
    let sparse = &got[3].1;
    assert!(sparse.iter().any(|s| s.job().0 == DENSE_LIMIT));
    assert!(sparse.iter().any(|s| s.job().0 > u64::MAX / 2));
}
