//! Post-run stream analysis holds one thing at a time. The JSONL stream of
//! a 200 000-job central run is converted to binary in one pass, decoded,
//! folded into 80-byte job spans whose phase samples are built one phase at
//! a time, and fed to the windowed analytics, as `dgrid events convert`,
//! `dgrid report` and `dgrid watch` read a recorded stream.
//!
//! Peak RSS (`VmHWM`) belongs to the whole process, so this binary holds one
//! test and it is `#[ignore]`d out of the default suite, as in
//! `memory_scale.rs`. Run it alone, in release:
//!
//! ```sh
//! cargo test --release --test stream_memory_scale -- --ignored
//! ```

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use dgrid::core::{
    decode_stream, jsonl_to_binary, phase_samples, ChurnConfig, Engine, JsonlObserver,
    SpanAssembler, StreamAnalytics,
};
use dgrid::harness::{paper_engine_config, Algorithm};
use dgrid::sim::{SimDuration, SimTime};
use dgrid::workloads::{paper_scenario, PaperScenario};

/// `VmHWM` of this process from `/proc/self/status`, MB.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("readable /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("a VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

/// The benchmark's `central-stream-1k` shape: the central matchmaker,
/// `mixed/light` offered at 0.9 of the grid's capacity, 1 000 nodes,
/// 200 000 jobs, seed 7, the JSONL stream written into memory and analysed
/// after the run with the text, the binary and the decoded records all
/// held to the end. With 96-byte spans and all six phases' sample sets
/// alive at once it peaked at 155.0–155.2 MB; now at 144.4–144.6 MB (a
/// 2-vCPU x86-64 VM, glibc malloc). The bound is 5 % above that.
#[test]
#[ignore = "200 000 jobs and a per-process peak: run alone with --release -- --ignored"]
fn a_200k_job_stream_is_analysed_under_151_8_mb() {
    const SEED: u64 = 7;
    const JOBS: usize = 200_000;
    let mut workload = paper_scenario(PaperScenario::MixedLight, 1_000, JOBS, SEED);
    // `paper_scenario` offers load 1.0; a Poisson stream stretched in time
    // is the same stream at a lower rate.
    for s in &mut workload.submissions {
        s.arrival_secs /= 0.9;
    }
    let sink = Rc::new(RefCell::new(JsonlObserver::new(Vec::new())));
    let mut engine = Engine::new(
        paper_engine_config(SEED),
        ChurnConfig::none(),
        Algorithm::Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    );
    engine.set_observer(Box::new(sink.clone()));
    let report = engine.run();
    assert_eq!(report.jobs_completed, JOBS as u64);
    let bytes = Rc::try_unwrap(sink)
        .ok()
        .expect("the engine is gone")
        .into_inner()
        .into_inner();

    let jsonl = String::from_utf8(bytes).expect("event lines are ASCII");
    let binary = jsonl_to_binary(&jsonl).expect("the stream converts");
    let records = decode_stream(&binary).expect("the binary decodes");
    assert_eq!(records.len(), jsonl.lines().count());
    // The spans live as long as their summaries are read, as in `dgrid
    // report`.
    {
        let mut assembler = SpanAssembler::new();
        for r in &records {
            assembler.observe(SimTime::ZERO + SimDuration::from_nanos(r.t_ns), r.event);
        }
        let spans = assembler.finish();
        assert_eq!(spans.len(), JOBS);
        for (_, mut set) in phase_samples(&spans) {
            black_box(set.summary());
        }
    }
    let mut analytics = StreamAnalytics::new(SimDuration::from_secs(60), 64);
    for r in &records {
        analytics.feed_record(r);
    }
    assert_eq!(analytics.snapshot().events_total, records.len() as u64);
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_mb();
        eprintln!("VmHWM {peak:.1} MB");
        assert!(peak <= 151.8, "peak RSS {peak:.1} MB is over 151.8 MB");
    }
}
