//! The engine's memory follows the jobs in flight, not the jobs it was
//! handed. A job's record exists from its submission to its terminal event
//! and the submissions not yet submitted give their buffer back as they
//! drain, so a run of 10⁶ jobs on the paper's 1 000 nodes peaks near what
//! its input alone costs.
//!
//! Peak RSS (`VmHWM`) belongs to the whole process, so this binary holds one
//! test and it is `#[ignore]`d out of the default suite. Run it alone, in
//! release:
//!
//! ```sh
//! cargo test --release --test memory_scale -- --ignored
//! ```

use dgrid::core::{CentralizedMatchmaker, ChurnConfig, Engine};
use dgrid::harness::paper_engine_config;
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

#[test]
#[ignore = "10⁶ jobs and a per-process peak: run alone with --release -- --ignored"]
fn a_million_job_central_run_peaks_under_150_mb() {
    const SEED: u64 = 7;
    let mut workload = paper_scenario(PaperScenario::MixedLight, 1_000, 1_000_000, SEED);
    // The ruler's `central-stream-1k` load: the paper's stream at 0.9.
    for sub in &mut workload.submissions {
        sub.arrival_secs /= 0.9;
    }
    let report = Engine::new(
        paper_engine_config(SEED),
        ChurnConfig::none(),
        Box::new(CentralizedMatchmaker::new()),
        workload.nodes,
        workload.submissions,
    )
    .run();
    assert_eq!(report.jobs_total, 1_000_000);
    assert_eq!(
        report.jobs_completed + report.jobs_failed,
        report.jobs_total
    );
    assert_eq!(report.unknown_job_events, 0);
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_mb();
        eprintln!("VmHWM {peak:.1} MB");
        assert!(peak <= 150.0, "peak RSS {peak:.1} MB is over 150 MB");
    }
}
