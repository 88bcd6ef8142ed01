//! Memory follows pending work. The arrival FIFO gives the room of admitted
//! submissions back in fixed steps, the event queue frees a bucket's buffer
//! once the clock empties it, and a job record is at most 128 bytes, so a
//! run of 150 000 jobs on 30 000 Pastry nodes peaks near what its live
//! jobs and its report cost, not near its whole input.
//!
//! Peak RSS (`VmHWM`) belongs to the whole process, so this binary holds one
//! test and it is `#[ignore]`d out of the default suite, as in
//! `memory_scale.rs`. Run it alone, in release:
//!
//! ```sh
//! cargo test --release --test pastry_memory_scale -- --ignored
//! ```

use dgrid::core::{ChurnConfig, Engine};
use dgrid::harness::{paper_engine_config, Algorithm};
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

/// The benchmark's `pastry-30k` shape: RN-Tree over Pastry, `mixed/light`
/// offered at 0.9 of the grid's capacity, 30 000 nodes, 150 000 jobs, seed
/// 7. With the arrival FIFO shrunk only when half empty, every event-queue
/// bucket keeping its high-water buffer and a 152-byte job record it peaked
/// at 34.4–34.6 MB; now at 26.9–27.1 MB (a 2-vCPU x86-64 VM, glibc malloc). The
/// bound is 5 % above that.
#[test]
#[ignore = "150 000 jobs and a per-process peak: run alone with --release -- --ignored"]
fn thirty_thousand_pastry_nodes_and_150k_jobs_peak_under_28_5_mb() {
    const SEED: u64 = 7;
    let mut workload = paper_scenario(PaperScenario::MixedLight, 30_000, 150_000, SEED);
    // `paper_scenario` offers load 1.0; a Poisson stream stretched in time
    // is the same stream at a lower rate.
    for s in &mut workload.submissions {
        s.arrival_secs /= 0.9;
    }
    let report = Engine::new(
        paper_engine_config(SEED),
        ChurnConfig::none(),
        Algorithm::RnTreePastry.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .run();
    assert_eq!(report.jobs_total, 150_000);
    assert_eq!(report.jobs_completed, 150_000);
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_mb();
        eprintln!("VmHWM {peak:.1} MB");
        assert!(peak <= 28.5, "peak RSS {peak:.1} MB is over 28.5 MB");
    }
}
