//! A node costs what it holds. On a grid of many mostly idle desktops the
//! node table is a capability column, a few `u32` columns and two bitsets;
//! a node gets execution state only once it holds a job. A run of 30 000
//! jobs on 100 000 nodes, where most nodes never hold one, therefore peaks
//! well below what a per-node record would cost.
//!
//! Peak RSS (`VmHWM`) belongs to the whole process, so this binary holds one
//! test and it is `#[ignore]`d out of the default suite, as in
//! `memory_scale.rs`. Run it alone, in release:
//!
//! ```sh
//! cargo test --release --test node_memory_scale -- --ignored
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

/// The benchmark's `rntree-100k` shape: RN-Tree over Chord, `mixed/light`,
/// 100 000 nodes, 30 000 jobs, seed 7. With a 128-byte record per node it
/// peaked at 37.9 MB; with the node table in columns, at 27.9–28.2 MB; with
/// the event queue's emptied buffers, the job table and the queue freed
/// before the report's per-node columns, at 25.9–26.1 MB (a 2-vCPU x86-64
/// VM, glibc malloc). The bound is 5 % above that.
#[test]
#[ignore = "10⁵ nodes and a per-process peak: run alone with --release -- --ignored"]
fn a_hundred_thousand_mostly_idle_nodes_peak_under_27_4_mb() {
    const SEED: u64 = 7;
    let workload = paper_scenario(PaperScenario::MixedLight, 100_000, 30_000, SEED);
    let report = Engine::new(
        paper_engine_config(SEED),
        ChurnConfig::none(),
        Algorithm::RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .run();
    assert_eq!(report.jobs_total, 30_000);
    assert_eq!(report.jobs_completed, 30_000);
    assert_eq!(report.node_jobs.len(), 100_000);
    let idle = report.node_jobs.iter().filter(|&&n| n == 0).count();
    assert!(idle > 50_000, "most nodes never hold a job; {idle} did not");
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_mb();
        eprintln!("VmHWM {peak:.1} MB");
        assert!(peak <= 27.4, "peak RSS {peak:.1} MB is over 27.4 MB");
    }
}
