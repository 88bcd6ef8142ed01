//! The parent side of a measurement: start child runs, gate their output,
//! and fold them into one result per workload.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::child::{Mode, RunRecord, TOP_LEVEL_PHASES};
use crate::env::Environment;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::Summary;
use crate::timed::busy_ns;
use crate::workloads::Workload;

/// Timed repeats never go below this, whatever `--seconds` says: a median
/// of fewer is one run's word.
pub const MIN_REPEATS: usize = 3;

/// Size divisor of `--smoke`.
pub const SMOKE_DIV: usize = 50;

/// Nodes of the untimed warm-up grid that precedes the first timed child.
const WARM_UP_NODES: usize = 256;

/// One end-to-end metric of one workload: raw per-repeat values and their
/// summary, with the catalogue entry it is judged by.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measured {
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound (share of the baseline median).
    pub bound: f64,
    /// Whether the value is a pure function of the seed (simulated time):
    /// then two result files of one seed must agree to the bit.
    pub exact: bool,
    /// Per-repeat values, in run order.
    pub values: Vec<f64>,
    /// Median, quartiles, extremes, count.
    pub summary: Summary,
}

/// Everything measured on one workload by one invocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Size divisor (1 = full size, 50 = `--smoke`).
    pub scale_div: usize,
    /// End-to-end metrics by name (from the untraced repeats only).
    pub end_to_end: BTreeMap<String, Measured>,
    /// Per-layer metrics by name (traced invocations only).
    pub per_layer: BTreeMap<String, f64>,
    /// Exact per-seed results every repeat agreed on.
    pub exact: BTreeMap<String, u64>,
    /// Jobs attempted over all runs.
    pub attempted: u64,
    /// Jobs failed, counting every job of a run that broke a check.
    pub failed: u64,
    /// Broken correctness checks; empty when the workload is clean.
    pub errors: Vec<String>,
    /// The untraced repeats, raw.
    pub runs: Vec<RunRecord>,
    /// The traced run with its span book, if one was made.
    pub traced: Option<RunRecord>,
}

impl WorkloadResult {
    /// No check broke and no job failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// A result file: where the numbers came from, and the numbers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultFile {
    /// The machine and toolchain.
    pub environment: Environment,
    /// `--seconds` of the invocation.
    pub seconds: f64,
    /// One entry per workload measured.
    pub workloads: Vec<WorkloadResult>,
}

/// Start one child run and read its record back. A child that dies without
/// a record yields one whose only content is the error.
fn spawn(workload: &Workload, seed: u64, scale_div: usize, mode: Mode) -> RunRecord {
    let failed = |why: String| RunRecord {
        mode: mode.label().to_string(),
        jobs_total: workload.size(scale_div).1 as u64,
        errors: vec![why],
        ..RunRecord::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let out = Command::new(exe)
        .args(["child", "--workload", workload.name, "--mode", mode.label()])
        .args(["--seed", &seed.to_string()])
        .args(["--scale-div", &scale_div.to_string()])
        .output();
    match out {
        Err(e) => failed(format!("cannot start child: {e}")),
        Ok(o) if !o.status.success() => failed(format!(
            "child exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) => {
            let stdout = String::from_utf8_lossy(&o.stdout);
            let line = stdout.lines().last().unwrap_or("");
            serde_json::from_str(line)
                .unwrap_or_else(|e| failed(format!("unreadable child record: {e}")))
        }
    }
}

/// The per-seed results that must not differ between two runs of one seed.
fn exact_of(r: &RunRecord) -> BTreeMap<String, u64> {
    let mut m = r.counts.clone();
    m.insert("events".into(), r.events);
    m.insert("stream_digest".into(), r.digest);
    m.insert("sim_mean_wait_s.bits".into(), r.sim_mean_wait_s.to_bits());
    m.insert(
        "matchmaker.hops_per_job.bits".into(),
        r.hops_per_job.to_bits(),
    );
    m.insert("jobs_completed".into(), r.jobs_completed);
    m.insert("jobs_failed".into(), r.jobs_failed);
    m
}

fn disagreement(
    what: &str,
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
) -> Option<String> {
    let keys: Vec<&str> = a
        .iter()
        .filter(|(k, v)| b.get(*k) != Some(v))
        .map(|(k, _)| k.as_str())
        .collect();
    (!keys.is_empty()).then(|| format!("{what} disagrees on {}", keys.join(", ")))
}

fn note(errors: &mut Vec<String>, run: &str, r: &RunRecord) {
    errors.extend(r.errors.iter().map(|e| format!("{run}: {e}")));
}

/// Measure one workload: a warm-up, untraced repeats for `seconds`, then —
/// when `trace` — one traced run, one sharded run and the layer probes.
pub fn measure(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale_div: usize,
) -> WorkloadResult {
    let mut errors = Vec::new();

    // Untimed: faults the executable in and lets the clock governor settle.
    let warm_div = (workload.nodes / WARM_UP_NODES).max(scale_div);
    note(
        &mut errors,
        "warm-up",
        &spawn(workload, seed, warm_div, Mode::Plain),
    );

    let started = Instant::now();
    let mut runs: Vec<RunRecord> = Vec::new();
    loop {
        let r = spawn(workload, seed, scale_div, Mode::Plain);
        note(&mut errors, &format!("repeat {}", runs.len()), &r);
        runs.push(r);
        let now = started.elapsed().as_secs_f64();
        if runs.len() >= MIN_REPEATS && now >= seconds {
            break;
        }
    }

    let exact = exact_of(&runs[0]);
    for (i, r) in runs.iter().enumerate().skip(1) {
        errors.extend(disagreement(&format!("repeat {i}"), &exact, &exact_of(r)));
    }

    let clean: Vec<&RunRecord> = runs.iter().filter(|r| r.errors.is_empty()).collect();
    let mut end_to_end = BTreeMap::new();
    for def in END_TO_END {
        let values: Vec<f64> = clean.iter().map(|r| (def.of)(r)).collect();
        match Summary::of(&values) {
            Some(summary) => {
                end_to_end.insert(
                    def.name.to_string(),
                    Measured {
                        unit: def.unit.to_string(),
                        better: def.better,
                        bound: def.bound,
                        exact: def.exact,
                        values,
                        summary,
                    },
                );
            }
            None => errors.push(format!("{}: no clean finite value", def.name)),
        }
    }

    let mut per_layer = BTreeMap::new();
    let mut traced = None;
    let mut sharded = None;
    if trace {
        let t = spawn(workload, seed, scale_div, Mode::Traced);
        note(&mut errors, "traced run", &t);
        // The decorators are transparent iff the traced run is, to the bit,
        // the run the repeats made.
        errors.extend(disagreement("traced run", &exact, &exact_of(&t)));
        per_layer.extend(t.layers.clone());
        per_layer.insert("matchmaker.hops_per_job".into(), t.hops_per_job);
        per_layer.extend(t.counts.iter().map(|(k, v)| (k.clone(), *v as f64)));
        let top: u64 = TOP_LEVEL_PHASES.iter().map(|p| busy_ns(&t.spans, p)).sum();
        let gap_pct = 100.0 * (t.wall_s - top as f64 / 1e9).abs() / t.wall_s;
        per_layer.insert("bench.books_gap_pct".into(), gap_pct);
        if gap_pct > 1.0 {
            errors.push(format!(
                "traced run: top-level spans miss wall time by {gap_pct:.2} %"
            ));
        }
        if let Some(wall) = end_to_end.get("wall_s") {
            per_layer.insert(
                "bench.trace_overhead_pct".into(),
                100.0 * (t.wall_s / wall.summary.median - 1.0),
            );
        }

        let s = spawn(workload, seed, scale_div, Mode::Sharded);
        note(&mut errors, "sharded run", &s);
        per_layer.insert("engine_shard.run_s".into(), s.run_s);
        if let Some(seq) = Summary::of(&clean.iter().map(|r| r.run_s).collect::<Vec<_>>()) {
            per_layer.insert("engine_shard.speedup_vs_seq".into(), seq.median / s.run_s);
        }
        sharded = Some(s);

        per_layer.extend(probes::run_all(seed, scale_div));
        for (name, _, _) in PER_LAYER {
            if !per_layer.contains_key(name) {
                errors.push(format!("per-layer metric {name} was not measured"));
            }
        }
        traced = Some(t);
    }

    let all = runs.iter().chain(&traced).chain(&sharded);
    let (mut attempted, mut failed) = (0, 0);
    for r in all {
        attempted += r.jobs_total;
        failed += if r.errors.is_empty() {
            r.jobs_failed
        } else {
            r.jobs_total
        };
    }

    WorkloadResult {
        workload: workload.name.to_string(),
        seed,
        scale_div,
        end_to_end,
        per_layer,
        exact,
        attempted,
        failed,
        errors,
        runs,
        traced,
    }
}
