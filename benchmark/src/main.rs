//! `dgrid-benchmark`: the end-to-end and per-layer benchmark for dgrid.
//!
//! ```text
//! dgrid-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out FILE]
//! dgrid-benchmark compare A.json B.json
//! ```
//!
//! Without `--workload` every workload is measured in turn. With one, the
//! last line of standard output is the machine-readable result the
//! contract in `BENCHMARK.json` describes. Every timed run is a child
//! process of this same executable (`dgrid-benchmark child ...`, not for
//! direct use). See `README.md`.

mod bench;
mod child;
mod compare;
mod env;
mod metrics;
mod probes;
mod stats;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Serialize;

use bench::{measure, ResultFile, WorkloadResult, SMOKE_DIV};
use child::Mode;
use env::Environment;
use metrics::{END_TO_END, PER_LAYER};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  dgrid-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  dgrid-benchmark compare A.json B.json";

/// Parsed `--flag value` pairs plus bare words.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => {
                    flags.insert("smoke".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        match self.flags.get("workload") {
            None => Ok(None),
            Some(name) => workloads::by_name(name).map(Some).ok_or(format!(
                "unknown workload {name:?} (known: {})",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    }
}

/// One metric in the machine-readable result line.
#[derive(Serialize)]
struct Reported {
    value: f64,
    unit: String,
}

/// The machine-readable result line of a single-workload invocation.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reported>,
}

fn print_result(r: &WorkloadResult, trace: bool) {
    let repeats = r.runs.len();
    println!(
        "workload {} seed {} (1/{} size): {repeats} untraced repeat(s)",
        r.workload, r.seed, r.scale_div
    );
    if let Some(w) = workloads::by_name(&r.workload) {
        println!("  why: {}", w.why);
    }
    for def in END_TO_END {
        if let Some(m) = r.end_to_end.get(def.name) {
            let s = &m.summary;
            println!(
                "  {:<36} {:>14.6} {:<9} min {:.6} q1 {:.6} q3 {:.6} max {:.6} n {} ({} is better, bound {:.0} %)",
                def.name,
                s.median,
                def.unit,
                s.min,
                s.q1,
                s.q3,
                s.max,
                s.n,
                def.better.label(),
                100.0 * def.bound
            );
        }
    }
    if trace {
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = r.per_layer.get(name) {
                println!("  {name:<36} {v:>14.6} {unit}");
            }
        }
    }
    println!(
        "  jobs: {} attempted, {} failed; checks: {}",
        r.attempted,
        r.failed,
        if r.errors.is_empty() {
            "all passed"
        } else {
            "BROKEN"
        }
    );
    for e in &r.errors {
        println!("  error: {e}");
    }
}

fn result_line(r: &WorkloadResult, trace: bool) -> String {
    let metrics = if trace {
        PER_LAYER
            .iter()
            .filter_map(|(name, unit, _)| {
                let value = *r.per_layer.get(*name)?;
                Some((
                    name.to_string(),
                    Reported {
                        value,
                        unit: unit.to_string(),
                    },
                ))
            })
            .collect()
    } else {
        r.end_to_end
            .iter()
            .map(|(name, m)| {
                let value = m.summary.median;
                (
                    name.clone(),
                    Reported {
                        value,
                        unit: m.unit.clone(),
                    },
                )
            })
            .collect()
    };
    let line = ResultLine {
        correct: r.correct(),
        attempted: r.attempted.max(1),
        failed: r.failed,
        metrics,
    };
    serde_json::to_string(&line).expect("a result line serializes")
}

fn run(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.get("seed", 7)?;
    let smoke = args.flags.contains_key("smoke");
    let seconds: f64 = args.get("seconds", if smoke { 1.0 } else { 20.0 })?;
    let trace = match args.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let scale_div = if smoke { SMOKE_DIV } else { 1 };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let one = args.workload()?;
    let selected: Vec<&Workload> = match one {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };

    let environment = Environment::capture();
    let mut results = Vec::new();
    for w in selected {
        let r = measure(w, seed, seconds, trace, scale_div);
        print_result(&r, trace);
        results.push(r);
    }
    let correct = results.iter().all(WorkloadResult::correct);

    if let Some(path) = args.flags.get("out") {
        let file = ResultFile {
            environment,
            seconds,
            workloads: results.clone(),
        };
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if one.is_some() {
        println!("{}", result_line(&results[0], trace));
    }
    Ok(correct)
}

fn run_child(args: &Args) -> Result<bool, String> {
    let workload = args.workload()?.ok_or("child needs --workload")?;
    let mode: String = args.get("mode", Mode::Plain.label().to_string())?;
    let mode = Mode::from_label(&mode).ok_or(format!("unknown --mode {mode:?}"))?;
    let record = child::run_once(
        workload,
        args.get("seed", 7)?,
        args.get("scale-div", 1)?,
        mode,
    );
    println!(
        "{}",
        serde_json::to_string(&record).map_err(|e| e.to_string())?
    );
    Ok(true)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (fa, fb) = (load(a)?, load(b)?);
    println!(
        "{:<18} {:<16} {:>12} {:<17} {:>12} {:<17} {:<9} {:>8}",
        "workload", "metric", "A median", "[q1 q3]", "B median", "[q1 q3]", "unit", "B worse"
    );
    let rows = compare::compare(&fa, &fb);
    for row in &rows {
        println!("{}", row.text);
    }
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    println!(
        "{} row(s), {failing} worse, unresolved or changed",
        rows.len()
    );
    Ok(failing == 0)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None => run(&args),
            Some("child") => run_child(&args),
            Some("compare") => run_compare(&args),
            Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
