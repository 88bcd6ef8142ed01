//! `dgrid` — command-line front end for the desktop-grid simulator.
//!
//! ```text
//! dgrid run     --algorithm rn-tree --scenario mixed/light [options]
//! dgrid compare --scenario clustered/heavy [options]
//! dgrid report  --events events.{jsonl|bin} [--timeseries series.json]
//! dgrid watch   --events events.{jsonl|bin} [--follow] [--window SECS]
//! dgrid events convert --events IN --out OUT [--to jsonl|binary]
//! dgrid check   [--seeds N] [--seed BASE] [--out PATH] [--matchmaker M[,M...]]
//! dgrid check   --replay repro.json
//!
//! options:
//!   --nodes N             grid size                      (default 200)
//!   --jobs M              job count                      (default 1000)
//!   --seed S              root seed                      (default 42)
//!   --threads N           worker threads for replicated/sweep work; for
//!                         `run` also parallelizes *inside* each
//!                         replication (sharded kernel)
//!                         (default: DGRID_THREADS env, else all cores)
//!   --replications R      run/compare: average R independent seeds,
//!                         `seed ^ 1 ..= seed ^ R`; 1 runs `--seed` itself
//!                         (default 1)
//!   --mttf SECS           enable churn with this MTTF
//!   --rejoin SECS         repair time after a departure
//!   --graceful FRAC       fraction of graceful departures (default 0)
//!   --k K                 rn-tree extended-search width   (default 4)
//!   --loss P              drop each message with probability P
//!   --partition S:E:IDS   partition nodes IDS (comma-sep) from SECS S to E
//!                         (repeatable)
//!   --lease-ttl SECS      enable owner leases with this ttl (`inf` = leases
//!                         armed but never expiring)
//!   --lease-renew SECS    heartbeat-driven renewal cadence (default 30)
//!   --lease-grace SECS    post-ttl grace before expiry     (default 30)
//!   --placement P         owner placement under leases: hash | load-aware
//!                         (default hash for run/compare, load-aware for check)
//!   --scenario-file S     a declarative scenario: a preset label
//!                         (flash-crowd, diurnal-wave) or a path to a JSON
//!                         ScenarioSpec; run/compare/check build their
//!                         engines from the compiled spec (arrivals,
//!                         tenants, failure domains, churn, diurnal
//!                         availability, horizon) instead of the classic
//!                         --scenario/--nodes/--jobs/--mttf/--loss knobs
//!   --events PATH         stream the lifecycle trace to a file
//!   --format F            event stream format: jsonl | binary (default jsonl)
//!   --timeseries PATH     write sampled grid gauges as JSON
//!   --sample-secs SECS    gauge sampling cadence          (default 60)
//!   --json PATH           also write the full report(s) as JSON
//!
//! report options:
//!   --events PATH         the recorded stream to analyze (required); the
//!                         format is sniffed from the magic bytes, so both
//!                         JSONL and binary streams work unchanged
//!   --timeseries PATH     render sparklines from a gauge series file
//!   --timeline N          show per-job timelines for the first N jobs (default 10)
//!   --width W             sparkline/timeline width        (default 48)
//!
//! watch options (tail a live or recorded stream, either format):
//!   --events PATH         the stream to watch (required)
//!   --follow              poll the file for growth and refresh the view
//!                         (Ctrl-C to stop; default renders once and exits)
//!   --window SECS         virtual-time window for rates   (default 60)
//!   --refresh SECS        wall-clock poll cadence with --follow (default 0.5)
//!   --idle-exit SECS      with --follow, exit after this long without growth
//!   --width W             sparkline width                 (default 48)
//!
//! events convert options (lossless either direction):
//!   --events PATH         input stream (format sniffed)
//!   --out PATH            output stream
//!   --to F                target format: jsonl | binary (default: the
//!                         opposite of the input's format)
//!
//! check options:
//!   --seeds N             scenarios to sweep              (default 50)
//!   --seed BASE           first scenario seed             (default 42)
//!   --out PATH            repro artifact path  (default dgrid-check-repro.json)
//!   --replay PATH         re-run a previously written repro artifact
//!   --inject-bug NAME     deliberately break the engine (self-test);
//!                         names: epoch-dedup
//!   --matchmaker M[,M...] only sweep the listed algorithm labels
//!                         (default: the six checked variants, every
//!                         algorithm but can-push and can-novirt)
//!   --scenario-file S     sweep the declarative spec instead of generated
//!                         scenarios: each seed compiles the spec and runs
//!                         it under every selected matchmaker (oracles +
//!                         per-tenant fairness + cross-matchmaker
//!                         differential, and with --lease-ttl the lease
//!                         differential; --inject-bug applies too; no
//!                         shrinking — specs are small)
//! ```
//!
//! `run` executes one cell and prints the report (`--replications R` fans R
//! seeds out over the work-stealing pool and averages them); `compare` runs
//! every algorithm on the same workload and replications and prints a
//! comparison table (with `--scenario-file`, per-tenant fairness and waits
//! too); `report` renders a per-phase wait-time decomposition from a
//! recorded event stream; `check` fuzzes randomized fault scenarios under
//! every matchmaker against the invariant oracles in `dgrid-check` (seeds
//! checked in parallel), shrinking any violation to a minimal replayable
//! artifact. Host time is measured by `benchmark/` alone.
//!
//! All replicated work is deterministic: results are merged in input order,
//! so the same seed yields the same bytes at any `--threads` setting.

use std::cmp::Ordering;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::str::FromStr;

use dgrid::check::LeaseSpec;
use dgrid::core::{
    binary_to_jsonl, decode_stream, jsonl_to_binary, parse_jsonl_line, phase_samples, sniff_format,
    BinaryObserver, ChurnConfig, Engine, EngineConfig, EventRecord, FaultPlan, JobSpan,
    JsonlObserver, Phase, PlacementPolicy, RnTreeConfig, SimReport, SpanAssembler, SpanOutcome,
    StreamAnalytics, StreamDecoder, StreamFormat,
};
use dgrid::harness::{mean_over, Algorithm, CellResult};
use dgrid::sim::hist::LogHistogram;
use dgrid::sim::stats::{OnlineStats, SampleSummary};
use dgrid::sim::telemetry::TimeSeries;
use dgrid::sim::{SimDuration, SimTime};
use dgrid::workloads::{
    paper_scenario, scenario_preset, CompiledScenario, PaperScenario, ScenarioSpec,
    SCENARIO_PRESETS,
};

#[derive(Clone, Debug)]
struct Opts {
    command: String,
    algorithm: Algorithm,
    scenario: PaperScenario,
    nodes: usize,
    jobs: usize,
    seed: u64,
    mttf: Option<f64>,
    rejoin: Option<f64>,
    graceful: f64,
    k: usize,
    loss: f64,
    partitions: Vec<(f64, f64, Vec<u32>)>,
    events: Option<String>,
    format: StreamFormat,
    to_format: Option<StreamFormat>,
    follow: bool,
    window_secs: f64,
    refresh_secs: f64,
    idle_exit: Option<f64>,
    timeseries: Option<String>,
    sample_secs: f64,
    timeline: usize,
    width: usize,
    json: Option<String>,
    seeds: u64,
    out: Option<String>,
    replay: Option<String>,
    inject_bug: Option<String>,
    matchmakers: Option<String>,
    threads: Option<usize>,
    replications: usize,
    /// The `--lease-*` and `--placement` flags with the command's defaults
    /// filled in; `None` without `--lease-ttl`.
    lease: Option<LeaseSpec>,
    /// A declarative scenario from `--scenario-file` (a preset label or a
    /// JSON spec path); when set, run/compare/check build their engines
    /// from the compiled spec instead of the classic paper workload.
    scenario_spec: Option<ScenarioSpec>,
}

fn usage() -> ! {
    // The algorithm, scenario and preset lines are generated from their
    // registries, so the help text cannot drift from what the parsers
    // accept.
    let algorithms = Algorithm::ALL.map(Algorithm::label).join(" ");
    let scenarios = PaperScenario::ALL.map(PaperScenario::label).join(" ");
    let presets = SCENARIO_PRESETS.join(" ");
    eprintln!(
        "usage: dgrid <run|compare|report|watch|events convert|check> \
         [--algorithm A] [--scenario S] [--scenario-file PRESET|SPEC.json] \
         [--nodes N] [--jobs M] [--seed S] [--threads N] [--replications R] [--mttf SECS] \
         [--rejoin SECS] [--graceful FRAC] \
         [--k K] [--loss P] [--partition START:END:IDS] \
         [--lease-ttl SECS] [--lease-renew SECS] [--lease-grace SECS] \
         [--placement hash|load-aware] [--events PATH] [--format jsonl|binary] \
         [--to jsonl|binary] [--follow] [--window SECS] [--refresh SECS] [--idle-exit SECS] \
         [--timeseries PATH] [--sample-secs SECS] [--timeline N] [--width W] [--json PATH] \
         [--seeds N] [--out PATH] [--replay PATH] [--inject-bug NAME] [--matchmaker M[,M...]]\n\
         algorithms: {algorithms}\n\
         scenarios : {scenarios}\n\
         presets   : {presets} (for --scenario-file; or a JSON spec path)"
    );
    std::process::exit(2)
}

/// One line on stderr and exit code 2: the invocation cannot be carried out.
fn die(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A flag whose value does not parse names itself before the usage block.
fn bad_flag(flag: &str, val: &str, want: &str) -> ! {
    eprintln!("{flag}: {val:?} is not {want}");
    usage()
}

/// The value of `flag`, parsed; `want` completes "is not ..." on failure.
fn arg<T: FromStr>(flag: &str, val: &str, want: &str) -> T {
    val.parse().unwrap_or_else(|_| bad_flag(flag, val, want))
}

/// A count that must be at least 1.
fn positive(flag: &str, val: &str) -> usize {
    match arg(flag, val, "a number") {
        0 => bad_flag(flag, val, "at least 1"),
        n => n,
    }
}

/// A number `ok` accepts; `want` completes "is not ..." when it does not.
fn number(flag: &str, val: &str, want: &str, ok: impl Fn(f64) -> bool) -> f64 {
    let x = arg(flag, val, "a number");
    if !ok(x) {
        bad_flag(flag, val, want);
    }
    x
}

/// The value of a flag `command` cannot run without.
fn required<'a>(value: &'a Option<String>, command: &str, flag: &str) -> &'a str {
    value.as_deref().unwrap_or_else(|| {
        eprintln!("dgrid {command} requires {flag}");
        usage()
    })
}

/// An unusable file is one line and exit code 2, never a panic.
trait OrExit<T> {
    fn or_exit(self, path: impl Display, what: &str) -> T;
}

impl<T, E: Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, path: impl Display, what: &str) -> T {
        self.unwrap_or_else(|e| die(format_args!("cannot {what} {path}: {e}")))
    }
}

/// Resolve `--scenario` against the [`PaperScenario`] registry, so the
/// accepted labels (and the error text) always match `PaperScenario::ALL`.
fn parse_scenario(s: &str) -> PaperScenario {
    PaperScenario::from_label(s).unwrap_or_else(|| {
        let known = PaperScenario::ALL.map(PaperScenario::label).join(", ");
        die(format_args!("unknown --scenario {s:?} (known: {known})"))
    })
}

/// Resolve `--scenario-file`: a preset label from the scenario registry, or
/// a path to a JSON [`ScenarioSpec`] (sparse — absent fields take defaults).
fn parse_scenario_file(val: &str) -> ScenarioSpec {
    if let Some(spec) = scenario_preset(val) {
        return spec;
    }
    let json = std::fs::read_to_string(val).unwrap_or_else(|e| {
        let known = SCENARIO_PRESETS.join(", ");
        die(format_args!(
            "--scenario-file {val:?}: not a preset (known: {known}) and not a readable file: {e}"
        ))
    });
    ScenarioSpec::from_json(&json)
        .unwrap_or_else(|e| die(format_args!("--scenario-file {val}: {e}")))
}

/// `START:END:ID[,ID...]` — a scheduled partition isolating the listed nodes.
fn parse_partition(s: &str) -> (f64, f64, Vec<u32>) {
    let parts: Vec<&str> = s.splitn(3, ':').collect();
    if parts.len() != 3 {
        bad_flag("--partition", s, "START:END:ID[,ID...]");
    }
    let island = parts[2]
        .split(',')
        .map(|id| arg("--partition", id, "a node id"))
        .collect();
    let start: f64 = arg("--partition", parts[0], "a number");
    let end: f64 = arg("--partition", parts[1], "a number");
    if start.partial_cmp(&end).is_none_or(Ordering::is_gt) {
        bad_flag("--partition", s, "START:END:ID[,ID...] with START <= END");
    }
    (start, end, island)
}

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = Opts {
        command: args[0].clone(),
        algorithm: Algorithm::RnTree,
        scenario: PaperScenario::MixedLight,
        nodes: 200,
        jobs: 1000,
        seed: 42,
        mttf: None,
        rejoin: None,
        graceful: 0.0,
        k: 4,
        loss: 0.0,
        partitions: Vec::new(),
        events: None,
        format: StreamFormat::Jsonl,
        to_format: None,
        follow: false,
        window_secs: 60.0,
        refresh_secs: 0.5,
        idle_exit: None,
        timeseries: None,
        sample_secs: 60.0,
        timeline: 10,
        width: 48,
        json: None,
        seeds: 50,
        out: None,
        replay: None,
        inject_bug: None,
        matchmakers: None,
        threads: None,
        replications: 1,
        lease: None,
        scenario_spec: None,
    };
    let (mut ttl, mut renew, mut grace, mut placement) = (None, None, None, None);
    let mut i = 1;
    match (opts.command.as_str(), args.get(1).map(String::as_str)) {
        ("run" | "compare" | "report" | "watch" | "check", _) => {}
        ("events", Some("convert")) => {
            opts.command = "events-convert".to_string();
            i = 2;
        }
        ("bench", _) => die(
            "dgrid bench is gone: host time is measured by `cargo run --release \
             --manifest-path benchmark/Cargo.toml`, and the simulated tables come \
             from `dgrid compare --replications R`",
        ),
        _ => usage(),
    }
    while i < args.len() {
        let flag = args[i].as_str();
        // Boolean flags take no value.
        if flag == "--follow" {
            opts.follow = true;
            i += 1;
            continue;
        }
        let Some(val) = args.get(i + 1).cloned() else {
            eprintln!("{flag}: unknown flag, or its value is missing");
            usage();
        };
        let num = "a number";
        match flag {
            "--algorithm" => {
                let alg = Algorithm::from_label(&val);
                opts.algorithm = alg.unwrap_or_else(|| bad_flag(flag, &val, "an algorithm"));
            }
            "--scenario" => opts.scenario = parse_scenario(&val),
            "--scenario-file" => opts.scenario_spec = Some(parse_scenario_file(&val)),
            "--nodes" => opts.nodes = positive(flag, &val),
            "--jobs" => opts.jobs = positive(flag, &val),
            "--seed" => opts.seed = arg(flag, &val, num),
            "--mttf" => opts.mttf = Some(number(flag, &val, "at least 0", |x| x >= 0.0)),
            "--rejoin" => opts.rejoin = Some(number(flag, &val, "at least 0", non_negative)),
            "--graceful" => opts.graceful = number(flag, &val, "in [0, 1]", fraction),
            "--k" => opts.k = positive(flag, &val),
            "--loss" => opts.loss = number(flag, &val, "in [0, 1]", fraction),
            "--partition" => opts.partitions.push(parse_partition(&val)),
            "--events" => opts.events = Some(val),
            "--format" => opts.format = arg(flag, &val, "jsonl or binary"),
            "--to" => opts.to_format = Some(arg(flag, &val, "jsonl or binary")),
            "--window" => opts.window_secs = number(flag, &val, "above 0", positive_secs),
            "--refresh" => opts.refresh_secs = number(flag, &val, "above 0", positive_secs),
            "--idle-exit" => opts.idle_exit = Some(arg(flag, &val, num)),
            "--timeseries" => opts.timeseries = Some(val),
            "--sample-secs" => opts.sample_secs = number(flag, &val, "above 0", |x| x > 0.0),
            "--timeline" => opts.timeline = arg(flag, &val, num),
            "--width" => opts.width = arg(flag, &val, num),
            "--json" => opts.json = Some(val),
            "--seeds" => opts.seeds = arg(flag, &val, num),
            "--out" => opts.out = Some(val),
            "--replay" => opts.replay = Some(val),
            "--inject-bug" => opts.inject_bug = Some(val),
            "--matchmaker" => opts.matchmakers = Some(val),
            "--lease-ttl" => ttl = Some((number(flag, &val, "above 0", |x| x > 0.0), val)),
            "--lease-renew" => renew = Some(number(flag, &val, "above 0", positive_secs)),
            "--lease-grace" => grace = Some(number(flag, &val, "at least 0", non_negative)),
            "--placement" => placement = Some(arg(flag, &val, "hash or load-aware")),
            "--threads" => opts.threads = Some(positive(flag, &val)),
            "--replications" => opts.replications = positive(flag, &val),
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
        i += 2;
    }
    // `check` arms the short standard check lease (renew 15 s, grace 10 s,
    // load-aware placement); `run` and `compare` the engine's 30 s / 30 s
    // with the paper-faithful hash placement.
    let check = opts.command == "check";
    if let Some((ttl, val)) = ttl {
        let lease = LeaseSpec {
            ttl_secs: ttl,
            renew_secs: renew.unwrap_or(if check { 15.0 } else { 30.0 }),
            grace_secs: grace.unwrap_or(if check { 10.0 } else { 30.0 }),
            placement: placement.unwrap_or(if check {
                PlacementPolicy::LoadAware
            } else {
                PlacementPolicy::Hash
            }),
        };
        // An infinite ttl switches expiry off: no renew interval to exceed.
        if ttl.is_finite() && ttl <= lease.renew_secs {
            let want = format!("above the renew interval ({} s)", lease.renew_secs);
            bad_flag("--lease-ttl", &val, &want);
        }
        opts.lease = Some(lease);
    }
    opts
}

/// Seconds that are finite and at least 0.
fn non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Seconds that are finite and above 0.
fn positive_secs(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// A probability or fraction.
fn fraction(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

/// The fault plan `--loss` / `--partition` describe: none without them,
/// which keeps the engine on its bit-exact fault-free path.
fn fault_plan(opts: &Opts) -> FaultPlan {
    let mut plan = FaultPlan::with_loss(opts.loss);
    for (start, end, island) in &opts.partitions {
        plan = plan.with_partition(*start, *end, island.clone());
    }
    plan
}

/// One engine for `(opts, algorithm, seed)`, with `--k` and the `--lease-*`
/// flags applied. With `--scenario-file` the spec compiled at `seed`
/// supplies the workload, churn, fault plan, availability schedule and
/// horizon; otherwise the classic paper-scenario knobs do. Either way
/// [`CompiledScenario::engine`] assembles it, as it does every engine
/// `dgrid check` judges. `run --threads N` also parallelizes *inside* the
/// replication: the sharded conservative-window kernel with the pinned shard
/// count, so the same seed yields the same bytes at any N (replication
/// fan-out and shard batches share the pool).
fn engine_for(opts: &Opts, algorithm: Algorithm, seed: u64) -> Engine {
    let compiled = match &opts.scenario_spec {
        Some(spec) => spec.compile(seed),
        None => CompiledScenario {
            workload: paper_scenario(opts.scenario, opts.nodes, opts.jobs, seed),
            fault_plan: fault_plan(opts),
            schedule: Vec::new(),
            churn: ChurnConfig {
                mttf_secs: opts.mttf,
                rejoin_after_secs: opts.rejoin,
                graceful_fraction: opts.graceful,
            },
            horizon_secs: 5_000_000.0,
            tenant_names: Vec::new(),
        },
    };
    let mut cfg = EngineConfig {
        seed,
        ..EngineConfig::default()
    };
    if let Some(lease) = opts.lease {
        lease.configure(&mut cfg);
    }
    // `--k` is the RN-Tree variants' extended-search width.
    let rn = RnTreeConfig {
        k: opts.k,
        ..RnTreeConfig::default()
    };
    let mut engine = compiled.engine(cfg, algorithm.matchmaker_with(rn));
    if opts.command == "run" && opts.threads.is_some() {
        engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
    }
    engine
}

/// The stream observer `--format` selects, writing into `sink`.
fn stream_observer<W: Write + 'static>(
    format: StreamFormat,
    sink: W,
) -> Box<dyn dgrid::core::Observer> {
    match format {
        StreamFormat::Jsonl => Box::new(JsonlObserver::new(sink)),
        StreamFormat::Binary => Box::new(BinaryObserver::new(sink)),
    }
}

/// Seeds of the `--replications R` replications: `--seed` itself at R = 1,
/// else `seed ^ 1 ..= seed ^ R` (the `run_cell` scheme).
fn replication_seeds(opts: &Opts) -> Vec<u64> {
    match opts.replications as u64 {
        1 => vec![opts.seed],
        n => (1..=n).map(|r| opts.seed ^ r).collect(),
    }
}

/// A `Write` handle whose buffer survives the observer that consumes it, so
/// a replication running on a pool worker can hand its event bytes back
/// after the engine (and the `JsonlObserver` boxed inside it) is dropped.
/// Never shared across threads — each replication builds its own.
#[derive(Clone, Default)]
struct SharedSink(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `run --replications R` (R > 1): fan the R seeds out over the pool, print
/// a per-replication table plus the averages, and write the concatenated
/// event streams (each captured in memory, in the `--format` of choice) in
/// replication order, so the file is identical at any thread count.
fn run_replicated(opts: &Opts) -> Vec<SimReport> {
    use rayon::prelude::*;

    let seeds = replication_seeds(opts);
    let (reports, streams): (Vec<SimReport>, Vec<Vec<u8>>) = seeds
        .clone()
        .into_par_iter()
        .map(|seed| {
            let mut engine = engine_for(opts, opts.algorithm, seed);
            let sink = SharedSink::default();
            if opts.events.is_some() {
                engine.set_observer(stream_observer(opts.format, sink.clone()));
            }
            (engine.run(), sink.0.take())
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip();

    println!(" rep         seed  mean wait   std wait   hops/job  completion");
    let row = |rep: &str, seed: &str, cell: CellResult| {
        println!(
            "{rep:>4} {seed:>12} {:>9.1}s {:>9.1}s {:>10.1} {:>10.1}%",
            cell.mean_wait,
            cell.std_wait,
            cell.mean_match_hops + cell.mean_owner_hops,
            100.0 * cell.completion_rate,
        )
    };
    for (r, (report, seed)) in reports.iter().zip(&seeds).enumerate() {
        let cell = CellResult::from_reports(std::slice::from_ref(report));
        row(&r.to_string(), &seed.to_string(), cell);
    }
    row("mean", "-", CellResult::from_reports(&reports));

    if let Some(path) = &opts.events {
        let mut w = BufWriter::new(File::create(path).or_exit(path, "create"));
        for events in &streams {
            w.write_all(events).or_exit(path, "write");
        }
        w.flush().or_exit(path, "write");
        eprintln!(
            "wrote {} concatenated event stream(s) to {path}",
            streams.len()
        );
    }
    reports
}

fn print_report(r: &SimReport) {
    println!("algorithm        : {}", r.algorithm);
    println!(
        "jobs             : {} completed, {} failed of {}",
        r.jobs_completed, r.jobs_failed, r.jobs_total
    );
    println!("mean wait        : {:>10.1} s", r.mean_wait());
    println!("stdev wait       : {:>10.1} s", r.std_wait());
    if let Some(w) = &r.wait_stats {
        println!(
            "wait percentiles : {:>10.1} s p50, {:.1} s p95, {:.1} s p99",
            w.p50, w.p95, w.p99
        );
    }
    println!("mean turnaround  : {:>10.1} s", r.turnaround.mean());
    if let Some(t) = &r.turnaround_stats {
        println!(
            "turn percentiles : {:>10.1} s p50, {:.1} s p95, {:.1} s p99",
            t.p50, t.p95, t.p99
        );
    }
    println!("makespan         : {:>10.1} s", r.makespan_secs);
    println!(
        "matchmaking cost : {:>10.1} hops/job",
        r.match_hops.mean() + r.owner_hops.mean()
    );
    println!("load fairness    : {:>10.3}", r.load_fairness());
    println!("client fairness  : {:>10.3}", r.client_fairness());
    if r.messages_lost > 0 || r.lookup_retries > 0 {
        println!(
            "faults           : {} messages lost, {} retries, {} spurious detections",
            r.messages_lost, r.lookup_retries, r.spurious_detections
        );
    }
    if r.node_failures + r.graceful_leaves > 0 {
        println!(
            "churn            : {} failures, {} graceful leaves",
            r.node_failures, r.graceful_leaves
        );
        println!(
            "recoveries       : {} run, {} owner, {} client resubmits",
            r.run_recoveries, r.owner_recoveries, r.client_resubmits
        );
    }
    if r.lease_renewals + r.lease_expiries + r.lease_transfers > 0 {
        println!(
            "leases           : {} renewals, {} expiries, {} transfers",
            r.lease_renewals, r.lease_expiries, r.lease_transfers
        );
    }
}

/// Per-tenant wait breakdown for the replications of a scenario run.
/// Tenant `i` submits as engine client `i`, so the reports' per-client
/// accumulators are the per-tenant accumulators under their spec names;
/// across replications the fairness index is averaged and each tenant's
/// accumulators are pooled (counts add, means combine count-weighted).
fn print_tenant_breakdown(reports: &[SimReport], spec: &ScenarioSpec) {
    println!(
        "tenant fairness  : {:>10.3}",
        mean_over(reports, SimReport::tenant_fairness)
    );
    for (i, t) in spec.tenants.iter().enumerate() {
        let mut pooled = OnlineStats::new();
        for s in reports
            .iter()
            .filter_map(|r| r.client_waits.get(&(i as u32)))
        {
            pooled.merge(s);
        }
        println!(
            "  {:<15}: {:>6} job(s) waited, mean wait {:.1} s (weight {})",
            t.name,
            pooled.count(),
            pooled.mean(),
            t.weight
        );
    }
}

/// Load spans back out of a recorded event stream, either format (sniffed
/// from the magic bytes), so every existing `report` recipe keeps working
/// when the stream was recorded with `--format binary`.
fn spans_from_events(path: &str) -> Vec<JobSpan> {
    let bytes = std::fs::read(path).or_exit(path, "read");
    let mut assembler = SpanAssembler::new();
    let mut observe = |rec: EventRecord| {
        assembler.observe(SimTime::ZERO + SimDuration::from_nanos(rec.t_ns), rec.event)
    };
    match sniff_format(&bytes) {
        StreamFormat::Binary => (decode_stream(&bytes).or_exit(path, "decode"))
            .into_iter()
            .for_each(&mut observe),
        StreamFormat::Jsonl => (String::from_utf8(bytes).or_exit(path, "read"))
            .lines()
            .enumerate()
            .filter_map(|(n, line)| {
                parse_jsonl_line(line).or_exit(format_args!("{path}:{}", n + 1), "parse")
            })
            .for_each(&mut observe),
    }
    assembler.finish()
}

/// One letter per phase for the compact per-job timeline.
fn phase_glyph(p: Phase) -> char {
    match p {
        Phase::Routing => 'r',
        Phase::Matchmaking => 'm',
        Phase::Dispatch => 'd',
        Phase::Execution => '#',
        Phase::Recovery => '!',
        Phase::ResultReturn => 't',
    }
}

/// Render one span as a proportional fixed-width bar of phase glyphs.
fn timeline_bar(span: &JobSpan, width: usize) -> String {
    let total = span.total().as_nanos();
    if total == 0 || width == 0 {
        return String::new();
    }
    let mut bar = String::with_capacity(width);
    for phase in Phase::ALL {
        let ns = span.phase(phase).as_nanos();
        let cells = ((ns as u128 * width as u128 + total as u128 / 2) / total as u128) as usize;
        let cells = if ns > 0 { cells.max(1) } else { 0 };
        for _ in 0..cells {
            bar.push(phase_glyph(phase));
        }
    }
    bar.truncate(width);
    bar
}

fn cmd_report(opts: &Opts) {
    let events = required(&opts.events, "report", "--events PATH");
    let spans = spans_from_events(events);
    let completed = spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Completed)
        .count();
    let failed = spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Failed)
        .count();
    let open = spans.len() - completed - failed;
    println!(
        "{} jobs traced: {completed} completed, {failed} failed, {open} open",
        spans.len()
    );
    let recoveries: u32 = spans.iter().map(|s| s.recoveries).sum();
    let resubmits: u32 = spans.iter().map(|s| s.resubmits).sum();
    if recoveries + resubmits > 0 {
        println!("{recoveries} recoveries, {resubmits} client resubmissions");
    }
    println!();

    // Per-phase percentile table with a log-histogram sparkline of the
    // nonzero durations.
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10}  distribution",
        "phase", "jobs", "mean", "p50", "p95", "p99"
    );
    for (phase, mut set) in phase_samples(&spans) {
        let nonzero: Vec<f64> = set.samples().iter().copied().filter(|&x| x > 0.0).collect();
        let mut hist = LogHistogram::new(2.0);
        for x in &nonzero {
            hist.record(*x);
        }
        let s = set.summary();
        println!(
            "{:<14} {:>8} {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}s  {}",
            phase.label(),
            nonzero.len(),
            s.mean,
            s.p50,
            s.p95,
            s.p99,
            hist.sparkline(),
        );
    }

    // Compact per-job timelines, submission order.
    if opts.timeline > 0 {
        let mut ordered: Vec<&JobSpan> = spans.iter().collect();
        ordered.sort_by_key(|s| (s.submitted_at, s.job));
        println!();
        println!(
            "first {} job timelines (r=routing m=matchmaking d=dispatch #=execution !=recovery t=result)",
            ordered.len().min(opts.timeline)
        );
        for span in ordered.iter().take(opts.timeline) {
            let total = span.total();
            println!(
                "{:>8} {:>9.1}s |{}|",
                span.job.to_string(),
                total.as_secs_f64(),
                timeline_bar(span, opts.width)
            );
        }
    }

    // Gauge sparklines from a recorded time series.
    if let Some(path) = &opts.timeseries {
        let f = File::open(path).or_exit(path, "open");
        let ts: TimeSeries = serde_json::from_reader(f).or_exit(path, "parse");
        println!();
        println!(
            "grid gauges over virtual time ({} samples, every {:.0}s)",
            ts.len(),
            ts.cadence_secs()
        );
        for name in ts.names() {
            let xs = ts.get(name).unwrap();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<12} {} [{:.0}..{:.0}]",
                name,
                ts.sparkline(name, opts.width).unwrap_or_default(),
                min,
                max
            );
        }
    }
}

/// `dgrid events convert`: lossless conversion between the JSONL and binary
/// stream formats. The input format is sniffed; the target defaults to the
/// opposite format. Same-format conversion re-encodes through the record
/// layer, which validates the stream and normalizes a concatenated
/// multi-replication binary file down to a single header.
fn cmd_events_convert(opts: &Opts) {
    let input = required(&opts.events, "events convert", "--events IN");
    let output = required(&opts.out, "events convert", "--out OUT");
    let bytes = std::fs::read(input).or_exit(input, "read");
    let from = sniff_format(&bytes);
    let to = opts.to_format.unwrap_or(match from {
        StreamFormat::Jsonl => StreamFormat::Binary,
        StreamFormat::Binary => StreamFormat::Jsonl,
    });
    let in_len = bytes.len();
    let out_bytes: Vec<u8> = match (from, to) {
        (StreamFormat::Jsonl, StreamFormat::Binary) => {
            let text = String::from_utf8(bytes).or_exit(input, "read");
            jsonl_to_binary(&text).or_exit(input, "decode")
        }
        (StreamFormat::Binary, StreamFormat::Jsonl) => binary_to_jsonl(&bytes)
            .or_exit(input, "decode")
            .into_bytes(),
        (StreamFormat::Binary, StreamFormat::Binary) => {
            dgrid::core::encode_events(&decode_stream(&bytes).or_exit(input, "decode"))
        }
        (StreamFormat::Jsonl, StreamFormat::Jsonl) => {
            let text = String::from_utf8(bytes).or_exit(input, "read");
            let bin = jsonl_to_binary(&text).or_exit(input, "decode");
            binary_to_jsonl(&bin).or_exit(input, "decode").into_bytes()
        }
    };
    std::fs::write(output, &out_bytes).or_exit(output, "write");
    eprintln!(
        "converted {input} ({}) -> {output} ({}): {} -> {} bytes ({:.2}x)",
        from.label(),
        to.label(),
        in_len,
        out_bytes.len(),
        in_len as f64 / (out_bytes.len().max(1)) as f64,
    );
}

/// Incremental feeder for `dgrid watch`: sniffs the stream format from the
/// first bytes, then routes chunks through the matching incremental decoder
/// into a [`StreamAnalytics`]. Partial frames / partial lines at a chunk
/// boundary are held until more bytes arrive, which is what makes tailing a
/// file mid-write safe.
struct StreamTail {
    analytics: StreamAnalytics,
    fmt: Option<StreamFormat>,
    head: Vec<u8>,
    dec: StreamDecoder,
    line_buf: Vec<u8>,
}

impl StreamTail {
    fn new(window: SimDuration, history: usize) -> Self {
        StreamTail {
            analytics: StreamAnalytics::new(window, history),
            fmt: None,
            head: Vec::new(),
            dec: StreamDecoder::new(),
            line_buf: Vec::new(),
        }
    }

    fn push(&mut self, bytes: &[u8], eof: bool) -> Result<(), String> {
        if self.fmt.is_none() {
            // Hold bytes until the format is decidable (8 bytes settles it);
            // the format is sniffed exactly once per stream.
            self.head.extend_from_slice(bytes);
            if self.head.len() < 8 && !eof {
                return Ok(());
            }
            self.fmt = Some(sniff_format(&self.head));
            let held = std::mem::take(&mut self.head);
            return self.consume(&held, eof);
        }
        // Steady state (every later `--follow` poll): consume the slice in
        // place — the decoders buffer partial frames/lines themselves, so
        // no intermediate copy of the chunk is needed.
        self.consume(bytes, eof)
    }

    fn consume(&mut self, bytes: &[u8], eof: bool) -> Result<(), String> {
        match self.fmt {
            Some(StreamFormat::Binary) => {
                self.dec.push(bytes);
                loop {
                    match self.dec.next_event() {
                        Ok(Some(rec)) => self.analytics.feed_record(&rec),
                        Ok(None) => break,
                        Err(e) => return Err(e.to_string()),
                    }
                }
                if eof {
                    self.dec.finish().map_err(|e| e.to_string())?;
                }
            }
            Some(StreamFormat::Jsonl) => {
                self.line_buf.extend_from_slice(bytes);
                let mut start = 0;
                while let Some(nl) = self.line_buf[start..].iter().position(|&b| b == b'\n') {
                    let line = &self.line_buf[start..start + nl];
                    start += nl + 1;
                    let line = std::str::from_utf8(line).map_err(|_| "non-UTF-8 event line")?;
                    match parse_jsonl_line(line) {
                        Ok(Some(rec)) => self.analytics.feed_record(&rec),
                        Ok(None) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
                self.line_buf.drain(..start);
                if eof && !self.line_buf.is_empty() {
                    return Err("stream truncated mid-line".to_string());
                }
            }
            None => unreachable!("format was just decided"),
        }
        Ok(())
    }
}

/// Render a slice of per-window values as a fixed-width sparkline (last
/// `width` windows, scaled to the slice maximum).
fn sparkline(xs: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let tail = &xs[xs.len().saturating_sub(width)..];
    let max = tail.iter().copied().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&x| {
            if max <= 0.0 {
                GLYPHS[0]
            } else {
                let idx = ((x / max) * 7.0).round() as usize;
                GLYPHS[idx.min(7)]
            }
        })
        .collect()
}

fn fmt_ns_secs(ns: u64) -> String {
    format!("{:.1}s", ns as f64 / 1e9)
}

/// Render one refresh of the watch dashboard.
fn render_watch(tail: &StreamTail, path: &str, opts: &Opts, clear: bool) {
    use dgrid::core::EventKind;

    let snap = tail.analytics.snapshot();
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let fmt = tail.fmt.map(StreamFormat::label).unwrap_or("?");
    out.push_str(&format!(
        "watch {path} ({fmt})  {} events  t = {:.1}s virtual\n",
        snap.events_total,
        snap.last_t_ns as f64 / 1e9
    ));
    out.push_str(&format!(
        "jobs: {} inflight, {} executing, {} completed, {} failed\n",
        snap.inflight,
        snap.executing,
        snap.per_kind[EventKind::Completed.index()],
        snap.per_kind[EventKind::Failed.index()]
    ));
    for (label, stats) in [("wait", &snap.wait), ("turnaround", &snap.turnaround)] {
        match stats {
            Some(s) => out.push_str(&format!(
                "{label:<10} p50 {:>8} p95 {:>8} p99 {:>8} max {:>8} (n={})\n",
                fmt_ns_secs(s.p50_ns),
                fmt_ns_secs(s.p95_ns),
                fmt_ns_secs(s.p99_ns),
                fmt_ns_secs(s.max_ns),
                s.count
            )),
            None => out.push_str(&format!("{label:<10} (no samples yet)\n")),
        }
    }
    // Per-window rates over the retained history plus the open window.
    let window_secs = snap.window_ns as f64 / 1e9;
    let mut all_rows: Vec<&[u64]> = snap.recent.iter().map(|r| r.counts.as_slice()).collect();
    all_rows.push(&snap.current);
    let series = |pick: &dyn Fn(&[u64]) -> u64| -> Vec<f64> {
        all_rows
            .iter()
            .map(|c| pick(c) as f64 / window_secs)
            .collect()
    };
    let rows: [(&str, Vec<f64>); 3] = [
        ("events/s", series(&|c| c.iter().sum())),
        (
            "completions/s",
            series(&|c| c[EventKind::Completed.index()]),
        ),
        (
            "lease xfers/s",
            series(&|c| c[EventKind::LeaseTransferred.index()]),
        ),
    ];
    out.push_str(&format!("per-{window_secs:.0}s-window rates:\n"));
    for (label, xs) in rows {
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  {label:<14} {} [0..{max:.2}]\n",
            sparkline(&xs, opts.width)
        ));
    }
    out.push_str("kinds:");
    for kind in EventKind::ALL {
        let n = snap.per_kind[kind.index()];
        if n > 0 {
            out.push_str(&format!(" {}={n}", kind.label()));
        }
    }
    out.push('\n');
    print!("{out}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
}

/// `dgrid watch`: tail a live or recorded event stream (either format) and
/// render a refreshing terminal dashboard of window rates, percentile
/// sketches, and per-kind counters — observability that works *while* the
/// run is still writing, not just post-hoc.
fn cmd_watch(opts: &Opts) {
    let path = required(&opts.events, "watch", "--events PATH");
    let window = SimDuration::from_secs_f64(opts.window_secs);
    let mut tail = StreamTail::new(window, 512);

    if !opts.follow {
        let bytes = std::fs::read(path).or_exit(path, "read");
        tail.push(&bytes, true).or_exit(path, "decode");
        render_watch(&tail, path, opts, false);
        return;
    }

    use std::io::{IsTerminal, Read, Seek, SeekFrom};
    let clear = std::io::stdout().is_terminal();
    let mut pos: u64 = 0;
    let mut idle_secs = 0.0f64;
    loop {
        let mut grew = false;
        if let Ok(mut f) = File::open(path) {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len > pos {
                f.seek(SeekFrom::Start(pos)).or_exit(path, "seek");
                let mut buf = Vec::with_capacity((len - pos) as usize);
                f.take(len - pos)
                    .read_to_end(&mut buf)
                    .or_exit(path, "read");
                pos += buf.len() as u64;
                tail.push(&buf, false).or_exit(path, "decode");
                grew = true;
            }
        }
        render_watch(&tail, path, opts, clear);
        if grew {
            idle_secs = 0.0;
        } else {
            idle_secs += opts.refresh_secs;
            if opts.idle_exit.is_some_and(|limit| idle_secs >= limit) {
                return;
            }
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(
            opts.refresh_secs.max(0.01),
        ));
    }
}

/// `dgrid check`: sweep randomized fault scenarios through the invariant
/// oracles under every matchmaker, shrinking the first violation found to a
/// minimal replayable artifact; or `--replay` a previously written artifact.
fn cmd_check(opts: &Opts) {
    use dgrid::check::{
        fault_event_count, shrink, sweep, CompiledRun, Inject, ReproArtifact, Scenario,
        ScenarioVerdict, SweepOutcome, Violation, CHECKED,
    };
    use std::path::Path;

    let inject = match opts.inject_bug.as_deref() {
        None => Inject::default(),
        Some("epoch-dedup") => Inject {
            disable_epoch_dedup: true,
        },
        Some(other) => die(format_args!(
            "unknown --inject-bug {other:?} (known: epoch-dedup)"
        )),
    };

    // `--matchmaker a,b` restricts the sweep (the CI overlay-matrix job runs
    // one substrate per shard); default is the checker's six variants.
    let selected: Vec<Algorithm> = match opts.matchmakers.as_deref() {
        None => CHECKED.to_vec(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|label| {
                Algorithm::from_label(label).unwrap_or_else(|| {
                    let known = Algorithm::ALL.map(Algorithm::label).join(", ");
                    die(format_args!(
                        "unknown --matchmaker {label:?} (known: {known})"
                    ))
                })
            })
            .collect(),
    };
    if selected.is_empty() {
        die("--matchmaker selected no matchmakers");
    }

    fn print_violations(violations: &[Violation]) {
        for v in violations {
            println!("  {v}");
        }
    }

    if let Some(path) = &opts.replay {
        let artifact = ReproArtifact::read(Path::new(path)).or_exit(path, "read repro artifact");
        let run = artifact.scenario.compile(artifact.inject);
        let violations = match artifact.matchmaker {
            Some(mm) => run.check(mm).violations,
            None => run.verdict(&CHECKED).all_violations(),
        };
        if violations.is_empty() {
            println!("replay of {path}: clean (violation no longer reproduces)");
        } else {
            println!("replay of {path}: {} violation(s)", violations.len());
            print_violations(&violations);
            std::process::exit(1);
        }
        return;
    }

    let base = opts.seed;
    let mm_labels = selected
        .iter()
        .map(|m| m.label())
        .collect::<Vec<_>>()
        .join(", ");
    let mut suffix = String::new();
    if let Some(l) = opts.lease {
        suffix += &format!(
            " [leases: ttl {:.0}s renew {:.0}s grace {:.0}s, {} placement]",
            l.ttl_secs,
            l.renew_secs,
            l.grace_secs,
            l.placement.label()
        );
    }
    if let Some(bug) = &opts.inject_bug {
        suffix += &format!(" [injected bug: {bug}]");
    }
    // Every seed of the sweep is a scenario generated from it, with
    // `--lease-ttl` turning it into a leased run: the no-orphan oracle joins
    // the battery and each scenario is additionally compared against its
    // own reassign-on-death baseline.
    let generated = |seed| {
        let scenario = Scenario::generate(seed);
        match opts.lease {
            Some(lease) => scenario.with_lease(lease),
            None => scenario,
        }
    };
    // `--scenario-file`: differentially check the declarative spec itself,
    // compiled at every sweep seed and run under every selected matchmaker
    // through the same pipeline. Specs are hand-written and already small,
    // so their violations are reported without shrinking.
    let (what, swept, check): (_, _, &(dyn Fn(u64) -> ScenarioVerdict + Sync)) =
        match &opts.scenario_spec {
            Some(spec) => (
                format!(
                    "scenario '{}' at {} seed(s) from {base}",
                    spec.name, opts.seeds
                ),
                format!("scenario '{}' x {} seed(s)", spec.name, opts.seeds),
                &|seed| {
                    let run = CompiledRun {
                        scenario: spec.compile(seed),
                        seed,
                        lease: opts.lease,
                        inject,
                    };
                    run.verdict(&selected)
                },
            ),
            None => (
                format!("{} scenario(s) from seed {base}", opts.seeds),
                format!("{} scenario(s)", opts.seeds),
                &|seed| generated(seed).compile(inject).verdict(&selected),
            ),
        };
    println!(
        "checking {what}, {} matchmaker(s) [{mm_labels}], {} thread(s){suffix}",
        selected.len(),
        rayon::Pool::current_threads(),
    );
    // The sweep fans seeds out over the work-stealing pool but reports the
    // same (lowest) violating seed a sequential sweep would, so the repro
    // artifact — and the shrink below, which stays sequential — are
    // identical at any thread count.
    let mut last_reported = 0;
    let outcome = sweep(base, opts.seeds, check, |done| {
        if done / 10 > last_reported / 10 && done < opts.seeds {
            eprintln!("  ... {done}/{} clean", opts.seeds);
        }
        last_reported = done;
    });
    let SweepOutcome::Violation { seed, verdict, .. } = outcome else {
        let n = selected.len();
        println!("check: {swept} x {n} matchmaker(s) clean, all oracles passed");
        return;
    };
    let violations = verdict.all_violations();
    println!("seed {seed}: {} violation(s)", violations.len());
    print_violations(&violations);
    if opts.scenario_spec.is_some() {
        std::process::exit(1);
    }

    // Shrink under the first violating matchmaker when one exists;
    // differential-only violations re-check every matchmaker.
    let scenario = generated(seed);
    let failing_mm = verdict
        .runs
        .iter()
        .find(|r| !r.violations.is_empty())
        .map(|r| r.matchmaker);
    let violations = |sc: &Scenario| match failing_mm {
        Some(mm) => sc.compile(inject).check(mm).violations,
        None => sc.compile(inject).verdict(&selected).all_violations(),
    };
    let result = shrink(&scenario, |cand| !violations(cand).is_empty(), 150);
    println!(
        "shrunk {} -> {} nodes, {} -> {} jobs, {} -> {} fault event(s) in {} run(s)",
        scenario.nodes,
        result.scenario.nodes,
        scenario.jobs,
        result.scenario.jobs,
        fault_event_count(&scenario),
        fault_event_count(&result.scenario),
        result.runs_used,
    );

    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "dgrid-check-repro.json".to_string());
    let artifact = ReproArtifact {
        violations: violations(&result.scenario),
        scenario: result.scenario,
        matchmaker: failing_mm,
        inject,
        original: Some(scenario),
    };
    let written = artifact.write(Path::new(&out));
    written.or_exit(&out, "write repro artifact");
    println!("wrote repro artifact to {out} (replay with: dgrid check --replay {out})");
    std::process::exit(1);
}

fn main() {
    let opts = parse();
    match opts.threads {
        Some(t) => rayon::Pool::install(t, || dispatch(&opts)),
        None => dispatch(&opts),
    }
}

/// The algorithms `compare` tabulates, in row order.
const COMPARED: [Algorithm; 7] = [
    Algorithm::Central,
    Algorithm::RnTree,
    Algorithm::RnTreePastry,
    Algorithm::RnTreeTapestry,
    Algorithm::Can,
    Algorithm::CanPush,
    Algorithm::PubSub,
];

fn dispatch(opts: &Opts) {
    match opts.command.as_str() {
        "report" => return cmd_report(opts),
        "watch" => return cmd_watch(opts),
        "events-convert" => return cmd_events_convert(opts),
        "check" => return cmd_check(opts),
        _ => {}
    }
    match &opts.scenario_spec {
        Some(spec) => println!(
            "scenario: {} — {} nodes, {} jobs, tenants [{}], seed {}",
            spec.name,
            spec.nodes,
            spec.jobs,
            spec.tenants
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            opts.seed
        ),
        None => println!(
            "workload: {} — {} nodes, {} jobs, seed {}",
            opts.scenario.label(),
            opts.nodes,
            opts.jobs,
            opts.seed
        ),
    }
    println!();

    let reports: Vec<SimReport> = match opts.command.as_str() {
        "run" if opts.replications > 1 => run_replicated(opts),
        "run" => {
            let mut engine = engine_for(opts, opts.algorithm, opts.seed);
            if let Some(path) = &opts.events {
                let f = File::create(path).or_exit(path, "create");
                engine.set_observer(stream_observer(opts.format, BufWriter::new(f)));
            }
            if opts.timeseries.is_some() {
                engine.set_timeseries_sampling(SimDuration::from_secs_f64(opts.sample_secs));
            }
            let r = engine.run();
            print_report(&r);
            if let Some(spec) = &opts.scenario_spec {
                print_tenant_breakdown(std::slice::from_ref(&r), spec);
            }
            if let Some(path) = &opts.events {
                eprintln!("wrote event stream to {path}");
            }
            if let Some(path) = &opts.timeseries {
                let ts = r.timeseries.as_ref().expect("sampling was enabled");
                let mut w = BufWriter::new(File::create(path).or_exit(path, "create"));
                serde_json::to_writer_pretty(&mut w, ts).or_exit(path, "write");
                w.flush().or_exit(path, "write");
                eprintln!("wrote {} gauge samples to {path}", ts.len());
            }
            vec![r]
        }
        _ => compare(opts),
    };

    if let Some(path) = &opts.json {
        let f = File::create(path).or_exit(path, "create");
        serde_json::to_writer_pretty(f, &reports).or_exit(path, "write");
        eprintln!("wrote {} report(s) to {path}", reports.len());
    }
}

/// `dgrid compare`: every algorithm of [`COMPARED`] over the same
/// replications, one table row each; with `--replications R` every column
/// is the mean over the R seeds. The algorithms and their replications fan
/// out over the pool and come back in input order, so the table is the
/// same at any thread count.
fn compare(opts: &Opts) -> Vec<SimReport> {
    use rayon::prelude::*;

    let seeds = replication_seeds(opts);
    if seeds.len() > 1 {
        println!("every column is the mean over seeds {seeds:?}\n");
    }
    println!(
        "algorithm         mean wait   std wait       p50       p95       p99   hops/job   fairness  completion"
    );
    let cells: Vec<Vec<SimReport>> = COMPARED
        .into_par_iter()
        .map(|alg| {
            seeds
                .clone()
                .into_par_iter()
                .map(|seed| engine_for(opts, alg, seed).run())
                .collect()
        })
        .collect();
    for reports in &cells {
        let cell = CellResult::from_reports(reports);
        let wait = |f: fn(&SampleSummary) -> f64| {
            mean_over(reports, |r| r.wait_stats.as_ref().map_or(0.0, f))
        };
        println!(
            "{:<16} {:>9.1}s {:>9.1}s {:>8.1}s {:>8.1}s {:>8.1}s {:>10.1} {:>10.3} {:>10.1}%",
            cell.algorithm,
            cell.mean_wait,
            cell.std_wait,
            wait(|w| w.p50),
            wait(|w| w.p95),
            wait(|w| w.p99),
            cell.mean_match_hops + cell.mean_owner_hops,
            cell.load_fairness,
            100.0 * cell.completion_rate,
        );
    }
    if let Some(spec) = &opts.scenario_spec {
        for reports in &cells {
            println!("\n{}", reports[0].algorithm);
            print_tenant_breakdown(reports, spec);
        }
    }
    cells.into_iter().flatten().collect()
}
