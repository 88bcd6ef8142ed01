//! `dgrid run` and `dgrid compare`: one algorithm's report, or a table of
//! every algorithm in [`COMPARED`], over the same workload and seeds.

use std::fs::File;
use std::io::{BufWriter, Write};

use dgrid::check::LeaseSpec;
use dgrid::cli::{
    self, arg, die, number, parsed, positive, some, text, Flag, OrExit, Parsed, Rule,
};
use dgrid::core::{
    ChurnConfig, Engine, EngineConfig, FaultPlan, PlacementPolicy, RnTreeConfig, SimReport,
    StreamFormat,
};
use dgrid::harness::{mean_over, Algorithm, CellResult};
use dgrid::sim::fault::Partition;
use dgrid::sim::stats::{OnlineStats, SampleSummary};
use dgrid::sim::SimDuration;
use dgrid::workloads::{paper_scenario, CompiledScenario, PaperScenario, ScenarioSpec};

use crate::{
    at_least_0, fraction, parse_scenario_file, stream_observer, Lease, SharedSink, SCENARIO_FILE,
};

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

/// The workload `run` and `compare` simulate: the classic paper knobs, or
/// a declarative scenario, never a mix of the two.
#[derive(Debug)]
enum Workload {
    Paper(Paper),
    /// `--scenario-file`: a preset label (`flash-crowd`, `diurnal-wave`) or
    /// a JSON [`ScenarioSpec`], which supplies the workload, tenants,
    /// failure domains, churn, diurnal availability and horizon.
    Spec(Box<ScenarioSpec>),
}

cli::options! {
    /// The classic knobs: a cell of the paper's scenario grid, with churn
    /// and network faults.
    #[derive(Debug)]
    struct Paper {
        /// `--scenario S`, from the [`PaperScenario`] registry.
        scenario: PaperScenario = PaperScenario::MixedLight, "--scenario", "S", parse_scenario;
        /// `--nodes N`: the grid size.
        nodes: usize = 200, "--nodes", "N", positive;
        /// `--jobs M`: the job count.
        jobs: usize = 1000, "--jobs", "M", positive;
        /// `--mttf SECS`: enable churn with this mean time to failure.
        mttf: Option<f64> = None, "--mttf", "SECS", some(number("at least 0", |x| x >= 0.0));
        /// `--rejoin SECS`: the repair time after a departure.
        rejoin: Option<f64> = None, "--rejoin", "SECS", some(at_least_0());
        /// `--graceful FRAC`: the fraction of departures that are announced.
        graceful: f64 = 0.0, "--graceful", "FRAC", fraction();
        /// `--loss P`: drop each message with probability P.
        loss: f64 = 0.0, "--loss", "P", fraction();
        /// `--partition START:END:IDS`, repeatable: isolate nodes IDS
        /// (comma-separated) from START to END seconds.
        partitions: Vec<Partition> = Vec::new();
    }
}

cli::options! {
    /// The options `run` and `compare` share; all of `compare`'s.
    #[derive(Debug)]
    pub struct SimOpts as "dgrid compare" {
        workload: Workload = Workload::Paper(Paper::default()), SCENARIO_FILE, "PRESET|SPEC.json",
            |v| Ok(Workload::Spec(Box::new(parse_scenario_file(v))));
        /// `--seed S`: the root seed.
        seed: u64 = cli::DEFAULT_SEED, "--seed", "S", parsed("a number");
        /// `--k K`: the RN-Tree variants' extended-search width.
        k: usize = 4, "--k", "K", positive;
        lease: Lease = Lease::default();
        /// `--threads N` sizes the pool replications (and, under `run`, the
        /// shards of each) fan out over.
        threads: Option<usize> = None, "--threads", "N", some(positive);
        /// `--replications R`: average R independent seeds, `seed ^ 1 ..=
        /// seed ^ R`; 1 runs `--seed` itself.
        replications: usize = 1, "--replications", "R", positive;
        /// `--json PATH`: also write the full report(s) as JSON.
        json: Option<String> = None, "--json", "PATH", some(text);
    }

    fn flags() -> Vec<Flag<Self>> {
        let mut flags = cli::lift(Paper::fields(), SimOpts::paper);
        flags.push(Flag::new("--partition", "START:END:IDS", |o: &mut Self, v| {
            o.paper().partitions.push(parse_partition(v)?);
            Ok(())
        }));
        let excludes = |f: Flag<Self>| f.with(Rule::Excludes(SCENARIO_FILE));
        let mut flags: Vec<_> = flags.into_iter().map(excludes).collect();
        flags.extend(Self::fields());
        flags.extend(cli::lift(Lease::fields(), |o: &mut Self| &mut o.lease));
        flags
    }

    fn notes() -> String {
        crate::registries()
    }

    fn finish(&mut self) -> Parsed<()> {
        // The engine's renewal and grace, with the paper-faithful hash
        // placement; `--lease-ttl` sets the ttl.
        let engine = EngineConfig::default();
        let defaults = LeaseSpec {
            ttl_secs: f64::INFINITY,
            renew_secs: engine.lease_renew_secs,
            grace_secs: engine.lease_grace_secs,
            placement: PlacementPolicy::Hash,
        };
        self.lease.arm(defaults)
    }
}

/// Resolve `--scenario` against the [`PaperScenario`] registry, so the
/// accepted labels (and the error text) always match `PaperScenario::ALL`.
fn parse_scenario(s: &str) -> Parsed<PaperScenario> {
    Ok(PaperScenario::from_label(s).unwrap_or_else(|| {
        let known = PaperScenario::ALL.map(PaperScenario::label).join(", ");
        die(format_args!("unknown --scenario {s:?} (known: {known})"))
    }))
}

/// `START:END:ID[,ID...]` — a scheduled partition isolating the listed nodes.
fn parse_partition(s: &str) -> Parsed<Partition> {
    let parts: Vec<&str> = s.splitn(3, ':').collect();
    let [start, end, ids] = parts[..] else {
        return Err(format!("{s:?} is not START:END:ID[,ID...]"));
    };
    let island = ids
        .split(',')
        .map(|id| arg(id, "a node id"))
        .collect::<Result<_, _>>()?;
    let start_secs: f64 = arg(start, "a number")?;
    let end_secs: f64 = arg(end, "a number")?;
    if start_secs.partial_cmp(&end_secs).is_none_or(|o| o.is_gt()) {
        return Err(format!(
            "{s:?} is not START:END:ID[,ID...] with START <= END"
        ));
    }
    Ok(Partition {
        start_secs,
        end_secs,
        island,
    })
}

impl SimOpts {
    /// The classic knobs, which the parser never lets meet `--scenario-file`.
    fn paper(&mut self) -> &mut Paper {
        match &mut self.workload {
            Workload::Paper(paper) => paper,
            Workload::Spec(_) => unreachable!("{SCENARIO_FILE} excludes the classic flags"),
        }
    }

    /// One engine for `algorithm` at `seed`, with `--k` and the lease flags
    /// applied. A `--scenario-file` spec compiled at `seed` supplies the
    /// workload, churn, fault plan, availability schedule and horizon;
    /// otherwise the classic knobs do. Either way
    /// [`CompiledScenario::engine`] assembles it, as it does every engine
    /// `dgrid check` judges.
    fn engine(&self, algorithm: Algorithm, seed: u64) -> Engine {
        let compiled = match &self.workload {
            Workload::Spec(spec) => spec.compile(seed),
            Workload::Paper(p) => CompiledScenario {
                workload: paper_scenario(p.scenario, p.nodes, p.jobs, seed),
                fault_plan: FaultPlan {
                    loss_prob: p.loss,
                    partitions: p.partitions.clone(),
                    ..FaultPlan::none()
                },
                schedule: Vec::new(),
                churn: ChurnConfig {
                    mttf_secs: p.mttf,
                    rejoin_after_secs: p.rejoin,
                    graceful_fraction: p.graceful,
                },
                horizon_secs: 5_000_000.0,
                tenant_names: Vec::new(),
            },
        };
        let mut cfg = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        if let Some(lease) = self.lease.armed {
            lease.configure(&mut cfg);
        }
        let rn = RnTreeConfig {
            k: self.k,
            ..RnTreeConfig::default()
        };
        compiled.engine(cfg, algorithm.matchmaker_with(rn))
    }

    /// Seeds of the `--replications R` replications: `--seed` itself at
    /// R = 1, else `seed ^ 1 ..= seed ^ R` (the `run_cell` scheme).
    fn replication_seeds(&self) -> Vec<u64> {
        match self.replications as u64 {
            1 => vec![self.seed],
            n => (1..=n).map(|r| self.seed ^ r).collect(),
        }
    }

    /// The workload line every `run` and `compare` output starts with.
    fn print_workload(&self) {
        let seed = self.seed;
        match &self.workload {
            Workload::Spec(spec) => {
                let (name, nodes, jobs) = (&spec.name, spec.nodes, spec.jobs);
                let tenants: Vec<&str> = spec.tenants.iter().map(|t| t.name.as_str()).collect();
                let tenants = tenants.join(", ");
                print!("scenario: {name} — {nodes} nodes, {jobs} jobs, ");
                println!("tenants [{tenants}], seed {seed}")
            }
            Workload::Paper(p) => {
                let (label, nodes, jobs) = (p.scenario.label(), p.nodes, p.jobs);
                println!("workload: {label} — {nodes} nodes, {jobs} jobs, seed {seed}")
            }
        }
        println!();
    }

    /// The `--json` file, created before anything runs.
    fn create_json(&self) -> Option<File> {
        self.json.as_deref().map(cli::create)
    }

    /// `--json`: every report of the invocation, as JSON, into the file
    /// [`create_json`](Self::create_json) made.
    fn write_json(&self, file: Option<File>, reports: &[SimReport]) {
        if let (Some(f), Some(path)) = (file, &self.json) {
            serde_json::to_writer_pretty(f, reports).or_exit(path, "write");
            eprintln!("wrote {} report(s) to {path}", reports.len());
        }
    }

    /// The scenario spec, when the workload is one.
    fn spec(&self) -> Option<&ScenarioSpec> {
        match &self.workload {
            Workload::Spec(spec) => Some(spec),
            Workload::Paper(_) => None,
        }
    }
}

cli::options! {
    /// `run`'s options: the shared ones, and the algorithm and stream
    /// flags.
    #[derive(Debug)]
    pub struct RunOpts as "dgrid run" {
        /// `--algorithm A`, from the [`Algorithm`] registry.
        algorithm: Algorithm = Algorithm::RnTree, "--algorithm", "A",
            |v| Algorithm::from_label(v).ok_or(format!("{v:?} is not an algorithm"));
        sim: SimOpts = SimOpts::default();
        /// `--events PATH`: stream the lifecycle trace to a file.
        events: Option<String> = None, "--events", "PATH", some(text);
        /// `--format F`: the event stream format, `jsonl` or `binary`.
        format: StreamFormat = StreamFormat::Jsonl, "--format", "jsonl|binary", parsed("jsonl or binary");
        /// `--timeseries PATH`: write sampled grid gauges as JSON.
        timeseries: Option<String> = None, "--timeseries", "PATH", some(text);
        /// `--sample-secs SECS`: the gauge sampling cadence.
        sample_secs: f64 = 60.0, "--sample-secs", "SECS", number("above 0", |x| x > 0.0);
    }

    fn flags() -> Vec<Flag<Self>> {
        let mut flags = Self::fields();
        flags.extend(cli::lift(SimOpts::flags(), |o: &mut Self| &mut o.sim));
        flags
    }

    fn notes() -> String {
        crate::registries()
    }

    fn finish(&mut self) -> Parsed<()> {
        self.sim.finish()
    }
}

impl RunOpts {
    /// [`SimOpts::engine`] for `--algorithm`. `run --threads N` also
    /// parallelizes *inside* the replication: the sharded
    /// conservative-window kernel with the pinned shard count, so the same
    /// seed yields the same bytes at any N (replication fan-out and shard
    /// batches share the pool).
    fn engine(&self, seed: u64) -> Engine {
        let mut engine = self.sim.engine(self.algorithm, seed);
        if self.sim.threads.is_some() {
            engine.set_sharded_execution(Engine::DEFAULT_SHARDS);
        }
        engine
    }
}

/// `dgrid run`: one replication's report, or with `--replications R` a
/// table of R and their mean.
pub fn run(opts: RunOpts) {
    let replicated = opts.sim.replications > 1;
    // Replications sample no time series: refuse to promise one.
    if replicated && opts.timeseries.is_some() {
        cli::die("dgrid run takes --timeseries only with --replications 1");
    }
    // Every output file is created before anything runs or prints.
    let events = opts.events.as_deref().map(cli::create);
    let timeseries = opts.timeseries.as_deref().map(cli::create);
    let json = opts.sim.create_json();
    cli::install(opts.sim.threads, || {
        opts.sim.print_workload();
        let reports = if replicated {
            run_replicated(&opts, events)
        } else {
            vec![run_once(&opts, events, timeseries)]
        };
        opts.sim.write_json(json, &reports);
    })
}

fn run_once(opts: &RunOpts, events: Option<File>, timeseries: Option<File>) -> SimReport {
    let mut engine = opts.engine(opts.sim.seed);
    let stream = events.map(|f| stream_observer(opts.format, BufWriter::new(f)));
    if let Some(stream) = &stream {
        engine.set_observer(Box::new(stream.clone()));
    }
    if opts.timeseries.is_some() {
        engine.set_timeseries_sampling(SimDuration::from_secs_f64(opts.sample_secs));
    }
    let r = engine.run();
    if let (Some(stream), Some(path)) = (stream, &opts.events) {
        stream.borrow_mut().finish().or_exit(path, "write");
    }
    print_report(&r);
    if let Some(spec) = opts.sim.spec() {
        print_tenant_breakdown(std::slice::from_ref(&r), spec);
    }
    if let Some(path) = &opts.events {
        eprintln!("wrote event stream to {path}");
    }
    if let (Some(f), Some(path)) = (timeseries, &opts.timeseries) {
        let ts = r.timeseries.as_ref().expect("sampling was enabled");
        let mut w = BufWriter::new(f);
        serde_json::to_writer_pretty(&mut w, ts).or_exit(path, "write");
        w.flush().or_exit(path, "write");
        eprintln!("wrote {} gauge samples to {path}", ts.len());
    }
    r
}

/// `run --replications R` (R > 1): fan the R seeds out over the pool, print
/// a per-replication table plus the averages, and write the concatenated
/// event streams (each captured in memory, in the `--format` of choice) in
/// replication order, so the file is identical at any thread count.
fn run_replicated(opts: &RunOpts, events: Option<File>) -> Vec<SimReport> {
    use rayon::prelude::*;

    let seeds = opts.sim.replication_seeds();
    let (reports, streams): (Vec<SimReport>, Vec<Vec<u8>>) = seeds
        .clone()
        .into_par_iter()
        .map(|seed| {
            let mut engine = opts.engine(seed);
            let sink = SharedSink::default();
            if opts.events.is_some() {
                engine.set_observer(Box::new(stream_observer(opts.format, sink.clone())));
            }
            (engine.run(), sink.0.take())
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip();

    println!(" rep         seed  mean wait   std wait   hops/job  completion");
    let row = |rep: &str, seed: &str, cell: CellResult| {
        let (mean, std, done) = (cell.mean_wait, cell.std_wait, 100.0 * cell.completion_rate);
        let hops = cell.mean_match_hops + cell.mean_owner_hops;
        println!("{rep:>4} {seed:>12} {mean:>9.1}s {std:>9.1}s {hops:>10.1} {done:>10.1}%")
    };
    for (r, (report, seed)) in reports.iter().zip(&seeds).enumerate() {
        let cell = CellResult::from_reports(std::slice::from_ref(report));
        row(&r.to_string(), &seed.to_string(), cell);
    }
    row("mean", "-", CellResult::from_reports(&reports));

    if let (Some(f), Some(path)) = (events, &opts.events) {
        let mut w = BufWriter::new(f);
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
    let (done, failed, total) = (r.jobs_completed, r.jobs_failed, r.jobs_total);
    println!("jobs             : {done} completed, {failed} failed of {total}");
    println!("mean wait        : {:>10.1} s", r.mean_wait());
    println!("stdev wait       : {:>10.1} s", r.std_wait());
    if let Some(SampleSummary { p50, p95, p99, .. }) = &r.wait_stats {
        println!("wait percentiles : {p50:>10.1} s p50, {p95:.1} s p95, {p99:.1} s p99");
    }
    println!("mean turnaround  : {:>10.1} s", r.turnaround.mean());
    if let Some(SampleSummary { p50, p95, p99, .. }) = &r.turnaround_stats {
        println!("turn percentiles : {p50:>10.1} s p50, {p95:.1} s p95, {p99:.1} s p99");
    }
    println!("makespan         : {:>10.1} s", r.makespan_secs);
    let hops = r.match_hops.mean() + r.owner_hops.mean();
    println!("matchmaking cost : {hops:>10.1} hops/job");
    println!("load fairness    : {:>10.3}", r.load_fairness());
    println!("client fairness  : {:>10.3}", r.client_fairness());
    if r.messages_lost > 0 || r.lookup_retries > 0 {
        println!(
            "faults           : {} messages lost, {} retries, {} spurious detections",
            r.messages_lost, r.lookup_retries, r.spurious_detections
        );
    }
    if r.node_failures + r.graceful_leaves > 0 {
        let (failures, leaves) = (r.node_failures, r.graceful_leaves);
        println!("churn            : {failures} failures, {leaves} graceful leaves");
        let (run, owner, resubmits) = (r.run_recoveries, r.owner_recoveries, r.client_resubmits);
        println!("recoveries       : {run} run, {owner} owner, {resubmits} client resubmits");
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
    let fairness = mean_over(reports, SimReport::tenant_fairness);
    println!("tenant fairness  : {fairness:>10.3}");
    for (i, t) in spec.tenants.iter().enumerate() {
        let mut pooled = OnlineStats::new();
        for s in reports
            .iter()
            .filter_map(|r| r.client_waits.get(&(i as u32)))
        {
            pooled.merge(s);
        }
        let (name, n, mean, weight) = (&t.name, pooled.count(), pooled.mean(), t.weight);
        println!("  {name:<15}: {n:>6} job(s) waited, mean wait {mean:.1} s (weight {weight})");
    }
}

/// `dgrid compare`: every algorithm of [`COMPARED`] over the same
/// replications, one table row each; with `--replications R` every column
/// is the mean over the R seeds. The algorithms and their replications fan
/// out over the pool and come back in input order, so the table is the
/// same at any thread count.
pub fn compare(opts: SimOpts) {
    use rayon::prelude::*;

    let json = opts.create_json();
    cli::install(opts.threads, || {
        opts.print_workload();
        let seeds = opts.replication_seeds();
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
                    .map(|seed| opts.engine(alg, seed).run())
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
        if let Some(spec) = opts.spec() {
            for reports in &cells {
                println!("\n{}", reports[0].algorithm);
                print_tenant_breakdown(reports, spec);
            }
        }
        opts.write_json(json, &cells.into_iter().flatten().collect::<Vec<_>>());
    })
}
