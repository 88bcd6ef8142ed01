//! `repro` — regenerate every figure and quantitative claim of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--nodes N] [--jobs M] [--reps R] [--seed S]
//!       [--threads N] [--json PATH]
//! ```
//!
//! `EXPERIMENT` is one of [`EXPERIMENTS`], a panel of Figure 2
//! (`fig2a`..`fig2d`, which print the whole figure), or `all`, the
//! default; it may stand before, between or after the flags. Flags are
//! read by `dgrid::cli`, so a bad one is refused as in `dgrid`: one line
//! naming it, the usage, exit code 2.
//!
//! Default scale is the paper's (1000 nodes, 5000 jobs); pass smaller
//! `--nodes/--jobs` for a quick look. Results print as the paper-shaped
//! tables and can also be dumped as JSON rows for `EXPERIMENTS.md`.

use std::collections::BTreeMap;
use std::io::Write;

use dgrid::cli::{self, die, parsed, positive, some, text, OrExit};
use dgrid::core::{
    ChurnConfig, Engine, EngineConfig, FaultPlan, RnTreeConfig, RnTreeMatchmaker, SimReport,
};
use dgrid::harness::{
    paper_engine_config, run_cell, run_workload, run_workload_with_faults, Algorithm, CellResult,
};
use dgrid::workloads::{paper_scenario, PaperScenario, Workload};
use serde_json::Value;

cli::options! {
    #[derive(Debug)]
    struct Opts as "repro [EXPERIMENT]" {
        /// `--nodes N`: the grid size.
        nodes: usize = 1000, "--nodes", "N", positive;
        /// `--jobs M`: the job count.
        jobs: usize = 5000, "--jobs", "M", positive;
        /// `--reps R`: the replications each cell averages.
        reps: usize = 3, "--reps", "R", positive;
        /// `--seed S`: the root seed.
        seed: u64 = cli::DEFAULT_SEED, "--seed", "S", parsed("a number");
        /// `--threads N`: replicated cells (`run_cell`) fan out over the
        /// work-stealing pool; results are order-stable, so the tables are
        /// identical at any thread count.
        threads: Option<usize> = None, "--threads", "N", some(positive);
        /// `--json PATH`: also write the cells as JSON rows.
        json: Option<String> = None, "--json", "PATH", some(text);
    }

    fn notes() -> String {
        let names = EXPERIMENTS.map(|(name, _)| name).join(" | ");
        format!("\nEXPERIMENT: {names} | all (the default); fig2a..fig2d print fig2")
    }
}

impl Opts {
    /// [`run_cell`] of `algorithm` on `scenario` at the flags' scale, seed
    /// and replications.
    fn cell(&self, algorithm: Algorithm, scenario: PaperScenario) -> CellResult {
        run_cell(
            algorithm, scenario, self.nodes, self.jobs, self.seed, self.reps,
        )
    }

    /// One run of `algorithm` over `workload` on the paper's engine at
    /// `--seed`, without churn.
    fn run(&self, algorithm: Algorithm, workload: &Workload) -> SimReport {
        let config = paper_engine_config(self.seed);
        run_workload(algorithm, workload, config, ChurnConfig::none())
    }
}

/// An experiment: what it prints, and the JSON rows it adds.
type Experiment = fn(&Opts, &mut Vec<Value>);

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("fig2", fig2),
    ("hops", |o, _| hops(o)),
    ("push", push),
    ("robust", |o, _| robust(o)),
    ("tree", |o, _| tree(o)),
    ("virt", virt),
    ("ksweep", |o, _| ksweep(o)),
    ("dht", |o, _| dht(o)),
    ("dist", |o, _| dist(o)),
    ("fair", |o, _| fair(o)),
    ("overhead", |o, _| overhead(o)),
    ("tail", |o, _| tail(o)),
    ("hb", |o, _| hb(o)),
    ("faults", |o, _| faults(o)),
];

/// The experiments `name` selects: every one for `all`, else the one it
/// starts with, so that Figure 2's panels `fig2a`..`fig2d` print the whole
/// figure.
fn select(name: &str) -> Vec<Experiment> {
    let selected = EXPERIMENTS
        .iter()
        .filter(|(n, _)| name == "all" || name.starts_with(n));
    let selected: Vec<Experiment> = selected.map(|(_, experiment)| *experiment).collect();
    if selected.is_empty() {
        let known = EXPERIMENTS.map(|(name, _)| name).join(", ");
        die(format_args!(
            "unknown experiment {name:?} (known: {known}, all)"
        ));
    }
    selected
}

/// One JSON output row: the cell's fields with an `experiment` tag merged in.
fn json_row(experiment: &str, cell: &CellResult) -> Value {
    let mut row = serde_json::to_value(cell).expect("cell serializes");
    if let Some(obj) = row.as_object_mut() {
        obj.insert("experiment".to_string(), Value::String(experiment.into()));
    }
    row
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The experiment is the first word that is not a flag or a flag's
    // value (every flag takes one), wherever it stands.
    let mut at = 0;
    while args.get(at).is_some_and(|arg| arg.starts_with('-')) {
        at += 2;
    }
    let name = (at < args.len()).then(|| args.remove(at));
    let experiments = select(name.as_deref().unwrap_or("all"));
    let opts: Opts = cli::parse(&args, |_| false);
    let json = opts.json.as_deref().map(cli::create);
    cli::install(opts.threads, || {
        let mut json_rows: Vec<Value> = Vec::new();
        for experiment in experiments {
            experiment(&opts, &mut json_rows);
            println!();
        }
        if let (Some(mut f), Some(path)) = (json, &opts.json) {
            serde_json::to_writer_pretty(&mut f, &json_rows).or_exit(path, "write");
            writeln!(f).ok();
            eprintln!("wrote {} rows to {path}", json_rows.len());
        }
    })
}

/// Figure 2, all four panels.
fn fig2(opts: &Opts, json: &mut Vec<Value>) {
    let (nodes, jobs, reps) = (opts.nodes, opts.jobs, opts.reps);
    println!("== Figure 2: job wait time ({nodes} nodes, {jobs} jobs, {reps} reps) ==");
    let mut table: BTreeMap<(&str, &str), CellResult> = BTreeMap::new();
    for scenario in PaperScenario::ALL {
        for alg in Algorithm::FIGURE2 {
            let cell = opts.cell(alg, scenario);
            table.insert((scenario.label(), alg.label()), cell.clone());
            json.push(json_row("fig2", &cell));
        }
    }
    for (panel, stat, clustered) in [
        ("2(a) avg wait, clustered", "mean", true),
        ("2(b) stdev wait, clustered", "std", true),
        ("2(c) avg wait, mixed", "mean", false),
        ("2(d) stdev wait, mixed", "std", false),
    ] {
        println!("-- Figure {panel} (seconds) --");
        println!("workload                  can    rn-tree    central");
        for scenario in PaperScenario::ALL {
            if scenario.clustered() != clustered {
                continue;
            }
            let label = scenario.label();
            let [can, rn_tree, central] = Algorithm::FIGURE2.map(|alg| {
                let c = &table[&(label, alg.label())];
                if stat == "mean" {
                    c.mean_wait
                } else {
                    c.std_wait
                }
            });
            println!("{label:<18} {can:>10.1} {rn_tree:>10.1} {central:>10.1}");
        }
    }
}

/// T-hops: matchmaking cost scaling.
fn hops(opts: &Opts) {
    println!("== T-hops: matchmaking cost in overlay hops ==");
    println!("N        algorithm    owner hops   match hops    p99 match");
    for &n in &[64usize, 256, 1024, opts.nodes] {
        for alg in [Algorithm::Can, Algorithm::RnTree] {
            let workload =
                paper_scenario(PaperScenario::MixedHeavy, n, 2 * n, opts.seed + n as u64);
            let mut r = opts.run(alg, &workload);
            let (mean, p99) = r.hop_summary();
            let (label, owner) = (alg.label(), r.owner_hops.mean());
            println!("{n:<8} {label:<10} {owner:>12.1} {mean:>12.1} {p99:>12.1}");
        }
    }
}

/// T-push: the improved CAN on the failure case.
fn push(opts: &Opts, json: &mut Vec<Value>) {
    println!("== T-push: improved CAN on mixed/lightly-constrained ==");
    println!("algorithm     mean wait     std wait   fairness       hops");
    for alg in [Algorithm::Can, Algorithm::CanPush, Algorithm::Central] {
        let cell = opts.cell(alg, PaperScenario::MixedLight);
        let (name, mean, std) = (&cell.algorithm, cell.mean_wait, cell.std_wait);
        let (fairness, hops) = (
            cell.load_fairness,
            cell.mean_match_hops + cell.mean_owner_hops,
        );
        println!("{name:<10} {mean:>12.1} {std:>12.1} {fairness:>10.3} {hops:>10.1}");
        json.push(json_row("push", &cell));
    }
}

/// T-robust: the recovery protocol under churn.
fn robust(opts: &Opts) {
    println!("== T-robust: owner/run recovery under churn (rejoin after 600s) ==");
    println!("mttf (s)   algorithm  completion   run rec   own rec  resubmits   failures");
    let nodes = opts.nodes.min(200); // churn runs are long; cap the scale
    let jobs = opts.jobs.min(1000);
    for &mttf in &[2_000.0f64, 8_000.0, 32_000.0] {
        for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::Central] {
            let workload = paper_scenario(PaperScenario::MixedLight, nodes, jobs, opts.seed);
            let churn = ChurnConfig {
                mttf_secs: Some(mttf),
                rejoin_after_secs: Some(600.0),
                graceful_fraction: 0.0,
            };
            let r = run_workload(alg, &workload, paper_engine_config(opts.seed), churn);
            let (label, done, run) = (alg.label(), r.completion_rate(), r.run_recoveries);
            let (own, resub, down) = (r.owner_recoveries, r.client_resubmits, r.node_failures);
            println!(
                "{mttf:<10} {label:<10} {done:>10.3} {run:>9} {own:>9} {resub:>10} {down:>10}"
            );
        }
    }
}

/// T-tree: RN-Tree height scaling.
fn tree(opts: &Opts) {
    use dgrid::chord::ChordRing;
    use dgrid::rntree::RnTree;
    use dgrid::sim::rng::{rng_for, streams};
    use dgrid::sim::router::KeyRouter;
    use rand::Rng;

    println!("== T-tree: RN-Tree height vs log2(N) ==");
    println!("N          height    log2(N)  build hops/node");
    for &n in &[64usize, 256, 1024, 4096, opts.nodes.max(8192)] {
        let mut rng = rng_for(opts.seed, streams::NODE_IDS ^ n as u64);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < n {
            let id: u64 = rng.gen();
            if !ring.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        let (tree, hops) = RnTree::build_counting(&ring);
        let (height, log2, per_node) = (tree.height(), (n as f64).log2(), hops as f64 / n as f64);
        println!("{n:<8} {height:>8} {log2:>10.1} {per_node:>16.2}");
    }
}

/// A-virt: the virtual dimension ablation.
fn virt(opts: &Opts, json: &mut Vec<Value>) {
    println!("== A-virt: CAN virtual dimension ablation (clustered/light) ==");
    println!("algorithm       mean wait     std wait   fairness  completion");
    for alg in [Algorithm::Can, Algorithm::CanNoVirtualDim] {
        let cell = opts.cell(alg, PaperScenario::ClusteredLight);
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>10.3} {:>11.3}",
            cell.algorithm, cell.mean_wait, cell.std_wait, cell.load_fairness, cell.completion_rate
        );
        json.push(json_row("virt", &cell));
    }
}

/// S-dht: lookup cost per DHT substrate (Section 2's \[17,18,19,21\]).
fn dht(opts: &Opts) {
    use dgrid::can::{CanConfig, CanNetwork};
    use dgrid::chord::ChordRing;
    use dgrid::pastry::PastryNetwork;
    use dgrid::sim::rng::{rng_for, streams};
    use dgrid::sim::router::KeyRouter;
    use dgrid::tapestry::TapestryNetwork;
    use rand::Rng;

    println!("== S-dht: lookup hops by substrate (mean / p99 over 1000 lookups) ==");
    println!("N                 chord         pastry       tapestry      can (4-d)");
    for &n in &[64usize, 256, 1024, opts.nodes.max(2048)] {
        let mut rng = rng_for(opts.seed ^ n as u64, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut pastry = PastryNetwork::default();
        let mut tapestry = TapestryNetwork::default();
        let mut ids = Vec::new();
        while ids.len() < n {
            let id: u64 = rng.gen();
            if !ring.is_alive(id) {
                ring.join(id);
                pastry.join(id);
                tapestry.join(id);
                ids.push(id);
            }
        }
        ring.stabilize();
        pastry.stabilize();
        tapestry.stabilize();
        let mut can = CanNetwork::new(CanConfig {
            dims: 4,
            ..CanConfig::default()
        });
        let can_ids: Vec<_> = (0..n)
            .map(|_| {
                let p: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
                can.join(&p)
            })
            .collect();

        let trials = 1000;
        let (mut ch, mut pa, mut ta, mut cn) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..trials {
            let key: u64 = rng.gen();
            let from = rng.gen_range(0..n);
            ch.push(ring.lookup(ids[from], key).unwrap().hops as f64);
            pa.push(pastry.lookup(ids[from], key).unwrap().hops as f64);
            ta.push(tapestry.lookup(ids[from], key).unwrap().hops as f64);
            let target: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            cn.push(can.route(can_ids[from], &target).unwrap().hops as f64);
        }
        let stats = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            format!("{mean:>6.1} / {:<4.0}", v[(v.len() * 99) / 100])
        };
        let [ch, pa, ta, cn] = [ch, pa, ta, cn].map(stats);
        println!("{n:<8} {ch:>14} {pa:>14} {ta:>14} {cn:>14}");
    }
}

/// A-tail: heavy-tailed runtimes (bounded Pareto) vs the paper's
/// exponential model — stragglers amplify any load imbalance, so this
/// probes the robustness of each matchmaker's balancing.
fn tail(opts: &Opts) {
    use dgrid::workloads::{RuntimeDistribution, WorkloadConfig};
    println!("== A-tail: runtime distribution robustness (mixed/light population) ==");
    println!("algorithm  runtimes          mean wait     p99 wait   fairness");
    for dist in [
        RuntimeDistribution::Fixed,
        RuntimeDistribution::Exponential,
        RuntimeDistribution::Pareto { alpha: 1.8 },
    ] {
        let shape = format!("{dist:?}");
        let shape = shape.split(' ').next().unwrap_or("?");
        for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::Central] {
            let workload = WorkloadConfig {
                seed: opts.seed,
                nodes: opts.nodes,
                jobs: opts.jobs,
                mean_interarrival_secs: 0.1 * 1000.0 / opts.nodes as f64,
                runtime_distribution: dist,
                ..WorkloadConfig::default()
            }
            .generate();
            let mut r = opts.run(alg, &workload);
            let p99 = r.wait_time.percentile(99.0).unwrap_or(0.0);
            let (label, mean, fairness) = (alg.label(), r.mean_wait(), r.load_fairness());
            println!("{label:<10} {shape:<14} {mean:>11.1}s {p99:>11.1}s {fairness:>10.3}");
        }
    }
}

/// T-overhead: the total message price of decentralization — every
/// application-level message (owner routing, matchmaking, transfers,
/// results, heartbeats), per completed job, P2P vs the central server.
fn overhead(opts: &Opts) {
    println!("== T-overhead: application messages per completed job (mixed/heavy) ==");
    println!("algorithm       owner   matching  heartbeat    total/job    mean wait");
    for alg in [
        Algorithm::Central,
        Algorithm::RnTree,
        Algorithm::Can,
        Algorithm::CanPush,
    ] {
        let workload = paper_scenario(PaperScenario::MixedHeavy, opts.nodes, opts.jobs, opts.seed);
        let r = opts.run(alg, &workload);
        let per_job = |x: f64| x / r.jobs_completed.max(1) as f64;
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>11.1}s",
            alg.label(),
            per_job(r.owner_hops.samples().iter().sum()),
            per_job(r.match_hops.samples().iter().sum()),
            per_job(r.heartbeat_messages as f64),
            r.messages_per_job(),
            r.mean_wait(),
        );
    }
}

/// T-fair: Section 5's open fairness problem, quantified. One parameter-
/// sweep client submits 80% of all jobs; per-job waits stay even (FIFO run
/// queues do not discriminate) but the heavy client absorbs most of the
/// grid's throughput — the allocation question the paper leaves open.
fn fair(opts: &Opts) {
    use dgrid::workloads::{ClientDemand, WorkloadConfig};
    println!("== T-fair: one heavy client (80% of jobs) vs 15 light clients ==");
    println!("algorithm    heavy wait   light wait heavy jobs done   jain(wait)");
    for alg in [Algorithm::Central, Algorithm::RnTree, Algorithm::Can] {
        let workload = WorkloadConfig {
            seed: opts.seed,
            nodes: opts.nodes,
            jobs: opts.jobs,
            mean_interarrival_secs: 0.1 * 1000.0 / opts.nodes as f64,
            client_demand: ClientDemand::Skewed { heavy_share: 0.8 },
            ..WorkloadConfig::default()
        }
        .generate();
        let r = opts.run(alg, &workload);
        let heavy = r.client_waits.get(&0).map(|s| s.mean()).unwrap_or(0.0);
        let light_means: Vec<f64> = r
            .client_waits
            .iter()
            .filter(|(&c, _)| c != 0)
            .map(|(_, s)| s.mean())
            .collect();
        let light = light_means.iter().sum::<f64>() / light_means.len().max(1) as f64;
        let heavy_done = r.client_waits.get(&0).map(|s| s.count()).unwrap_or(0);
        let (label, done, jain) = (alg.label(), r.jobs_completed, r.client_fairness());
        println!(
            "{label:<10} {heavy:>11.1}s {light:>11.1}s {heavy_done:>9}/{done:<5} {jain:>12.3}"
        );
    }
}

/// Wait-time distributions (log2 buckets), the fine-grained view behind
/// Figure 2's mean/stdev pairs.
fn dist(opts: &Opts) {
    use dgrid::sim::hist::LogHistogram;
    println!("== wait-time distribution, mixed/light (buckets: [0,1s), [1,2s), [2,4s), ...) ==");
    for alg in Algorithm::FIGURE2 {
        let workload = paper_scenario(PaperScenario::MixedLight, opts.nodes, opts.jobs, opts.seed);
        let r = opts.run(alg, &workload);
        let mut h = LogHistogram::new(1.0);
        r.wait_time.samples().iter().for_each(|&w| h.record(w));
        let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| h.quantile(q).unwrap_or(0.0));
        let (label, spark) = (alg.label(), h.sparkline());
        println!("{label:<10} p50≤{p50:>7.0}s p90≤{p90:>7.0}s p99≤{p99:>7.0}s  |{spark}|");
    }
}

/// A-k: extended-search width sweep.
fn ksweep(opts: &Opts) {
    println!("== A-k: extended search width (rn-tree, mixed/light) ==");
    println!("k         mean wait     std wait   match hops");
    for &k in &[1usize, 2, 4, 8, 16] {
        let workload = paper_scenario(PaperScenario::MixedLight, opts.nodes, opts.jobs, opts.seed);
        let mm = Box::new(RnTreeMatchmaker::new(RnTreeConfig {
            k,
            ..RnTreeConfig::default()
        }));
        let r = Engine::new(
            paper_engine_config(opts.seed),
            ChurnConfig::none(),
            mm,
            workload.nodes,
            workload.submissions,
        )
        .run();
        let (mean, std, hops) = (r.mean_wait(), r.std_wait(), r.match_hops.mean());
        println!("{k:<6} {mean:>12.1} {std:>12.1} {hops:>12.1}");
    }
}

/// A-hb: Section 2's soft-state heartbeat period under churn. Fast
/// heartbeats detect a failure sooner but cost more messages.
fn hb(opts: &Opts) {
    println!("== A-hb: heartbeat period under churn (rn-tree, 64 nodes, 300 jobs, mttf 3000s, rejoin 500s) ==");
    println!("period    detection   turnaround  completion    hb msgs");
    let workload = paper_scenario(PaperScenario::MixedLight, 64, 300, opts.seed);
    let churn = ChurnConfig {
        mttf_secs: Some(3_000.0),
        rejoin_after_secs: Some(500.0),
        graceful_fraction: 0.0,
    };
    for &period in &[2.0f64, 10.0, 30.0, 120.0] {
        let cfg = EngineConfig {
            heartbeat_secs: period,
            client_resubmit_secs: (period * 6.0).max(300.0),
            max_sim_secs: 3_000_000.0,
            ..paper_engine_config(opts.seed)
        };
        let r = run_workload(Algorithm::RnTree, &workload, cfg, churn);
        let (detect, turnaround) = (period * 3.0, r.turnaround.mean());
        let (done, messages) = (r.completion_rate(), r.heartbeat_messages);
        println!("{period:<8} {detect:>9.0}s {turnaround:>11.1}s {done:>11.3} {messages:>10}");
    }
}

/// T-faults: how each matchmaker degrades as the network gets lossier with
/// no node ever failing, then with a quarter of the grid cut off for 2000 s.
/// Every recovery action here is driven by lost messages alone.
fn faults(opts: &Opts) {
    println!("== T-faults: message loss and a partition, no churn (64 nodes, 300 jobs) ==");
    println!(
        "faults     algorithm  completion    lost  spurious  dup exec  run rec  resubmits  retries"
    );
    let workload = paper_scenario(PaperScenario::MixedLight, 64, 300, opts.seed);
    let cut = FaultPlan::with_loss(0.02).with_partition(500.0, 2_500.0, (0..16).collect());
    let plans = [0.0, 0.01, 0.05, 0.1, 0.2]
        .map(|p| (format!("loss={p}"), FaultPlan::with_loss(p)))
        .into_iter()
        .chain([("cut 16/64".to_string(), cut)]);
    for (label, plan) in plans {
        for alg in [Algorithm::RnTree, Algorithm::Can, Algorithm::Central] {
            let cfg = paper_engine_config(opts.seed);
            let r =
                run_workload_with_faults(alg, &workload, cfg, ChurnConfig::none(), plan.clone());
            let (name, done, lost) = (alg.label(), r.completion_rate(), r.messages_lost);
            let (spurious, dup) = (r.spurious_detections, r.duplicate_executions);
            let (run, resub, retries) = (r.run_recoveries, r.client_resubmits, r.lookup_retries);
            println!(
                "{label:<10} {name:<10} {done:>10.3} {lost:>7} {spurious:>9} {dup:>9} {run:>8} \
                 {resub:>10} {retries:>8}"
            );
        }
    }
}
