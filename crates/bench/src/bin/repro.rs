//! `repro` — regenerate every figure and quantitative claim of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--nodes N] [--jobs M] [--reps R] [--seed S]
//!       [--threads T] [--json PATH]
//!
//! EXPERIMENT: fig2 | fig2a | fig2b | fig2c | fig2d | hops | push | robust
//!           | tree | virt | ksweep | dht | dist | fair | overhead | tail | hb
//!           | faults | all
//! ```
//!
//! Default scale is the paper's (1000 nodes, 5000 jobs); pass smaller
//! `--nodes/--jobs` for a quick look. Results print as the paper-shaped
//! tables and can also be dumped as JSON rows for `EXPERIMENTS.md`.

use std::collections::BTreeMap;
use std::io::Write;

use dgrid::core::{ChurnConfig, Engine, EngineConfig, FaultPlan, RnTreeConfig, RnTreeMatchmaker};
use dgrid::harness::{
    paper_engine_config, run_cell, run_workload, run_workload_with_faults, Algorithm, CellResult,
};
use dgrid::workloads::{paper_scenario, PaperScenario};
use serde_json::Value;

#[derive(Clone, Debug)]
struct Opts {
    experiment: String,
    nodes: usize,
    jobs: usize,
    reps: usize,
    seed: u64,
    threads: Option<usize>,
    json: Option<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        experiment: "all".to_string(),
        nodes: 1000,
        jobs: 5000,
        reps: 3,
        seed: 42,
        threads: None,
        json: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                opts.nodes = args[i + 1].parse().expect("--nodes N");
                i += 2;
            }
            "--jobs" => {
                opts.jobs = args[i + 1].parse().expect("--jobs M");
                i += 2;
            }
            "--reps" => {
                opts.reps = args[i + 1].parse().expect("--reps R");
                i += 2;
            }
            "--seed" => {
                opts.seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--threads" => {
                opts.threads = Some(args[i + 1].parse().expect("--threads T"));
                i += 2;
            }
            "--json" => {
                opts.json = Some(args[i + 1].clone());
                i += 2;
            }
            exp if !exp.starts_with('-') => {
                opts.experiment = exp.to_string();
                i += 1;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    opts
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
    let opts = parse_args();
    match opts.threads {
        // Replicated cells (`run_cell`) fan out over the work-stealing
        // pool; results are order-stable, so the tables are identical at
        // any thread count.
        Some(t) => rayon::Pool::install(t, || run(&opts)),
        None => run(&opts),
    }
}

fn run(opts: &Opts) {
    let mut json_rows: Vec<Value> = Vec::new();

    let want = |name: &str| opts.experiment == "all" || opts.experiment.starts_with(name);

    if want("fig2") || opts.experiment == "all" {
        fig2(opts, &mut json_rows);
    }
    if want("hops") {
        hops(opts);
    }
    if want("push") {
        push(opts, &mut json_rows);
    }
    if want("robust") {
        robust(opts);
    }
    if want("tree") {
        tree(opts);
    }
    if want("virt") {
        virt(opts, &mut json_rows);
    }
    if want("ksweep") {
        ksweep(opts);
    }
    if want("dht") {
        dht(opts);
    }
    if want("dist") {
        dist(opts);
    }
    if want("fair") {
        fair(opts);
    }
    if want("overhead") {
        overhead(opts);
    }
    if want("tail") {
        tail(opts);
    }
    if want("hb") {
        hb(opts);
    }
    if want("faults") {
        faults(opts);
    }

    if let Some(path) = &opts.json {
        let mut f = std::fs::File::create(path).expect("create json output");
        serde_json::to_writer_pretty(&mut f, &json_rows).expect("write json");
        writeln!(f).ok();
        eprintln!("wrote {} rows to {path}", json_rows.len());
    }
}

/// Figure 2, all four panels.
fn fig2(opts: &Opts, json: &mut Vec<Value>) {
    println!(
        "== Figure 2: job wait time ({} nodes, {} jobs, {} reps) ==",
        opts.nodes, opts.jobs, opts.reps
    );
    let mut table: BTreeMap<(String, String), CellResult> = BTreeMap::new();
    for scenario in PaperScenario::ALL {
        for alg in Algorithm::FIGURE2 {
            let cell = run_cell(alg, scenario, opts.nodes, opts.jobs, opts.seed, opts.reps);
            table.insert(
                (scenario.label().to_string(), alg.label().to_string()),
                cell.clone(),
            );
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
        println!(
            "{:<18} {:>10} {:>10} {:>10}",
            "workload", "can", "rn-tree", "central"
        );
        for scenario in PaperScenario::ALL {
            if scenario.clustered() != clustered {
                continue;
            }
            let get = |alg: &str| {
                let c = &table[&(scenario.label().to_string(), alg.to_string())];
                if stat == "mean" {
                    c.mean_wait
                } else {
                    c.std_wait
                }
            };
            println!(
                "{:<18} {:>10.1} {:>10.1} {:>10.1}",
                scenario.label(),
                get("can"),
                get("rn-tree"),
                get("central")
            );
        }
    }
    println!();
}

/// T-hops: matchmaking cost scaling.
fn hops(opts: &Opts) {
    println!("== T-hops: matchmaking cost in overlay hops ==");
    println!(
        "{:<8} {:<10} {:>12} {:>12} {:>12}",
        "N", "algorithm", "owner hops", "match hops", "p99 match"
    );
    for &n in &[64usize, 256, 1024, opts.nodes] {
        for alg in [Algorithm::Can, Algorithm::RnTree] {
            let workload =
                paper_scenario(PaperScenario::MixedHeavy, n, 2 * n, opts.seed + n as u64);
            let mut r = run_workload(
                alg,
                &workload,
                paper_engine_config(opts.seed),
                ChurnConfig::none(),
            );
            let (mean, p99) = r.hop_summary();
            println!(
                "{:<8} {:<10} {:>12.1} {:>12.1} {:>12.1}",
                n,
                alg.label(),
                r.owner_hops.mean(),
                mean,
                p99
            );
        }
    }
    println!();
}

/// T-push: the improved CAN on the failure case.
fn push(opts: &Opts, json: &mut Vec<Value>) {
    println!("== T-push: improved CAN on mixed/lightly-constrained ==");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10}",
        "algorithm", "mean wait", "std wait", "fairness", "hops"
    );
    for alg in [Algorithm::Can, Algorithm::CanPush, Algorithm::Central] {
        let cell = run_cell(
            alg,
            PaperScenario::MixedLight,
            opts.nodes,
            opts.jobs,
            opts.seed,
            opts.reps,
        );
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>10.3} {:>10.1}",
            cell.algorithm,
            cell.mean_wait,
            cell.std_wait,
            cell.load_fairness,
            cell.mean_match_hops + cell.mean_owner_hops
        );
        json.push(json_row("push", &cell));
    }
    println!();
}

/// T-robust: the recovery protocol under churn.
fn robust(opts: &Opts) {
    println!("== T-robust: owner/run recovery under churn (rejoin after 600s) ==");
    println!(
        "{:<10} {:<10} {:>10} {:>9} {:>9} {:>10} {:>10}",
        "mttf (s)", "algorithm", "completion", "run rec", "own rec", "resubmits", "failures"
    );
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
            println!(
                "{:<10} {:<10} {:>10.3} {:>9} {:>9} {:>10} {:>10}",
                mttf,
                alg.label(),
                r.completion_rate(),
                r.run_recoveries,
                r.owner_recoveries,
                r.client_resubmits,
                r.node_failures
            );
        }
    }
    println!();
}

/// T-tree: RN-Tree height scaling.
fn tree(opts: &Opts) {
    use dgrid::chord::{ChordId, ChordRing};
    use dgrid::rntree::RnTree;
    use dgrid::sim::rng::{rng_for, streams};
    use rand::Rng;

    println!("== T-tree: RN-Tree height vs log2(N) ==");
    println!(
        "{:<8} {:>8} {:>10} {:>16}",
        "N", "height", "log2(N)", "build hops/node"
    );
    for &n in &[64usize, 256, 1024, 4096, opts.nodes.max(8192)] {
        let mut rng = rng_for(opts.seed, streams::NODE_IDS ^ n as u64);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < n {
            let id = ChordId(rng.gen());
            if !ring.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        let (tree, hops) = RnTree::build_counting(&ring);
        println!(
            "{:<8} {:>8} {:>10.1} {:>16.2}",
            n,
            tree.height(),
            (n as f64).log2(),
            hops as f64 / n as f64
        );
    }
    println!();
}

/// A-virt: the virtual dimension ablation.
fn virt(opts: &Opts, json: &mut Vec<Value>) {
    println!("== A-virt: CAN virtual dimension ablation (clustered/light) ==");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>11}",
        "algorithm", "mean wait", "std wait", "fairness", "completion"
    );
    for alg in [Algorithm::Can, Algorithm::CanNoVirtualDim] {
        let cell = run_cell(
            alg,
            PaperScenario::ClusteredLight,
            opts.nodes,
            opts.jobs,
            opts.seed,
            opts.reps,
        );
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>10.3} {:>11.3}",
            cell.algorithm, cell.mean_wait, cell.std_wait, cell.load_fairness, cell.completion_rate
        );
        json.push(json_row("virt", &cell));
    }
    println!();
}

/// S-dht: lookup cost per DHT substrate (Section 2's \[17,18,19,21\]).
fn dht(opts: &Opts) {
    use dgrid::can::{CanConfig, CanNetwork};
    use dgrid::chord::{ChordId, ChordRing};
    use dgrid::pastry::{PastryId, PastryNetwork};
    use dgrid::sim::rng::{rng_for, streams};
    use dgrid::tapestry::{TapestryId, TapestryNetwork};
    use rand::Rng;

    println!("== S-dht: lookup hops by substrate (mean / p99 over 1000 lookups) ==");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "N", "chord", "pastry", "tapestry", "can (4-d)"
    );
    for &n in &[64usize, 256, 1024, opts.nodes.max(2048)] {
        let mut rng = rng_for(opts.seed ^ n as u64, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut pastry = PastryNetwork::default();
        let mut tapestry = TapestryNetwork::default();
        let mut ids = Vec::new();
        while ids.len() < n {
            let id: u64 = rng.gen();
            if !ring.is_alive(ChordId(id)) {
                ring.join(ChordId(id));
                pastry.join(PastryId(id));
                tapestry.join(TapestryId(id));
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
            ch.push(ring.lookup(ChordId(ids[from]), ChordId(key)).unwrap().hops as f64);
            pa.push(
                pastry
                    .route(PastryId(ids[from]), PastryId(key))
                    .unwrap()
                    .hops as f64,
            );
            ta.push(
                tapestry
                    .route(TapestryId(ids[from]), TapestryId(key))
                    .unwrap()
                    .hops as f64,
            );
            let target: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            cn.push(can.route(can_ids[from], &target).unwrap().hops as f64);
        }
        let stats = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            format!("{mean:>6.1} / {:<4.0}", v[(v.len() * 99) / 100])
        };
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>14}",
            n,
            stats(ch),
            stats(pa),
            stats(ta),
            stats(cn)
        );
    }
    println!();
}

/// A-tail: heavy-tailed runtimes (bounded Pareto) vs the paper's
/// exponential model — stragglers amplify any load imbalance, so this
/// probes the robustness of each matchmaker's balancing.
fn tail(opts: &Opts) {
    use dgrid::workloads::{RuntimeDistribution, WorkloadConfig};
    println!("== A-tail: runtime distribution robustness (mixed/light population) ==");
    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>10}",
        "algorithm", "runtimes", "mean wait", "p99 wait", "fairness"
    );
    for dist in [
        RuntimeDistribution::Fixed,
        RuntimeDistribution::Exponential,
        RuntimeDistribution::Pareto { alpha: 1.8 },
    ] {
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
            let mut r = run_workload(
                alg,
                &workload,
                paper_engine_config(opts.seed),
                ChurnConfig::none(),
            );
            let p99 = r.wait_time.percentile(99.0).unwrap_or(0.0);
            println!(
                "{:<10} {:<14} {:>11.1}s {:>11.1}s {:>10.3}",
                alg.label(),
                format!("{dist:?}").split(' ').next().unwrap_or("?"),
                r.mean_wait(),
                p99,
                r.load_fairness(),
            );
        }
    }
    println!();
}

/// T-overhead: the total message price of decentralization — every
/// application-level message (owner routing, matchmaking, transfers,
/// results, heartbeats), per completed job, P2P vs the central server.
fn overhead(opts: &Opts) {
    println!("== T-overhead: application messages per completed job (mixed/heavy) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "algorithm", "owner", "matching", "heartbeat", "total/job", "mean wait"
    );
    for alg in [
        Algorithm::Central,
        Algorithm::RnTree,
        Algorithm::Can,
        Algorithm::CanPush,
    ] {
        let workload = paper_scenario(PaperScenario::MixedHeavy, opts.nodes, opts.jobs, opts.seed);
        let r = run_workload(
            alg,
            &workload,
            paper_engine_config(opts.seed),
            ChurnConfig::none(),
        );
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
    println!();
}

/// T-fair: Section 5's open fairness problem, quantified. One parameter-
/// sweep client submits 80% of all jobs; per-job waits stay even (FIFO run
/// queues do not discriminate) but the heavy client absorbs most of the
/// grid's throughput — the allocation question the paper leaves open.
fn fair(opts: &Opts) {
    use dgrid::workloads::{ClientDemand, WorkloadConfig};
    println!("== T-fair: one heavy client (80% of jobs) vs 15 light clients ==");
    println!(
        "{:<10} {:>12} {:>12} {:>15} {:>12}",
        "algorithm", "heavy wait", "light wait", "heavy jobs done", "jain(wait)"
    );
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
        let r = run_workload(
            alg,
            &workload,
            paper_engine_config(opts.seed),
            ChurnConfig::none(),
        );
        let heavy = r.client_waits.get(&0).map(|s| s.mean()).unwrap_or(0.0);
        let light_means: Vec<f64> = r
            .client_waits
            .iter()
            .filter(|(&c, _)| c != 0)
            .map(|(_, s)| s.mean())
            .collect();
        let light = light_means.iter().sum::<f64>() / light_means.len().max(1) as f64;
        let heavy_done = r.client_waits.get(&0).map(|s| s.count()).unwrap_or(0);
        println!(
            "{:<10} {:>11.1}s {:>11.1}s {:>9}/{:<5} {:>12.3}",
            alg.label(),
            heavy,
            light,
            heavy_done,
            r.jobs_completed,
            r.client_fairness()
        );
    }
    println!();
}

/// Wait-time distributions (log2 buckets), the fine-grained view behind
/// Figure 2's mean/stdev pairs.
fn dist(opts: &Opts) {
    use dgrid::sim::hist::LogHistogram;
    println!("== wait-time distribution, mixed/light (buckets: [0,1s), [1,2s), [2,4s), ...) ==");
    for alg in Algorithm::FIGURE2 {
        let workload = paper_scenario(PaperScenario::MixedLight, opts.nodes, opts.jobs, opts.seed);
        let r = run_workload(
            alg,
            &workload,
            paper_engine_config(opts.seed),
            ChurnConfig::none(),
        );
        let mut h = LogHistogram::new(1.0);
        for &w in r.wait_time.samples() {
            h.record(w);
        }
        println!(
            "{:<10} p50≤{:>7.0}s p90≤{:>7.0}s p99≤{:>7.0}s  |{}|",
            alg.label(),
            h.quantile(0.5).unwrap_or(0.0),
            h.quantile(0.9).unwrap_or(0.0),
            h.quantile(0.99).unwrap_or(0.0),
            h.sparkline(),
        );
    }
    println!();
}

/// A-k: extended-search width sweep.
fn ksweep(opts: &Opts) {
    println!("== A-k: extended search width (rn-tree, mixed/light) ==");
    println!(
        "{:<6} {:>12} {:>12} {:>12}",
        "k", "mean wait", "std wait", "match hops"
    );
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
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>12.1}",
            k,
            r.mean_wait(),
            r.std_wait(),
            r.match_hops.mean()
        );
    }
    println!();
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
        println!(
            "{:<8} {:>9.0}s {:>11.1}s {:>11.3} {:>10}",
            period,
            period * 3.0,
            r.turnaround.mean(),
            r.completion_rate(),
            r.heartbeat_messages
        );
    }
    println!();
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
            println!(
                "{:<10} {:<10} {:>10.3} {:>7} {:>9} {:>9} {:>8} {:>10} {:>8}",
                label,
                alg.label(),
                r.completion_rate(),
                r.messages_lost,
                r.spurious_detections,
                r.duplicate_executions,
                r.run_recoveries,
                r.client_resubmits,
                r.lookup_retries
            );
        }
    }
    println!();
}
