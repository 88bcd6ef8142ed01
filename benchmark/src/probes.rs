//! Layer probes: direct timed calls into one layer's public functions, at
//! the size the workloads use it. They answer "did this layer get faster or
//! slower on its own" when a whole-run number moves; a probe never feeds an
//! end-to-end metric.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use dgrid::can::{CanConfig, CanNetwork};
use dgrid::chord::ChordRing;
use dgrid::core::router::{KeyRouter, PastryNetwork, TapestryNetwork};
use dgrid::core::{CentralizedMatchmaker, ChurnConfig, Endpoint, Engine, FaultPlan};
use dgrid::harness::{paper_engine_config, run_cell, Algorithm};
use dgrid::resources::Capabilities;
use dgrid::rntree::RnTreeIndex;
use dgrid::sim::fault::Network;
use dgrid::sim::net::LatencyModel;
use dgrid::sim::rng::{rng_for, SimRng};
use dgrid::sim::{EventQueue, SimDuration, SimTime};
use dgrid::workloads::{paper_scenario, PaperScenario};
use rand::Rng;

/// Probe results, in the order they were taken: `(metric name, value)`.
pub type Metrics = Vec<(String, f64)>;

/// RNG stream of the probes' own draws (the engine's streams are small
/// integers; this stays clear of them).
const PROBE_STREAM: u64 = 0xB0B5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// `EventQueue` in the hold model: a steady population of `pending` events,
/// each pop followed by one schedule a random distance ahead. Returns
/// nanoseconds per pop+schedule pair.
fn queue_hold_ns(pending: usize, ops: usize, rng: &mut SimRng) -> f64 {
    let ahead: Vec<SimDuration> = (0..1 << 12)
        .map(|_| SimDuration::from_nanos(rng.gen_range(1..2_000_000_000u64)))
        .collect();
    let mut queue = EventQueue::new();
    for i in 0..pending {
        queue.schedule(SimTime::ZERO + ahead[i % ahead.len()], i as u64);
    }
    let ((), secs) = timed(|| {
        for i in 0..ops {
            let (now, event) = queue.pop().expect("population is steady");
            queue.schedule(now + ahead[i % ahead.len()], black_box(event));
        }
    });
    black_box(queue.len());
    secs * 1e9 / ops as f64
}

/// `Network::send` under 2 % loss, nanoseconds per message.
fn network_send_ns(ops: usize, seed: u64) -> f64 {
    let mut net = Network::new(
        LatencyModel::default(),
        FaultPlan::with_loss(0.02),
        rng_for(seed, PROBE_STREAM + 1),
    );
    let mut rng_net = rng_for(seed, PROBE_STREAM + 2);
    let mut delivered = 0u64;
    let ((), secs) = timed(|| {
        for i in 0..ops as u32 {
            let fate = net.send(
                &mut rng_net,
                SimTime::ZERO,
                Endpoint::Node(i % 3000),
                Endpoint::Node((i + 7) % 3000),
                3,
            );
            delivered += u64::from(fate.is_delivered());
        }
    });
    black_box(delivered);
    secs * 1e9 / ops as f64
}

/// Distinct overlay keys, derived the way the RN-Tree matchmaker derives a
/// node's first identity.
fn overlay_keys<R: KeyRouter>(n: usize, first: u64) -> Vec<u64> {
    (first..first + n as u64)
        .map(|i| R::key_of(i << 20))
        .collect()
}

struct OverlayProbe<R> {
    router: R,
    keys: Vec<u64>,
    build_s: f64,
}

fn build_overlay<R: KeyRouter>(n: usize) -> OverlayProbe<R> {
    let keys = overlay_keys::<R>(n, 0);
    let mut router = R::default();
    let ((), build_s) = timed(|| {
        router.bulk_join(&keys);
        router.stabilize();
    });
    OverlayProbe {
        router,
        keys,
        build_s,
    }
}

/// Mean lookup time (ns) and hops over `lookups` random (source, key) pairs.
fn lookup_cost<R: KeyRouter>(p: &OverlayProbe<R>, lookups: usize, rng: &mut SimRng) -> (f64, f64) {
    let pairs: Vec<(u64, u64)> = (0..lookups)
        .map(|_| (p.keys[rng.gen_range(0..p.keys.len())], rng.gen()))
        .collect();
    let mut hops = 0u64;
    let ((), secs) = timed(|| {
        for &(from, key) in &pairs {
            let route = p.router.lookup(from, key).expect("a stable overlay routes");
            hops += u64::from(route.hops);
        }
    });
    (secs * 1e9 / lookups as f64, hops as f64 / lookups as f64)
}

/// One churn step = one member fails, a fresh one joins, the overlay
/// stabilizes. Returns microseconds per step.
fn churn_step_us<R: KeyRouter>(p: &mut OverlayProbe<R>, steps: usize) -> f64 {
    let fresh = overlay_keys::<R>(steps, p.keys.len() as u64);
    let stride = p.keys.len() / steps.max(1);
    let ((), secs) = timed(|| {
        for (i, &joiner) in fresh.iter().enumerate() {
            p.router.fail(p.keys[i * stride]);
            p.router.join(joiner);
            p.router.stabilize();
        }
    });
    secs * 1e6 / steps as f64
}

/// `size` is the label of the full-scale population (metric names do not
/// change under `--smoke`); `n` is the population actually built.
fn overlay_suite<R: KeyRouter>(out: &mut Metrics, size: &str, n: usize, rng: &mut SimRng) {
    let x = R::SUBSTRATE;
    let mut p = build_overlay::<R>(n);
    out.push((format!("{x}.build_s.n{size}"), p.build_s));
    let (ns, hops) = lookup_cost(&p, 20_000, rng);
    out.push((format!("{x}.lookup_ns.n{size}"), ns));
    out.push((format!("{x}.lookup_hops.n{size}"), hops));
    out.push((
        format!("{x}.churn_step_us.n{size}"),
        churn_step_us(&mut p, 8),
    ));
}

fn can_suite(out: &mut Metrics, size: &str, n: usize, rng: &mut SimRng) {
    let dims = CanConfig::default().dims;
    let point = |rng: &mut SimRng| -> Vec<f64> { (0..dims).map(|_| rng.gen()).collect() };
    let mut net = CanNetwork::new(CanConfig::default());
    let points: Vec<Vec<f64>> = (0..n).map(|_| point(rng)).collect();
    let (ids, secs) = timed(|| points.iter().map(|p| net.join(p)).collect::<Vec<_>>());
    out.push((
        format!("can.join_us_per_node.n{size}"),
        secs * 1e6 / n as f64,
    ));

    let routes = 20_000;
    let pairs: Vec<_> = (0..routes)
        .map(|_| (ids[rng.gen_range(0..ids.len())], point(rng)))
        .collect();
    let mut hops = 0u64;
    let ((), secs) = timed(|| {
        for (from, target) in &pairs {
            hops += u64::from(net.route(*from, target).expect("a whole CAN routes").hops);
        }
    });
    out.push((format!("can.route_ns.n{size}"), secs * 1e9 / routes as f64));
    out.push((
        format!("can.route_hops.n{size}"),
        hops as f64 / routes as f64,
    ));

    let steps = 8;
    let joiners: Vec<Vec<f64>> = (0..steps).map(|_| point(rng)).collect();
    let ((), secs) = timed(|| {
        for (i, joiner) in joiners.iter().enumerate() {
            net.fail(ids[i * (n / steps)]);
            black_box(net.join(joiner));
        }
    });
    out.push((
        format!("can.churn_step_us.n{size}"),
        secs * 1e6 / steps as f64,
    ));
}

/// Chord and the RN-Tree index at the size of `rntree-100k`.
fn big_overlay_suite(out: &mut Metrics, size: &str, n: usize, seed: u64, rng: &mut SimRng) {
    let p = build_overlay::<ChordRing>(n);
    out.push((format!("chord.build_s.n{size}"), p.build_s));
    out.push((
        format!("chord.lookup_ns.n{size}"),
        lookup_cost(&p, 20_000, rng).0,
    ));

    let workload = paper_scenario(PaperScenario::MixedLight, n, 2_000, seed);
    let caps: HashMap<u64, Capabilities> = p
        .keys
        .iter()
        .zip(&workload.nodes)
        .map(|(&key, node)| (key, node.capabilities))
        .collect();
    let (mut index, secs) = timed(|| RnTreeIndex::build(&p.router, &caps));
    out.push((format!("rntree.build_s.n{size}"), secs));
    let ((), secs) = timed(|| index.refresh_aggregates());
    out.push((format!("rntree.refresh_aggregates_s.n{size}"), secs));
    let searches: Vec<_> = workload
        .submissions
        .iter()
        .map(|s| (p.keys[rng.gen_range(0..n)], s.profile.requirements))
        .collect();
    let mut found = 0usize;
    let ((), secs) = timed(|| {
        for (owner, req) in &searches {
            found += index.find_candidates(*owner, req, 4).candidates.len();
        }
    });
    black_box(found);
    out.push((
        format!("rntree.find_candidates_ns.n{size}"),
        secs * 1e9 / searches.len() as f64,
    ));

    // `NodeTable::new` is crate-private; the nearest public call is
    // `Engine::new` with the matchmaker that keeps no state of its own.
    let job = workload.submissions[..1].to_vec();
    let (engine, secs) = timed(|| {
        Engine::new(
            paper_engine_config(seed),
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            workload.nodes,
            job,
        )
    });
    drop(black_box(engine));
    out.push((format!("node.table_new_s.n{size}"), secs));
}

/// Four replications of one cell through `harness::run_cell`, on one pool
/// thread and on two: the speed-up of the replication fan-out.
fn replication_speedup(nodes: usize, jobs: usize, seed: u64) -> f64 {
    let cell = |threads: usize| {
        timed(|| {
            rayon::Pool::install(threads, || {
                run_cell(
                    Algorithm::RnTree,
                    PaperScenario::MixedLight,
                    nodes,
                    jobs,
                    seed,
                    4,
                )
            })
        })
    };
    let (one, t1) = cell(1);
    let (two, t2) = cell(crate::env::pool_threads());
    assert_eq!(
        one.mean_wait.to_bits(),
        two.mean_wait.to_bits(),
        "replications must not depend on the thread count"
    );
    t1 / t2
}

/// Run every probe at `1/scale_div` of full size.
pub fn run_all(seed: u64, scale_div: usize) -> Metrics {
    let d = scale_div.max(1);
    let mut rng = rng_for(seed, PROBE_STREAM);
    let mut out = Metrics::new();
    let ops = 1_000_000 / d;
    out.push((
        "sim.queue_hold_ns_per_op.p1k".into(),
        queue_hold_ns(1_000 / d.min(10), ops, &mut rng),
    ));
    out.push((
        "sim.queue_hold_ns_per_op.p100k".into(),
        queue_hold_ns(100_000 / d, ops, &mut rng),
    ));
    out.push(("sim.network_send_ns".into(), network_send_ns(2 * ops, seed)));
    overlay_suite::<ChordRing>(&mut out, "10k", 10_000 / d, &mut rng);
    overlay_suite::<PastryNetwork>(&mut out, "10k", 10_000 / d, &mut rng);
    overlay_suite::<TapestryNetwork>(&mut out, "10k", 10_000 / d, &mut rng);
    can_suite(&mut out, "3k", 3_000 / d, &mut rng);
    big_overlay_suite(&mut out, "100k", 100_000 / d, seed, &mut rng);
    out.push((
        "rayon.replication_speedup_t2".into(),
        replication_speedup(2_000 / d.min(10), 4_000 / d.min(10), seed),
    ));
    out
}
