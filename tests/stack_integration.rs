//! Cross-crate integration: determinism of the full stack, overlay
//! invariants at scale, and consistency between the DHT layers and the
//! matchmakers built on them.

use std::collections::HashMap;

use dgrid::can::{CanConfig, CanNetwork};
use dgrid::chord::ChordRing;
use dgrid::harness::{run_scenario, Algorithm};
use dgrid::resources::{Capabilities, JobRequirements, OsType, ResourceKind};
use dgrid::rntree::RnTreeIndex;
use dgrid::sim::rng::{rng_for, streams};
use dgrid::sim::router::KeyRouter;
use dgrid::workloads::PaperScenario;
use rand::Rng;

#[test]
fn full_stack_is_deterministic_per_seed() {
    for alg in [
        Algorithm::RnTree,
        Algorithm::Can,
        Algorithm::CanPush,
        Algorithm::Central,
    ] {
        let a = run_scenario(alg, PaperScenario::MixedHeavy, 64, 256, 31);
        let b = run_scenario(alg, PaperScenario::MixedHeavy, 64, 256, 31);
        assert_eq!(
            a.wait_time.samples(),
            b.wait_time.samples(),
            "{}",
            alg.label()
        );
        assert_eq!(a.match_hops.samples(), b.match_hops.samples());
        assert_eq!(a.node_busy_secs, b.node_busy_secs);
        assert_eq!(a.makespan_secs, b.makespan_secs);
    }
}

#[test]
fn can_partition_invariant_at_scale() {
    // 1000 nodes in the 4-d space the matchmaker uses.
    let mut rng = rng_for(37, streams::NODE_IDS);
    let mut net = CanNetwork::new(CanConfig {
        dims: 4,
        ..CanConfig::default()
    });
    let mut ids = Vec::new();
    for _ in 0..1000 {
        let p: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
        ids.push(net.join(&p));
    }
    // Churn a third of them out again.
    for &id in ids.iter().step_by(3) {
        net.fail(id);
    }
    net.check_partition_invariant();
    // Routing still reaches the true owner from anywhere.
    let live = net.alive_ids();
    for _ in 0..50 {
        let target: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
        let from = live[rng.gen_range(0..live.len())];
        let route = net.route(from, &target).expect("routes");
        assert_eq!(Some(route.owner), net.owner_of(&target));
    }
}

#[test]
fn chord_and_rntree_agree_on_membership_through_churn() {
    let mut rng = rng_for(41, streams::NODE_IDS);
    let mut ring = ChordRing::default();
    let mut caps: HashMap<u64, Capabilities> = HashMap::new();
    let mut ids = Vec::new();
    for i in 0..500 {
        let id: u64 = rng.gen();
        if ring.is_alive(id) {
            continue;
        }
        ring.join(id);
        caps.insert(
            id,
            Capabilities::new(
                0.5 + (i % 7) as f64 * 0.5,
                2f64.powi((i % 6) as i32 - 2),
                10.0 + (i % 40) as f64 * 12.0,
                OsType::ALL[i % 4],
            ),
        );
        ids.push(id);
    }
    for &id in ids.iter().step_by(4) {
        ring.fail(id);
        caps.remove(&id);
    }
    ring.stabilize();

    let index = RnTreeIndex::build(&ring, &caps);
    assert_eq!(
        index.tree().len(),
        ring.len(),
        "tree spans exactly the live ring"
    );
    for &id in index.tree().ids() {
        assert!(ring.is_alive(id));
    }

    // Exhaustive search from the root finds exactly the brute-force set.
    let req = JobRequirements::unconstrained()
        .with_min(ResourceKind::CpuSpeed, 2.0)
        .with_min(ResourceKind::Memory, 2.0);
    let expected = caps.values().filter(|c| req.satisfied_by(c)).count();
    let found = index
        .find_candidates(index.tree().root(), &req, usize::MAX)
        .candidates
        .len();
    assert_eq!(found, expected);
}

#[test]
fn harness_cell_is_order_independent() {
    // run_cell fans replications out with rayon; results must equal the
    // sequential composition of single runs.
    use dgrid::harness::run_cell;
    let cell = run_cell(
        Algorithm::Can,
        PaperScenario::ClusteredHeavy,
        48,
        200,
        43,
        3,
    );
    let seq: Vec<f64> = (0..3u64)
        .map(|r| {
            run_scenario(
                Algorithm::Can,
                PaperScenario::ClusteredHeavy,
                48,
                200,
                43 ^ (r + 1),
            )
            .mean_wait()
        })
        .collect();
    let seq_mean = seq.iter().sum::<f64>() / 3.0;
    assert!((cell.mean_wait - seq_mean).abs() < 1e-9);
    assert_eq!(cell.replications, 3);
}

#[test]
fn wait_times_are_physical() {
    // Wait ≥ 0, turnaround ≥ runtime, makespan ≥ last arrival.
    let r = run_scenario(
        Algorithm::RnTree,
        PaperScenario::ClusteredLight,
        64,
        300,
        47,
    );
    for &w in r.wait_time.samples() {
        assert!(w >= 0.0);
    }
    assert!(
        r.turnaround.mean() > r.wait_time.mean(),
        "turnaround includes execution"
    );
    assert!(r.makespan_secs > 0.0);
    assert_eq!(r.jobs_completed, 300);
}
