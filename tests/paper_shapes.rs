//! Locks in the *shape* of the paper's results (Figure 2 and the Section 3.3
//! observations): who wins, who collapses, and where. Absolute magnitudes
//! vary with scale and seed; these orderings must not.

use dgrid::core::{ChurnConfig, EngineConfig, PlacementPolicy, SimReport};
use dgrid::harness::{
    paper_engine_config, run_cell, run_scenario, run_workload, Algorithm, CellResult,
};
use dgrid::workloads::{flash_crowd, paper_scenario, PaperScenario};

const NODES: usize = 96;
const JOBS: usize = 480;
const SEED: u64 = 7;

fn mean_wait(alg: Algorithm, s: PaperScenario) -> f64 {
    let r = run_scenario(alg, s, NODES, JOBS, SEED);
    assert_eq!(
        r.jobs_completed,
        JOBS as u64,
        "{} on {}: every job completes in the failure-free runs",
        alg.label(),
        s.label()
    );
    r.mean_wait()
}

#[test]
fn centralized_is_the_target_everywhere() {
    // "a centralized scheme ... serves as a target for achieving the best
    // possible load balance" — nothing beats it in any quadrant.
    for s in PaperScenario::ALL {
        let central = mean_wait(Algorithm::Central, s);
        for alg in [Algorithm::RnTree, Algorithm::Can] {
            let w = mean_wait(alg, s);
            assert!(
                central <= w,
                "{}: central {central:.1}s must not lose to {} {w:.1}s",
                s.label(),
                alg.label()
            );
        }
    }
}

#[test]
fn can_collapses_on_mixed_lightly_constrained() {
    // "the CAN-based algorithm works very poorly due to serious load
    // imbalance ... when jobs with few resource requirements are run on
    // nodes with heterogeneous (mixed) resource capabilities".
    //
    // The collapse factor grows with system size (the requirement-corner
    // funnel narrows relative to the population: ~1.5× at 96 nodes, ~3-7×
    // at 256, ~13× at the paper's 1000), so this check runs at 256 nodes
    // and averages two seeds to damp zone-layout variance.
    let scale_nodes = 256;
    let scale_jobs = 1280;
    let mut can = 0.0;
    let mut rn = 0.0;
    for seed in [11u64, 23] {
        can += run_scenario(
            Algorithm::Can,
            PaperScenario::MixedLight,
            scale_nodes,
            scale_jobs,
            seed,
        )
        .mean_wait();
        rn += run_scenario(
            Algorithm::RnTree,
            PaperScenario::MixedLight,
            scale_nodes,
            scale_jobs,
            seed,
        )
        .mean_wait();
    }
    assert!(
        can > 2.0 * rn,
        "mixed/light is CAN's failure case: can={:.1}s vs rn-tree={:.1}s",
        can / 2.0,
        rn / 2.0
    );
}

#[test]
fn can_is_competitive_on_clustered_workloads() {
    // "for most scenarios, the CAN-based matchmaking framework shows very
    // competitive performance" — on clustered workloads CAN must be within
    // a small factor of the RN-Tree, not collapsed.
    for s in [PaperScenario::ClusteredLight, PaperScenario::ClusteredHeavy] {
        let can = mean_wait(Algorithm::Can, s);
        let rn = mean_wait(Algorithm::RnTree, s);
        assert!(
            can < 3.0 * rn,
            "{}: can={can:.1}s should be competitive with rn-tree={rn:.1}s",
            s.label()
        );
    }
}

#[test]
fn load_pushing_dramatically_improves_the_failure_case() {
    // "the modified CAN-based matchmaking mechanism dramatically improves
    // the quality of load balancing compared to the basic scheme".
    let basic = run_scenario(Algorithm::Can, PaperScenario::MixedLight, NODES, JOBS, SEED);
    let push = run_scenario(
        Algorithm::CanPush,
        PaperScenario::MixedLight,
        NODES,
        JOBS,
        SEED,
    );
    assert!(
        push.mean_wait() < 0.7 * basic.mean_wait(),
        "pushing must cut mean wait substantially: {:.1}s -> {:.1}s",
        basic.mean_wait(),
        push.mean_wait()
    );
    assert!(
        push.load_fairness() > basic.load_fairness(),
        "pushing must improve load fairness: {:.3} -> {:.3}",
        basic.load_fairness(),
        push.load_fairness()
    );
    // "... still with low matchmaking cost."
    let basic_hops = basic.match_hops.mean() + basic.owner_hops.mean();
    let push_hops = push.match_hops.mean() + push.owner_hops.mean();
    assert!(
        push_hops < basic_hops + 4.0,
        "pushing adds only a few hops: {basic_hops:.1} -> {push_hops:.1}"
    );
}

#[test]
fn virtual_dimension_rescues_clustered_populations() {
    // Identical nodes/jobs without the virtual dimension re-create the
    // pile-up (Section 3.2's motivation for it).
    let with = run_scenario(
        Algorithm::Can,
        PaperScenario::ClusteredLight,
        NODES,
        JOBS,
        SEED,
    );
    let without = run_scenario(
        Algorithm::CanNoVirtualDim,
        PaperScenario::ClusteredLight,
        NODES,
        JOBS,
        SEED,
    );
    assert!(
        without.mean_wait() > 2.0 * with.mean_wait(),
        "no-virtual-dim must degrade clustered/light: {:.1}s vs {:.1}s",
        without.mean_wait(),
        with.mean_wait()
    );
    assert!(without.load_fairness() < with.load_fairness());
}

#[test]
fn matchmaking_cost_is_small_and_scales_gently() {
    // "both the CAN and RN-Tree can find an appropriate run node for a job
    // with a small number of hops through the P2P overlay network."
    for (n, jobs) in [(64usize, 192), (192, 384)] {
        for alg in [Algorithm::Can, Algorithm::RnTree] {
            let r = run_scenario(alg, PaperScenario::MixedHeavy, n, jobs, SEED);
            let hops = r.match_hops.mean() + r.owner_hops.mean();
            assert!(
                hops < 2.5 * (n as f64).log2(),
                "{} at N={n}: {hops:.1} hops should stay O(log N)",
                alg.label()
            );
        }
    }
}

#[test]
fn decentralized_stdev_tracks_mean_ordering() {
    // Figure 2(b)/(d): the stdev panels tell the same story as the means.
    let s = PaperScenario::MixedLight;
    let can = run_scenario(Algorithm::Can, s, NODES, JOBS, SEED);
    let rn = run_scenario(Algorithm::RnTree, s, NODES, JOBS, SEED);
    let central = run_scenario(Algorithm::Central, s, NODES, JOBS, SEED);
    assert!(central.std_wait() <= rn.std_wait());
    assert!(rn.std_wait() < can.std_wait());
}

// The tables `dgrid compare --replications R` regenerates in EXPERIMENTS.md,
// at their recorded cell: 96 nodes × 400 jobs, seeds `42 ^ 1 ..= 42 ^ R`.

#[test]
fn tapestry_ownership_skew_not_hop_count_drives_the_wait() {
    // T-overlay, 8 seeds: Chord owns key space near-uniformly, Tapestry's
    // surrogate roots do not, and the wait time follows the fairness.
    let cell = |alg| run_cell(alg, PaperScenario::MixedLight, 96, 400, 42, 8);
    let (chord, tapestry) = (cell(Algorithm::RnTree), cell(Algorithm::RnTreeTapestry));
    assert!(tapestry.load_fairness < 0.5 && 0.5 < chord.load_fairness);
    assert!(tapestry.mean_wait > 3.0 * chord.mean_wait);
}

/// T-lease, 16 seeds of `rn-tree@tapestry`: reassign-on-death (`None`) or
/// leases of ttl 600 s / renew 150 s / grace 60 s under `placement`.
fn tapestry_cell(placement: Option<PlacementPolicy>) -> CellResult {
    let alg = Algorithm::RnTreeTapestry;
    let reports: Vec<SimReport> = (1..=16)
        .map(|r| {
            let cfg = EngineConfig {
                lease_ttl_secs: placement.map(|_| 600.0),
                lease_renew_secs: 150.0,
                lease_grace_secs: 60.0,
                placement,
                ..paper_engine_config(42 ^ r)
            };
            let workload = paper_scenario(PaperScenario::MixedLight, 96, 400, 42 ^ r);
            run_workload(alg, &workload, cfg, ChurnConfig::none())
        })
        .collect();
    CellResult::from_reports(&reports)
}

#[test]
fn lease_machinery_is_free_and_load_aware_placement_buys_back_the_skew() {
    let reassign = tapestry_cell(None);
    let hash = tapestry_cell(Some(PlacementPolicy::Hash));
    let load_aware = tapestry_cell(Some(PlacementPolicy::LoadAware));
    let drift = (hash.mean_wait - reassign.mean_wait).abs() / reassign.mean_wait;
    assert!(drift < 0.02, "leases + hash placement drifted {drift:.3}");
    assert!(load_aware.load_fairness > 0.7);
    assert!(4.0 * load_aware.mean_wait < reassign.mean_wait);
}

#[test]
fn pub_sub_beats_every_rn_tree_substrate_under_a_flash_crowd() {
    // T-scenario, 4 seeds of the `flash-crowd` preset.
    let wait = |mm: Algorithm| {
        let reports: Vec<SimReport> = (1..=4)
            .map(|r| {
                let seed = 42 ^ r;
                let cfg = EngineConfig {
                    seed,
                    ..EngineConfig::default()
                };
                flash_crowd()
                    .compile(seed)
                    .engine(cfg, mm.matchmaker())
                    .run()
            })
            .collect();
        CellResult::from_reports(&reports).mean_wait
    };
    let pub_sub = wait(Algorithm::PubSub);
    let chord = wait(Algorithm::RnTree);
    let pastry = wait(Algorithm::RnTreePastry);
    let tapestry = wait(Algorithm::RnTreeTapestry);
    assert!(pub_sub < chord.min(pastry), "{pub_sub} {chord} {pastry}");
    assert!(tapestry > chord.max(pastry).max(wait(Algorithm::Can)));
}
