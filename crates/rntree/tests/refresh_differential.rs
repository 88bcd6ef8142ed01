//! The in-place refresh against a build from scratch.
//!
//! `RnTreeIndex::refresh` carries each survivor's capabilities over, asks
//! only joiners for theirs, refills the child lists in the buffers it
//! already has and, wherever every parent's rank precedes its child's,
//! folds the aggregates in one descending pass over the ranks instead of a
//! depth-first order. On every substrate, after every step of a random
//! join / leave / fail history, the refreshed index must be the index
//! `RnTreeIndex::build_with` builds from nothing: the same ids, parents,
//! child lists, capabilities, subtree aggregates and height, and the same
//! candidate searches from every owner.

use std::collections::HashSet;

use dgrid_chord::ChordRing;
use dgrid_pastry::PastryNetwork;
use dgrid_resources::{Capabilities, JobRequirements, OsRequirement, OsType, ResourceKind};
use dgrid_rntree::RnTreeIndex;
use dgrid_sim::router::KeyRouter;
use dgrid_tapestry::TapestryNetwork;
use proptest::prelude::*;

/// Capabilities that differ from key to key, so that one carried to the
/// wrong rank shows.
fn caps_of(key: u64) -> Capabilities {
    let mix = ChordRing::key_of(key);
    Capabilities::new(
        0.5 + (mix % 8) as f64 * 0.45,
        2f64.powi((mix >> 8) as i32 % 6 - 2),
        10.0 + ((mix >> 16) % 50) as f64 * 9.5,
        OsType::ALL[(mix >> 24) as usize % 4],
    )
}

/// One history step: join `key` (`op < 3`), or pick a live node by `key`
/// and have it leave (3) or fail (4).
type Step = (u64, u8);

/// Requirements from loose to impossible, one per OS choice.
fn probes() -> Vec<JobRequirements> {
    let mut probes = vec![JobRequirements::unconstrained()];
    for (i, os) in OsType::ALL.into_iter().enumerate() {
        let scale = (i + 1) as f64;
        probes.push(
            JobRequirements::unconstrained()
                .with_min(ResourceKind::CpuSpeed, 0.4 * scale)
                .with_min(ResourceKind::Memory, 0.5 * scale)
                .with_min(ResourceKind::Disk, 100.0 * scale)
                .with_os(OsRequirement::only(os)),
        );
    }
    probes
}

/// `index` and a build from scratch over `net` agree on everything a
/// caller can read.
fn same_as_a_fresh_build<R: KeyRouter>(
    index: &RnTreeIndex,
    net: &R,
    searches: usize,
) -> Result<(), TestCaseError> {
    let fresh = RnTreeIndex::build_with(net, caps_of);
    let (tree, want) = (index.tree(), fresh.tree());
    prop_assert_eq!(tree.ids(), want.ids(), "{} ids", R::SUBSTRATE);
    prop_assert_eq!(tree.root(), want.root());
    prop_assert_eq!(tree.height(), want.height(), "{} height", R::SUBSTRATE);
    for &id in want.ids() {
        prop_assert_eq!(
            tree.parent(id),
            want.parent(id),
            "{} parent of {:x}",
            R::SUBSTRATE,
            id
        );
        prop_assert_eq!(
            tree.children(id),
            want.children(id),
            "{} children of {:x}",
            R::SUBSTRATE,
            id
        );
        prop_assert_eq!(
            index.capabilities(id),
            fresh.capabilities(id),
            "caps of {:x}",
            id
        );
        prop_assert_eq!(
            index.subtree_info(id),
            fresh.subtree_info(id),
            "{} aggregate of {:x}",
            R::SUBSTRATE,
            id
        );
    }
    prop_assert_eq!(index.aggregate_violation(), None);
    let n = want.len();
    let step = (n / searches.max(1)).max(1);
    for owner in (0..n).step_by(step).map(|r| r as u32) {
        for (i, req) in probes().iter().enumerate() {
            let k = 1 + i * 2;
            prop_assert_eq!(
                index.find_candidate_ranks(owner, req, k),
                fresh.find_candidate_ranks(owner, req, k),
                "{} search from rank {}",
                R::SUBSTRATE,
                owner
            );
        }
    }
    Ok(())
}

/// Join `initial`, then apply `steps`, stabilizing and refreshing one
/// index after each and holding it to a fresh build. Each refresh must ask
/// for the capabilities of exactly the nodes that joined since the last,
/// in ascending order.
fn refresh_through_churn<R: KeyRouter>(
    initial: &HashSet<u64>,
    steps: &[Step],
    searches: usize,
) -> Result<(), TestCaseError> {
    let mut net = R::default();
    for &key in initial {
        net.join(key);
    }
    net.stabilize();
    let mut index = RnTreeIndex::build_with(&net, caps_of);
    same_as_a_fresh_build(&index, &net, searches)?;
    for &(key, op) in steps {
        let before: HashSet<u64> = net.alive_keys().into_iter().collect();
        let live = net.alive_keys();
        let victim = live[key as usize % live.len()];
        match op {
            0..=2 if !net.is_alive(key) => net.join(key),
            3 if live.len() > 1 => net.leave(victim),
            4 if live.len() > 1 => net.fail(victim),
            _ => {}
        }
        net.stabilize();
        let mut asked = Vec::new();
        index.refresh(&net, |key| {
            asked.push(key);
            caps_of(key)
        });
        let mut joined: Vec<u64> = net
            .alive_keys()
            .into_iter()
            .filter(|key| !before.contains(key))
            .collect();
        joined.sort_unstable();
        prop_assert_eq!(
            asked,
            joined,
            "{} asked for other than the joiners",
            R::SUBSTRATE
        );
        same_as_a_fresh_build(&index, &net, searches)?;
    }
    Ok(())
}

fn steps(len: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<u64>(), 0u8..5), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chord_refresh_equals_a_fresh_build(
        initial in proptest::collection::hash_set(any::<u64>(), 1..300),
        steps in steps(40),
    ) {
        refresh_through_churn::<ChordRing>(&initial, &steps, 8)?;
    }

    #[test]
    fn pastry_refresh_equals_a_fresh_build(
        initial in proptest::collection::hash_set(any::<u64>(), 1..300),
        steps in steps(40),
    ) {
        refresh_through_churn::<PastryNetwork>(&initial, &steps, 8)?;
    }

    #[test]
    fn tapestry_refresh_equals_a_fresh_build(
        initial in proptest::collection::hash_set(any::<u64>(), 1..300),
        steps in steps(40),
    ) {
        refresh_through_churn::<TapestryNetwork>(&initial, &steps, 8)?;
    }
}

/// Ten thousand nodes through a hundred steps of churn on each substrate.
/// Run by name in release: `cargo test --release -p dgrid-rntree --test
/// refresh_differential -- --ignored ten_thousand`.
#[test]
#[ignore]
fn ten_thousand_node_refreshes_equal_fresh_builds() {
    let mut key = 0x5eed_u64;
    let mut next = || {
        key = ChordRing::key_of(key);
        key
    };
    let initial: HashSet<u64> = (0..10_000).map(|_| next()).collect();
    let steps: Vec<Step> = (0..100).map(|i| (next(), (i % 5) as u8)).collect();
    let run = |result: Result<(), TestCaseError>| result.expect("refresh equals a fresh build");
    run(refresh_through_churn::<ChordRing>(&initial, &steps, 64));
    run(refresh_through_churn::<PastryNetwork>(&initial, &steps, 64));
    run(refresh_through_churn::<TapestryNetwork>(
        &initial, &steps, 64,
    ));
}
