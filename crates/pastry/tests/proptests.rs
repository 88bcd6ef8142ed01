//! Property tests: Pastry ownership matches brute force and routing reaches
//! the true owner under arbitrary churn.

use dgrid_pastry::PastryNetwork;
use dgrid_sim::router::KeyRouter;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    Join(u64),
    Leave(usize),
    Fail(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u64>().prop_map(Step::Join),
        1 => any::<usize>().prop_map(Step::Leave),
        1 => any::<usize>().prop_map(Step::Fail),
    ]
}

/// Brute-force owner: numerically closest live id (circular, tie → smaller).
fn brute_owner(live: &[u64], key: u64) -> Option<u64> {
    live.iter().copied().min_by_key(|&id| {
        let d = id.wrapping_sub(key);
        (d.min(d.wrapping_neg()), id)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ownership_and_routing_match_brute_force(
        initial in proptest::collection::hash_set(any::<u64>(), 2..40),
        steps in proptest::collection::vec(step(), 0..25),
        keys in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut net = PastryNetwork::default();
        let mut live: Vec<u64> = Vec::new();
        for id in initial {
            net.join(id);
            live.push(id);
        }
        for s in steps {
            match s {
                Step::Join(id)
                    if !net.is_alive(id) => {
                        net.join(id);
                        live.push(id);
                    }
                Step::Leave(i) if live.len() > 1 => {
                    let id = live.swap_remove(i % live.len());
                    net.leave(id);
                }
                Step::Fail(i) if live.len() > 1 => {
                    let id = live.swap_remove(i % live.len());
                    net.fail(id);
                }
                _ => {}
            }
        }
        net.stabilize();

        for key in keys {
            let expected = brute_owner(&live, key);
            prop_assert_eq!(net.owner_of(key), expected);
            let owner = expected.unwrap();
            for &from in live.iter().take(5) {
                let res = net.lookup(from, key).expect("routes");
                prop_assert_eq!(res.owner, owner);
                prop_assert_eq!(res.timeouts, 0);
            }
        }
    }

    // The churn -> stabilize -> table_violation() property shared by every
    // substrate lives in the trait-level harness
    // (`dgrid-rntree/tests/churn_invariants.rs`); only Pastry-specific
    // properties remain here.

    /// Lookups terminate at the numerically closest live node from *every*
    /// live starting point, not just a sample.
    #[test]
    fn lookups_from_everywhere_reach_closest_live_node(
        ids in proptest::collection::hash_set(any::<u64>(), 2..24),
        keys in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let mut net = PastryNetwork::default();
        for &id in &ids {
            net.join(id);
        }
        net.stabilize();
        let live: Vec<u64> = ids.into_iter().collect();
        for key in keys {
            let owner = brute_owner(&live, key).unwrap();
            for &from in &live {
                let res = net.lookup(from, key).expect("routes");
                prop_assert_eq!(res.owner, owner);
            }
        }
    }

    /// Unstabilized failures within the leaf width: routing still delivers
    /// to a live node.
    #[test]
    fn routes_to_live_node_under_failures(
        seedset in proptest::collection::hash_set(any::<u64>(), 16..48),
        kills in proptest::collection::vec(any::<usize>(), 1..4),
        key: u64,
    ) {
        let mut net = PastryNetwork::default();
        let mut live: Vec<u64> = Vec::new();
        for id in seedset {
            net.join(id);
            live.push(id);
        }
        net.stabilize();
        for k in kills {
            if live.len() > 4 {
                let id = live.swap_remove(k % live.len());
                net.fail(id);
            }
        }
        let from = *live.iter().min().unwrap();
        let res = net.lookup(from, key).expect("routes around failures");
        prop_assert!(net.is_alive(res.owner));
    }
}
