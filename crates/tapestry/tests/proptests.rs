//! Property tests: root uniqueness and routing convergence under arbitrary
//! membership and churn.

use dgrid_sim::router::KeyRouter;
use dgrid_tapestry::TapestryNetwork;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any churn history plus stabilization: every key has exactly
    /// one live root, and surrogate routing from every start converges to
    /// it with zero timeouts.
    #[test]
    fn root_unique_and_convergent(
        initial in proptest::collection::hash_set(any::<u64>(), 1..40),
        steps in proptest::collection::vec(step(), 0..25),
        keys in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut net = TapestryNetwork::default();
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
        prop_assert_eq!(net.len(), live.len());

        for key in keys {
            let root = net.owner_of(key).expect("non-empty");
            prop_assert!(net.is_alive(root));
            for &from in live.iter().take(6) {
                let res = net.lookup(from, key).expect("routes");
                prop_assert_eq!(res.owner, root);
                prop_assert_eq!(res.timeouts, 0);
            }
        }
    }

    // The churn -> stabilize -> table_violation() property shared by every
    // substrate lives in the trait-level harness
    // (`dgrid-rntree/tests/churn_invariants.rs`); only Tapestry-specific
    // properties remain here.

    /// Lookups from *every* live node terminate at the key's unique root.
    #[test]
    fn lookups_from_everywhere_reach_the_root(
        ids in proptest::collection::hash_set(any::<u64>(), 1..24),
        keys in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let mut net = TapestryNetwork::default();
        for &id in &ids {
            net.join(id);
        }
        net.stabilize();
        for key in keys {
            let root = net.owner_of(key).expect("non-empty");
            prop_assert!(net.is_alive(root));
            for &from in &ids {
                let res = net.lookup(from, key).expect("routes");
                prop_assert_eq!(res.owner, root);
                prop_assert_eq!(res.timeouts, 0);
            }
        }
    }

    /// An exact-id match is always its own root.
    #[test]
    fn exact_match_owns_itself(ids in proptest::collection::hash_set(any::<u64>(), 1..30)) {
        let mut net = TapestryNetwork::default();
        for &id in &ids {
            net.join(id);
        }
        net.stabilize();
        for &id in &ids {
            prop_assert_eq!(net.owner_of(id), Some(id));
        }
    }
}
