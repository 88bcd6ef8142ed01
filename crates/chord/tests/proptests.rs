//! Property tests for routing under arbitrary churn.

use dgrid_chord::ChordRing;
use dgrid_sim::router::KeyRouter;
use proptest::prelude::*;

/// A churn step applied to the ring.
#[derive(Clone, Debug)]
enum Step {
    Join(u64),
    Leave(usize),
    Fail(usize),
    Stabilize,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u64>().prop_map(Step::Join),
        1 => any::<usize>().prop_map(Step::Leave),
        1 => any::<usize>().prop_map(Step::Fail),
        1 => Just(Step::Stabilize),
    ]
}

proptest! {
    /// After any churn sequence, (a) ground-truth successor matches a
    /// brute-force computation, and (b) a post-stabilization lookup from any
    /// live peer reaches that exact owner.
    #[test]
    fn lookup_matches_brute_force_after_churn(
        initial in proptest::collection::hash_set(any::<u64>(), 2..40),
        steps in proptest::collection::vec(step_strategy(), 0..30),
        keys in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        let mut ring = ChordRing::default();
        let mut live: Vec<u64> = Vec::new();
        for id in initial {
            ring.join(id);
            live.push(id);
        }
        for step in steps {
            match step {
                Step::Join(id)
                    if !ring.is_alive(id) => {
                        ring.join(id);
                        live.push(id);
                    }
                Step::Leave(i) if live.len() > 1 => {
                    let id = live.swap_remove(i % live.len());
                    ring.leave(id);
                }
                Step::Fail(i) if live.len() > 1 => {
                    let id = live.swap_remove(i % live.len());
                    ring.fail(id);
                }
                _ => {}
            }
        }
        ring.stabilize();
        live.sort_unstable();

        for key in keys {
            // Brute force: smallest live id >= key, else smallest overall.
            let expected = live
                .iter()
                .copied()
                .find(|&id| id >= key)
                .or_else(|| live.first().copied());
            prop_assert_eq!(ring.owner_of(key), expected);

            let owner = expected.unwrap();
            for &from in live.iter().take(5) {
                let res = ring.lookup(from, key).expect("routes");
                prop_assert_eq!(res.owner, owner);
                prop_assert_eq!(res.timeouts, 0);
            }
        }
    }

    /// Even *without* stabilization, lookups route around abrupt failures as
    /// long as fewer peers fail than the successor-list length, and always
    /// return a live owner.
    #[test]
    fn unstabilized_lookup_returns_live_owner(
        seedset in proptest::collection::hash_set(any::<u64>(), 12..48),
        kill in proptest::collection::vec(any::<usize>(), 1..6),
        key: u64,
    ) {
        let mut ring = ChordRing::default();
        let mut live: Vec<u64> = Vec::new();
        for id in seedset {
            ring.join(id);
            live.push(id);
        }
        ring.stabilize();
        for k in kill {
            if live.len() > 4 {
                let id = live.swap_remove(k % live.len());
                ring.fail(id);
            }
        }
        let from = *live.iter().min().unwrap();
        let res = ring.lookup(from, key).expect("routes around failures");
        prop_assert!(ring.is_alive(res.owner));
        prop_assert_eq!(Some(res.owner), ring.owner_of(key));
    }
}
