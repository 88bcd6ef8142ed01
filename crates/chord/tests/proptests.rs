//! Property tests for ring arithmetic and routing under arbitrary churn.

use dgrid_chord::{ChordId, ChordRing};
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
    /// `x ∈ (a, b]` partitions correctly: for a ≠ b, every x is in exactly
    /// one of (a, b] and (b, a].
    #[test]
    fn open_closed_partitions_ring(a: u64, b: u64, x: u64) {
        prop_assume!(a != b);
        let (a, b, x) = (ChordId(a), ChordId(b), ChordId(x));
        let in_ab = x.in_open_closed(a, b);
        let in_ba = x.in_open_closed(b, a);
        if x == a || x == b {
            // Each endpoint is in exactly the interval it closes.
            prop_assert_eq!(in_ab, x == b);
            prop_assert_eq!(in_ba, x == a);
        } else {
            prop_assert!(in_ab ^ in_ba, "x must be in exactly one half");
        }
    }

    /// Open-open is open-closed minus the right endpoint.
    #[test]
    fn open_open_relates_to_open_closed(a: u64, b: u64, x: u64) {
        let (a, b, x) = (ChordId(a), ChordId(b), ChordId(x));
        let oo = x.in_open_open(a, b);
        let oc = x.in_open_closed(a, b);
        if x == b {
            prop_assert!(!oo);
        } else {
            prop_assert_eq!(oo, oc);
        }
    }

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
            ring.join(ChordId(id));
            live.push(id);
        }
        for step in steps {
            match step {
                Step::Join(id)
                    if !ring.is_alive(id) => {
                        ring.join(ChordId(id));
                        live.push(id);
                    }
                Step::Leave(i) if live.len() > 1 => {
                    let id = live.swap_remove(i % live.len());
                    ring.leave(ChordId(id));
                }
                Step::Fail(i) if live.len() > 1 => {
                    let id = live.swap_remove(i % live.len());
                    ring.fail(ChordId(id));
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
                .or_else(|| live.first().copied())
                .map(ChordId);
            prop_assert_eq!(ring.successor_of(ChordId(key)), expected);

            let owner = expected.unwrap();
            for &from in live.iter().take(5) {
                let res = ring.lookup(ChordId(from), ChordId(key)).expect("routes");
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
            ring.join(ChordId(id));
            live.push(id);
        }
        ring.stabilize();
        for k in kill {
            if live.len() > 4 {
                let id = live.swap_remove(k % live.len());
                ring.fail(ChordId(id));
            }
        }
        let from = ChordId(*live.iter().min().unwrap());
        let res = ring.lookup(from, ChordId(key)).expect("routes around failures");
        prop_assert!(ring.is_alive(res.owner.0));
        prop_assert_eq!(Some(res.owner), ring.successor_of(ChordId(key)));
    }
}
