//! Property tests: the RN-Tree is a well-formed, shallow tree over any
//! ring membership, aggregation envelopes are sound, and search is
//! complete under exhaustive k. Two differential properties hold the fast
//! paths to the construction as first written: the substrates' closed-form
//! answers against the probing and routing defaults, and the rank-indexed
//! tree against a hash-map reference.

use std::collections::{HashMap, HashSet};

use dgrid_chord::{ChordId, ChordRing};
use dgrid_pastry::PastryNetwork;
use dgrid_resources::{Capabilities, JobRequirements, OsType, ResourceKind};
use dgrid_rntree::{RnTree, RnTreeIndex, SubtreeInfo};
use dgrid_sim::router::{prefix_key, KeyRouter, RouteCost};
use dgrid_tapestry::TapestryNetwork;
use proptest::prelude::*;

fn ring_from_ids(ids: &HashSet<u64>) -> ChordRing {
    let mut ring = ChordRing::default();
    for &id in ids {
        ring.join(ChordId(id));
    }
    ring.stabilize();
    ring
}

fn caps_for<'a>(ids: impl IntoIterator<Item = &'a u64>) -> HashMap<u64, Capabilities> {
    ids.into_iter()
        .map(|&id| {
            let c = Capabilities::new(
                0.5 + (id % 8) as f64 * 0.45,
                2f64.powi((id % 6) as i32 - 2),
                10.0 + (id % 50) as f64 * 9.5,
                OsType::ALL[(id % 4) as usize],
            );
            (id, c)
        })
        .collect()
}

/// One history step: `(id, op)` joins `id` for `op < 4`, picks a live node
/// by `id` and has it leave (4) or fail (5), or stabilizes (6).
type Churn = Vec<(u64, u8)>;

fn churn() -> impl Strategy<Value = Churn> {
    proptest::collection::vec((any::<u64>(), 0u8..7), 0..30)
}

/// `initial` joined one by one, then `steps` applied.
fn churned<R: KeyRouter>(initial: &HashSet<u64>, steps: &Churn) -> R {
    let mut net = R::default();
    for &id in initial {
        net.join(id);
    }
    for &(id, op) in steps {
        let live = net.alive_keys();
        let victim = live[id as usize % live.len()];
        match op {
            0..=3 if !net.is_alive(id) => net.join(id),
            4 if live.len() > 1 => net.leave(victim),
            5 if live.len() > 1 => net.fail(victim),
            6 => net.stabilize(),
            _ => {}
        }
    }
    net
}

/// The level rule as a probe of ground-truth ownership.
fn probed_level<R: KeyRouter>(net: &R, id: u64) -> u32 {
    (0..=64)
        .find(|&l| net.owner_of(prefix_key(id, l)) == Some(id))
        .expect("a node owns its own key")
}

/// The `KeyRouter` hooks against what they stand for: every rank's live
/// key, and from every live node its level and the owner a routed lookup
/// reaches for its own parent key, for `keys`, and for prefixes of `keys`.
fn hooks_match_their_defaults<R: KeyRouter>(net: &R, keys: &[u64]) -> Result<(), TestCaseError> {
    let live = net.alive_keys();
    for rank in 0..=live.len() {
        prop_assert_eq!(net.alive_key_at(rank), live.get(rank).copied());
    }
    for from in live {
        let level = net.shortest_owned_prefix(from);
        prop_assert_eq!(level, probed_level(net, from), "level of {:x}", from);
        let own = prefix_key(from, level.saturating_sub(1));
        let prefixes = keys.iter().map(|&k| prefix_key(k, (k % 65) as u32));
        for key in keys.iter().copied().chain(prefixes).chain([own]) {
            prop_assert_eq!(
                net.lookup_owner(from, key),
                net.lookup(from, key).map(|r| r.owner),
                "{}: owner of {:x} from {:x}",
                R::SUBSTRATE,
                key,
                from
            );
        }
    }
    Ok(())
}

fn hooks_hold_through_churn<R: KeyRouter>(
    initial: &HashSet<u64>,
    steps: &Churn,
    keys: &[u64],
) -> Result<(), TestCaseError> {
    let mut net: R = churned(initial, steps);
    hooks_match_their_defaults(&net, keys)?; // as churn left the tables
    net.stabilize();
    hooks_match_their_defaults(&net, keys)
}

type Reference = (
    HashMap<u64, Option<u64>>,
    HashMap<u64, Vec<u64>>,
    HashMap<u64, SubtreeInfo>,
);

/// The construction as first written: probe the level, route to the
/// parent, graft what cannot reach the root onto it, aggregate by
/// recursive descent — in hash maps keyed by id.
fn reference<R: KeyRouter>(net: &R, caps: &HashMap<u64, Capabilities>) -> Reference {
    let ids = net.alive_keys();
    let root = net.owner_of(0).expect("non-empty overlay");
    let mut parent: HashMap<u64, Option<u64>> = HashMap::from([(root, None)]);
    for &id in ids.iter().filter(|&&id| id != root) {
        let key = prefix_key(id, probed_level(net, id) - 1);
        let routed = net.lookup(id, key).expect("stable overlay routes").owner;
        let p = if routed == id {
            net.owner_of(key)
        } else {
            Some(routed)
        };
        parent.insert(id, p);
    }
    let reaches_root = |id: &u64| {
        let chain = std::iter::successors(Some(*id), |x| parent.get(x).copied().flatten());
        chain.take(ids.len()).last() == Some(root)
    };
    let lost: Vec<u64> = ids.iter().copied().filter(|id| !reaches_root(id)).collect();
    parent.extend(lost.into_iter().map(|id| (id, Some(root))));

    let mut children: HashMap<u64, Vec<u64>> = ids.iter().map(|&id| (id, Vec::new())).collect();
    for &id in &ids {
        if let Some(p) = parent[&id] {
            children.get_mut(&p).expect("parents are members").push(id);
        }
    }
    fn aggregate(
        id: u64,
        children: &HashMap<u64, Vec<u64>>,
        caps: &HashMap<u64, Capabilities>,
        info: &mut HashMap<u64, SubtreeInfo>,
    ) -> SubtreeInfo {
        let mut acc = SubtreeInfo::leaf(&caps[&id]);
        for &kid in &children[&id] {
            acc.absorb(&aggregate(kid, children, caps, info));
        }
        info.insert(id, acc.clone());
        acc
    }
    let mut info = HashMap::new();
    aggregate(root, &children, caps, &mut info);
    (parent, children, info)
}

/// Interval ownership over a fixed membership, under a `lookup` that
/// names a pseudo-random member — or, now and then, the asker or nobody —
/// as the owner: parent pointers form cycles and chains hanging off them,
/// loop back, and leave the membership.
#[derive(Default)]
struct Scrambled {
    ids: Vec<u64>,
    salt: u64,
}

impl KeyRouter for Scrambled {
    const SUBSTRATE: &'static str = "scrambled";

    fn key_of(raw: u64) -> u64 {
        raw
    }
    fn is_alive(&self, key: u64) -> bool {
        self.ids.binary_search(&key).is_ok()
    }
    fn len(&self) -> usize {
        self.ids.len()
    }
    fn alive_keys(&self) -> Vec<u64> {
        self.ids.clone()
    }
    fn owner_of(&self, key: u64) -> Option<u64> {
        let at = self.ids.partition_point(|&id| id < key);
        self.ids.get(at).or(self.ids.first()).copied()
    }
    fn lookup(&self, from: u64, _key: u64) -> Option<RouteCost> {
        let pick = ChordId::hash_of(from ^ self.salt).0 as usize % (self.ids.len() + 2);
        let owner = match self.ids.get(pick) {
            Some(&member) => member,
            None if pick == self.ids.len() => from,
            None => !from,
        };
        Some(RouteCost {
            owner,
            hops: 1,
            timeouts: 0,
        })
    }
    fn failover_peers(&self, _from: u64) -> Vec<u64> {
        Vec::new()
    }
    fn walk_step(&self, _at: u64) -> Option<u64> {
        None
    }
    fn table_violation(&self) -> Option<String> {
        None
    }
    fn stabilize(&mut self) {}
    fn join(&mut self, _key: u64) {
        unimplemented!("fixed membership")
    }
    fn leave(&mut self, _key: u64) {
        unimplemented!("fixed membership")
    }
    fn fail(&mut self, _key: u64) {
        unimplemented!("fixed membership")
    }
}

fn dense_index_after_churn<R: KeyRouter>(
    initial: &HashSet<u64>,
    steps: &Churn,
) -> Result<(), TestCaseError> {
    let mut net: R = churned(initial, steps);
    net.stabilize();
    dense_index_matches_the_reference(&net)
}

fn dense_index_matches_the_reference<R: KeyRouter>(net: &R) -> Result<(), TestCaseError> {
    let caps = caps_for(&net.alive_keys());
    let index = RnTreeIndex::build(net, &caps);
    let (parent, children, info) = reference(net, &caps);
    prop_assert_eq!(index.tree().ids(), net.alive_keys());
    prop_assert_eq!(Some(index.tree().root()), net.owner_of(0));
    for id in net.alive_keys() {
        prop_assert_eq!(index.tree().parent(id), parent[&id], "parent of {:x}", id);
        prop_assert_eq!(
            index.tree().children(id),
            &children[&id][..],
            "children of {:x}",
            id
        );
        prop_assert_eq!(index.subtree_info(id), &info[&id], "aggregate of {:x}", id);
        prop_assert_eq!(index.capabilities(id), &caps[&id]);
    }
    prop_assert_eq!(index.aggregate_violation(), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `alive_key_at`, `shortest_owned_prefix` and `lookup_owner` equal the
    /// listing, the probe and the routed lookup on every substrate, on
    /// stale tables and settled ones.
    #[test]
    fn substrate_hooks_equal_their_defaults(
        initial in proptest::collection::hash_set(any::<u64>(), 1..40),
        steps in churn(),
        keys in proptest::collection::vec(any::<u64>(), 6),
    ) {
        hooks_hold_through_churn::<ChordRing>(&initial, &steps, &keys)?;
        hooks_hold_through_churn::<PastryNetwork>(&initial, &steps, &keys)?;
        hooks_hold_through_churn::<TapestryNetwork>(&initial, &steps, &keys)?;
    }

    /// The rank-indexed tree and its one-sweep aggregates equal the
    /// hash-map reference on every substrate, repair pass included.
    #[test]
    fn dense_layout_equals_the_reference(
        initial in proptest::collection::hash_set(any::<u64>(), 1..40),
        steps in churn(),
    ) {
        dense_index_after_churn::<ChordRing>(&initial, &steps)?;
        dense_index_after_churn::<PastryNetwork>(&initial, &steps)?;
        dense_index_after_churn::<TapestryNetwork>(&initial, &steps)?;
    }

    /// The repair pass, which no real substrate reaches in these sizes:
    /// under scrambled parent pointers the grafted tree still equals the
    /// reference's.
    #[test]
    fn repaired_trees_equal_the_reference(
        ids in proptest::collection::hash_set(any::<u64>(), 1..60),
        salt in any::<u64>(),
    ) {
        let mut ids: Vec<u64> = ids.into_iter().collect();
        ids.sort_unstable();
        let net = Scrambled { ids, salt };
        dense_index_matches_the_reference(&net)?;
    }

    /// Single root, full coverage, strictly-decreasing parent ids
    /// (acyclicity), height within a small multiple of log2(N).
    #[test]
    fn tree_is_well_formed(ids in proptest::collection::hash_set(any::<u64>(), 1..120)) {
        let ring = ring_from_ids(&ids);
        let tree = RnTree::build(&ring);
        prop_assert_eq!(tree.len(), ids.len());

        let mut roots = 0;
        for id in tree.ids() {
            match tree.parent(id) {
                None => {
                    roots += 1;
                    prop_assert_eq!(id, tree.root());
                }
                Some(p) => prop_assert!(p < id, "parents strictly decrease"),
            }
        }
        prop_assert_eq!(roots, 1);

        if ids.len() >= 4 {
            let bound = 3.0 * (ids.len() as f64).log2() + 2.0;
            prop_assert!(
                (tree.height() as f64) <= bound,
                "height {} exceeds {bound:.1} for n={}",
                tree.height(),
                ids.len()
            );
        }
    }

    /// The subtree aggregate of the root bounds every node's capabilities,
    /// and exhaustive search from any owner finds exactly the brute-force
    /// satisfying set.
    #[test]
    fn aggregation_and_search_are_sound(
        ids in proptest::collection::hash_set(any::<u64>(), 2..80),
        cpu_min in 0.5f64..4.0,
        owner_pick in any::<usize>(),
    ) {
        let ring = ring_from_ids(&ids);
        let caps = caps_for(&ids);
        let index = RnTreeIndex::build(&ring, &caps);

        // Root envelope dominates every member.
        let root_info = index.subtree_info(index.tree().root());
        for c in caps.values() {
            for (d, &v) in c.values().iter().enumerate() {
                prop_assert!(root_info.max_caps[d] >= v);
            }
        }

        let req = JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, cpu_min);
        let expected: HashSet<u64> = caps
            .iter()
            .filter(|(_, c)| req.satisfied_by(c))
            .map(|(&id, _)| id)
            .collect();
        let all = index.tree().ids();
        let owner = all[owner_pick % all.len()];
        let found: HashSet<u64> = index
            .find_candidates(owner, &req, usize::MAX)
            .candidates
            .into_iter()
            .collect();
        prop_assert_eq!(found, expected);
    }

    /// With small k, the search returns only satisfying nodes and stops
    /// near k (it may slightly overshoot within the final subtree, never
    /// undershoot while more candidates exist).
    #[test]
    fn extended_search_respects_k(
        ids in proptest::collection::hash_set(any::<u64>(), 8..80),
        k in 1usize..8,
    ) {
        let ring = ring_from_ids(&ids);
        let caps = caps_for(&ids);
        let index = RnTreeIndex::build(&ring, &caps);
        let req = JobRequirements::unconstrained().with_min(ResourceKind::Memory, 1.0);
        let available = caps.values().filter(|c| req.satisfied_by(c)).count();
        let owner = index.tree().root();
        let res = index.find_candidates(owner, &req, k);
        for c in &res.candidates {
            prop_assert!(req.satisfied_by(&caps[c]));
        }
        if available >= k {
            prop_assert!(res.candidates.len() >= k);
        } else {
            prop_assert_eq!(res.candidates.len(), available);
        }
    }
}
