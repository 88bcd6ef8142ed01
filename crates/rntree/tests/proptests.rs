//! Property tests: the RN-Tree is a well-formed, shallow tree over any
//! ring membership, aggregation envelopes are sound, and search is
//! complete under exhaustive k. Two differential properties hold the fast
//! paths to the construction as first written: the substrates' closed-form
//! answers against the probing and routing defaults, and the rank-indexed
//! tree against a hash-map reference. A third holds the search by id to the
//! search by rank it wraps.

use std::collections::{HashMap, HashSet};

use dgrid_chord::ChordRing;
use dgrid_pastry::PastryNetwork;
use dgrid_resources::{Capabilities, JobRequirements, OsRequirement, OsType, ResourceKind};
use dgrid_rntree::{RnTree, RnTreeIndex, SearchResult, SubtreeInfo};
use dgrid_sim::router::{prefix_key, KeyRouter, NO_PARENT};
use dgrid_tapestry::TapestryNetwork;
use proptest::prelude::*;

fn ring_from_ids(ids: &HashSet<u64>) -> ChordRing {
    let mut ring = ChordRing::default();
    for &id in ids {
        ring.join(id);
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

/// Up to `clusters × cluster_len` keys that share long prefixes: each
/// cluster keeps a stem's top bits and draws only its low `spread` bits, or
/// for `spread = 0` is a run of adjacent keys from the stem. Stems are
/// random, 0 or `u64::MAX`, so runs wrap and blocks sit at both ends of
/// the ring; keys 0 and `u64::MAX` are each in or out besides.
fn clustered_keys(clusters: usize, cluster_len: usize) -> impl Strategy<Value = HashSet<u64>> {
    let stem = (any::<u64>(), 0u8..4).prop_map(|(stem, pick)| match pick {
        0 => 0,
        1 => u64::MAX,
        _ => stem,
    });
    let cluster = (stem, 0u32..64, 1..cluster_len + 1, any::<u64>());
    let clusters = proptest::collection::vec(cluster, 1..clusters + 1);
    (clusters, any::<bool>(), any::<bool>()).prop_map(|(clusters, zero, max)| {
        let mut keys = HashSet::new();
        for (stem, spread, len, salt) in clusters {
            let low = (1u64 << spread) - 1;
            keys.extend((0..len as u64).map(|i| match spread {
                0 => stem.wrapping_add(i),
                _ => (stem & !low) | (ChordRing::key_of(salt ^ i) & low),
            }));
        }
        keys.extend(zero.then_some(0));
        keys.extend(max.then_some(u64::MAX));
        keys
    })
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

/// The parent hook's default spelled out, without its panics: every live
/// key's probed level and routed parent lookup, as a rank; `None` where a
/// lookup stalls, comes back to the asker or names a non-member.
fn looked_up_parents<R: KeyRouter>(net: &R, keys: &[u64]) -> Option<Vec<u32>> {
    let rank = |key: u64| keys.binary_search(&key).ok().map(|r| r as u32);
    let root = net.owner_of(0)?;
    keys.iter()
        .map(|&key| {
            if key == root {
                return Some(NO_PARENT);
            }
            let parent_key = prefix_key(key, probed_level(net, key) - 1);
            let owner = net.lookup(key, parent_key)?.owner;
            if owner == key {
                return None;
            }
            rank(owner)
        })
        .collect()
}

/// `rn_tree_parents` equals the parents looked up node by node, wherever
/// every lookup lands on another member.
fn parents_match_the_lookups<R: KeyRouter>(net: &R) -> Result<(), TestCaseError> {
    let keys = net.alive_keys();
    if let Some(expected) = looked_up_parents(net, &keys) {
        prop_assert_eq!(net.rn_tree_parents(&keys), expected, "{}", R::SUBSTRATE);
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
            children[&id].clone(),
            "children of {:x}",
            id
        );
        prop_assert_eq!(index.subtree_info(id), &info[&id], "aggregate of {:x}", id);
        prop_assert_eq!(index.capabilities(id), &caps[&id]);
    }
    prop_assert_eq!(index.aggregate_violation(), None);
    Ok(())
}

/// Up to three minimums (`mask` picks which of `mins` apply) and, for
/// `os < 4`, one operating system.
fn requirements(mins: (f64, f64, f64), mask: u8, os: usize) -> JobRequirements {
    let kinds = [
        ResourceKind::CpuSpeed,
        ResourceKind::Memory,
        ResourceKind::Disk,
    ];
    let mut req = JobRequirements::unconstrained();
    for (i, (kind, min)) in kinds.into_iter().zip([mins.0, mins.1, mins.2]).enumerate() {
        if mask & (1 << i) != 0 {
            req = req.with_min(kind, min);
        }
    }
    match OsType::ALL.get(os) {
        Some(&os) => req.with_os(OsRequirement::only(os)),
        None => req,
    }
}

/// From every owner, the id search equals the rank search with every
/// candidate mapped through the tree's ids.
fn id_search_after_churn<R: KeyRouter>(
    initial: &HashSet<u64>,
    steps: &Churn,
    req: &JobRequirements,
    k: usize,
) -> Result<(), TestCaseError> {
    let mut net: R = churned(initial, steps);
    net.stabilize();
    let index = RnTreeIndex::build(&net, &caps_for(&net.alive_keys()));
    let ids = index.tree().ids();
    for (rank, &owner) in ids.iter().enumerate() {
        let by_rank = index.find_candidate_ranks(rank as u32, req, k);
        let mapped = SearchResult {
            candidates: by_rank
                .candidates
                .iter()
                .map(|&r| ids[r as usize])
                .collect(),
            hops: by_rank.hops,
            visited: by_rank.visited,
        };
        prop_assert_eq!(
            index.find_candidates(owner, req, k),
            mapped,
            "owner {:x}",
            owner
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `find_candidates` is the rank search seen through the tree's ids,
    /// over every substrate's trees and random requirements and widths.
    #[test]
    fn id_search_is_the_rank_search_through_the_ids(
        initial in proptest::collection::hash_set(any::<u64>(), 1..60),
        steps in churn(),
        mins in (0.5f64..4.0, 0.25f64..8.0, 10.0f64..480.0),
        mask in 0u8..8,
        os in 0usize..6,
        k in 1usize..10,
    ) {
        let req = requirements(mins, mask, os);
        id_search_after_churn::<ChordRing>(&initial, &steps, &req, k)?;
        id_search_after_churn::<PastryNetwork>(&initial, &steps, &req, k)?;
        id_search_after_churn::<TapestryNetwork>(&initial, &steps, &req, k)?;
    }

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
    /// hash-map reference on every substrate, over random keys and keys
    /// that share long prefixes.
    #[test]
    fn dense_layout_equals_the_reference(
        initial in proptest::collection::hash_set(any::<u64>(), 1..40),
        clustered in clustered_keys(4, 40),
        steps in churn(),
    ) {
        for keys in [&initial, &clustered] {
            dense_index_after_churn::<ChordRing>(keys, &steps)?;
            dense_index_after_churn::<PastryNetwork>(keys, &steps)?;
            dense_index_after_churn::<TapestryNetwork>(keys, &steps)?;
        }
    }

    /// Chord's one-sweep parents equal the parents looked up node by node
    /// on rings of up to ~2k keys that share long prefixes: settled, where
    /// the sweep runs, and as churn left them, where it must fall back to
    /// the lookups.
    #[test]
    fn chord_parents_equal_the_lookups(
        keys in clustered_keys(8, 256),
        steps in churn(),
    ) {
        let mut ring: ChordRing = churned(&keys, &steps);
        parents_match_the_lookups(&ring)?;
        ring.stabilize();
        parents_match_the_lookups(&ring)?;
    }

    /// Tapestry's parents through the successor sweep equal the parents
    /// looked up node by node, on memberships that share long prefixes and
    /// went through joins, leaves and failures: settled, where the sweep
    /// runs, and as churn left them, where it falls back to the lookups.
    #[test]
    fn tapestry_parents_equal_the_lookups(
        keys in clustered_keys(4, 64),
        steps in churn(),
    ) {
        let mut net: TapestryNetwork = churned(&keys, &steps);
        parents_match_the_lookups(&net)?;
        net.stabilize();
        parents_match_the_lookups(&net)?;
        let live = net.alive_keys();
        let swept = dgrid_sim::router::rn_tree_parents_of_successors(&live);
        prop_assert_eq!(Some(swept), looked_up_parents(&net, &live));
    }

    /// Pastry's one-pass parents equal the parents looked up node by node,
    /// on memberships that share long prefixes and went through joins,
    /// leaves and failures: settled, where the pass runs, and as churn left
    /// them, where it falls back to the lookups.
    #[test]
    fn pastry_parents_equal_the_lookups(
        keys in clustered_keys(4, 64),
        steps in churn(),
    ) {
        let mut net: PastryNetwork = churned(&keys, &steps);
        parents_match_the_lookups(&net)?;
        net.stabilize();
        parents_match_the_lookups(&net)?;
        let live = net.alive_keys();
        prop_assert!(looked_up_parents(&net, &live).is_some(), "settled lookups reach other members");
    }

    /// Single root, full coverage, strictly-decreasing parent ids
    /// (acyclicity), height within a small multiple of log2(N).
    #[test]
    fn tree_is_well_formed(ids in proptest::collection::hash_set(any::<u64>(), 1..120)) {
        let ring = ring_from_ids(&ids);
        let tree = RnTree::build(&ring);
        prop_assert_eq!(tree.len(), ids.len());

        let mut roots = 0;
        for &id in tree.ids() {
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
