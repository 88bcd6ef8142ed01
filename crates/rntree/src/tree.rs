//! Tree construction from overlay membership, and the combined index.
//!
//! The build is generic over any [`KeyRouter`] substrate (Chord, Pastry,
//! Tapestry): it needs only ground-truth key ownership for the level rule
//! and one cost-counted lookup per node for the parent pointer — exactly
//! the `successor(k)` interface the paper assumes of the underlying DHT.

use std::collections::{HashMap, HashSet};

use dgrid_resources::Capabilities;
use dgrid_sim::router::KeyRouter;

use crate::aggregate::SubtreeInfo;

/// Keep the top `level` bits of `x`, zeroing the rest.
fn trunc(x: u64, level: u32) -> u64 {
    match level {
        0 => 0,
        64.. => x,
        l => x & (u64::MAX << (64 - l)),
    }
}

/// The Rendezvous Node Tree over a snapshot of overlay membership.
///
/// Rebuilt from the overlay on churn; in a deployment every node maintains
/// its own parent pointer with one local computation plus one DHT lookup, so
/// a full rebuild here corresponds to each node independently refreshing its
/// pointer (what the paper's periodic soft-state maintenance converges to).
#[derive(Clone, Debug)]
pub struct RnTree {
    root: u64,
    parent: HashMap<u64, Option<u64>>,
    children: HashMap<u64, Vec<u64>>,
}

impl RnTree {
    /// Build the tree for all live nodes of `router`.
    ///
    /// # Panics
    /// If the overlay is empty.
    pub fn build<R: KeyRouter>(router: &R) -> RnTree {
        Self::build_counting(router).0
    }

    /// Build the tree and report the total overlay-lookup hop cost the
    /// nodes would pay to (re)establish their parent pointers — one lookup
    /// per non-root node.
    pub fn build_counting<R: KeyRouter>(router: &R) -> (RnTree, u64) {
        let ids = router.alive_keys();
        assert!(!ids.is_empty(), "RN-Tree over an empty overlay");
        let root = router.owner_of(0).expect("non-empty overlay");

        let mut parent: HashMap<u64, Option<u64>> = HashMap::with_capacity(ids.len());
        let mut children: HashMap<u64, Vec<u64>> = HashMap::with_capacity(ids.len());
        let mut lookup_hops = 0u64;

        for &id in &ids {
            children.entry(id).or_default();
            if id == root {
                parent.insert(id, None);
                continue;
            }
            // Local step: the shortest prefix of our id we still own.
            let level = (0..=64u32)
                .find(|&l| router.owner_of(trunc(id, l)) == Some(id))
                .expect("level 64 always owns the id itself");
            debug_assert!(level > 0, "only the root owns key 0");
            // One DHT lookup: the owner of the next-shorter prefix.
            let key = trunc(id, level - 1);
            let res = router.lookup(id, key).expect("stable overlay routes");
            lookup_hops += u64::from(res.hops);
            let mut p = res.owner;
            if p == id {
                // Stale routing delivered the query back to the asker; the
                // level rule guarantees the shorter prefix is *not* ours, so
                // fall back to ground truth. (Chord routes never do this.)
                p = router.owner_of(key).expect("non-empty overlay");
            }
            parent.insert(id, Some(p));
            children.entry(p).or_default().push(id);
        }

        // Acyclicity repair. Chord's interval ownership makes parent ids
        // strictly decrease, so every chain reaches the root; numeric-
        // closeness (Pastry) and surrogate (Tapestry) ownership admit rare
        // parent cycles on stale snapshots. Detach any node that cannot
        // reach the root and graft it onto the root directly, in ascending
        // id order — a no-op for Chord.
        let mut reached: HashSet<u64> = HashSet::with_capacity(ids.len());
        let mut stack = vec![root];
        reached.insert(root);
        while let Some(x) = stack.pop() {
            if let Some(kids) = children.get(&x) {
                for &c in kids {
                    if reached.insert(c) {
                        stack.push(c);
                    }
                }
            }
        }
        for &id in ids.iter().filter(|id| !reached.contains(id)) {
            if let Some(Some(old)) = parent.get(&id).copied() {
                if let Some(kids) = children.get_mut(&old) {
                    kids.retain(|&k| k != id);
                }
            }
            parent.insert(id, Some(root));
            children.entry(root).or_default().push(id);
        }

        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        (
            RnTree {
                root,
                parent,
                children,
            },
            lookup_hops,
        )
    }

    /// The tree root (the overlay owner of key 0).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True iff the tree has no nodes (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Is `id` in the tree?
    pub fn contains(&self, id: u64) -> bool {
        self.parent.contains_key(&id)
    }

    /// Parent of `id` (`None` for the root).
    ///
    /// # Panics
    /// If `id` is not in the tree.
    pub fn parent(&self, id: u64) -> Option<u64> {
        *self
            .parent
            .get(&id)
            .unwrap_or_else(|| panic!("{id} not in tree"))
    }

    /// Children of `id`, ascending.
    pub fn children(&self, id: u64) -> &[u64] {
        self.children
            .get(&id)
            .map(Vec::as_slice)
            .unwrap_or_else(|| panic!("{id} not in tree"))
    }

    /// Depth of `id` (root is 0).
    pub fn depth_of(&self, id: u64) -> u32 {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
            assert!(d as usize <= self.parent.len(), "cycle in tree");
        }
        d
    }

    /// Height of the tree: the maximum node depth.
    pub fn height(&self) -> u32 {
        self.parent
            .keys()
            .map(|&id| self.depth_of(id))
            .max()
            .unwrap_or(0)
    }

    /// All node ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.parent.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// The tree plus the hierarchical resource aggregation the matchmaker
/// queries: per-subtree maximum capability vector, OS presence, node count,
/// and each node's own capabilities.
#[derive(Clone, Debug)]
pub struct RnTreeIndex {
    tree: RnTree,
    caps: HashMap<u64, Capabilities>,
    info: HashMap<u64, SubtreeInfo>,
}

impl RnTreeIndex {
    /// Build the index over `router` using each node's advertised
    /// capabilities. Aggregation is computed immediately (fresh).
    ///
    /// # Panics
    /// If any live node is missing from `caps`.
    pub fn build<R: KeyRouter>(router: &R, caps: &HashMap<u64, Capabilities>) -> RnTreeIndex {
        let tree = RnTree::build(router);
        let mut index = RnTreeIndex {
            caps: tree
                .ids()
                .iter()
                .map(|&id| {
                    let c = *caps
                        .get(&id)
                        .unwrap_or_else(|| panic!("no capabilities for {id}"));
                    (id, c)
                })
                .collect(),
            tree,
            info: HashMap::new(),
        };
        index.refresh_aggregates();
        index
    }

    /// The underlying tree.
    pub fn tree(&self) -> &RnTree {
        &self.tree
    }

    /// A node's own capabilities.
    pub fn capabilities(&self, id: u64) -> &Capabilities {
        &self.caps[&id]
    }

    /// The aggregated information for the subtree rooted at `id`.
    pub fn subtree_info(&self, id: u64) -> &SubtreeInfo {
        &self.info[&id]
    }

    /// Recompute every subtree aggregate bottom-up — the steady state of the
    /// paper's periodic "local subtree resource information" reports. Call
    /// on the matchmaker's maintenance tick.
    pub fn refresh_aggregates(&mut self) {
        self.info.clear();
        self.aggregate_rec(self.tree.root());
    }

    fn aggregate_rec(&mut self, id: u64) -> SubtreeInfo {
        let mut acc = SubtreeInfo::leaf(&self.caps[&id]);
        let kids: Vec<u64> = self.tree.children(id).to_vec();
        for k in kids {
            let sub = self.aggregate_rec(k);
            acc.absorb(&sub);
        }
        self.info.insert(id, acc.clone());
        acc
    }

    /// Aggregate-monotonicity check: every parent's subtree aggregate must
    /// dominate each child's (pointwise-maximum capabilities never shrink
    /// going up, OS presence is a superset, node counts add up exactly, and
    /// the root covers the whole tree). Returns `None` when the hierarchy
    /// is sound, otherwise a description of the first violation — the
    /// oracle hook the model checker (`dgrid-check`) calls after rebuilds.
    pub fn aggregate_violation(&self) -> Option<String> {
        if self.tree.is_empty() {
            return None;
        }
        for &id in &self.tree.ids() {
            let info = &self.info[&id];
            let own = SubtreeInfo::leaf(&self.caps[&id]);
            let mut expected_count = own.node_count;
            for &child in self.tree.children(id) {
                let ci = &self.info[&child];
                expected_count += ci.node_count;
                for (d, (&p, &c)) in info.max_caps.iter().zip(&ci.max_caps).enumerate() {
                    if p < c {
                        return Some(format!(
                            "{id}: aggregate dim {d} = {p} below child {child}'s {c}"
                        ));
                    }
                }
                for (i, (&p, &c)) in info.os_present.iter().zip(&ci.os_present).enumerate() {
                    if c && !p {
                        return Some(format!(
                            "{id}: OS slot {i} present in child {child} but not in parent"
                        ));
                    }
                }
            }
            if info.node_count != expected_count {
                return Some(format!(
                    "{id}: node_count {} != self + children = {expected_count}",
                    info.node_count
                ));
            }
        }
        let root = self.tree.root();
        let total = self.info[&root].node_count as usize;
        if total != self.tree.len() {
            return Some(format!(
                "root covers {total} nodes but the tree holds {}",
                self.tree.len()
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_chord::{ChordId, ChordRing};
    use dgrid_pastry::PastryNetwork;
    use dgrid_sim::rng::{rng_for, streams};
    use dgrid_tapestry::TapestryNetwork;
    use rand::Rng;

    fn ring_of(n: usize, seed: u64) -> ChordRing {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < n {
            let id = ChordId(rng.gen());
            if !ring.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        ring
    }

    /// Any substrate filled with `n` random nodes, stabilized.
    fn overlay_of<R: KeyRouter>(n: usize, seed: u64) -> R {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut net = R::default();
        let mut count = 0;
        while count < n {
            let id: u64 = rng.gen();
            if !net.is_alive(id) {
                net.join(id);
                count += 1;
            }
        }
        net.stabilize();
        net
    }

    #[test]
    fn trunc_masks_low_bits() {
        assert_eq!(trunc(0xFFFF_FFFF_FFFF_FFFF, 0), 0);
        assert_eq!(trunc(0xFFFF_FFFF_FFFF_FFFF, 64), u64::MAX);
        assert_eq!(trunc(0xFFFF_FFFF_FFFF_FFFF, 4), 0xF000_0000_0000_0000);
        assert_eq!(trunc(0x1234_5678_9ABC_DEF0, 16), 0x1234_0000_0000_0000);
    }

    #[test]
    fn single_node_is_root() {
        let mut ring = ChordRing::default();
        ring.join(ChordId(12345));
        let tree = RnTree::build(&ring);
        assert_eq!(tree.root(), 12345);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.parent(tree.root()), None);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn tree_covers_all_nodes_with_single_root() {
        let ring = ring_of(200, 31);
        let tree = RnTree::build(&ring);
        assert_eq!(tree.len(), 200);
        // Exactly one root, and it owns key 0.
        let roots: Vec<u64> = tree
            .ids()
            .into_iter()
            .filter(|&id| tree.parent(id).is_none())
            .collect();
        assert_eq!(roots, vec![tree.root()]);
        assert_eq!(Some(ChordId(tree.root())), ring.successor_of(ChordId(0)));
    }

    #[test]
    fn every_node_reaches_root() {
        let ring = ring_of(128, 37);
        let tree = RnTree::build(&ring);
        for id in tree.ids() {
            let mut cur = id;
            let mut steps = 0;
            while let Some(p) = tree.parent(cur) {
                assert!(p < cur, "parent ids strictly decrease (acyclicity)");
                cur = p;
                steps += 1;
                assert!(steps <= 65);
            }
            assert_eq!(cur, tree.root());
        }
    }

    #[test]
    fn every_substrate_builds_a_rooted_covering_tree() {
        fn check<R: KeyRouter>(n: usize, seed: u64) {
            let net: R = overlay_of(n, seed);
            let tree = RnTree::build(&net);
            assert_eq!(tree.len(), n, "{}: tree covers membership", R::SUBSTRATE);
            assert_eq!(
                Some(tree.root()),
                net.owner_of(0),
                "{}: root owns key 0",
                R::SUBSTRATE
            );
            for id in tree.ids() {
                // Terminates and ends at the root (depth_of panics on
                // cycles), and links are mutual.
                let _ = tree.depth_of(id);
                let mut cur = id;
                while let Some(p) = tree.parent(cur) {
                    cur = p;
                }
                assert_eq!(cur, tree.root(), "{}: chain reaches root", R::SUBSTRATE);
                for &c in tree.children(id) {
                    assert_eq!(tree.parent(c), Some(id));
                }
            }
        }
        for seed in [91u64, 92, 93] {
            check::<ChordRing>(96, seed);
            check::<PastryNetwork>(96, seed);
            check::<TapestryNetwork>(96, seed);
        }
    }

    #[test]
    fn parent_child_links_are_consistent() {
        let ring = ring_of(64, 41);
        let tree = RnTree::build(&ring);
        for id in tree.ids() {
            for &c in tree.children(id) {
                assert_eq!(tree.parent(c), Some(id));
            }
            if let Some(p) = tree.parent(id) {
                assert!(tree.children(p).contains(&id));
            }
        }
        // Child counts sum to n - 1.
        let total_children: usize = tree.ids().iter().map(|&id| tree.children(id).len()).sum();
        assert_eq!(total_children, tree.len() - 1);
    }

    #[test]
    fn height_is_logarithmic() {
        for (n, seed) in [(64usize, 43u64), (256, 44), (1024, 45)] {
            let ring = ring_of(n, seed);
            let tree = RnTree::build(&ring);
            let h = tree.height();
            let log2n = (n as f64).log2();
            assert!(
                (h as f64) <= 2.5 * log2n,
                "n={n}: height {h} exceeds 2.5·log2(n)={:.1}",
                2.5 * log2n
            );
            assert!(h >= 2, "n={n}: implausibly flat tree of height {h}");
        }
    }

    #[test]
    fn build_cost_is_logarithmic_per_node() {
        let n = 512;
        let ring = ring_of(n, 47);
        let (_, hops) = RnTree::build_counting(&ring);
        // Exact: hop counts are simulated quantities (the T-tree column).
        assert_eq!(hops, 3770);
        let per_node = hops as f64 / n as f64;
        assert!(
            per_node <= (n as f64).log2(),
            "parent discovery cost {per_node:.2} hops/node too high"
        );
    }

    #[test]
    fn tree_shapes_match_the_golden() {
        // Height, build hops and an FNV-1a over every (id, parent) edge for
        // N = 2^6 ..= 2^13, recorded on the hash-map tree built by routed
        // lookups: the tree's shape is simulated behaviour.
        let mut got = Vec::new();
        for exp in 6..=13u32 {
            let ring = ring_of(1 << exp, 100 + u64::from(exp));
            let (tree, hops) = RnTree::build_counting(&ring);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for id in tree.ids() {
                for w in [id, tree.parent(id).unwrap_or(u64::MAX)] {
                    for b in w.to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
            got.push((tree.height(), hops, h));
        }
        assert_eq!(
            got,
            vec![
                (6, 300, 0xaee8_7541_23d6_71d4),
                (8, 713, 0x7a80_8f8d_c28e_b84d),
                (9, 1656, 0x839a_23e5_057e_3562),
                (10, 3804, 0x55f7_30ea_9fd3_2f29),
                (10, 8470, 0xcc0f_31a6_360f_471d),
                (11, 18874, 0x545b_292f_201e_eca4),
                (13, 41570, 0x3643_b027_e69a_4a21),
                (15, 90557, 0x3fc0_86ac_f5dc_6d69),
            ]
        );
    }

    #[test]
    fn rebuild_after_churn_is_consistent() {
        let mut ring = ring_of(100, 53);
        let ids = ring.alive_ids();
        for &id in ids.iter().take(30) {
            ring.fail(id);
        }
        ring.stabilize();
        let tree = RnTree::build(&ring);
        assert_eq!(tree.len(), 70);
        for id in tree.ids() {
            assert!(ring.is_alive(ChordId(id)));
        }
    }
}
