//! Tree construction from overlay membership, and the combined index.
//!
//! The build is generic over any [`KeyRouter`] substrate (Chord, Pastry,
//! Tapestry) and asks it two questions per node: the shortest prefix of
//! its id the node still owns (its level — a local computation) and the
//! owner of the next-shorter prefix (its parent — one DHT lookup). That is
//! exactly the `successor(k)` interface the paper assumes of the
//! underlying DHT.
//!
//! Nodes are addressed by **rank**, their position in one ascending id
//! vector, and everything else — parent pointers, child lists (CSR),
//! capabilities, subtree aggregates — is a flat vector indexed by rank.
//! Ids appear only at the public surface, where one binary search turns
//! an id into a rank.

use std::collections::HashMap;

use dgrid_resources::Capabilities;
use dgrid_sim::router::{prefix_key, KeyRouter};

use crate::aggregate::SubtreeInfo;

/// `parent` entry of the root (and, during construction, of a node whose
/// parent is not a member).
const NO_PARENT: u32 = u32::MAX;

/// The Rendezvous Node Tree over a snapshot of overlay membership.
///
/// Rebuilt from the overlay on churn; in a deployment every node maintains
/// its own parent pointer with one local computation plus one DHT lookup, so
/// a full rebuild here corresponds to each node independently refreshing its
/// pointer (what the paper's periodic soft-state maintenance converges to).
#[derive(Clone, Debug)]
pub struct RnTree {
    /// Node ids, ascending; a node's rank is its position here.
    ids: Vec<u64>,
    root: u32,
    /// Parent rank of each rank; [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Children of rank `r`, ascending: `kids[kid_start[r]..kid_start[r + 1]]`.
    kid_start: Vec<u32>,
    kids: Vec<u32>,
    /// `kids` as ids, for [`RnTree::children`].
    kid_ids: Vec<u64>,
    /// Every rank, each parent before its children (depth-first from the
    /// root, siblings in descending order).
    order: Vec<u32>,
}

/// CSR child lists of a parent vector; ascending within each list.
fn child_lists(parent: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = parent.len();
    let mut start = vec![0u32; n + 1];
    for &p in parent.iter().filter(|&&p| p != NO_PARENT) {
        start[p as usize + 1] += 1;
    }
    for r in 0..n {
        start[r + 1] += start[r];
    }
    let mut fill = start.clone();
    let mut kids = vec![0u32; start[n] as usize];
    for (r, &p) in parent.iter().enumerate() {
        if p != NO_PARENT {
            kids[fill[p as usize] as usize] = r as u32;
            fill[p as usize] += 1;
        }
    }
    (start, kids)
}

/// Ranks reachable from `root`, each parent before its children.
fn preorder(root: u32, kid_start: &[u32], kids: &[u32]) -> Vec<u32> {
    let mut order = Vec::with_capacity(kid_start.len() - 1);
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        order.push(r);
        let r = r as usize;
        stack.extend_from_slice(&kids[kid_start[r] as usize..kid_start[r + 1] as usize]);
    }
    order
}

impl RnTree {
    /// Build the tree for all live nodes of `router`.
    ///
    /// # Panics
    /// If the overlay is empty.
    pub fn build<R: KeyRouter>(router: &R) -> RnTree {
        Self::build_via(router, |id, key| {
            router.lookup_owner(id, key).expect("stable overlay routes")
        })
    }

    /// Build the tree and report the total overlay-lookup hop cost the
    /// nodes would pay to (re)establish their parent pointers — one lookup
    /// per non-root node, each one routed.
    pub fn build_counting<R: KeyRouter>(router: &R) -> (RnTree, u64) {
        let mut lookup_hops = 0u64;
        let tree = Self::build_via(router, |id, key| {
            let res = router.lookup(id, key).expect("stable overlay routes");
            lookup_hops += u64::from(res.hops);
            res.owner
        });
        (tree, lookup_hops)
    }

    /// The build, given how node `id` finds the owner of its parent `key`.
    fn build_via<R: KeyRouter>(router: &R, mut owner_from: impl FnMut(u64, u64) -> u64) -> RnTree {
        let ids = router.alive_keys();
        assert!(!ids.is_empty(), "RN-Tree over an empty overlay");
        assert!(ids.len() < NO_PARENT as usize, "ranks are 32-bit");
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "alive_keys ascends");
        let rank_of = |id: u64| ids.binary_search(&id).ok().map(|r| r as u32);
        let root = router.owner_of(0).expect("non-empty overlay");
        let root = rank_of(root).expect("the root is a live node");

        let mut parent = vec![NO_PARENT; ids.len()];
        for (r, &id) in ids.iter().enumerate() {
            if r as u32 == root {
                continue;
            }
            // Local step: the shortest prefix of our id we still own.
            let level = router.shortest_owned_prefix(id);
            debug_assert!(level > 0, "only the root owns key 0");
            // One DHT lookup: the owner of the next-shorter prefix.
            let key = prefix_key(id, level - 1);
            let mut p = owner_from(id, key);
            if p == id {
                // Stale routing delivered the query back to the asker; the
                // level rule guarantees the shorter prefix is *not* ours, so
                // fall back to ground truth. (Chord routes never do this.)
                p = router.owner_of(key).expect("non-empty overlay");
            }
            // An owner outside the membership leaves the node detached
            // until the repair below.
            parent[r] = rank_of(p).unwrap_or(NO_PARENT);
        }

        // Acyclicity repair. Chord's interval ownership makes parent ids
        // strictly decrease, so every chain reaches the root; numeric-
        // closeness (Pastry) and surrogate (Tapestry) ownership admit rare
        // parent cycles on stale snapshots. Graft every node that cannot
        // reach the root onto the root directly — a no-op for Chord.
        let (mut kid_start, mut kids) = child_lists(&parent);
        let mut order = preorder(root, &kid_start, &kids);
        if order.len() < ids.len() {
            let mut reached = vec![false; ids.len()];
            for &r in &order {
                reached[r as usize] = true;
            }
            for (p, _) in parent.iter_mut().zip(reached).filter(|(_, hit)| !hit) {
                *p = root;
            }
            (kid_start, kids) = child_lists(&parent);
            order = preorder(root, &kid_start, &kids);
        }

        RnTree {
            kid_ids: kids.iter().map(|&r| ids[r as usize]).collect(),
            ids,
            root,
            parent,
            kid_start,
            kids,
            order,
        }
    }

    /// The tree root (the overlay owner of key 0).
    pub fn root(&self) -> u64 {
        self.ids[self.root as usize]
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the tree has no nodes (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Is `id` in the tree?
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Rank of `id`.
    ///
    /// # Panics
    /// If `id` is not in the tree.
    pub(crate) fn rank(&self, id: u64) -> u32 {
        match self.ids.binary_search(&id) {
            Ok(rank) => rank as u32,
            Err(_) => panic!("{id} not in tree"),
        }
    }

    /// Id of the node at `rank`.
    pub(crate) fn id_at(&self, rank: u32) -> u64 {
        self.ids[rank as usize]
    }

    pub(crate) fn parent_rank(&self, rank: u32) -> Option<u32> {
        Some(self.parent[rank as usize]).filter(|&p| p != NO_PARENT)
    }

    pub(crate) fn kid_ranks(&self, rank: u32) -> &[u32] {
        &self.kids[self.kid_range(rank)]
    }

    fn kid_range(&self, rank: u32) -> std::ops::Range<usize> {
        let rank = rank as usize;
        self.kid_start[rank] as usize..self.kid_start[rank + 1] as usize
    }

    /// Parent of `id` (`None` for the root).
    ///
    /// # Panics
    /// If `id` is not in the tree.
    pub fn parent(&self, id: u64) -> Option<u64> {
        self.parent_rank(self.rank(id)).map(|p| self.id_at(p))
    }

    /// Children of `id`, ascending.
    ///
    /// # Panics
    /// If `id` is not in the tree.
    pub fn children(&self, id: u64) -> &[u64] {
        &self.kid_ids[self.kid_range(self.rank(id))]
    }

    /// Depth of `id` (root is 0).
    pub fn depth_of(&self, id: u64) -> u32 {
        let mut d = 0;
        let mut cur = self.rank(id);
        while let Some(p) = self.parent_rank(cur) {
            cur = p;
            d += 1;
            assert!(d as usize <= self.len(), "cycle in tree");
        }
        d
    }

    /// Height of the tree: the maximum node depth.
    pub fn height(&self) -> u32 {
        let mut depth = vec![0u32; self.len()];
        for &r in &self.order[1..] {
            depth[r as usize] = depth[self.parent[r as usize] as usize] + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// All node ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.ids.clone()
    }
}

/// The tree plus the hierarchical resource aggregation the matchmaker
/// queries: per-subtree maximum capability vector, OS presence, node count,
/// and each node's own capabilities — both indexed by the tree's ranks.
#[derive(Clone, Debug)]
pub struct RnTreeIndex {
    tree: RnTree,
    caps: Vec<Capabilities>,
    info: Vec<SubtreeInfo>,
}

impl RnTreeIndex {
    /// Build the index over `router` using each node's advertised
    /// capabilities. Aggregation is computed immediately (fresh).
    ///
    /// # Panics
    /// If any live node is missing from `caps`.
    pub fn build<R: KeyRouter>(router: &R, caps: &HashMap<u64, Capabilities>) -> RnTreeIndex {
        Self::build_with(router, |id| {
            *caps
                .get(&id)
                .unwrap_or_else(|| panic!("no capabilities for {id}"))
        })
    }

    /// [`RnTreeIndex::build`] with the capabilities asked of `caps_of`,
    /// once per live node in ascending id order.
    pub fn build_with<R: KeyRouter>(
        router: &R,
        caps_of: impl FnMut(u64) -> Capabilities,
    ) -> RnTreeIndex {
        let tree = RnTree::build(router);
        let mut index = RnTreeIndex {
            caps: tree.ids.iter().copied().map(caps_of).collect(),
            tree,
            info: Vec::new(),
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
        self.caps_at(self.tree.rank(id))
    }

    /// The aggregated information for the subtree rooted at `id`.
    pub fn subtree_info(&self, id: u64) -> &SubtreeInfo {
        self.info_at(self.tree.rank(id))
    }

    pub(crate) fn caps_at(&self, rank: u32) -> &Capabilities {
        &self.caps[rank as usize]
    }

    pub(crate) fn info_at(&self, rank: u32) -> &SubtreeInfo {
        &self.info[rank as usize]
    }

    /// Recompute every subtree aggregate bottom-up — the steady state of the
    /// paper's periodic "local subtree resource information" reports. The
    /// index's capabilities are fixed at build time, so this reproduces the
    /// aggregates `build` already computed.
    pub fn refresh_aggregates(&mut self) {
        self.info.clear();
        self.info.extend(self.caps.iter().map(SubtreeInfo::leaf));
        // Children before parents; a node's children fold in ascending
        // order, as a recursive descent would fold them.
        for &r in self.tree.order.iter().rev() {
            if let Some(p) = self.tree.parent_rank(r) {
                let sub = self.info[r as usize].clone();
                self.info[p as usize].absorb(&sub);
            }
        }
    }

    /// Aggregate-monotonicity check: every parent's subtree aggregate must
    /// dominate each child's (pointwise-maximum capabilities never shrink
    /// going up, OS presence is a superset, node counts add up exactly, and
    /// the root covers the whole tree). Returns `None` when the hierarchy
    /// is sound, otherwise a description of the first violation — the
    /// oracle hook the model checker (`dgrid-check`) calls after rebuilds.
    pub fn aggregate_violation(&self) -> Option<String> {
        for (r, &id) in self.tree.ids.iter().enumerate() {
            let info = &self.info[r];
            let own = SubtreeInfo::leaf(&self.caps[r]);
            let mut expected_count = own.node_count;
            for &c in self.tree.kid_ranks(r as u32) {
                let child = self.tree.id_at(c);
                let ci = self.info_at(c);
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
        let total = self.info_at(self.tree.root).node_count as usize;
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
