//! Tree construction from overlay membership, and the combined index.
//!
//! The build is generic over any [`KeyRouter`] substrate (Chord, Pastry,
//! Tapestry) and asks it two questions per node: the shortest prefix of
//! its id the node still owns (its level — a local computation) and the
//! owner of the next-shorter prefix (its parent — one DHT lookup). That is
//! exactly the `successor(k)` interface the paper assumes of the
//! underlying DHT. The substrate answers for all nodes at once
//! ([`KeyRouter::rn_tree_parents`]), so one with a closed form of its
//! ownership — a settled Chord ring — answers in one pass over the ids.
//!
//! Nodes are addressed by **rank**, their position in one ascending id
//! vector, and everything else — parent pointers, child lists (CSR),
//! capabilities, subtree aggregates — is a flat vector indexed by rank.
//! Ids appear only at the public surface, where one binary search turns
//! an id into a rank.
//!
//! There is one build path, a refresh: the index brings its vectors up to
//! the overlay's current membership in place, and a first build is a
//! refresh of the empty index. Survivors keep their capabilities, so only
//! joiners are asked for theirs; the child lists are refilled in the
//! buffers they already have; and where every parent's rank precedes its
//! child's — always on Chord, whose parent ids strictly decrease — the
//! aggregates fold in one descending pass over the ranks, with no
//! depth-first order to build.

use std::collections::HashMap;
use std::sync::Arc;

use dgrid_resources::Capabilities;
use dgrid_sim::router::{rn_tree_parents_via, KeyRouter, NO_PARENT};

use crate::aggregate::SubtreeInfo;

/// The Rendezvous Node Tree over a snapshot of overlay membership.
///
/// Refreshed from the overlay on churn, in place: ranks are renumbered and
/// every parent pointer is read again. In a deployment every node maintains
/// its own parent pointer with one local computation plus one DHT lookup,
/// so a refresh here corresponds to each node independently refreshing its
/// pointer (what the paper's periodic soft-state maintenance converges to).
#[derive(Clone, Debug)]
pub struct RnTree {
    /// Node ids, ascending; a node's rank is its position here. Shared
    /// with the overlay's settled snapshot of the same keys.
    ids: Arc<[u64]>,
    root: u32,
    /// Parent rank of each rank; [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Children of rank `r`, ascending: `kids[kid_start[r]..kid_start[r + 1]]`.
    kid_start: Vec<u32>,
    kids: Vec<u32>,
    /// Every rank, each parent before its children (depth-first from the
    /// root, siblings in descending order) — or empty where ascending rank
    /// order is such an order already: every parent rank below its child's,
    /// the root at rank 0.
    order: Vec<u32>,
}

/// Refill `start` and `kids` with the CSR child lists of a parent vector,
/// ascending within each list, in the buffers they already have.
fn fill_child_lists(parent: &[u32], start: &mut Vec<u32>, kids: &mut Vec<u32>) {
    let n = parent.len();
    // Each parent's child count two slots up, then the running sum from
    // there: `start[p + 1]` is where `p`'s list begins, and each child
    // placed moves it on to where `p + 1`'s does.
    start.clear();
    start.resize(n + 2, 0);
    for &p in parent {
        if p != NO_PARENT {
            start[p as usize + 2] += 1;
        }
    }
    let mut sum = 0;
    for s in &mut start[2..] {
        sum += *s;
        *s = sum;
    }
    kids.clear();
    kids.resize(sum as usize, 0);
    for (r, &p) in (0u32..).zip(parent) {
        if p != NO_PARENT {
            let at = &mut start[p as usize + 1];
            kids[*at as usize] = r;
            *at += 1;
        }
    }
    start.truncate(n + 1);
}

/// Whether ascending rank order puts every parent before its children:
/// rank 0 is the root and every other rank's parent is a lower rank.
fn ranks_descend_to_the_root(parent: &[u32]) -> bool {
    parent.first() == Some(&NO_PARENT)
        && (0u32..)
            .zip(&parent[1..])
            .fold(true, |below, (r, &p)| below & (p <= r))
}

/// Refill `order` with the ranks reachable from `root`, each parent before
/// its children.
fn fill_preorder(root: u32, kid_start: &[u32], kids: &[u32], order: &mut Vec<u32>) {
    order.clear();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        order.push(r);
        let r = r as usize;
        stack.extend_from_slice(&kids[kid_start[r] as usize..kid_start[r + 1] as usize]);
    }
}

/// All live keys of `router`, ascending: the tree's ranks.
fn ranked_keys<R: KeyRouter>(router: &R) -> Arc<[u64]> {
    let ids = router.membership().shared_alive_keys();
    assert!(!ids.is_empty(), "RN-Tree over an empty overlay");
    assert!(ids.len() < NO_PARENT as usize, "ranks are 32-bit");
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "alive_keys ascends");
    ids
}

impl RnTree {
    /// The tree of no node, which only a refresh fills.
    fn empty() -> RnTree {
        RnTree {
            ids: Arc::new([]),
            root: 0,
            parent: Vec::new(),
            kid_start: vec![0],
            kids: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Build the tree for all live nodes of `router`, which has been
    /// stabilized since its last membership change (as every engine refresh
    /// is), so that every parent lookup names the ground-truth owner. The
    /// parents are [`KeyRouter::rn_tree_parents`], a closed form on a
    /// settled Chord ring.
    ///
    /// # Panics
    /// If the overlay is empty, or if the parent pointers its lookups give
    /// do not form one tree — a lookup that names the asker itself or a
    /// non-member, or a cycle; no stabilized substrate's lookups do that.
    pub fn build<R: KeyRouter>(router: &R) -> RnTree {
        let ids = ranked_keys(router);
        let parent = router.rn_tree_parents(&ids);
        let mut tree = RnTree::empty();
        tree.relink(ids, parent);
        tree
    }

    /// Build the tree and report the total overlay-lookup hop cost the
    /// nodes would pay to (re)establish their parent pointers — one lookup
    /// per non-root node, each one routed.
    pub fn build_counting<R: KeyRouter>(router: &R) -> (RnTree, u64) {
        let ids = ranked_keys(router);
        let mut lookup_hops = 0u64;
        let parent = rn_tree_parents_via(router, &ids, |id, key| {
            let res = router.lookup(id, key).expect("stable overlay routes");
            lookup_hops += u64::from(res.hops);
            res.owner
        });
        let mut tree = RnTree::empty();
        tree.relink(ids, parent);
        (tree, lookup_hops)
    }

    /// Make this the tree of `parent`, one rank per id; [`NO_PARENT`] marks
    /// the root. The child lists and the order are refilled in place.
    fn relink(&mut self, ids: Arc<[u64]>, parent: Vec<u32>) {
        debug_assert_eq!(parent.len(), ids.len(), "one parent per rank");
        fill_child_lists(&parent, &mut self.kid_start, &mut self.kids);
        if ranks_descend_to_the_root(&parent) {
            // Every chain descends in rank, so it ends at rank 0.
            self.root = 0;
            self.order.clear();
        } else {
            // Pastry's and Tapestry's ownership carries no order between a
            // node's rank and its parent's, but no stabilized overlay has
            // been seen to close a cycle.
            let root = parent.iter().position(|&p| p == NO_PARENT);
            self.root = root.expect("one node is the root") as u32;
            fill_preorder(self.root, &self.kid_start, &self.kids, &mut self.order);
            assert_eq!(
                self.order.len(),
                ids.len(),
                "a parent chain misses the root"
            );
        }
        self.ids = ids;
        self.parent = parent;
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
    pub fn children(&self, id: u64) -> Vec<u64> {
        let kids = self.kid_ranks(self.rank(id));
        kids.iter().map(|&r| self.id_at(r)).collect()
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
        self.visit_ranks(false, |r| {
            if let Some(p) = self.parent_rank(r) {
                depth[r as usize] = depth[p as usize] + 1;
            }
        });
        depth.into_iter().max().unwrap_or(0)
    }

    /// Call `f` on every rank, each after its parent — or, `upward`, each
    /// before its parent.
    fn visit_ranks(&self, upward: bool, f: impl FnMut(u32)) {
        fn walk(ranks: impl DoubleEndedIterator<Item = u32>, upward: bool, f: impl FnMut(u32)) {
            if upward {
                ranks.rev().for_each(f);
            } else {
                ranks.for_each(f);
            }
        }
        if self.order.is_empty() {
            walk(0..self.len() as u32, upward, f);
        } else {
            walk(self.order.iter().copied(), upward, f);
        }
    }

    /// All node ids, ascending: rank `r`'s id is the `r`-th.
    pub fn ids(&self) -> &[u64] {
        &self.ids
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
    /// The buffer the next refresh gathers capabilities into, then swaps
    /// with `caps`.
    spare_caps: Vec<Capabilities>,
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
    /// once per live node in ascending id order: a
    /// [`refresh`](RnTreeIndex::refresh) of the index of no node.
    pub fn build_with<R: KeyRouter>(
        router: &R,
        caps_of: impl FnMut(u64) -> Capabilities,
    ) -> RnTreeIndex {
        let mut index = RnTreeIndex {
            tree: RnTree::empty(),
            caps: Vec::new(),
            info: Vec::new(),
            spare_caps: Vec::new(),
        };
        index.refresh(router, caps_of);
        index
    }

    /// Bring the index up to the live membership of `router`, stabilized
    /// since its last change, in the buffers it already has. The result
    /// equals [`RnTreeIndex::build_with`] from scratch, provided every
    /// surviving node's capabilities are still the ones the index holds:
    /// only joiners are asked of `caps_of`, once each in ascending id order.
    ///
    /// # Panics
    /// As [`RnTree::build`].
    pub fn refresh<R: KeyRouter>(
        &mut self,
        router: &R,
        mut caps_of: impl FnMut(u64) -> Capabilities,
    ) {
        let ids = ranked_keys(router);
        let old = self.tree.ids();
        let (caps, gathered) = (&self.caps, &mut self.spare_caps);
        gathered.clear();
        gathered.reserve(ids.len());
        // Both lists ascend: runs of survivors are copied whole, a departed
        // id is stepped over and a joiner asked for its capabilities.
        let (mut i, mut j) = (0, 0);
        while j < ids.len() {
            let run = old[i..]
                .iter()
                .zip(&ids[j..])
                .take_while(|(a, b)| a == b)
                .count();
            gathered.extend_from_slice(&caps[i..i + run]);
            (i, j) = (i + run, j + run);
            match (old.get(i), ids.get(j)) {
                (Some(&gone), Some(&id)) if gone < id => i += 1,
                (_, Some(&id)) => {
                    gathered.push(caps_of(id));
                    j += 1;
                }
                (_, None) => {}
            }
        }
        std::mem::swap(&mut self.caps, &mut self.spare_caps);
        let parent = router.rn_tree_parents(&ids);
        self.tree.relink(ids, parent);
        self.refresh_aggregates();
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
        // Children before parents. `max`, `|` and `+` are exact in any
        // order, so which child folds first cannot show.
        let (tree, info) = (&self.tree, &mut self.info);
        tree.visit_ranks(true, |r| {
            if let Some(p) = tree.parent_rank(r) {
                let sub = info[r as usize].clone();
                info[p as usize].absorb(&sub);
            }
        });
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
    use dgrid_chord::ChordRing;
    use dgrid_pastry::PastryNetwork;
    use dgrid_sim::rng::{rng_for, streams};
    use dgrid_tapestry::TapestryNetwork;
    use rand::Rng;

    fn ring_of(n: usize, seed: u64) -> ChordRing {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < n {
            let id: u64 = rng.gen();
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
        ring.join(12345);
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
            .iter()
            .copied()
            .filter(|&id| tree.parent(id).is_none())
            .collect();
        assert_eq!(roots, vec![tree.root()]);
        assert_eq!(Some(tree.root()), ring.owner_of(0));
    }

    #[test]
    fn every_node_reaches_root() {
        let ring = ring_of(128, 37);
        let tree = RnTree::build(&ring);
        for &id in tree.ids() {
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
            for &id in tree.ids() {
                // Terminates and ends at the root (depth_of panics on
                // cycles), and links are mutual.
                let _ = tree.depth_of(id);
                let mut cur = id;
                while let Some(p) = tree.parent(cur) {
                    cur = p;
                }
                assert_eq!(cur, tree.root(), "{}: chain reaches root", R::SUBSTRATE);
                for c in tree.children(id) {
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
        for &id in tree.ids() {
            for c in tree.children(id) {
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
        // lookups: the tree's shape is simulated behaviour. The tree `build`
        // returns on the same ring must have the same shape.
        fn shape(tree: &RnTree) -> (u32, u64) {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &id in tree.ids() {
                for w in [id, tree.parent(id).unwrap_or(u64::MAX)] {
                    for b in w.to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
            (tree.height(), h)
        }
        let mut got = Vec::new();
        for exp in 6..=13u32 {
            let ring = ring_of(1 << exp, 100 + u64::from(exp));
            let (tree, hops) = RnTree::build_counting(&ring);
            let (height, h) = shape(&tree);
            assert_eq!(shape(&RnTree::build(&ring)), (height, h), "N = 2^{exp}");
            got.push((height, hops, h));
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
        let ids = ring.alive_keys();
        for &id in ids.iter().take(30) {
            ring.fail(id);
        }
        ring.stabilize();
        let tree = RnTree::build(&ring);
        assert_eq!(tree.len(), 70);
        for &id in tree.ids() {
            assert!(ring.is_alive(id));
        }
    }
}
