//! Pruned, extended candidate search over the RN-Tree.
//!
//! "The search first proceeds through the subtree rooted at the owner, only
//! searching up the tree into subtrees rooted at the ancestors of the owner
//! if the subtree does not contain any satisfactory candidates. The search
//! is pruned using the maximal resource information carried by the RN-Tree.
//! Rather than stopping at the first candidate capable of executing a given
//! job, the search proceeds until at least k capable nodes are found for
//! better load balancing (extended search)." (Section 3.1.)

use dgrid_resources::JobRequirements;

use crate::tree::RnTreeIndex;

/// Outcome of a candidate search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// Capable nodes found, in discovery order. May be shorter than `k`
    /// (the system simply has fewer capable nodes), or slightly longer
    /// (the final subtree expansion is not cut mid-node).
    pub candidates: Vec<u64>,
    /// Tree-edge messages spent on the search (descents, returns, and
    /// ancestor climbs), the paper's "matchmaking cost" for the RN-Tree.
    pub hops: u32,
    /// Nodes whose own capability vector was evaluated.
    pub visited: u32,
}

impl RnTreeIndex {
    /// Find at least `k` nodes capable of running a job with `req`,
    /// starting from `owner`'s subtree and climbing ancestors as needed.
    ///
    /// # Panics
    /// If `owner` is not in the tree or `k == 0`.
    pub fn find_candidates(&self, owner: u64, req: &JobRequirements, k: usize) -> SearchResult {
        assert!(k > 0, "extended search needs k >= 1");
        let mut out = SearchResult {
            candidates: Vec::with_capacity(k.min(64)),
            hops: 0,
            visited: 0,
        };
        // The search runs on ranks; ids reappear only in `candidates`.
        let owner = self.tree().rank(owner);

        // Phase 1: the owner's own subtree.
        self.search_subtree(owner, req, k, &mut out);

        // Phase 2: climb. At each ancestor, examine the ancestor itself and
        // its other children's subtrees. Stop as soon as k are found.
        let mut prev = owner;
        let mut cur = self.tree().parent_rank(owner);
        while out.candidates.len() < k {
            let Some(node) = cur else { break };
            out.hops += 1; // the climb message prev -> node
            self.visit(node, req, &mut out);
            for &child in self.tree().kid_ranks(node) {
                if child == prev || out.candidates.len() >= k {
                    continue;
                }
                self.search_subtree(child, req, k, &mut out);
            }
            prev = node;
            cur = self.tree().parent_rank(node);
        }
        out
    }

    /// Evaluate one node's own capability vector.
    fn visit(&self, node: u32, req: &JobRequirements, out: &mut SearchResult) {
        out.visited += 1;
        if req.satisfied_by(self.caps_at(node)) {
            out.candidates.push(self.tree().id_at(node));
        }
    }

    /// DFS through the subtree rooted at `root`, pruned by the aggregated
    /// maximal-resource envelope; stops once `k` candidates are collected.
    /// Charges one hop to enter the subtree and one hop per further descent
    /// edge; results return to the requester directly (the paper uses
    /// direct connections for replies).
    fn search_subtree(&self, root: u32, req: &JobRequirements, k: usize, out: &mut SearchResult) {
        if !self.info_at(root).may_satisfy(req) {
            return; // pruned: the request message is never sent
        }
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if out.candidates.len() >= k {
                return;
            }
            out.hops += 1;
            self.visit(node, req, out);
            for &child in self.tree().kid_ranks(node) {
                if self.info_at(child).may_satisfy(req) {
                    stack.push(child);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RnTreeIndex;
    use dgrid_chord::{ChordId, ChordRing};
    use dgrid_resources::{Capabilities, OsType, ResourceKind};
    use dgrid_sim::rng::{rng_for, streams};
    use rand::Rng;
    use std::collections::HashMap;

    /// Ring + capability map with a known mix of weak/strong nodes.
    fn build_index(n: usize, seed: u64) -> (RnTreeIndex, HashMap<u64, Capabilities>) {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut caps = HashMap::new();
        let mut count = 0;
        while count < n {
            let id = ChordId(rng.gen());
            if ring.is_alive(id) {
                continue;
            }
            ring.join(id);
            let strong = count % 4 == 0; // every 4th node is "strong"
            let c = if strong {
                Capabilities::new(3.0, 8.0, 400.0, OsType::Linux)
            } else {
                Capabilities::new(1.0, 1.0, 40.0, OsType::Linux)
            };
            caps.insert(id.0, c);
            count += 1;
        }
        ring.stabilize();
        (RnTreeIndex::build(&ring, &caps), caps)
    }

    #[test]
    fn unconstrained_search_finds_k_quickly() {
        let (index, _) = build_index(128, 61);
        let owner = index.tree().ids()[40];
        let res = index.find_candidates(owner, &JobRequirements::unconstrained(), 8);
        assert!(res.candidates.len() >= 8);
        assert!(
            res.visited <= 16,
            "visited {} nodes for k=8 unconstrained",
            res.visited
        );
    }

    #[test]
    fn constrained_search_returns_only_capable_nodes() {
        let (index, caps) = build_index(128, 67);
        let req = JobRequirements::unconstrained()
            .with_min(ResourceKind::CpuSpeed, 2.0)
            .with_min(ResourceKind::Memory, 4.0);
        let owner = index.tree().ids()[10];
        let res = index.find_candidates(owner, &req, 4);
        assert!(!res.candidates.is_empty());
        for c in &res.candidates {
            assert!(
                req.satisfied_by(&caps[c]),
                "candidate {c} cannot run the job"
            );
        }
    }

    #[test]
    fn search_finds_all_when_k_is_huge() {
        let (index, caps) = build_index(96, 71);
        let req = JobRequirements::unconstrained().with_min(ResourceKind::Disk, 100.0);
        let expected: usize = caps.values().filter(|c| req.satisfied_by(c)).count();
        assert!(expected > 0);
        for &owner in index.tree().ids().iter().step_by(17) {
            let res = index.find_candidates(owner, &req, usize::MAX);
            assert_eq!(
                res.candidates.len(),
                expected,
                "exhaustive search from {owner} must find every capable node"
            );
        }
    }

    #[test]
    fn impossible_requirements_yield_empty_result() {
        let (index, _) = build_index(64, 73);
        let req = JobRequirements::unconstrained().with_min(ResourceKind::Memory, 1e9);
        let owner = index.tree().root();
        let res = index.find_candidates(owner, &req, 3);
        assert!(res.candidates.is_empty());
        // Pruning should have stopped the search before visiting everyone:
        // the root subtree envelope already excludes the requirement.
        assert!(res.visited <= index.tree().len() as u32 / 2);
    }

    #[test]
    fn pruning_reduces_cost_versus_exhaustive() {
        let (index, _) = build_index(256, 79);
        // Rare requirement: only strong nodes qualify.
        let req = JobRequirements::unconstrained().with_min(ResourceKind::Memory, 8.0);
        let owner = index.tree().ids()[100];
        let res = index.find_candidates(owner, &req, 2);
        assert!(!res.candidates.is_empty());
        // Visiting far fewer nodes than the tree holds demonstrates pruning.
        assert!(
            res.visited < 200,
            "visited {} of 256 — pruning ineffective",
            res.visited
        );
    }

    #[test]
    fn search_from_every_owner_is_well_formed() {
        let (index, caps) = build_index(64, 83);
        let req = JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, 2.0);
        for owner in index.tree().ids() {
            let res = index.find_candidates(owner, &req, 3);
            for c in &res.candidates {
                assert!(req.satisfied_by(&caps[c]));
            }
            let mut dedup = res.candidates.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), res.candidates.len(), "no duplicate candidates");
        }
    }
}
