//! Hierarchical subtree aggregation.
//!
//! "Each node periodically sends local subtree resource information (for the
//! subtree rooted by that node) to its parent node, and this information is
//! aggregated at each level of the RN-Tree (hierarchical aggregation)."
//! (Section 3.1.)
//!
//! The aggregate carried upward is the per-dimension **maximum** capability
//! over the subtree, plus which operating systems appear and how many nodes
//! the subtree holds. The maximum is a sound pruning envelope: a subtree
//! whose maximum fails a job constraint cannot contain a satisfying node.
//! (It is not *complete* — per-dimension maxima may come from different
//! nodes — so a search may still descend into a subtree with no actual
//! candidate; that costs hops, never correctness.)

use dgrid_resources::{Capabilities, JobRequirements, OsType, ResourceKind, NUM_RESOURCE_DIMS};
use serde::{Deserialize, Serialize};

/// Aggregated view of one subtree.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubtreeInfo {
    /// Per-dimension maximum capability over all nodes in the subtree.
    pub max_caps: [f64; NUM_RESOURCE_DIMS],
    /// Which operating systems appear in the subtree.
    pub os_present: [bool; 4],
    /// Number of nodes in the subtree (including its root).
    pub node_count: u32,
}

impl SubtreeInfo {
    /// The aggregate of a single node.
    pub fn leaf(caps: &Capabilities) -> SubtreeInfo {
        // Element by element: one byte stored into a zeroed array and read
        // back as a word stalls the store-to-load forwarding.
        let os = os_index(caps.os);
        SubtreeInfo {
            max_caps: caps.values(),
            os_present: std::array::from_fn(|i| i == os),
            node_count: 1,
        }
    }

    /// Fold a child subtree's aggregate into this one.
    pub fn absorb(&mut self, child: &SubtreeInfo) {
        for d in 0..NUM_RESOURCE_DIMS {
            self.max_caps[d] = self.max_caps[d].max(child.max_caps[d]);
        }
        for i in 0..4 {
            self.os_present[i] |= child.os_present[i];
        }
        self.node_count += child.node_count;
    }

    /// Sound pruning test: *might* this subtree contain a node satisfying
    /// `req`? `false` guarantees it does not.
    pub fn may_satisfy(&self, req: &JobRequirements) -> bool {
        let os_ok = OsType::ALL
            .iter()
            .enumerate()
            .any(|(i, &os)| self.os_present[i] && req.os.accepts(os));
        if !os_ok {
            return false;
        }
        ResourceKind::ALL.iter().all(|&kind| match req.min(kind) {
            Some(min) => self.max_caps[kind.index()] >= min,
            None => true,
        })
    }
}

/// `os`'s slot in `os_present`: its position in [`OsType::ALL`].
fn os_index(os: OsType) -> usize {
    const _: () = {
        let mut i = 0;
        while i < OsType::ALL.len() {
            assert!(
                OsType::ALL[i] as usize == i,
                "OsType::ALL is in declaration order"
            );
            i += 1;
        }
    };
    os as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_resources::OsRequirement;

    fn caps(c: f64, m: f64, d: f64, os: OsType) -> Capabilities {
        Capabilities::new(c, m, d, os)
    }

    #[test]
    fn leaf_reflects_node() {
        let info = SubtreeInfo::leaf(&caps(2.0, 4.0, 50.0, OsType::Linux));
        assert_eq!(info.max_caps, [2.0, 4.0, 50.0]);
        assert_eq!(info.node_count, 1);
        assert!(info.os_present[0]);
        assert!(!info.os_present[1]);
    }

    #[test]
    fn absorb_takes_pointwise_max() {
        let mut a = SubtreeInfo::leaf(&caps(2.0, 1.0, 50.0, OsType::Linux));
        let b = SubtreeInfo::leaf(&caps(1.0, 8.0, 10.0, OsType::Windows));
        a.absorb(&b);
        assert_eq!(a.max_caps, [2.0, 8.0, 50.0]);
        assert_eq!(a.node_count, 2);
        assert!(a.os_present[0] && a.os_present[1]);
    }

    #[test]
    fn pruning_is_sound() {
        let mut agg = SubtreeInfo::leaf(&caps(2.0, 1.0, 50.0, OsType::Linux));
        agg.absorb(&SubtreeInfo::leaf(&caps(1.0, 8.0, 10.0, OsType::Linux)));

        // Within the envelope: may satisfy (even though no single node has
        // cpu >= 2 and mem >= 8 — soundness, not completeness).
        let req = JobRequirements::unconstrained()
            .with_min(ResourceKind::CpuSpeed, 2.0)
            .with_min(ResourceKind::Memory, 8.0);
        assert!(agg.may_satisfy(&req));

        // Outside the envelope in one dimension: definite prune.
        let req = JobRequirements::unconstrained().with_min(ResourceKind::Memory, 9.0);
        assert!(!agg.may_satisfy(&req));

        // OS mismatch: definite prune.
        let req = JobRequirements::unconstrained().with_os(OsRequirement::only(OsType::MacOs));
        assert!(!agg.may_satisfy(&req));
    }

    #[test]
    fn unconstrained_job_always_may_satisfy() {
        let agg = SubtreeInfo::leaf(&caps(0.0, 0.0, 0.0, OsType::Solaris));
        assert!(agg.may_satisfy(&JobRequirements::unconstrained()));
    }
}
