//! The publish/subscribe resource-discovery baseline.
//!
//! Abbes et al.'s pub/sub performance studies (see PAPERS.md) evaluate
//! desktop-grid discovery the other way round from the paper's RN-Tree:
//! instead of a search tree over resource capabilities, every node
//! *publishes* an advertisement of what it offers, and every distinct job
//! shape registers a *subscription* keyed on its capability predicate.
//! Matching is then notification delivery: advertisements matching a
//! standing subscription arrive at the owner without a tree walk.
//!
//! Cost follows the `RouteCost` convention (charged hops = forwarding +
//! timeout probes):
//!
//! * **Advertisement / subscription propagation** costs ⌈log₂(ads + 1)⌉
//!   hops — the depth of the dissemination tree over the rendezvous
//!   brokers that carry the tables.
//! * **Delivery** of matched advertisements costs one hop.
//! * **Stale advertisements** — a node that crashed without unadvertising —
//!   cost one timed-out probe each when a match tries them, after which the
//!   prober repairs the table (removes the ad), exactly like the RN-Tree's
//!   stale-candidate accounting.
//!
//! A subscription is registered once per predicate class and reused by
//! every later job of the same shape — the pub/sub advantage — while the
//! advertisement table goes stale under churn between maintenance rounds —
//! the pub/sub weakness the differential sweeps are meant to expose.
//!
//! Owners are rendezvous brokers: the live advertised node minimizing a
//! deterministic mix of (GUID, node id), so owner placement needs no
//! routing substrate, survives any single failure, and stays reproducible
//! draw-for-draw.

use std::collections::{BTreeMap, BTreeSet};

use dgrid_resources::{Capabilities, JobProfile, JobRequirements, NUM_RESOURCE_DIMS};
use dgrid_sim::rng::SimRng;
use rand::Rng;

use crate::job::OwnerRef;
use crate::matchmaker::{MatchOutcome, Matchmaker};
use crate::node::{GridNodeId, NodeTable};

/// How many matched advertisements a single match attempt probes for load.
const PROBE_FANOUT: usize = 8;

/// A quantized capability predicate: the subscription-table key. Jobs
/// whose requirements quantize identically share one standing
/// subscription, so the table stays small while still matching only
/// advertisements that can plausibly satisfy the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PredicateKey {
    /// Per-dimension minimum, bucketed to half-powers of two;
    /// `i16::MIN` encodes "unconstrained".
    dim_buckets: [i16; NUM_RESOURCE_DIMS],
    /// Bitmask of accepted operating systems.
    os_mask: u8,
}

impl PredicateKey {
    fn of(req: &JobRequirements) -> PredicateKey {
        let mut dim_buckets = [i16::MIN; NUM_RESOURCE_DIMS];
        for (i, min) in req.mins().into_iter().enumerate() {
            if let Some(m) = min {
                // Half-exponent buckets: ~1.41× resolution, monotone in m.
                dim_buckets[i] = (m.max(f64::MIN_POSITIVE).log2() * 2.0).ceil() as i16;
            }
        }
        let os_mask = dgrid_resources::OsType::ALL
            .iter()
            .enumerate()
            .filter(|(_, &os)| req.os.accepts(os))
            .fold(0u8, |m, (i, _)| m | (1 << i));
        PredicateKey {
            dim_buckets,
            os_mask,
        }
    }
}

/// SplitMix64 finalizer: the deterministic mixer behind rendezvous broker
/// selection.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Publish/subscribe resource-discovery matchmaker.
#[derive(Debug, Default)]
pub struct PubSubMatchmaker {
    /// Advertisement table: node → advertised capabilities. Soft state —
    /// entries of crashed nodes linger until probed or refreshed.
    ads: BTreeMap<GridNodeId, Capabilities>,
    /// Standing subscriptions by predicate class.
    subs: BTreeSet<PredicateKey>,
}

impl PubSubMatchmaker {
    /// Create an empty broker state.
    pub fn new() -> Self {
        PubSubMatchmaker::default()
    }

    /// Dissemination-tree depth over the current advertisement table: the
    /// propagation cost of one advertisement or subscription.
    fn propagation_hops(&self) -> u32 {
        (usize::BITS - self.ads.len().leading_zeros()).max(1)
    }

    /// The rendezvous broker for `guid`: the live advertised node
    /// minimizing the mixed distance. `None` when no advertised node is
    /// alive.
    fn broker_for(&self, nodes: &NodeTable, guid: u64) -> Option<GridNodeId> {
        self.ads
            .keys()
            .filter(|&&id| nodes.is_alive(id))
            .min_by_key(|&&id| mix64(guid ^ mix64(u64::from(id.0).wrapping_add(1))))
            .copied()
    }
}

impl Matchmaker for PubSubMatchmaker {
    fn name(&self) -> &'static str {
        "pub-sub"
    }

    fn on_join(&mut self, nodes: &NodeTable, node: GridNodeId, _rng: &mut SimRng) {
        // The node publishes (or re-publishes after a rejoin) its
        // advertisement. No randomness: publication is a broadcast up the
        // dissemination tree.
        self.ads.insert(node, *nodes.capabilities(node));
    }

    fn on_leave(&mut self, _nodes: &NodeTable, node: GridNodeId, graceful: bool) {
        if graceful {
            // An announced departure unadvertises on the way out.
            self.ads.remove(&node);
        }
        // An abrupt failure leaves the advertisement stale: the table
        // learns about it from a timed-out probe or the next refresh.
    }

    fn assign_owner(
        &mut self,
        nodes: &NodeTable,
        _job: &JobProfile,
        guid: u64,
        _injection: GridNodeId,
        _rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        let broker = self.broker_for(nodes, guid)?;
        Some((OwnerRef::Peer(broker), self.propagation_hops()))
    }

    fn find_run_node(
        &mut self,
        nodes: &NodeTable,
        _owner: OwnerRef,
        job: &JobProfile,
        rng: &mut SimRng,
    ) -> MatchOutcome {
        let key = PredicateKey::of(&job.requirements);
        // First job of this shape registers the subscription and pays its
        // propagation; every later job of the same shape reuses it.
        let mut hops = if self.subs.insert(key) {
            self.propagation_hops()
        } else {
            0
        };
        // Notification delivery of the matched advertisements: one hop.
        hops += 1;
        let matched: Vec<GridNodeId> = self
            .ads
            .iter()
            .filter(|(_, caps)| job.requirements.satisfied_by(caps))
            .map(|(&id, _)| id)
            .collect();
        if matched.is_empty() {
            return MatchOutcome {
                run_node: None,
                hops,
            };
        }
        // Advertisements carry capabilities, not load: probe a bounded
        // window of matches (random rotation spreads identical jobs) and
        // take the least-loaded live one. A stale ad costs a timed-out
        // probe and is repaired on the spot.
        let start = rng.gen_range(0..matched.len());
        let mut best: Option<(usize, GridNodeId)> = None;
        let mut stale: Vec<GridNodeId> = Vec::new();
        for i in 0..matched.len().min(PROBE_FANOUT) {
            let gid = matched[(start + i) % matched.len()];
            if !nodes.is_alive(gid) {
                hops += 1; // timed-out probe of a stale advertisement
                stale.push(gid);
                continue;
            }
            let load = nodes.load_of(gid);
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, gid));
            }
        }
        for gid in stale {
            self.ads.remove(&gid);
        }
        MatchOutcome {
            run_node: best.map(|(_, id)| id),
            hops,
        }
    }

    fn reassign_owner(
        &mut self,
        nodes: &NodeTable,
        _job: &JobProfile,
        guid: u64,
        _rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        // The dead broker no longer advertises (or fails the liveness
        // filter), so the rendezvous minimum lands on the next live node.
        let broker = self.broker_for(nodes, guid)?;
        Some((OwnerRef::Peer(broker), self.propagation_hops()))
    }

    fn tick(&mut self, nodes: &NodeTable) {
        // Soft-state refresh: advertisements are periodically re-published;
        // nodes that died since the last round stop refreshing and their
        // entries expire.
        self.ads.retain(|&id, _| nodes.is_alive(id));
    }

    fn resolve_guid(&mut self, nodes: &NodeTable, guid: u64, _rng: &mut SimRng) -> Option<u32> {
        self.broker_for(nodes, guid)?;
        Some(self.propagation_hops())
    }

    fn lease_registrar(&mut self, nodes: &NodeTable, guid: u64) -> Option<GridNodeId> {
        self.broker_for(nodes, guid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_resources::{
        Capabilities, ClientId, JobId, JobProfile, JobRequirements, NodeProfile, OsType,
        ResourceKind,
    };
    use dgrid_sim::rng::rng_for;

    fn table() -> NodeTable {
        NodeTable::new(vec![
            NodeProfile::new(Capabilities::new(1.0, 1.0, 10.0, OsType::Linux)),
            NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux)),
            NodeProfile::new(Capabilities::new(3.0, 8.0, 400.0, OsType::Windows)),
        ])
    }

    fn job(req: JobRequirements) -> JobProfile {
        JobProfile::new(JobId(1), ClientId(0), req, 10.0)
    }

    fn booted(nodes: &NodeTable) -> PubSubMatchmaker {
        let mut mm = PubSubMatchmaker::new();
        let mut rng = rng_for(0, 1);
        mm.bootstrap(nodes, &mut rng);
        mm
    }

    #[test]
    fn owner_is_a_live_rendezvous_broker() {
        let nodes = table();
        let mut mm = booted(&nodes);
        let mut rng = rng_for(1, 1);
        let p = job(JobRequirements::unconstrained());
        let (owner, hops) = mm
            .assign_owner(&nodes, &p, 42, GridNodeId(0), &mut rng)
            .unwrap();
        let OwnerRef::Peer(broker) = owner else {
            panic!("pub/sub owners are peers, got {owner:?}");
        };
        assert!(nodes.is_alive(broker));
        assert!(hops >= 1, "ad propagation must be charged");
        // Deterministic: same guid, same broker.
        assert_eq!(
            mm.assign_owner(&nodes, &p, 42, GridNodeId(1), &mut rng)
                .unwrap()
                .0,
            owner
        );
    }

    #[test]
    fn broker_death_moves_ownership_to_next_live_node() {
        let mut nodes = table();
        let mut mm = booted(&nodes);
        let mut rng = rng_for(2, 1);
        let p = job(JobRequirements::unconstrained());
        let (OwnerRef::Peer(first), _) = mm
            .assign_owner(&nodes, &p, 7, GridNodeId(0), &mut rng)
            .unwrap()
        else {
            panic!("peer owner");
        };
        nodes.mark_failed(first);
        mm.on_leave(&nodes, first, false);
        let (OwnerRef::Peer(second), _) = mm.reassign_owner(&nodes, &p, 7, &mut rng).unwrap()
        else {
            panic!("peer owner");
        };
        assert_ne!(second, first);
        assert!(nodes.is_alive(second));
    }

    #[test]
    fn matches_only_capable_nodes() {
        let nodes = table();
        let mut mm = booted(&nodes);
        let mut rng = rng_for(3, 1);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::Memory, 5.0));
        let out = mm.find_run_node(&nodes, OwnerRef::Peer(GridNodeId(0)), &p, &mut rng);
        assert_eq!(
            out.run_node,
            Some(GridNodeId(2)),
            "only the 8 GiB node's advertisement matches"
        );
    }

    #[test]
    fn subscription_is_registered_once_per_predicate() {
        let nodes = table();
        let mut mm = booted(&nodes);
        let mut rng = rng_for(4, 1);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, 1.5));
        let first = mm.find_run_node(&nodes, OwnerRef::Peer(GridNodeId(0)), &p, &mut rng);
        let second = mm.find_run_node(&nodes, OwnerRef::Peer(GridNodeId(0)), &p, &mut rng);
        assert!(
            first.hops > second.hops,
            "first job of a shape pays subscription propagation \
             ({} vs {})",
            first.hops,
            second.hops
        );
    }

    #[test]
    fn stale_advertisement_costs_a_timeout_and_is_repaired() {
        let mut nodes = table();
        let mut mm = booted(&nodes);
        let mut rng = rng_for(5, 1);
        // Node 2 crashes abruptly: its advertisement goes stale.
        nodes.mark_failed(GridNodeId(2));
        mm.on_leave(&nodes, GridNodeId(2), false);
        assert!(mm.ads.contains_key(&GridNodeId(2)), "stale ad lingers");
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::Memory, 5.0));
        let out = mm.find_run_node(&nodes, OwnerRef::Peer(GridNodeId(0)), &p, &mut rng);
        assert_eq!(out.run_node, None, "the only capable node is down");
        assert!(out.hops >= 2, "delivery plus a timed-out probe");
        assert!(
            !mm.ads.contains_key(&GridNodeId(2)),
            "probing a stale ad repairs the table"
        );
    }

    #[test]
    fn graceful_leave_unadvertises() {
        let mut nodes = table();
        let mut mm = booted(&nodes);
        nodes.mark_failed(GridNodeId(1));
        mm.on_leave(&nodes, GridNodeId(1), true);
        assert!(!mm.ads.contains_key(&GridNodeId(1)));
    }

    #[test]
    fn tick_expires_dead_advertisements() {
        let mut nodes = table();
        let mut mm = booted(&nodes);
        nodes.mark_failed(GridNodeId(0));
        mm.on_leave(&nodes, GridNodeId(0), false);
        assert!(mm.ads.contains_key(&GridNodeId(0)));
        mm.tick(&nodes);
        assert!(!mm.ads.contains_key(&GridNodeId(0)), "soft state expires");
    }

    #[test]
    fn lease_registrar_is_the_broker() {
        let nodes = table();
        let mut mm = booted(&nodes);
        let reg = mm.lease_registrar(&nodes, 99).unwrap();
        assert!(nodes.is_alive(reg));
    }
}
