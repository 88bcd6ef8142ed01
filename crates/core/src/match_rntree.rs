//! RN-Tree matchmaking over a pluggable overlay substrate (Section 3.1).
//!
//! * **Owner placement:** the job's GUID is looked up through the overlay
//!   from the injection node, then a *limited random walk* along overlay
//!   neighbor pointers spreads owners beyond the strict GUID mapping ("copes
//!   with dynamic load balance issues by performing a limited random walk
//!   after the initial mapping to an owner node").
//! * **Matchmaking:** the owner searches its RN-Tree subtree first, climbing
//!   to ancestors only as needed, pruned by aggregated maximal-resource
//!   information, and keeps going until at least `k` capable candidates are
//!   found (extended search). The least-loaded candidate wins — candidates
//!   report their queue length in their search replies, so this load reading
//!   is fresh for exactly the nodes contacted and nothing else.
//! * **Maintenance:** the overlay stabilizes and the tree + aggregates
//!   rebuild on the engine's maintenance tick whenever membership changed;
//!   between ticks the overlay routes on stale state, as a real deployment
//!   would.
//!
//! The paper builds this on Chord, but nothing here is Chord-specific: the
//! matchmaker is generic over any [`KeyRouter`] substrate, so the same
//! engine runs `rn-tree` (Chord), `rn-tree@pastry`, and `rn-tree@tapestry`
//! variants differing only in the underlying routing geometry.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dgrid_chord::ChordRing;
use dgrid_resources::JobProfile;
use dgrid_rntree::RnTreeIndex;
use dgrid_sim::rng::SimRng;
use dgrid_sim::router::KeyRouter;
use dgrid_sim::telemetry::{NullHook, SharedHook};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::PlacementPolicy;
use crate::job::OwnerRef;
use crate::matchmaker::{MatchOutcome, Matchmaker};
use crate::node::{GridNodeId, NodeTable};

/// Tunables for the RN-Tree matchmaker.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RnTreeConfig {
    /// Extended-search width: keep searching until at least `k` capable
    /// candidates are found.
    pub k: usize,
    /// Maximum steps of the post-mapping random walk (a uniform number of
    /// steps in `0..=max_random_walk` is taken).
    pub max_random_walk: u32,
}

impl Default for RnTreeConfig {
    fn default() -> Self {
        RnTreeConfig {
            k: 4,
            max_random_walk: 3,
        }
    }
}

/// Failover budget for overlay lookups: how many detour peers a failed
/// lookup may try before the caller's own retry/backoff machinery takes
/// over.
const LOOKUP_FAILOVER_RETRIES: u32 = 2;

/// The Section 3.1 matchmaker, generic over the overlay substrate. The
/// default substrate is Chord, matching the paper.
pub struct RnTreeMatchmaker<R: KeyRouter = ChordRing> {
    cfg: RnTreeConfig,
    router: R,
    key_of: HashMap<GridNodeId, u64>,
    grid_of: HashMap<u64, GridNodeId>,
    index: Option<RnTreeIndex>,
    dirty: bool,
    lookup_retries: u64,
    hook: SharedHook,
    placement: PlacementPolicy,
}

impl RnTreeMatchmaker<ChordRing> {
    /// An empty Chord-backed matchmaker; nodes arrive via
    /// [`Matchmaker::on_join`].
    pub fn new(cfg: RnTreeConfig) -> Self {
        Self::on_substrate(cfg)
    }

    /// With default parameters (k = 4, walk ≤ 3), on Chord.
    pub fn with_defaults() -> Self {
        Self::new(RnTreeConfig::default())
    }
}

impl<R: KeyRouter> RnTreeMatchmaker<R> {
    /// An empty matchmaker over substrate `R`; nodes arrive via
    /// [`Matchmaker::on_join`].
    pub fn on_substrate(cfg: RnTreeConfig) -> Self {
        assert!(cfg.k >= 1, "extended search needs k >= 1");
        RnTreeMatchmaker {
            cfg,
            router: R::default(),
            key_of: HashMap::new(),
            grid_of: HashMap::new(),
            index: None,
            dirty: true,
            lookup_retries: 0,
            hook: Rc::new(RefCell::new(NullHook)),
            placement: PlacementPolicy::Hash,
        }
    }

    /// The tree height of the current index (for the `T-tree` experiment).
    pub fn tree_height(&self) -> Option<u32> {
        self.index.as_ref().map(|i| i.tree().height())
    }

    fn overlay_key_for(node: GridNodeId, generation: u64) -> u64 {
        // Fresh overlay identity per (node, join-generation).
        R::key_of((u64::from(node.0) << 20) ^ generation)
    }

    fn rebuild_index(&mut self, nodes: &NodeTable) {
        self.router.stabilize();
        if self.router.is_empty() {
            self.index = None;
            self.dirty = false;
            return;
        }
        // `grid_of` mirrors the substrate's membership.
        self.index = Some(RnTreeIndex::build_with(&self.router, |key| {
            nodes.get(self.grid_of[&key]).profile.capabilities
        }));
        self.dirty = false;
    }

    fn index_for(&mut self, nodes: &NodeTable) -> Option<&RnTreeIndex> {
        if self.dirty || self.index.is_none() {
            self.rebuild_index(nodes);
        }
        self.index.as_ref()
    }

    /// Load-aware owner placement: probe the mapped key *and* its failover
    /// peers, and keep the live candidate with the shallowest queue
    /// (`GridNode::load()`), each extra probe costing one hop. Ties keep
    /// the earliest candidate — the overlay's own preference order — so
    /// placement stays deterministic without consuming RNG draws. Falls
    /// back to the mapped key when no probe improves on it.
    fn place_load_aware(&self, nodes: &NodeTable, mapped: u64, hops: &mut u32) -> u64 {
        let mut best: Option<(usize, u64)> = None;
        for (i, key) in std::iter::once(mapped)
            .chain(self.router.failover_peers(mapped))
            .enumerate()
        {
            let Some(&gid) = self.grid_of.get(&key) else {
                continue;
            };
            if !nodes.is_alive(gid) {
                continue;
            }
            if i > 0 {
                *hops += 1; // load probe of one failover peer
            }
            let load = nodes.get(gid).load();
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, key));
            }
        }
        best.map_or(mapped, |(_, key)| key)
    }

    /// A uniformly random live overlay key: where a contactor with no
    /// overlay position of its own starts a lookup. `None` when nobody is
    /// alive, without touching `rng`.
    fn random_live_key(&self, rng: &mut SimRng) -> Option<u64> {
        if self.router.is_empty() {
            return None;
        }
        self.router
            .alive_key_at(rng.gen_range(0..self.router.len()))
    }

    /// Report one finished overlay operation to the telemetry hook.
    fn report_lookup(&self, hops: u32, retries: u32) {
        let mut hook = self.hook.borrow_mut();
        hook.on_lookup(hops);
        if retries > 0 {
            hook.on_retry(retries);
            hook.on_failover();
        }
    }
}

impl<R: KeyRouter> Matchmaker for RnTreeMatchmaker<R> {
    fn name(&self) -> &'static str {
        match R::SUBSTRATE {
            "pastry" => "rn-tree@pastry",
            "tapestry" => "rn-tree@tapestry",
            _ => "rn-tree",
        }
    }

    fn on_join(&mut self, _nodes: &NodeTable, node: GridNodeId, _rng: &mut SimRng) {
        // Generation counter: how many identities this node has had.
        let mut generation = 0u64;
        let mut key = Self::overlay_key_for(node, generation);
        while self.router.is_alive(key) {
            generation += 1;
            key = Self::overlay_key_for(node, generation);
        }
        self.router.join(key);
        self.key_of.insert(node, key);
        self.grid_of.insert(key, node);
        self.dirty = true;
    }

    fn bootstrap(&mut self, nodes: &NodeTable, _rng: &mut SimRng) {
        // Same key choices as on_join in ascending node order — collisions
        // are checked against the keys admitted so far (`grid_of` mirrors
        // the substrate membership exactly while bootstrapping) — but the
        // substrate defers routing-state construction to the first
        // stabilize instead of building tables once per join.
        debug_assert!(self.router.is_empty(), "bootstrap of a populated overlay");
        let mut keys = Vec::with_capacity(nodes.len());
        for node in nodes.alive_ids() {
            let mut generation = 0u64;
            let mut key = Self::overlay_key_for(node, generation);
            while self.grid_of.contains_key(&key) || self.router.is_alive(key) {
                generation += 1;
                key = Self::overlay_key_for(node, generation);
            }
            keys.push(key);
            self.key_of.insert(node, key);
            self.grid_of.insert(key, node);
        }
        self.router.bulk_join(&keys);
        self.dirty = true;
    }

    fn on_leave(&mut self, _nodes: &NodeTable, node: GridNodeId, graceful: bool) {
        let key = self
            .key_of
            .remove(&node)
            .expect("leave of node never joined");
        self.grid_of.remove(&key);
        if graceful {
            self.router.leave(key); // neighbours repaired immediately
        } else {
            self.router.fail(key); // abrupt: stale state until stabilization
        }
        self.dirty = true;
    }

    fn assign_owner(
        &mut self,
        nodes: &NodeTable,
        _job: &JobProfile,
        guid: u64,
        injection: GridNodeId,
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        let from = *self.key_of.get(&injection)?;
        if !self.router.is_alive(from) {
            return None;
        }
        let (lookup, retries) =
            self.router
                .lookup_with_failover(from, guid, LOOKUP_FAILOVER_RETRIES)?;
        self.lookup_retries += u64::from(retries);
        let mut hops = lookup.charged_hops();
        // Limited random walk along overlay neighbor pointers.
        let mut owner = lookup.owner;
        let steps = rng.gen_range(0..=self.cfg.max_random_walk);
        for _ in 0..steps {
            match self.router.walk_step(owner) {
                Some(next) => {
                    owner = next;
                    hops += 1;
                }
                None => break,
            }
        }
        if self.placement == PlacementPolicy::LoadAware {
            owner = self.place_load_aware(nodes, owner, &mut hops);
        }
        let grid = *self.grid_of.get(&owner)?;
        self.report_lookup(hops, retries);
        Some((OwnerRef::Peer(grid), hops))
    }

    fn find_run_node(
        &mut self,
        nodes: &NodeTable,
        owner: OwnerRef,
        job: &JobProfile,
        rng: &mut SimRng,
    ) -> MatchOutcome {
        let Some(owner_grid) = owner.peer() else {
            return MatchOutcome {
                run_node: None,
                hops: 0,
            };
        };
        let Some(&owner_key) = self.key_of.get(&owner_grid) else {
            return MatchOutcome {
                run_node: None,
                hops: 0,
            };
        };
        // Load-aware placement widens the run-node probe: the owner asks
        // the tree for twice as many candidates and resolves load ties
        // deterministically (earliest reply wins, no RNG draw), matching
        // the `place_load_aware` convention on the owner path. Hash
        // placement keeps the paper's k-candidate search byte-for-byte.
        let load_aware = self.placement == PlacementPolicy::LoadAware;
        let k = if load_aware {
            self.cfg.k.saturating_mul(2)
        } else {
            self.cfg.k
        };
        // The index may lag membership; if the owner is missing, rebuild
        // (the owner refreshes its own tree state before searching).
        let missing = self
            .index
            .as_ref()
            .is_none_or(|i| !i.tree().contains(owner_key));
        if missing {
            self.dirty = true;
        }
        let Some(index) = self.index_for(nodes) else {
            return MatchOutcome {
                run_node: None,
                hops: 0,
            };
        };
        if !index.tree().contains(owner_key) {
            return MatchOutcome {
                run_node: None,
                hops: 0,
            };
        }
        let res = index.find_candidates(owner_key, &job.requirements, k);
        let mut hops = res.hops;

        // Candidates replied with their current queue length; pick the
        // least loaded (fresh reads for contacted nodes only). Dead
        // candidates (stale tree) cost a timeout probe each.
        let mut best: Option<(usize, GridNodeId)> = None;
        let mut ties = 0u32;
        for key in res.candidates {
            let Some(&gid) = self.grid_of.get(&key) else {
                continue;
            };
            if !nodes.is_alive(gid) {
                hops += 1; // timed-out probe of a stale candidate
                continue;
            }
            let load = nodes.get(gid).load();
            match best {
                None => {
                    best = Some((load, gid));
                    ties = 1;
                }
                Some((b, _)) if load < b => {
                    best = Some((load, gid));
                    ties = 1;
                }
                Some((b, _)) if load == b => {
                    ties += 1;
                    if !load_aware && rng.gen_range(0..ties) == 0 {
                        best = Some((load, gid));
                    }
                }
                _ => {}
            }
        }
        self.report_lookup(hops, 0);
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
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        // The run node (or client) looks the GUID up again; the live
        // overlay owner of the GUID becomes the new owner. Start the lookup
        // at a random live peer (the contactor's own overlay position).
        let from = self.random_live_key(rng)?;
        let (lookup, retries) =
            self.router
                .lookup_with_failover(from, guid, LOOKUP_FAILOVER_RETRIES)?;
        self.lookup_retries += u64::from(retries);
        let mut hops = lookup.charged_hops();
        let mut owner_key = lookup.owner;
        if self.placement == PlacementPolicy::LoadAware {
            owner_key = self.place_load_aware(nodes, owner_key, &mut hops);
        }
        let grid = *self.grid_of.get(&owner_key)?;
        if !nodes.is_alive(grid) {
            return None;
        }
        self.report_lookup(hops, retries);
        Some((OwnerRef::Peer(grid), hops))
    }

    fn tick(&mut self, nodes: &NodeTable) {
        // The index copies capabilities when it is built, so between
        // membership changes its aggregates have nothing to catch up with.
        if self.dirty {
            self.rebuild_index(nodes);
        }
    }

    fn resolve_guid(&mut self, _nodes: &NodeTable, guid: u64, rng: &mut SimRng) -> Option<u32> {
        let from = self.random_live_key(rng)?;
        let (lookup, retries) =
            self.router
                .lookup_with_failover(from, guid, LOOKUP_FAILOVER_RETRIES)?;
        self.lookup_retries += u64::from(retries);
        self.report_lookup(lookup.charged_hops(), retries);
        Some(lookup.charged_hops())
    }

    fn take_lookup_retries(&mut self) -> u64 {
        std::mem::take(&mut self.lookup_retries)
    }

    fn set_telemetry_hook(&mut self, hook: SharedHook) {
        self.hook = hook;
    }

    fn set_placement(&mut self, placement: PlacementPolicy) {
        self.placement = placement;
    }

    fn lease_registrar(&mut self, nodes: &NodeTable, guid: u64) -> Option<GridNodeId> {
        // Ground truth, no routing cost: the registrar *is* the substrate
        // owner of the job's DHT key (renewals ride on its direct address).
        let key = self.router.owner_of(guid)?;
        let gid = *self.grid_of.get(&key)?;
        nodes.is_alive(gid).then_some(gid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeTable;
    use dgrid_pastry::PastryNetwork;
    use dgrid_resources::{
        Capabilities, ClientId, JobId, JobProfile, JobRequirements, NodeProfile, OsType,
        ResourceKind,
    };
    use dgrid_sim::rng::rng_for;
    use dgrid_tapestry::TapestryNetwork;

    fn node_table(n: usize) -> NodeTable {
        let profiles: Vec<NodeProfile> = (0..n)
            .map(|i| {
                NodeProfile::new(Capabilities::new(
                    0.5 + (i % 8) as f64 * 0.45,
                    2f64.powi((i % 6) as i32 - 2),
                    10.0 + (i % 40) as f64 * 12.0,
                    OsType::Linux,
                ))
            })
            .collect();
        NodeTable::new(profiles)
    }

    fn setup(n: usize) -> (RnTreeMatchmaker, NodeTable, SimRng) {
        let (mm, nodes, rng) = setup_on::<ChordRing>(n);
        (mm, nodes, rng)
    }

    fn setup_on<R: KeyRouter>(n: usize) -> (RnTreeMatchmaker<R>, NodeTable, SimRng) {
        let nodes = node_table(n);
        let mut rng = rng_for(7, 7);
        let mut mm = RnTreeMatchmaker::<R>::on_substrate(RnTreeConfig::default());
        for id in nodes.alive_ids() {
            mm.on_join(&nodes, id, &mut rng);
        }
        mm.tick(&nodes);
        (mm, nodes, rng)
    }

    fn job(req: JobRequirements) -> JobProfile {
        JobProfile::new(JobId(9), ClientId(0), req, 10.0)
    }

    #[test]
    fn owner_assignment_is_a_peer_with_bounded_hops() {
        let (mut mm, nodes, mut rng) = setup(64);
        let p = job(JobRequirements::unconstrained());
        for inj in nodes.alive_ids().take(8) {
            let (owner, hops) = mm.assign_owner(&nodes, &p, 12345, inj, &mut rng).unwrap();
            let peer = owner.peer().expect("P2P owner is a peer");
            assert!(nodes.is_alive(peer));
            assert!(hops <= 24, "O(log N) routing plus short walk, got {hops}");
        }
    }

    #[test]
    fn random_walk_spreads_owners_of_one_guid() {
        let (mut mm, nodes, mut rng) = setup(64);
        let p = job(JobRequirements::unconstrained());
        let inj = nodes.alive_ids().next().unwrap();
        let owners: std::collections::HashSet<_> = (0..32)
            .map(|_| mm.assign_owner(&nodes, &p, 777, inj, &mut rng).unwrap().0)
            .collect();
        assert!(
            owners.len() > 1,
            "the limited random walk must vary the owner"
        );
    }

    #[test]
    fn match_respects_constraints() {
        let (mut mm, nodes, mut rng) = setup(64);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, 3.0));
        let inj = nodes.alive_ids().next().unwrap();
        let (owner, _) = mm.assign_owner(&nodes, &p, 31, inj, &mut rng).unwrap();
        let out = mm.find_run_node(&nodes, owner, &p, &mut rng);
        let run = out.run_node.expect("capable nodes exist");
        assert!(p
            .requirements
            .satisfied_by(&nodes.get(run).profile.capabilities));
        assert!(out.hops > 0, "tree search costs hops");
    }

    #[test]
    fn membership_survives_churn_and_rejoin() {
        let (mut mm, mut nodes, mut rng) = setup(32);
        let victim = nodes.alive_ids().nth(5).unwrap();
        nodes.mark_failed(victim);
        mm.on_leave(&nodes, victim, false);
        mm.tick(&nodes);
        assert_eq!(mm.tree_height().map(|h| h > 0), Some(true));

        nodes.mark_rejoined(victim);
        mm.on_join(&nodes, victim, &mut rng);
        mm.tick(&nodes);
        // The rejoined node can be matched to again.
        let p = job(JobRequirements::unconstrained());
        let inj = nodes.alive_ids().next().unwrap();
        let (owner, _) = mm.assign_owner(&nodes, &p, 99, inj, &mut rng).unwrap();
        assert!(mm
            .find_run_node(&nodes, owner, &p, &mut rng)
            .run_node
            .is_some());
    }

    #[test]
    fn reassign_owner_returns_live_peer() {
        let (mut mm, nodes, mut rng) = setup(32);
        let p = job(JobRequirements::unconstrained());
        let (owner, hops) = mm.reassign_owner(&nodes, &p, 4242, &mut rng).unwrap();
        assert!(nodes.is_alive(owner.peer().unwrap()));
        assert!(hops <= 24);
    }

    #[test]
    fn impossible_requirements_find_nothing() {
        let (mut mm, nodes, mut rng) = setup(32);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::Memory, 1e9));
        let inj = nodes.alive_ids().next().unwrap();
        let (owner, _) = mm.assign_owner(&nodes, &p, 5, inj, &mut rng).unwrap();
        assert_eq!(mm.find_run_node(&nodes, owner, &p, &mut rng).run_node, None);
    }

    #[test]
    fn load_aware_placement_avoids_deep_queues() {
        use crate::node::QueuedJob;

        // No random walk, so under hash placement the owner is exactly the
        // substrate mapping of the GUID and the comparison is direct.
        let cfg = RnTreeConfig {
            max_random_walk: 0,
            ..RnTreeConfig::default()
        };
        let nodes = node_table(48);
        let mut rng = rng_for(7, 7);
        let mut mm = RnTreeMatchmaker::<ChordRing>::on_substrate(cfg);
        for id in nodes.alive_ids() {
            mm.on_join(&nodes, id, &mut rng);
        }
        mm.tick(&nodes);
        let p = job(JobRequirements::unconstrained());
        let inj = nodes.alive_ids().next().unwrap();
        let (hash_owner, _) = mm.assign_owner(&nodes, &p, 0xABCD, inj, &mut rng).unwrap();
        let hash_gid = hash_owner.peer().unwrap();

        // Bury the hash owner under a deep queue; load-aware placement
        // must route around it to a failover peer.
        let mut loaded = node_table(48);
        for i in 0..10 {
            loaded.enqueue(
                hash_gid,
                QueuedJob {
                    job: JobId(1000 + i),
                    runtime_secs: 10.0,
                    epoch: 0,
                },
            );
        }
        mm.set_placement(PlacementPolicy::LoadAware);
        let (aware_owner, hops) = mm.assign_owner(&loaded, &p, 0xABCD, inj, &mut rng).unwrap();
        assert_ne!(
            aware_owner.peer().unwrap(),
            hash_gid,
            "a buried hash owner must lose the placement"
        );
        assert!(hops > 0, "load probes are not free");
    }

    #[test]
    fn lease_registrar_is_the_live_substrate_owner() {
        let (mut mm, mut nodes, _rng) = setup(32);
        let guid = 0x5EED;
        let registrar = mm
            .lease_registrar(&nodes, guid)
            .expect("live grid has a registrar");
        assert!(nodes.is_alive(registrar));
        // Registrar lookup is ground truth: asking twice costs nothing and
        // answers the same.
        assert_eq!(mm.lease_registrar(&nodes, guid), Some(registrar));

        // Kill the registrar: the role moves to another live peer.
        nodes.mark_failed(registrar);
        mm.on_leave(&nodes, registrar, false);
        mm.tick(&nodes);
        let next = mm.lease_registrar(&nodes, guid);
        assert_ne!(next, Some(registrar), "dead registrar must be replaced");
    }

    #[test]
    fn substrate_variants_have_distinct_names() {
        let chord = RnTreeMatchmaker::<ChordRing>::on_substrate(RnTreeConfig::default());
        let pastry = RnTreeMatchmaker::<PastryNetwork>::on_substrate(RnTreeConfig::default());
        let tapestry = RnTreeMatchmaker::<TapestryNetwork>::on_substrate(RnTreeConfig::default());
        assert_eq!(chord.name(), "rn-tree");
        assert_eq!(pastry.name(), "rn-tree@pastry");
        assert_eq!(tapestry.name(), "rn-tree@tapestry");
    }

    #[test]
    fn full_matchmaking_cycle_works_on_every_substrate() {
        fn exercise<R: KeyRouter>() {
            let (mut mm, mut nodes, mut rng) = setup_on::<R>(48);
            let p = job(JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, 2.0));
            let inj = nodes.alive_ids().next().unwrap();
            let (owner, hops) = mm
                .assign_owner(&nodes, &p, 0xBEEF, inj, &mut rng)
                .expect("owner assignment routes");
            assert!(hops <= 48, "{}: hops {hops}", R::SUBSTRATE);
            let out = mm.find_run_node(&nodes, owner, &p, &mut rng);
            let run = out.run_node.expect("capable nodes exist");
            assert!(p
                .requirements
                .satisfied_by(&nodes.get(run).profile.capabilities));

            // Churn a node, then reassign and resolve still work.
            let victim = nodes.alive_ids().nth(7).unwrap();
            nodes.mark_failed(victim);
            mm.on_leave(&nodes, victim, false);
            mm.tick(&nodes);
            let (new_owner, _) = mm
                .reassign_owner(&nodes, &p, 0xBEEF, &mut rng)
                .expect("reassignment finds a live owner");
            assert!(nodes.is_alive(new_owner.peer().unwrap()));
            assert!(mm.resolve_guid(&nodes, 0xF00D, &mut rng).is_some());
        }
        exercise::<ChordRing>();
        exercise::<PastryNetwork>();
        exercise::<TapestryNetwork>();
    }
}
