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
//! * **Maintenance:** after any join, leave or failure, the overlay
//!   stabilizes and the tree + aggregates are refreshed in place at the
//!   first run-node search or maintenance tick, whichever comes first, so a
//!   search never sees a tree that lags membership. Until that refresh,
//!   owner lookups route on the state the last stabilize left (a crashed
//!   peer stays in its neighbours' tables).
//!
//! The paper builds this on Chord, but nothing here is Chord-specific: the
//! matchmaker is generic over any [`KeyRouter`] substrate, so the same
//! engine runs `rn-tree` (Chord), `rn-tree@pastry`, and `rn-tree@tapestry`
//! variants differing only in the underlying routing geometry.

use std::cell::RefCell;
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

/// `rank_of` entry of a grid node outside the current index.
const NOT_INDEXED: u32 = u32::MAX;

/// Failover budget for overlay lookups: how many detour peers a failed
/// lookup may try before the caller's own retry/backoff machinery takes
/// over.
const LOOKUP_FAILOVER_RETRIES: u32 = 2;

/// Low bits of an overlay key's raw value ([`KeyRouter::raw_of`]) below the
/// grid node id; they are zero.
const RAW_SHIFT: u32 = 20;

/// The Section 3.1 matchmaker, generic over the overlay substrate. The
/// default substrate is Chord, matching the paper.
pub struct RnTreeMatchmaker<R: KeyRouter = ChordRing> {
    cfg: RnTreeConfig,
    router: R,
    /// Bit `i % 64` of word `i / 64` is set while grid node `i` is in the
    /// overlay. A member's key is [`Self::overlay_key_for`] the node, and
    /// no map runs the other way: a key's raw value names its grid node
    /// ([`Self::grid_of`]).
    members: Vec<u64>,
    index: Option<RnTreeIndex>,
    /// Rank in `index` of each grid node, [`NOT_INDEXED`] outside it: the
    /// inverse of the tree's ids seen through [`Self::grid_of`].
    rank_of: Vec<u32>,
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
            members: Vec::new(),
            index: None,
            rank_of: Vec::new(),
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

    /// The overlay identity of `node`: the key of the raw value
    /// `node << RAW_SHIFT`. A node rejoins under the same key, which its
    /// departure took out of the overlay.
    fn overlay_key_for(node: GridNodeId) -> u64 {
        R::key_of(u64::from(node.0) << RAW_SHIFT)
    }

    /// The grid node whose overlay identity `key` is, for a key known to
    /// be a member's.
    fn grid_of(key: u64) -> GridNodeId {
        GridNodeId((R::raw_of(key) >> RAW_SHIFT) as u32)
    }

    /// The grid node `key` belongs to, if it is a member's current key.
    fn member_of(&self, key: u64) -> Option<GridNodeId> {
        let grid = Self::grid_of(key);
        (self.key_of(grid) == Some(key)).then_some(grid)
    }

    /// Is `node` in the overlay whose membership bits are `members`?
    fn is_member(members: &[u64], node: GridNodeId) -> bool {
        let i = node.0 as usize;
        members.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The overlay key of `node`, if it is a member.
    fn key_of(&self, node: GridNodeId) -> Option<u64> {
        Self::is_member(&self.members, node).then(|| Self::overlay_key_for(node))
    }

    fn set_member(&mut self, node: GridNodeId, member: bool) {
        let i = node.0 as usize;
        if i / 64 >= self.members.len() {
            self.members.resize(i / 64 + 1, 0);
        }
        let bit = 1 << (i % 64);
        if member {
            self.members[i / 64] |= bit;
        } else {
            self.members[i / 64] &= !bit;
        }
    }

    fn refresh_index(&mut self, nodes: &NodeTable) {
        self.router.stabilize();
        self.dirty = false;
        self.rank_of.clear();
        if self.router.is_empty() {
            self.index = None;
            return;
        }
        // The tree's ids are the substrate's live keys, every one a member's.
        // A refresh asks only for the joiners' capabilities, and each
        // rank's grid node is read off its key.
        let members = &self.members;
        let caps_of = |key| {
            let gid = Self::grid_of(key);
            debug_assert!(
                Self::is_member(members, gid) && Self::overlay_key_for(gid) == key,
                "{key:#x} is no member's"
            );
            *nodes.capabilities(gid)
        };
        let index = match &mut self.index {
            Some(index) => {
                index.refresh(&self.router, caps_of);
                index
            }
            None => self
                .index
                .insert(RnTreeIndex::build_with(&self.router, caps_of)),
        };
        self.rank_of.resize(nodes.len(), NOT_INDEXED);
        for (rank, &key) in index.tree().ids().iter().enumerate() {
            self.rank_of[Self::grid_of(key).0 as usize] = rank as u32;
        }
    }

    /// Load-aware owner placement: probe the mapped key *and* its failover
    /// peers, and keep the live candidate with the shallowest queue
    /// (`NodeTable::load_of`), each extra probe costing one hop. Ties keep
    /// the earliest candidate — the overlay's own preference order — so
    /// placement stays deterministic without consuming RNG draws. Falls
    /// back to the mapped key when no probe improves on it.
    fn place_load_aware(&self, nodes: &NodeTable, mapped: u64, hops: &mut u32) -> u64 {
        let mut best: Option<(usize, u64)> = None;
        for (i, key) in std::iter::once(mapped)
            .chain(self.router.failover_peers(mapped))
            .enumerate()
        {
            let Some(gid) = self.member_of(key) else {
                continue;
            };
            if !nodes.is_alive(gid) {
                continue;
            }
            if i > 0 {
                *hops += 1; // load probe of one failover peer
            }
            let load = nodes.load_of(gid);
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
        let key = Self::overlay_key_for(node);
        debug_assert!(
            !self.router.is_alive(key),
            "{node} joins under a key its departure freed"
        );
        self.router.join(key);
        self.set_member(node, true);
        self.dirty = true;
    }

    fn bootstrap(&mut self, nodes: &NodeTable, _rng: &mut SimRng) {
        // Same keys as on_join in ascending node order: `key_of` being a
        // bijection, distinct nodes' keys never collide. The substrate
        // defers routing-state construction to the first stabilize instead
        // of building tables once per join.
        debug_assert!(self.router.is_empty(), "bootstrap of a populated overlay");
        self.members = vec![0; nodes.len().div_ceil(64)];
        let keys: Vec<u64> = nodes
            .alive_ids()
            .map(|node| {
                self.set_member(node, true);
                Self::overlay_key_for(node)
            })
            .collect();
        self.router.bulk_join(&keys);
        self.dirty = true;
    }

    fn on_leave(&mut self, _nodes: &NodeTable, node: GridNodeId, graceful: bool) {
        let key = self.key_of(node).expect("leave of node never joined");
        self.set_member(node, false);
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
        // `on_join`, `bootstrap` and `on_leave` keep `key_of` equal to the
        // overlay's live membership, so a member's key is alive.
        let from = self.key_of(injection)?;
        debug_assert!(self.router.is_alive(from), "{injection} is not live");
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
        let grid = self.member_of(owner)?;
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
        let Some(owner_grid) = owner.peer().filter(|&g| self.key_of(g).is_some()) else {
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
        // Any membership change since the last refresh forces one here, so
        // the search never sees a tree that lags membership, and the owner,
        // a member, is in it.
        if self.dirty {
            self.refresh_index(nodes);
        }
        let index = self
            .index
            .as_ref()
            .expect("an overlay with a member is indexed");
        let owner_rank = self.rank_of[owner_grid.0 as usize];
        debug_assert_ne!(owner_rank, NOT_INDEXED, "{owner_grid} is not indexed");
        let res = index.find_candidate_ranks(owner_rank, &job.requirements, k);

        // Candidates replied with their current queue length; pick the
        // least loaded (fresh reads for contacted nodes only). The tree was
        // built after the last membership change, and the node table
        // marks a node dead exactly when `on_leave` removes it, so every
        // candidate is live.
        let hops = res.hops;
        let mut best: Option<(usize, GridNodeId)> = None;
        let mut ties = 0u32;
        for rank in res.candidates {
            let gid = Self::grid_of(index.tree().ids()[rank as usize]);
            debug_assert!(nodes.is_alive(gid), "{gid} is indexed but dead");
            let load = nodes.load_of(gid);
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
        let grid = self.member_of(owner_key)?;
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
            self.refresh_index(nodes);
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
        let gid = self.member_of(self.router.owner_of(guid)?)?;
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
        assert!(p.requirements.satisfied_by(nodes.capabilities(run)));
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

    /// The matchmaker's membership mirror and rank columns against the
    /// tree they were built beside: `key_of` names exactly the live grid
    /// nodes, `raw_of` inverts it on every member's key and a dead node's
    /// first key is no member's; after a refresh `rank_of` names the rank
    /// of each indexed grid node's key in `ids`, `NOT_INDEXED` everywhere
    /// else.
    fn columns_match_the_tree<R: KeyRouter>(mm: &RnTreeMatchmaker<R>, nodes: &NodeTable) {
        for g in (0..nodes.len() as u32).map(GridNodeId) {
            let key = mm.key_of(g);
            assert_eq!(key.is_some(), nodes.is_alive(g), "{g} membership");
            let Some(key) = key else {
                let own = RnTreeMatchmaker::<R>::overlay_key_for(g);
                assert_eq!(mm.member_of(own), None, "{g} left");
                continue;
            };
            assert_eq!(R::raw_of(key), u64::from(g.0) << RAW_SHIFT, "{g} key");
            assert_eq!(mm.member_of(key), Some(g), "{g} key");
        }
        assert!(!mm.dirty);
        let ids = mm
            .index
            .as_ref()
            .expect("a live grid is indexed")
            .tree()
            .ids();
        assert_eq!(ids.len(), nodes.alive_count());
        let mut rank_of = vec![NOT_INDEXED; nodes.len()];
        for (rank, &k) in ids.iter().enumerate() {
            let g = mm.member_of(k).expect("every indexed key is a member's");
            rank_of[g.0 as usize] = rank as u32;
        }
        assert_eq!(mm.rank_of, rank_of);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Each step picks a grid node: a live one fails or leaves (unless
        /// it is the last), a dead one rejoins; then the index is refreshed,
        /// through a maintenance tick or through a search.
        fn churn<R: KeyRouter>(steps: &[(u32, bool, bool)]) {
            let (mut mm, mut nodes, mut rng) = setup_on::<R>(40);
            columns_match_the_tree(&mm, &nodes);
            let p = job(JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, 1.5));
            for &(pick, graceful, by_search) in steps {
                let g = GridNodeId(pick % nodes.len() as u32);
                if !nodes.is_alive(g) {
                    nodes.mark_rejoined(g);
                    mm.on_join(&nodes, g, &mut rng);
                } else if nodes.alive_count() > 1 {
                    nodes.mark_failed(g);
                    mm.on_leave(&nodes, g, graceful);
                }
                if by_search {
                    let owner = nodes.alive_ids().next().expect("one node stays");
                    let out = mm.find_run_node(&nodes, OwnerRef::Peer(owner), &p, &mut rng);
                    assert!(out.run_node.is_none_or(|r| nodes.is_alive(r)));
                } else {
                    mm.tick(&nodes);
                }
                columns_match_the_tree(&mm, &nodes);
            }
        }

        proptest! {
            /// The matchmaker reads a key's grid node back through
            /// `raw_of`, so it must invert `key_of` on every substrate.
            #[test]
            fn raw_of_inverts_key_of_on_every_substrate(raw: u64) {
                prop_assert_eq!(ChordRing::raw_of(ChordRing::key_of(raw)), raw);
                prop_assert_eq!(PastryNetwork::raw_of(PastryNetwork::key_of(raw)), raw);
                prop_assert_eq!(TapestryNetwork::raw_of(TapestryNetwork::key_of(raw)), raw);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn rank_columns_follow_every_rebuild_through_churn(
                steps in proptest::collection::vec((any::<u32>(), any::<bool>(), any::<bool>()), 1..40),
            ) {
                churn::<ChordRing>(&steps);
                churn::<PastryNetwork>(&steps);
                churn::<TapestryNetwork>(&steps);
            }
        }
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
            assert!(p.requirements.satisfied_by(nodes.capabilities(run)));

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
