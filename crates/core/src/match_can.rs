//! CAN-based matchmaking (Sections 3.2–3.3).
//!
//! Nodes and jobs are embedded into a 4-dimensional CAN space: one dimension
//! per resource type plus the **virtual dimension** with uniformly random
//! coordinates, which breaks up clusters of identical nodes and spreads
//! identical jobs over multiple zones. A job routes to the zone containing
//! its requirement point; that zone's owner builds a candidate list from
//! itself and its zone neighbours, keeps those able to run the job, and
//! picks the approximately least-loaded candidate using load information
//! periodically exchanged between neighbours — i.e. deliberately **stale**
//! load readings, refreshed on the engine's maintenance tick.
//!
//! The paper words the candidate rule as neighbours "at least as capable as
//! the original owner in all dimensions, but more capable in at least one".
//! Read literally that excludes *equally* capable neighbours — yet spreading
//! load across stacks of identical nodes separated only by the virtual
//! dimension is the stated purpose of that dimension, so we use the
//! inclusive rule (all neighbours satisfying the job's constraints). When a
//! zone's owner cannot run the job and no neighbour can either, the job
//! climbs towards strictly-dominating neighbours until a capable region is
//! reached.
//!
//! The **improved** variant adds the paper's load-pushing extension: "a
//! fixed amount of current system load information is propagated along each
//! dimension", and a job landing in a loaded region is pushed into
//! less-loaded upper regions (farther from the origin) before matchmaking,
//! so the capable-but-idle nodes far from the origin absorb the
//! lightly-constrained jobs that would otherwise pile up on the origin
//! zone's owner.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dgrid_can::{CanConfig, CanNetwork, CanNodeId};
use dgrid_resources::{JobProfile, ResourceSpace, NUM_RESOURCE_DIMS};
use dgrid_sim::rng::{splitmix64, SimRng};
use dgrid_sim::telemetry::{NullHook, SharedHook};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::job::OwnerRef;
use crate::matchmaker::{MatchOutcome, Matchmaker};
use crate::node::{GridNodeId, NodeTable};

/// Tunables for the CAN matchmaker.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CanMmConfig {
    /// Use the virtual dimension (the paper's fix for identical nodes and
    /// jobs). Disabling it reproduces the basic scheme's pathology for the
    /// `A-virt` ablation: node coordinates collapse to a hash jitter and all
    /// identical jobs map to a single zone.
    pub virtual_dim: bool,
    /// Enable the improved load-pushing extension.
    pub push: bool,
    /// Push trigger: push while the current owner's cached load is at least
    /// this many jobs *and* a dominating neighbour's region is less loaded.
    pub push_threshold: f64,
    /// Maximum push hops per job.
    pub max_push_hops: u32,
    /// Maximum uphill steps while searching for a capable candidate.
    pub max_climb_hops: u32,
}

impl Default for CanMmConfig {
    fn default() -> Self {
        CanMmConfig {
            virtual_dim: true,
            push: false,
            push_threshold: 1.0,
            max_push_hops: 8,
            max_climb_hops: 32,
        }
    }
}

impl CanMmConfig {
    /// The improved (load-pushing) configuration.
    pub fn pushing() -> Self {
        CanMmConfig {
            push: true,
            ..CanMmConfig::default()
        }
    }
}

/// The Section 3.2 matchmaker.
pub struct CanMatchmaker {
    cfg: CanMmConfig,
    net: CanNetwork,
    space: ResourceSpace,
    can_of: HashMap<GridNodeId, CanNodeId>,
    grid_of: HashMap<CanNodeId, GridNodeId>,
    /// Stale per-node load snapshot, refreshed on the maintenance tick —
    /// the "load information periodically exchanged between neighboring
    /// nodes".
    /// Placements made since the last exchange bump the sender's view
    /// immediately (optimistic local bookkeeping); neighbourhood pressure
    /// derived from this cache is the "fixed amount of current system load
    /// information" the push extension consults.
    load_cache: HashMap<CanNodeId, f64>,
    lookup_retries: u64,
    hook: SharedHook,
}

const DIMS: usize = NUM_RESOURCE_DIMS + 1; // resources + virtual

/// Failover budget for CAN routes: how many neighbor detours a failed route
/// may take before the caller's own retry/backoff machinery takes over.
const ROUTE_FAILOVER_RETRIES: u32 = 2;

/// Frontier entry for the deficit-ordered run-node search: a min-heap on
/// `(deficit, id)` via reversed `Ord`.
#[derive(PartialEq)]
struct FrontierEntry {
    deficit: f64,
    id: CanNodeId,
}

impl Eq for FrontierEntry {}

impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: std's BinaryHeap is a max-heap, we want smallest deficit.
        other
            .deficit
            .partial_cmp(&self.deficit)
            .expect("deficits are finite")
            .then(other.id.cmp(&self.id))
    }
}

/// CAN coordinates live in the half-open `[0, 1)`; a capability at the very
/// top of its range normalizes to exactly 1.0 and must be nudged inside.
fn clamp_open(mut p: [f64; DIMS]) -> [f64; DIMS] {
    for x in &mut p {
        *x = x.clamp(0.0, 1.0 - 1e-12);
    }
    p
}

impl CanMatchmaker {
    /// An empty matchmaker over the given resource ranges.
    pub fn new(cfg: CanMmConfig, space: ResourceSpace) -> Self {
        CanMatchmaker {
            cfg,
            net: CanNetwork::new(CanConfig {
                dims: DIMS,
                ..CanConfig::default()
            }),
            space,
            can_of: HashMap::new(),
            grid_of: HashMap::new(),
            load_cache: HashMap::new(),
            lookup_retries: 0,
            hook: Rc::new(RefCell::new(NullHook)),
        }
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

    /// Basic CAN matchmaking with default desktop ranges.
    pub fn with_defaults() -> Self {
        Self::new(CanMmConfig::default(), ResourceSpace::default_desktop())
    }

    /// Improved CAN matchmaking (load pushing) with default ranges.
    pub fn with_push() -> Self {
        Self::new(CanMmConfig::pushing(), ResourceSpace::default_desktop())
    }

    fn node_point(&self, nodes: &NodeTable, node: GridNodeId, rng: &mut SimRng) -> [f64; DIMS] {
        let caps = *nodes.capabilities(node);
        let base = self.space.node_point(&caps);
        let vcoord = if self.cfg.virtual_dim {
            rng.gen::<f64>()
        } else {
            // Without the virtual dimension identical nodes would make the
            // zone-split degenerate; a hash jitter of ≤ 0.1% keeps the
            // geometry valid while preserving the clustering pathology.
            (splitmix64(u64::from(node.0)) % 1_000_000) as f64 / 1e6 * 1e-3
        };
        clamp_open([base[0], base[1], base[2], vcoord])
    }

    fn job_point(&self, job: &JobProfile, guid: u64) -> [f64; DIMS] {
        let base = self.space.job_point(&job.requirements);
        let vcoord = if self.cfg.virtual_dim {
            (splitmix64(guid) % (1 << 52)) as f64 / (1u64 << 52) as f64
        } else {
            0.5
        };
        clamp_open([base[0], base[1], base[2], vcoord])
    }

    fn cached_load(&self, id: CanNodeId) -> f64 {
        self.load_cache.get(&id).copied().unwrap_or(0.0)
    }

    /// Neighbours of `cur` at least as capable in every dimension.
    ///
    /// With the virtual dimension, *identical* nodes sit in adjacent zones
    /// along the virtual axis; including equals in the candidate list is
    /// what lets "the randomly assigned node and job coordinates act to
    /// break up clusters and spread load more evenly over nodes"
    /// (Section 3.2) — a strict-dominance reading would make identical
    /// neighbours invisible to each other and re-create the pile-up the
    /// virtual dimension exists to fix.
    fn capable_neighbors(&self, nodes: &NodeTable, cur: CanNodeId, strict: bool) -> Vec<CanNodeId> {
        let cur_grid = self.grid_of[&cur];
        let cur_caps = *nodes.capabilities(cur_grid);
        self.net
            .neighbors(cur)
            .iter()
            .copied()
            .filter(|n| {
                let Some(&g) = self.grid_of.get(n) else {
                    return false;
                };
                if !nodes.is_alive(g) {
                    return false;
                }
                let caps = *nodes.capabilities(g);
                if strict {
                    caps.strictly_dominates(&cur_caps)
                } else {
                    caps.dominates_or_equals(&cur_caps)
                }
            })
            .collect()
    }

    /// How far a node's capabilities fall short of a job's requirements, in
    /// normalized coordinate units (0 means the node satisfies the job; an
    /// unacceptable OS adds a unit penalty).
    fn requirement_deficit(&self, nodes: &NodeTable, id: CanNodeId, job: &JobProfile) -> f64 {
        let g = self.grid_of[&id];
        let caps = *nodes.capabilities(g);
        let cap_pt = self.space.node_point(&caps);
        let req_pt = self.space.job_point(&job.requirements);
        let mut deficit = 0.0;
        for d in 0..NUM_RESOURCE_DIMS {
            deficit += (req_pt[d] - cap_pt[d]).max(0.0);
        }
        if !job.requirements.os.accepts(caps.os) {
            deficit += 1.0;
        }
        deficit
    }

    /// Local placement pressure around `at` for this job: the smallest
    /// believed load among `at` and its neighbours that can run the job
    /// (`+∞` when none can). Low pressure means the region has a free
    /// capable node; high pressure means a pile-up is forming here.
    fn local_pressure(&self, nodes: &NodeTable, at: CanNodeId, job: &JobProfile) -> f64 {
        std::iter::once(at)
            .chain(self.net.neighbors(at).iter().copied())
            .filter(|c| {
                self.grid_of.get(c).is_some_and(|&g| {
                    nodes.is_alive(g) && job.requirements.satisfied_by(nodes.capabilities(g))
                })
            })
            .map(|c| self.cached_load(c))
            .fold(f64::INFINITY, f64::min)
    }

    /// The improved scheme: before matchmaking, push the job out of loaded
    /// regions towards less-pressured dominating regions "farther from the
    /// origin", so capable-but-idle nodes absorb jobs that would otherwise
    /// pile up where the requirement point lands. Returns the new owner and
    /// hops spent.
    fn push_job(&self, nodes: &NodeTable, start: CanNodeId, job: &JobProfile) -> (CanNodeId, u32) {
        let mut cur = start;
        let mut hops = 0u32;
        while hops < self.cfg.max_push_hops {
            let here = self.local_pressure(nodes, cur, job);
            if here < self.cfg.push_threshold {
                break; // a capable node nearby is free enough: place here
            }
            // Move towards an at-least-as-capable neighbouring region with
            // strictly lower pressure.
            let next = self
                .capable_neighbors(nodes, cur, false)
                .into_iter()
                .map(|n| (self.local_pressure(nodes, n, job), n))
                .filter(|(p, _)| *p < here)
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            match next {
                Some((_, n)) => {
                    cur = n;
                    hops += 1;
                }
                None => break,
            }
        }
        (cur, hops)
    }
}

impl Matchmaker for CanMatchmaker {
    fn name(&self) -> &'static str {
        if self.cfg.push {
            "can-push"
        } else if self.cfg.virtual_dim {
            "can"
        } else {
            "can-novirt"
        }
    }

    fn on_join(&mut self, nodes: &NodeTable, node: GridNodeId, rng: &mut SimRng) {
        let p = self.node_point(nodes, node, rng);
        let cid = self.net.join(&p);
        self.can_of.insert(node, cid);
        self.grid_of.insert(cid, node);
    }

    fn on_leave(&mut self, _nodes: &NodeTable, node: GridNodeId, graceful: bool) {
        let cid = self
            .can_of
            .remove(&node)
            .expect("leave of node never joined");
        self.grid_of.remove(&cid);
        self.load_cache.remove(&cid);
        if graceful {
            self.net.leave(cid);
        } else {
            self.net.fail(cid);
        }
    }

    fn assign_owner(
        &mut self,
        nodes: &NodeTable,
        job: &JobProfile,
        guid: u64,
        injection: GridNodeId,
        _rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        let entry = *self.can_of.get(&injection)?;
        let point = self.job_point(job, guid);
        let (route, retries) =
            self.net
                .route_with_failover(entry, &point, ROUTE_FAILOVER_RETRIES)?;
        self.lookup_retries += u64::from(retries);
        let mut owner = route.owner;
        let mut hops = route.hops;
        if self.cfg.push {
            let (pushed, push_hops) = self.push_job(nodes, owner, job);
            owner = pushed;
            hops += push_hops;
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
        let Some(&mut_start) = self.can_of.get(&owner_grid) else {
            return MatchOutcome {
                run_node: None,
                hops: 0,
            };
        };
        // Best-first expansion over the zone-neighbour graph, ordered by
        // requirement deficit. At each expanded node the candidate set is
        // the node plus its zone neighbours; the satisfaction filter keeps
        // exactly the candidates able to run the job ("the first criterion
        // in finding a match is whether the job constraints can be met",
        // Section 2) and the approximately least-loaded one wins. The
        // deficit ordering realizes the paper's "search for the closest
        // node whose coordinates in all dimensions meet or exceed the job's
        // requirements": the search heads straight for the capable corner
        // of the space, while the frontier lets it escape regions with no
        // gradient (e.g. an operating-system requirement, which the
        // coordinate geometry cannot express). Each expansion is one
        // forwarding hop; the expansion budget bounds matchmaking cost.
        use std::collections::BinaryHeap;
        let mut visited: std::collections::BTreeSet<CanNodeId> = std::collections::BTreeSet::new();
        let mut frontier: BinaryHeap<FrontierEntry> = BinaryHeap::new();
        let start_deficit = self.requirement_deficit(nodes, mut_start, job);
        frontier.push(FrontierEntry {
            deficit: start_deficit,
            id: mut_start,
        });
        visited.insert(mut_start);
        let mut hops = 0u32;
        let mut expansions = 0u32;

        while let Some(FrontierEntry { id: cur, .. }) = frontier.pop() {
            if expansions > self.cfg.max_climb_hops {
                break;
            }
            if expansions > 0 {
                hops += 1; // forwarding the search to the next region
            }
            expansions += 1;

            let mut candidates: Vec<CanNodeId> = self.net.neighbors(cur).iter().copied().collect();
            candidates.push(cur);

            // Among candidates able to run the job, pick the least loaded
            // (stale cached loads; random tie-break).
            let mut best: Option<(f64, CanNodeId)> = None;
            let mut ties = 0u32;
            for c in candidates.iter().copied() {
                let Some(&g) = self.grid_of.get(&c) else {
                    continue;
                };
                if !nodes.is_alive(g) || !job.requirements.satisfied_by(nodes.capabilities(g)) {
                    continue;
                }
                let load = self.cached_load(c);
                match best {
                    None => {
                        best = Some((load, c));
                        ties = 1;
                    }
                    Some((b, _)) if load < b => {
                        best = Some((load, c));
                        ties = 1;
                    }
                    Some((b, _)) if load == b => {
                        ties += 1;
                        if rng.gen_range(0..ties) == 0 {
                            best = Some((load, c));
                        }
                    }
                    _ => {}
                }
            }
            if let Some((_, c)) = best {
                // Optimistic local bookkeeping: the placing owner knows it
                // just handed this candidate a job, so its view of that
                // candidate's load rises immediately even though the global
                // exchange only refreshes on the maintenance tick. Without
                // this, a burst of identical jobs inside one exchange period
                // would all pick the same "least-loaded" victim.
                *self.load_cache.entry(c).or_insert(0.0) += 1.0;
                self.report_lookup(hops + 1, 0);
                return MatchOutcome {
                    run_node: Some(self.grid_of[&c]),
                    hops: hops + 1, // job transfer to the chosen node
                };
            }

            for n in self.net.neighbors(cur).iter().copied() {
                if visited.insert(n) && self.grid_of.get(&n).is_some_and(|&g| nodes.is_alive(g)) {
                    frontier.push(FrontierEntry {
                        deficit: self.requirement_deficit(nodes, n, job),
                        id: n,
                    });
                }
            }
        }
        self.report_lookup(hops, 0);
        MatchOutcome {
            run_node: None,
            hops,
        }
    }

    fn reassign_owner(
        &mut self,
        nodes: &NodeTable,
        job: &JobProfile,
        guid: u64,
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        // Re-route the job point from a random live entry: the zone that
        // now contains the point has a (new) owner after takeover.
        let entry = self.net.random_node(rng)?;
        let point = self.job_point(job, guid);
        let (route, retries) =
            self.net
                .route_with_failover(entry, &point, ROUTE_FAILOVER_RETRIES)?;
        self.lookup_retries += u64::from(retries);
        let grid = *self.grid_of.get(&route.owner)?;
        if !nodes.is_alive(grid) {
            return None;
        }
        self.report_lookup(route.hops, retries);
        Some((OwnerRef::Peer(grid), route.hops))
    }

    fn tick(&mut self, nodes: &NodeTable) {
        // Periodic neighbour load exchange: refresh the stale caches.
        self.load_cache.clear();
        for id in self.net.alive_ids() {
            if let Some(&g) = self.grid_of.get(&id) {
                self.load_cache.insert(id, nodes.load_of(g) as f64);
            }
        }
    }

    fn resolve_guid(&mut self, _nodes: &NodeTable, guid: u64, rng: &mut SimRng) -> Option<u32> {
        // Result pointers hash to a point in the space; resolving is one
        // CAN route from the resolver's position.
        let entry = self.net.random_node(rng)?;
        let h = splitmix64(guid);
        let point: Vec<f64> = (0..DIMS)
            .map(|i| ((h >> (i * 13)) & 0xFFFF) as f64 / 65536.0)
            .collect();
        let (route, retries) =
            self.net
                .route_with_failover(entry, &point, ROUTE_FAILOVER_RETRIES)?;
        self.lookup_retries += u64::from(retries);
        self.report_lookup(route.hops, retries);
        Some(route.hops)
    }

    fn take_lookup_retries(&mut self) -> u64 {
        std::mem::take(&mut self.lookup_retries)
    }

    fn set_telemetry_hook(&mut self, hook: SharedHook) {
        self.hook = hook;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeTable;
    use dgrid_resources::{
        Capabilities, ClientId, JobId, JobProfile, JobRequirements, NodeProfile, OsType,
        ResourceKind,
    };
    use dgrid_sim::rng::rng_for;

    fn setup(cfg: CanMmConfig, n: usize) -> (CanMatchmaker, NodeTable, SimRng) {
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
        let nodes = NodeTable::new(profiles);
        let mut rng = rng_for(13, 13);
        let mut mm = CanMatchmaker::new(cfg, ResourceSpace::default_desktop());
        for id in nodes.alive_ids() {
            mm.on_join(&nodes, id, &mut rng);
        }
        mm.tick(&nodes);
        (mm, nodes, rng)
    }

    fn job(req: JobRequirements, id: u64) -> JobProfile {
        JobProfile::new(JobId(id), ClientId(0), req, 10.0)
    }

    #[test]
    fn owner_routing_uses_few_hops() {
        let (mut mm, nodes, mut rng) = setup(CanMmConfig::default(), 64);
        let p = job(JobRequirements::unconstrained(), 1);
        for inj in nodes.alive_ids().take(8) {
            let (owner, hops) = mm.assign_owner(&nodes, &p, 555, inj, &mut rng).unwrap();
            assert!(nodes.is_alive(owner.peer().unwrap()));
            assert!(hops <= 30, "CAN routing in a 64-node 4-d space, got {hops}");
        }
    }

    #[test]
    fn virtual_dimension_spreads_identical_jobs() {
        let (mut mm, nodes, mut rng) = setup(CanMmConfig::default(), 64);
        let inj = nodes.alive_ids().next().unwrap();
        // Identical requirements, different GUIDs: distinct owners.
        let owners: std::collections::HashSet<_> = (0..32u64)
            .map(|g| {
                let p = job(JobRequirements::unconstrained(), g);
                mm.assign_owner(&nodes, &p, g.wrapping_mul(0x9E37), inj, &mut rng)
                    .unwrap()
                    .0
            })
            .collect();
        assert!(
            owners.len() >= 4,
            "virtual coords must spread owners, got {}",
            owners.len()
        );
    }

    #[test]
    fn without_virtual_dimension_identical_jobs_collapse() {
        let cfg = CanMmConfig {
            virtual_dim: false,
            ..CanMmConfig::default()
        };
        let (mut mm, nodes, mut rng) = setup(cfg, 64);
        let inj = nodes.alive_ids().next().unwrap();
        let owners: std::collections::HashSet<_> = (0..32u64)
            .map(|g| {
                let p = job(JobRequirements::unconstrained(), g);
                mm.assign_owner(&nodes, &p, g.wrapping_mul(0x9E37), inj, &mut rng)
                    .unwrap()
                    .0
            })
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "all identical jobs land on the origin-zone owner"
        );
    }

    #[test]
    fn match_respects_constraints_via_deficit_search() {
        let (mut mm, nodes, mut rng) = setup(CanMmConfig::default(), 64);
        let p = job(
            JobRequirements::unconstrained()
                .with_min(ResourceKind::CpuSpeed, 3.0)
                .with_min(ResourceKind::Memory, 4.0),
            3,
        );
        let inj = nodes.alive_ids().next().unwrap();
        let (owner, _) = mm.assign_owner(&nodes, &p, 77, inj, &mut rng).unwrap();
        let out = mm.find_run_node(&nodes, owner, &p, &mut rng);
        let run = out.run_node.expect("strong nodes exist in the population");
        assert!(p.requirements.satisfied_by(nodes.capabilities(run)));
    }

    #[test]
    fn placement_updates_the_senders_load_view() {
        let (mut mm, nodes, mut rng) = setup(CanMmConfig::default(), 16);
        let p = job(JobRequirements::unconstrained(), 4);
        let inj = nodes.alive_ids().next().unwrap();
        let (owner, _) = mm.assign_owner(&nodes, &p, 88, inj, &mut rng).unwrap();
        // Repeated matches from the same owner must not all pick the same
        // node even though the NodeTable never changes (optimistic cache).
        let picks: std::collections::HashSet<_> = (0..8)
            .map(|_| {
                mm.find_run_node(&nodes, owner, &p, &mut rng)
                    .run_node
                    .unwrap()
            })
            .collect();
        assert!(
            picks.len() >= 2,
            "optimistic increments must rotate placements"
        );
    }

    #[test]
    fn leave_removes_node_from_space() {
        let (mut mm, mut nodes, mut rng) = setup(CanMmConfig::default(), 16);
        let victim = nodes.alive_ids().nth(3).unwrap();
        nodes.mark_failed(victim);
        mm.on_leave(&nodes, victim, true);
        let p = job(JobRequirements::unconstrained(), 5);
        for _ in 0..16 {
            let inj = nodes.alive_ids().next().unwrap();
            let (owner, _) = mm
                .assign_owner(&nodes, &p, rng.gen(), inj, &mut rng)
                .unwrap();
            assert_ne!(owner.peer(), Some(victim));
            let run = mm
                .find_run_node(&nodes, owner, &p, &mut rng)
                .run_node
                .unwrap();
            assert_ne!(run, victim);
        }
    }

    #[test]
    fn guid_resolution_costs_route_hops() {
        let (mut mm, nodes, mut rng) = setup(CanMmConfig::default(), 64);
        let hops = mm.resolve_guid(&nodes, 4242, &mut rng).unwrap();
        assert!(hops <= 30);
    }
}
