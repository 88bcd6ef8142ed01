//! The centralized baseline matchmaker.
//!
//! "To see how well the workload could be balanced, we also show results for
//! a centralized scheme that uses knowledge of the status of all nodes and
//! jobs. Such a scheme would be very expensive to implement in a
//! decentralized P2P system, but serves as a target for achieving the best
//! possible load balance from an online matchmaking algorithm."
//! (Section 3.3.)
//!
//! The owner role is played by the reliable central server (which, per the
//! client-server model of Section 1, persists job state and never fails);
//! matchmaking reads fresh global state and picks the capable node with the
//! least committed work. Matchmaking cost is zero overlay hops — that is
//! precisely the advantage being bought with the single point of failure.

use dgrid_resources::{JobProfile, JobRequirements, NUM_RESOURCE_DIMS};
use dgrid_sim::rng::SimRng;
use rand::Rng;

use crate::job::OwnerRef;
use crate::matchmaker::{MatchOutcome, Matchmaker};
use crate::node::{GridNodeId, NodeTable};

/// Omniscient online scheduler used as the paper's load-balance target.
///
/// It keeps a struct-of-arrays projection of the node table, so that
/// [`Matchmaker::find_run_node`] is array work: the capabilities, which
/// never change after the table is built, and each node's committed work,
/// which does. Both are filled by [`Matchmaker::bootstrap`] (or on first
/// use, for a matchmaker handed a table without one).
#[derive(Debug, Default)]
pub struct CentralizedMatchmaker {
    /// One dense column per resource dimension, in `ResourceKind::index`
    /// order.
    caps: [Vec<f64>; NUM_RESOURCE_DIMS],
    /// `profile.os.bit()` per node.
    os: Vec<u8>,
    /// Each node's `committed_work_secs()` as of `summed_at`. An entry is
    /// only ever the record's own front-to-back sum, taken afresh when the
    /// scan meets a node whose queue version has moved — never adjusted by
    /// the runtime that came or went, because f64 addition does not
    /// associate and the tie-break below tests exact equality.
    committed: Vec<f64>,
    /// The node's `NodeTable::queue_versions` entry when `committed` was
    /// last summed.
    summed_at: Vec<u32>,
}

impl CentralizedMatchmaker {
    /// Create the baseline scheduler.
    pub fn new() -> Self {
        CentralizedMatchmaker::default()
    }

    fn project(&mut self, nodes: &NodeTable) {
        *self = CentralizedMatchmaker::default();
        for id in 0..nodes.len() as u32 {
            let node = nodes.get(GridNodeId(id));
            let caps = node.profile.capabilities;
            for (column, value) in self.caps.iter_mut().zip(caps.values()) {
                column.push(value);
            }
            self.os.push(caps.os.bit());
            self.committed.push(node.committed_work_secs());
        }
        self.summed_at = nodes.queue_versions().to_vec();
    }

    /// Which of the `candidates` (a word of the node table's bitsets, for
    /// the 64 nodes starting at `base`) meet `floor`. One pass over the set
    /// bits with no branch on the outcome of a comparison.
    fn capable(&self, base: usize, mut candidates: u64, floor: &Floor) -> u64 {
        let mut capable = 0u64;
        while candidates != 0 {
            let bit = candidates.trailing_zeros();
            candidates &= candidates - 1;
            let i = base + bit as usize;
            let mut ok = self.os[i] & floor.os != 0;
            for (column, min) in self.caps.iter().zip(floor.mins) {
                ok &= column[i] >= min;
            }
            capable |= u64::from(ok) << bit;
        }
        capable
    }
}

/// A job's requirements in the form the columns are compared against.
struct Floor {
    /// Per dimension; an unconstrained one is `-inf`, which every
    /// capability meets.
    mins: [f64; NUM_RESOURCE_DIMS],
    /// `OsRequirement::bits` of the operating systems the job accepts.
    os: u8,
}

impl Floor {
    fn of(req: &JobRequirements) -> Self {
        Floor {
            mins: req.mins().map(|min| min.unwrap_or(f64::NEG_INFINITY)),
            os: req.os.bits(),
        }
    }
}

impl Matchmaker for CentralizedMatchmaker {
    fn name(&self) -> &'static str {
        "central"
    }

    fn on_join(&mut self, _nodes: &NodeTable, _node: GridNodeId, _rng: &mut SimRng) {}

    fn bootstrap(&mut self, nodes: &NodeTable, _rng: &mut SimRng) {
        self.project(nodes);
    }

    fn on_leave(&mut self, _nodes: &NodeTable, _node: GridNodeId, _graceful: bool) {}

    fn assign_owner(
        &mut self,
        _nodes: &NodeTable,
        _job: &JobProfile,
        _guid: u64,
        _injection: GridNodeId,
        _rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        Some((OwnerRef::Server, 0))
    }

    fn find_run_node(
        &mut self,
        nodes: &NodeTable,
        _owner: OwnerRef,
        job: &JobProfile,
        rng: &mut SimRng,
    ) -> MatchOutcome {
        // Least committed work among capable nodes; random tie-break so
        // identical idle nodes share load evenly. Committed work is queued
        // runtimes plus the running job's *full* runtime: independent of
        // the current instant, and a slight overestimate applied to every
        // node alike, so the ordering is fair.
        //
        // The table is walked a word of 64 nodes at a time, ascending, so
        // candidates meet the tie-break in the order a node-by-node scan
        // would present them and the RNG is drawn exactly as often.
        if self.os.len() != nodes.len() {
            self.project(nodes);
        }
        let floor = Floor::of(&job.requirements);
        let versions = nodes.queue_versions();
        let idle = nodes.idle_words();
        let mut best: Option<(f64, GridNodeId)> = None;
        let mut ties = 0u32;
        for (w, &alive) in nodes.alive_words().iter().enumerate() {
            // Every queued runtime is positive, so a busy node's committed
            // work is too: once an idle node leads at exactly 0.0, no busy
            // node can beat or tie it, and only idle ones still matter.
            let candidates = if best.is_some_and(|(b, _)| b == 0.0) {
                alive & idle[w]
            } else {
                alive
            };
            if candidates == 0 {
                continue;
            }
            let mut word = self.capable(w * 64, candidates, &floor);
            while word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let id = GridNodeId(slot as u32);
                if self.summed_at[slot] != versions[slot] {
                    self.committed[slot] = nodes.get(id).committed_work_secs();
                    self.summed_at[slot] = versions[slot];
                }
                let work = self.committed[slot];
                // What the idle-only narrowing above rests on.
                debug_assert!(
                    nodes.load_of(id) == 0 || work > 0.0,
                    "{id} holds jobs worth {work} s"
                );
                match best {
                    None => {
                        best = Some((work, id));
                        ties = 1;
                    }
                    Some((b, _)) if work < b => {
                        best = Some((work, id));
                        ties = 1;
                    }
                    Some((b, _)) if work == b => {
                        ties += 1;
                        if rng.gen_range(0..ties) == 0 {
                            best = Some((work, id));
                        }
                    }
                    _ => {}
                }
            }
        }
        // The columns are this table's: a matchmaker carried over to
        // another table without a `bootstrap` would fail here.
        debug_assert!(best.is_none_or(|(work, id)| {
            let node = nodes.get(id);
            job.requirements.satisfied_by(&node.profile.capabilities)
                && work.to_bits() == node.committed_work_secs().to_bits()
        }));
        MatchOutcome {
            run_node: best.map(|(_, id)| id),
            hops: 0,
        }
    }

    fn reassign_owner(
        &mut self,
        _nodes: &NodeTable,
        _job: &JobProfile,
        _guid: u64,
        _rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        Some((OwnerRef::Server, 0))
    }

    fn tick(&mut self, _nodes: &NodeTable) {}

    fn resolve_guid(&mut self, _nodes: &NodeTable, _guid: u64, _rng: &mut SimRng) -> Option<u32> {
        Some(0) // the server is the directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeTable, QueuedJob};
    use dgrid_resources::{
        Capabilities, ClientId, JobId, JobProfile, JobRequirements, NodeProfile, OsRequirement,
        OsType, ResourceKind,
    };
    use dgrid_sim::rng::rng_for;
    use dgrid_sim::SimTime;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The scan [`CentralizedMatchmaker::find_run_node`] must reproduce, node
    /// for node and RNG draw for RNG draw: every live node in ascending id
    /// order, its capabilities tested and its queue re-summed on the spot.
    fn reference_scan(nodes: &NodeTable, job: &JobProfile, rng: &mut SimRng) -> Option<GridNodeId> {
        let mut best: Option<(f64, GridNodeId)> = None;
        let mut ties = 0u32;
        for id in nodes.alive_ids() {
            let n = nodes.get(id);
            if !job.requirements.satisfied_by(&n.profile.capabilities) {
                continue;
            }
            let work = n.committed_work_secs();
            match best {
                None => {
                    best = Some((work, id));
                    ties = 1;
                }
                Some((b, _)) if work < b => {
                    best = Some((work, id));
                    ties = 1;
                }
                Some((b, _)) if work == b => {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = Some((work, id));
                    }
                }
                _ => {}
            }
        }
        best.map(|(_, id)| id)
    }

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

    #[test]
    fn owner_is_always_the_server() {
        let mut mm = CentralizedMatchmaker::new();
        let nodes = table();
        let mut rng = rng_for(1, 1);
        let p = job(JobRequirements::unconstrained());
        let (owner, hops) = mm
            .assign_owner(&nodes, &p, 42, GridNodeId(0), &mut rng)
            .unwrap();
        assert_eq!(owner, OwnerRef::Server);
        assert_eq!(hops, 0);
        assert_eq!(
            mm.reassign_owner(&nodes, &p, 42, &mut rng),
            Some((OwnerRef::Server, 0))
        );
    }

    #[test]
    fn picks_only_capable_nodes() {
        let mut mm = CentralizedMatchmaker::new();
        let nodes = table();
        let mut rng = rng_for(2, 1);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::Memory, 5.0));
        let out = mm.find_run_node(&nodes, OwnerRef::Server, &p, &mut rng);
        assert_eq!(
            out.run_node,
            Some(GridNodeId(2)),
            "only the 8 GiB node qualifies"
        );
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn no_capable_node_means_no_match() {
        let mut mm = CentralizedMatchmaker::new();
        let nodes = table();
        let mut rng = rng_for(3, 1);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::CpuSpeed, 100.0));
        let out = mm.find_run_node(&nodes, OwnerRef::Server, &p, &mut rng);
        assert_eq!(out.run_node, None);
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let mut mm = CentralizedMatchmaker::new();
        let mut nodes = table();
        nodes.mark_failed(GridNodeId(2));
        let mut rng = rng_for(4, 1);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::Memory, 5.0));
        let out = mm.find_run_node(&nodes, OwnerRef::Server, &p, &mut rng);
        assert_eq!(out.run_node, None, "the only capable node is down");
    }

    #[test]
    fn idle_ties_are_spread_randomly() {
        let mut mm = CentralizedMatchmaker::new();
        let nodes = table();
        let mut rng = rng_for(5, 1);
        let p = job(JobRequirements::unconstrained());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(
                mm.find_run_node(&nodes, OwnerRef::Server, &p, &mut rng)
                    .run_node,
            );
        }
        assert!(
            seen.len() >= 2,
            "tie-breaking must not always pick the same node"
        );
    }

    #[test]
    fn guid_resolution_is_free() {
        let mut mm = CentralizedMatchmaker::new();
        let nodes = table();
        let mut rng = rng_for(6, 1);
        assert_eq!(mm.resolve_guid(&nodes, 7, &mut rng), Some(0));
    }

    #[test]
    fn bootstrap_replaces_the_columns_of_an_earlier_table() {
        let mut mm = CentralizedMatchmaker::new();
        let mut rng = rng_for(7, 1);
        let p = job(JobRequirements::unconstrained().with_min(ResourceKind::Memory, 5.0));
        let first = table();
        mm.bootstrap(&first, &mut rng);
        let out = mm.find_run_node(&first, OwnerRef::Server, &p, &mut rng);
        assert_eq!(out.run_node, Some(GridNodeId(2)));
        // Same size, the big node elsewhere and already busy.
        let mut second = NodeTable::new(vec![
            NodeProfile::new(Capabilities::new(3.0, 8.0, 400.0, OsType::Windows)),
            NodeProfile::new(Capabilities::new(3.0, 8.0, 400.0, OsType::Linux)),
            NodeProfile::new(Capabilities::new(1.0, 1.0, 10.0, OsType::Linux)),
        ]);
        let running = QueuedJob {
            job: JobId(9),
            runtime_secs: 5.0,
            epoch: 0,
        };
        second.set_running(GridNodeId(1), running, SimTime::from_secs(5));
        mm.bootstrap(&second, &mut rng);
        let out = mm.find_run_node(&second, OwnerRef::Server, &p, &mut rng);
        assert_eq!(out.run_node, Some(GridNodeId(0)), "the idle 8 GiB node");
    }

    /// A table of `size` nodes drawn from a small palette of capabilities
    /// and operating systems, so requirements split it unevenly.
    fn mixed_table(size: usize, seed: u64) -> NodeTable {
        let mut rng = rng_for(seed, 1);
        let profiles = (0..size)
            .map(|_| {
                NodeProfile::new(Capabilities::new(
                    [1.0, 2.0, 3.0][rng.gen_range(0..3)],
                    [1.0, 4.0, 8.0][rng.gen_range(0..3)],
                    [10.0, 100.0, 400.0][rng.gen_range(0..3)],
                    OsType::ALL[rng.gen_range(0..4)],
                ))
            })
            .collect();
        NodeTable::new(profiles)
    }

    /// One requirement set per `kind`: nothing, an OS subset only, a
    /// minimum no node meets, minimums some nodes meet, and both.
    fn requirements(kind: u32, pick: u32) -> JobRequirements {
        let any = JobRequirements::unconstrained();
        let os = OsRequirement::any_of(match pick % 3 {
            0 => &[OsType::Linux],
            1 => &[OsType::Windows, OsType::Solaris],
            _ => &[OsType::MacOs, OsType::Linux, OsType::Solaris],
        });
        let mins = any
            .with_min(ResourceKind::CpuSpeed, [0.0, 2.0, 3.0][pick as usize % 3])
            .with_min(
                ResourceKind::Disk,
                [10.0, 100.0, 400.5][pick as usize / 3 % 3],
            );
        match kind % 5 {
            0 => any,
            1 => any.with_os(os),
            2 => any.with_min(ResourceKind::Memory, 64.0),
            3 => mins,
            _ => mins.with_os(os),
        }
    }

    /// The column scan and the reference scan, from identical RNG states:
    /// same node, and the same RNG state afterwards.
    fn assert_scans_agree(
        mm: &mut CentralizedMatchmaker,
        nodes: &NodeTable,
        req: JobRequirements,
        rng_seed: u64,
    ) -> Result<(), TestCaseError> {
        let p = job(req);
        let (mut fast_rng, mut ref_rng) = (rng_for(rng_seed, 2), rng_for(rng_seed, 2));
        let fast = mm.find_run_node(nodes, OwnerRef::Server, &p, &mut fast_rng);
        let reference = reference_scan(nodes, &p, &mut ref_rng);
        prop_assert_eq!(fast.run_node, reference, "requirements {:?}", req);
        prop_assert_eq!(
            fast_rng.next_u64(),
            ref_rng.next_u64(),
            "RNG draws diverged"
        );
        // Every cached sum that claims to be current is the record's own.
        for slot in 0..nodes.len() {
            if mm.summed_at[slot] == nodes.queue_versions()[slot] {
                let fresh = nodes.get(GridNodeId(slot as u32)).committed_work_secs();
                prop_assert_eq!(mm.committed[slot].to_bits(), fresh.to_bits());
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Differential: over random tables whose sizes straddle the 64-
        /// and 128-node word boundaries, random enqueue/start/finish/fail/
        /// rejoin/checkout histories with runtimes in tenths (so equal
        /// sums are common and order-sensitive), and every kind of
        /// requirement, the column scan picks the node the reference scan
        /// picks and draws the RNG as often — also once every live node is
        /// busy, and once every node is dead.
        #[test]
        fn column_scan_matches_the_reference_scan(
            size in prop_oneof![
                Just(1usize), Just(63), Just(64), Just(65),
                Just(127), Just(128), Just(129), Just(200)
            ],
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..10, 0u32..200, 0u32..45), 0..250),
        ) {
            let mut nodes = mixed_table(size, seed);
            let mut mm = CentralizedMatchmaker::new();
            let mut next_job = 0u64;
            let mut qj = |pick: u32| {
                next_job += 1;
                QueuedJob {
                    job: JobId(next_job),
                    runtime_secs: 0.1 * f64::from(pick % 4 + 1),
                    epoch: 0,
                }
            };
            for (step, (op, raw_id, pick)) in ops.into_iter().enumerate() {
                let id = GridNodeId(raw_id % size as u32);
                let alive = nodes.is_alive(id);
                match op {
                    0 | 1 if alive => nodes.enqueue(id, qj(pick)),
                    2 if alive && nodes.get(id).running_job().is_none() => {
                        nodes.set_running(id, qj(pick), SimTime::from_secs(1));
                    }
                    3 if alive => {
                        nodes.take_running(id);
                    }
                    4 if alive => {
                        nodes.pop_queue(id);
                    }
                    5 if alive => nodes.mark_failed(id),
                    5 => nodes.mark_rejoined(id),
                    6 if alive => {
                        let mut n = nodes.checkout_node(id);
                        if n.pop_queue_local().is_some() {
                            n.enqueue_local(qj(pick));
                        }
                        nodes.commit_node(id, n);
                    }
                    _ => assert_scans_agree(
                        &mut mm,
                        &nodes,
                        requirements(u32::from(op), pick),
                        seed ^ step as u64,
                    )?,
                }
            }
            for kind in 0..5 {
                assert_scans_agree(&mut mm, &nodes, requirements(kind, kind), seed)?;
            }
            // All busy: no committed work is 0.0, so ties are among sums.
            let idle: Vec<GridNodeId> = nodes
                .alive_ids()
                .filter(|&id| nodes.load_of(id) == 0)
                .collect();
            for (i, id) in idle.into_iter().enumerate() {
                nodes.set_running(id, qj(i as u32 % 2), SimTime::from_secs(1));
            }
            for kind in 0..5 {
                assert_scans_agree(&mut mm, &nodes, requirements(kind, kind + 1), !seed)?;
            }
            // All dead: nothing to pick, nothing drawn.
            let live: Vec<GridNodeId> = nodes.alive_ids().collect();
            for id in live {
                nodes.mark_failed(id);
            }
            let any = JobRequirements::unconstrained();
            assert_scans_agree(&mut mm, &nodes, any, seed)?;
        }
    }
}
