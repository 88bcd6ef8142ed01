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
/// [`Matchmaker::find_run_node`] is word work: a capability index over the
/// capabilities, which never change after the table is built, and each
/// node's committed work, which does. Both are filled by
/// [`Matchmaker::bootstrap`] (or on first use, for a matchmaker handed a
/// table without one).
#[derive(Debug, Default)]
pub struct CentralizedMatchmaker {
    index: CapabilityIndex,
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

/// Which nodes meet a requirement, a word of 64 nodes at a time.
#[derive(Debug, Default)]
struct CapabilityIndex {
    /// One indexed column per resource dimension, in `ResourceKind::index`
    /// order.
    dims: [CutColumn; NUM_RESOURCE_DIMS],
    /// Row `s` (words `s * words ..`) is the set of nodes whose OS is in
    /// the `OsRequirement::bits` set `s`, laid out like
    /// `NodeTable::alive_words`.
    os_sets: Vec<u64>,
    words: usize,
}

impl CapabilityIndex {
    fn new(nodes: &NodeTable) -> Self {
        let n = nodes.len();
        let words = n.div_ceil(64);
        let mut columns: [Vec<f64>; NUM_RESOURCE_DIMS] = Default::default();
        let mut os_sets = vec![0u64; 16 * words];
        for id in 0..n {
            let caps = *nodes.capabilities(GridNodeId(id as u32));
            for (column, value) in columns.iter_mut().zip(caps.values()) {
                column.push(value);
            }
            let bit = caps.os.bit();
            for set in (0..16).filter(|set| set & bit != 0) {
                os_sets[usize::from(set) * words + id / 64] |= 1 << (id % 64);
            }
        }
        CapabilityIndex {
            dims: columns.map(CutColumn::new),
            os_sets,
            words,
        }
    }

    /// `floor` as rows of the index; `None` if no node can meet it.
    fn filter(&self, floor: &Floor) -> Option<Filter<'_>> {
        let os = usize::from(floor.os & 0xf);
        let [cpu, memory, disk] = &self.dims;
        Some(Filter {
            os: &self.os_sets[os * self.words..(os + 1) * self.words],
            bounds: [
                cpu.bound(floor.mins[0])?,
                memory.bound(floor.mins[1])?,
                disk.bound(floor.mins[2])?,
            ],
        })
    }
}

/// At most this many cuts per dimension, so a dimension's rows cost at
/// most 65 bits a node.
const MAX_CUTS: usize = 64;

/// One capability column and its cut rows.
///
/// The column is sorted once and cut at up to [`MAX_CUTS`] quantiles; row
/// `k` is the set of nodes at or above `cuts[k]`, laid out like
/// `NodeTable::alive_words`. A minimum between two cuts is then answered by
/// the row of the cut above it — nodes certain to qualify — and by the
/// boundary row of the cut below it, whose extra nodes are checked against
/// the column one by one.
#[derive(Debug, Default)]
struct CutColumn {
    /// Each node's capability.
    column: Vec<f64>,
    /// Ascending and distinct. `cuts[0]` is the column's least value, so
    /// row 0 holds every node.
    cuts: Vec<f64>,
    /// `tops[k]`: the largest value at or above `cuts[k]` and below
    /// `cuts[k + 1]`. Past it, the boundary row of cut `k` holds no
    /// qualifying node and is not checked.
    tops: Vec<f64>,
    /// `cuts.len() + 1` rows of `words` words; the last is empty.
    rows: Vec<u64>,
    words: usize,
}

impl CutColumn {
    /// Index `column`: sort it, choose the cuts, and fill the rows from the
    /// top cut down, each one the row above plus its own band.
    fn new(column: Vec<f64>) -> Self {
        let n = column.len();
        let words = n.div_ceil(64);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| column[a as usize].total_cmp(&column[b as usize]));
        // A cut at the first new value at or past each quantile, so a
        // palette of up to 64 evenly used values gets one cut per value.
        let (mut cuts, mut starts) = (Vec::new(), Vec::new());
        let mut quantile = 0;
        for (at, &id) in order.iter().enumerate() {
            let value = column[id as usize];
            if at * MAX_CUTS >= quantile * n && cuts.last().is_none_or(|&cut| cut < value) {
                cuts.push(value);
                starts.push(at);
                quantile = at * MAX_CUTS / n + 1;
            }
        }
        let tops = (0..cuts.len())
            .map(|k| column[order[starts.get(k + 1).map_or(n, |&s| s) - 1] as usize])
            .collect();
        let mut rows = vec![0u64; (cuts.len() + 1) * words];
        let mut acc = vec![0u64; words];
        let mut end = n;
        for (k, &start) in starts.iter().enumerate().rev() {
            for &id in &order[start..end] {
                acc[id as usize / 64] |= 1 << (id % 64);
            }
            rows[k * words..(k + 1) * words].copy_from_slice(&acc);
            end = start;
        }
        CutColumn {
            column,
            cuts,
            tops,
            rows,
            words,
        }
    }

    fn row(&self, k: usize) -> &[u64] {
        &self.rows[k * self.words..(k + 1) * self.words]
    }

    /// The rows that answer `column >= min`; `None` for a NaN `min`, which
    /// no value meets.
    fn bound(&self, min: f64) -> Option<Bound<'_>> {
        if min.is_nan() {
            return None;
        }
        // The first cut at or above `min`: every node in its row qualifies.
        // A node below the cut under it does not, so only that cut's band
        // is left to check. `-inf`, or any `min` up to the least value,
        // selects row 0, every node, with nothing to check.
        let above = self.cuts.partition_point(|&cut| cut < min);
        let band = match above.checked_sub(1) {
            Some(below) if self.tops[below] >= min => below,
            _ => above,
        };
        Some(Bound {
            upper: self.row(band),
            sure: self.row(above),
            column: &self.column,
            min,
        })
    }
}

/// One dimension of a job's requirements, resolved against its cut rows.
struct Bound<'a> {
    /// Nodes that may qualify.
    upper: &'a [u64],
    /// Nodes that do; the rest of `upper` is checked against `column`.
    sure: &'a [u64],
    column: &'a [f64],
    min: f64,
}

/// A job's requirements as rows of the index.
struct Filter<'a> {
    os: &'a [u64],
    bounds: [Bound<'a>; NUM_RESOURCE_DIMS],
}

impl Filter<'_> {
    /// Which of the `candidates` (word `w` of the node table's bitsets)
    /// meet the requirements: a few ANDs, plus one column test for each
    /// candidate in a dimension's boundary row.
    fn capable(&self, w: usize, candidates: u64) -> u64 {
        let mut word = candidates & self.os[w];
        for bound in &self.bounds {
            word &= bound.upper[w];
        }
        for bound in &self.bounds {
            let mut unsure = word & !bound.sure[w];
            while unsure != 0 {
                let bit = unsure.trailing_zeros();
                unsure &= unsure - 1;
                if bound.column[w * 64 + bit as usize] < bound.min {
                    word &= !(1 << bit);
                }
            }
        }
        word
    }
}

impl CentralizedMatchmaker {
    /// Create the baseline scheduler.
    pub fn new() -> Self {
        CentralizedMatchmaker::default()
    }

    fn project(&mut self, nodes: &NodeTable) {
        *self = CentralizedMatchmaker {
            index: CapabilityIndex::new(nodes),
            committed: (0..nodes.len() as u32)
                .map(|id| nodes.committed_work_secs(GridNodeId(id)))
                .collect(),
            summed_at: nodes.queue_versions().to_vec(),
        };
    }

    /// The least-loaded live node that meets `floor`, ties broken by one
    /// `gen_range(0..ties)` draw per tied node in ascending id order.
    fn scan(&mut self, nodes: &NodeTable, floor: &Floor, rng: &mut SimRng) -> Option<GridNodeId> {
        if self.committed.len() != nodes.len() {
            self.project(nodes);
        }
        let versions = nodes.queue_versions();
        let alive = nodes.alive_words();
        let idle = nodes.idle_words();
        let filter = self.index.filter(floor)?;
        let mut best: Option<(f64, GridNodeId)> = None;
        let mut ties = 0u32;
        // Phase 1: rank every capable live node by its committed work
        // until an idle one leads at exactly 0.0. `rest` is then what is
        // left of that word.
        let mut rest = None;
        let mut w = 0;
        'rank: while w < alive.len() {
            let mut word = filter.capable(w, alive[w]);
            while word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let id = GridNodeId(slot as u32);
                if self.summed_at[slot] != versions[slot] {
                    self.committed[slot] = nodes.committed_work_secs(id);
                    self.summed_at[slot] = versions[slot];
                }
                let work = self.committed[slot];
                // What phase 2 rests on.
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
                // Nothing is below 0.0, so this node now leads.
                if work == 0.0 {
                    rest = Some(word & idle[w]);
                    break 'rank;
                }
            }
            w += 1;
        }
        // Phase 2: every queued runtime is positive, so a busy node's
        // committed work is too. With an idle node leading at 0.0 no busy
        // node can beat or tie it, and every idle capable node ties: one
        // draw each, no sums read.
        if let Some(mut word) = rest {
            let mut leader = best.map(|(_, id)| id);
            loop {
                while word != 0 {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        leader = Some(GridNodeId((w * 64) as u32 + word.trailing_zeros()));
                    }
                    word &= word - 1;
                }
                w += 1;
                if w >= alive.len() {
                    return leader;
                }
                word = filter.capable(w, alive[w] & idle[w]);
            }
        }
        best.map(|(_, id)| id)
    }
}

/// A job's requirements in the form the columns are compared against.
#[derive(Debug)]
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
        let run_node = self.scan(nodes, &Floor::of(&job.requirements), rng);
        // The index is this table's: a matchmaker carried over to another
        // table of the same size without a `bootstrap` would fail here.
        debug_assert!(run_node.is_none_or(|id| {
            job.requirements.satisfied_by(nodes.capabilities(id))
                && (nodes.load_of(id) == 0
                    || self.committed[id.0 as usize].to_bits()
                        == nodes.committed_work_secs(id).to_bits())
        }));
        MatchOutcome { run_node, hops: 0 }
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
    fn reference_scan(
        nodes: &NodeTable,
        capable: impl Fn(&Capabilities) -> bool,
        rng: &mut SimRng,
    ) -> Option<GridNodeId> {
        let mut best: Option<(f64, GridNodeId)> = None;
        let mut ties = 0u32;
        for id in nodes.alive_ids() {
            if !capable(nodes.capabilities(id)) {
                continue;
            }
            let work = nodes.committed_work_secs(id);
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

    /// A table of `size` nodes. The small palette (three values a
    /// dimension) splits the table unevenly under requirements; the
    /// workload generator's own (continuous CPU and disk, memory at six
    /// levels) gives the index distinct quantile cuts and boundary rows.
    /// A larger `size` from the same seed extends the smaller table.
    fn mixed_table(size: usize, seed: u64, continuous: bool) -> NodeTable {
        let mut rng = rng_for(seed, 1);
        let profiles = (0..size)
            .map(|_| {
                let caps = if continuous {
                    Capabilities::new(
                        rng.gen_range(0.5..4.0),
                        2f64.powi(rng.gen_range(-2..=3)),
                        rng.gen_range(10.0..500.0),
                        OsType::ALL[rng.gen_range(0..4)],
                    )
                } else {
                    Capabilities::new(
                        [1.0, 2.0, 3.0][rng.gen_range(0..3)],
                        [1.0, 4.0, 8.0][rng.gen_range(0..3)],
                        [10.0, 100.0, 400.0][rng.gen_range(0..3)],
                        OsType::ALL[rng.gen_range(0..4)],
                    )
                };
                NodeProfile::new(caps)
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

    /// A floor at the index's edges. Per dimension: `-inf` (unconstrained,
    /// the most common), a node's exact value, a cut's value, the float
    /// just above or below either, `+inf`, NaN or 0.
    fn edge_floor(mm: &CentralizedMatchmaker, nodes: &NodeTable, seed: u64, os: u8) -> Floor {
        let mut rng = rng_for(seed, 3);
        let mins = std::array::from_fn(|d| {
            let id = GridNodeId(rng.gen_range(0..nodes.len() as u32));
            let value = nodes.capabilities(id).values()[d];
            // Before the first call the index may belong to no table yet.
            let cuts = &mm.index.dims[d].cuts;
            let cut = if cuts.is_empty() {
                value
            } else {
                cuts[rng.gen_range(0..cuts.len())]
            };
            match rng.gen_range(0..12) {
                0..=2 => f64::NEG_INFINITY,
                3 => value,
                4 => value.next_up(),
                5 => value.next_down(),
                6 => cut,
                7 => cut.next_up(),
                8 => cut.next_down(),
                9 => f64::INFINITY,
                10 => f64::NAN,
                _ => 0.0,
            }
        });
        Floor { mins, os }
    }

    /// What a floor means, node by node: `>=` in every dimension, so NaN
    /// admits nothing and `-inf` everything.
    fn admits(floor: &Floor, caps: &Capabilities) -> bool {
        caps.os.bit() & floor.os != 0
            && caps
                .values()
                .iter()
                .zip(floor.mins)
                .all(|(&v, min)| v >= min)
    }

    /// What the two scans are asked: a job's requirements through the
    /// public [`Matchmaker::find_run_node`], or a raw floor.
    #[derive(Debug)]
    enum Query {
        Job(JobRequirements),
        Floor(Floor),
    }

    /// The index scan and the reference scan, from identical RNG states:
    /// same node, and the same RNG state afterwards.
    fn assert_scans_agree(
        mm: &mut CentralizedMatchmaker,
        nodes: &NodeTable,
        query: Query,
        rng_seed: u64,
    ) -> Result<(), TestCaseError> {
        let (mut fast_rng, mut ref_rng) = (rng_for(rng_seed, 2), rng_for(rng_seed, 2));
        let (fast, reference) = match &query {
            Query::Job(req) => (
                mm.find_run_node(nodes, OwnerRef::Server, &job(*req), &mut fast_rng)
                    .run_node,
                reference_scan(nodes, |caps| req.satisfied_by(caps), &mut ref_rng),
            ),
            Query::Floor(floor) => (
                mm.scan(nodes, floor, &mut fast_rng),
                reference_scan(nodes, |caps| admits(floor, caps), &mut ref_rng),
            ),
        };
        prop_assert_eq!(fast, reference, "{:?}", query);
        prop_assert_eq!(
            fast_rng.next_u64(),
            ref_rng.next_u64(),
            "RNG draws diverged"
        );
        // Every cached sum that claims to be current is the record's own.
        for slot in 0..nodes.len() {
            if mm.summed_at[slot] == nodes.queue_versions()[slot] {
                let fresh = nodes.committed_work_secs(GridNodeId(slot as u32));
                prop_assert_eq!(mm.committed[slot].to_bits(), fresh.to_bits());
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Differential: over random tables whose sizes straddle the 64-
        /// and 128-node word boundaries or reach 1,000 nodes (cut rows of
        /// many nodes), on the small palette and on the workload's own,
        /// random enqueue/start/finish/fail/rejoin/checkout histories with
        /// runtimes in tenths (so equal sums are common and
        /// order-sensitive), every kind of requirement and floors at the
        /// index's edges under all 16 OS sets, the index scan picks the node
        /// the reference scan picks and draws the RNG as often — also once
        /// every live node is busy, after the table grows, and once every
        /// node is dead.
        #[test]
        fn column_scan_matches_the_reference_scan(
            size in prop_oneof![
                3 => prop_oneof![
                    Just(1usize), Just(63), Just(64), Just(65),
                    Just(127), Just(128), Just(129), Just(200)
                ],
                1 => 201usize..=1000,
            ],
            continuous in any::<bool>(),
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..48), 0..250),
        ) {
            let mut nodes = mixed_table(size, seed, continuous);
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
                let rng_seed = seed ^ step as u64;
                match op {
                    0 | 1 if alive => nodes.enqueue(id, qj(pick)),
                    2 if alive && nodes.running_job(id).is_none() => {
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
                        if n.pop_queue().is_some() {
                            n.enqueue(qj(pick));
                        }
                        nodes.commit_node(id, n);
                    }
                    10 | 11 => {
                        let floor = edge_floor(&mm, &nodes, rng_seed, (pick % 16) as u8);
                        assert_scans_agree(&mut mm, &nodes, Query::Floor(floor), rng_seed)?;
                    }
                    _ => assert_scans_agree(
                        &mut mm,
                        &nodes,
                        Query::Job(requirements(u32::from(op), pick)),
                        rng_seed,
                    )?,
                }
            }
            for kind in 0..5 {
                assert_scans_agree(&mut mm, &nodes, Query::Job(requirements(kind, kind)), seed)?;
            }
            // Every OS set, the empty one included, alone and with edges.
            for os in 0..16u8 {
                let alone = Floor { mins: [f64::NEG_INFINITY; NUM_RESOURCE_DIMS], os };
                assert_scans_agree(&mut mm, &nodes, Query::Floor(alone), seed)?;
                let floor = edge_floor(&mm, &nodes, seed ^ u64::from(os), os);
                assert_scans_agree(&mut mm, &nodes, Query::Floor(floor), seed)?;
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
                let req = requirements(kind, kind + 1);
                assert_scans_agree(&mut mm, &nodes, Query::Job(req), !seed)?;
                let floor = edge_floor(&mm, &nodes, !seed ^ u64::from(kind), 0b1111);
                assert_scans_agree(&mut mm, &nodes, Query::Floor(floor), !seed)?;
            }
            // A grown table, partly busy, handed over without a bootstrap;
            // then the old one again.
            let mut grown = mixed_table(size + 1 + seed as usize % 300, seed, continuous);
            for slot in (0..grown.len()).step_by(3) {
                grown.set_running(GridNodeId(slot as u32), qj(slot as u32), SimTime::from_secs(1));
            }
            for kind in 0..5 {
                let req = requirements(kind, kind + 2);
                assert_scans_agree(&mut mm, &grown, Query::Job(req), seed ^ 1)?;
                let floor = edge_floor(&mm, &grown, seed ^ u64::from(kind), 0b1111);
                assert_scans_agree(&mut mm, &grown, Query::Floor(floor), seed ^ 1)?;
            }
            let any = JobRequirements::unconstrained();
            assert_scans_agree(&mut mm, &nodes, Query::Job(any), seed)?;
            // All dead: nothing to pick, nothing drawn.
            let live: Vec<GridNodeId> = nodes.alive_ids().collect();
            for id in live {
                nodes.mark_failed(id);
            }
            assert_scans_agree(&mut mm, &nodes, Query::Job(any), seed)?;
        }
    }
}
