//! Grid nodes and the node table.
//!
//! The table is the kernel's hottest state, so it is laid out for
//! million-node replications: the `GridNode` records sit in one dense
//! slot-addressed vector (the node arena — `GridNodeId` *is* the slot), and
//! the per-event scan fields are mirrored struct-of-arrays style:
//!
//! * `loads` — each node's `load()` as a dense `u32` column, kept in sync
//!   by the table's mutation methods;
//! * `queue_versions` — a `u32` per node, bumped whenever the node's queue
//!   or running slot changes (`enqueue`, `pop_queue`, `set_running`,
//!   `take_running`, `commit_node` even at an unchanged load, `mark_failed`).
//!   It is what lets the centralized matchmaker keep each node's
//!   [`GridNode::committed_work_secs`] in a dense `f64` column of its own
//!   and re-sum only the nodes that moved since it last looked. The sum
//!   itself is not kept here: it could only be kept exact by re-summing the
//!   queue front to back on every mutation (f64 addition does not
//!   associate, and the matchmaker's tie-break tests exact equality, so a
//!   sum maintained by adding and subtracting runtimes would break ties
//!   differently from the sum it stands for), and that makes draining a
//!   queue quadratic in its length for the five matchmakers that never ask;
//! * two bitsets, one bit per node in `u64` words: `alive_bits`, and
//!   `idle_bits` for live nodes with load 0, updated by the same methods,
//!   so a scan can test 64 nodes with one word;
//! * a Fenwick tree over the alive bits, so [`NodeTable::random_alive`]
//!   selects the n-th live node in O(log N) while drawing the *same* RNG
//!   value and returning the *same* node as the old O(N) `nth()` walk;
//! * O(1) aggregates (total live load, count of idle live nodes) for the
//!   telemetry sampler.
//!
//! To keep the mirrors honest, the execution-state fields (`queue`,
//! `running`) are private to this module: every mutation goes through a
//! `NodeTable` method that updates the columns in the same step.

use std::collections::VecDeque;
use std::fmt;

use dgrid_resources::{JobId, NodeProfile};
use dgrid_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Engine-level handle for a participating node. Stable across failure and
/// rejoin (the peer keeps its machine identity; its overlay identity is the
/// matchmaker's business).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GridNodeId(pub u32);

impl fmt::Debug for GridNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl fmt::Display for GridNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A job sitting in (or at the head of) a run node's FIFO queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedJob {
    pub job: JobId,
    /// Wall-clock the job will occupy the node for.
    pub runtime_secs: f64,
    /// Job epoch this execution belongs to. A stale completion may only
    /// release an execution of its *own* epoch: after a crash + rejoin the
    /// same node can be re-running the same job under a newer epoch, and a
    /// job-id-only match would let the old epoch's completion steal the
    /// current execution's slot.
    pub epoch: u32,
}

/// One participating peer: its advertised profile plus execution state.
///
/// "Each run node processes jobs in its job queue in FIFO order and only
/// processes one job at a time." (Section 2.)
#[derive(Clone, Debug)]
pub struct GridNode {
    /// Advertised capabilities.
    pub profile: NodeProfile,
    /// Is the node currently up?
    pub alive: bool,
    queue: VecDeque<QueuedJob>,
    running: Option<QueuedJob>,
    running_finish_at: SimTime,
    /// Total seconds this node has spent executing jobs (for utilization
    /// and load-balance reporting).
    pub busy_secs: f64,
    /// Jobs this node has completed.
    pub completed_jobs: u64,
}

impl GridNode {
    pub(crate) fn new(profile: NodeProfile) -> Self {
        GridNode {
            profile,
            alive: true,
            queue: VecDeque::new(),
            running: None,
            running_finish_at: SimTime::ZERO,
            busy_secs: 0.0,
            completed_jobs: 0,
        }
    }

    /// Jobs currently held: queued plus running.
    pub fn load(&self) -> usize {
        self.queue.len() + usize::from(self.running.is_some())
    }

    /// Seconds of work committed to this node: the remainder of the running
    /// job plus everything queued.
    pub fn pending_work_secs(&self, now: SimTime) -> f64 {
        let running = if self.running.is_some() {
            self.running_finish_at.since(now).as_secs_f64()
        } else {
            0.0
        };
        running + self.queue.iter().map(|q| q.runtime_secs).sum::<f64>()
    }

    /// Queued runtimes plus the running job's *full* runtime — the
    /// instant-independent committed-work estimate the centralized
    /// baseline ranks nodes by.
    pub(crate) fn committed_work_secs(&self) -> f64 {
        let queued: f64 = self.queue.iter().map(|q| q.runtime_secs).sum();
        queued + self.running.map(|q| q.runtime_secs).unwrap_or(0.0)
    }

    /// The currently executing job, if any.
    pub(crate) fn running_job(&self) -> Option<QueuedJob> {
        self.running
    }

    /// When the running job will finish (stale if nothing is running).
    pub(crate) fn running_finish_at(&self) -> SimTime {
        self.running_finish_at
    }

    /// Ids of the queued jobs, FIFO order.
    pub(crate) fn queued_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.queue.iter().map(|q| q.job)
    }

    // Shard-local mutators, mirroring the `NodeTable` methods of the same
    // name minus the load-mirror bookkeeping. They exist for the
    // conservative-window kernel, which checks a node's record out of the
    // table (`NodeTable::checkout_node`), mutates the copy on a worker
    // thread, and commits it back — the table reconciles the mirrors once
    // at commit instead of per mutation.

    /// FIFO-queue a job (shard-local copy of [`NodeTable::enqueue`]).
    pub(crate) fn enqueue_local(&mut self, q: QueuedJob) {
        self.queue.push_back(q);
    }

    /// Dequeue the next job (shard-local copy of [`NodeTable::pop_queue`]).
    pub(crate) fn pop_queue_local(&mut self) -> Option<QueuedJob> {
        self.queue.pop_front()
    }

    /// Begin executing a job (shard-local copy of [`NodeTable::set_running`]).
    pub(crate) fn set_running_local(&mut self, q: QueuedJob, finish_at: SimTime) {
        debug_assert!(self.running.is_none(), "node already running a job");
        self.running = Some(q);
        self.running_finish_at = finish_at;
    }

    /// Release the running job (shard-local copy of
    /// [`NodeTable::take_running`]).
    pub(crate) fn take_running_local(&mut self) -> Option<QueuedJob> {
        self.running.take()
    }
}

/// Fenwick (binary indexed) tree over the alive bits: O(log N) rank/select
/// so a uniformly random live node can be drawn without walking the table.
struct AliveTree {
    tree: Vec<u32>,
}

impl AliveTree {
    /// All `n` nodes alive.
    fn all_ones(n: usize) -> Self {
        let mut tree = vec![1u32; n + 1];
        tree[0] = 0;
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        AliveTree { tree }
    }

    fn add(&mut self, index: usize, delta: i32) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = (i64::from(self.tree[i]) + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Index of the `k`-th (0-based) set bit in ascending order.
    fn select(&self, k: usize) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut rem = (k + 1) as u32;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] < rem {
                rem -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

/// Indices of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        (0..64)
            .filter(move |bit| word >> bit & 1 != 0)
            .map(move |bit| w * 64 + bit)
    })
}

/// The engine's table of all nodes, alive and dead.
///
/// Matchmakers receive `&NodeTable` read-only: the *centralized* baseline
/// is allowed to read everything fresh (that is its defining advantage);
/// the decentralized matchmakers, by their own contract, only read state
/// for nodes they have legitimately contacted (search candidates, neighbor
/// load exchange at tick time).
pub struct NodeTable {
    nodes: Vec<GridNode>,
    alive: usize,
    /// SoA mirror of each node's `load()` (zero for dead nodes).
    loads: Vec<u32>,
    /// Bumped (wrapping) by every change to the node's queue or running
    /// slot, so a reader can tell which of its cached sums are stale.
    queue_versions: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is alive.
    alive_bits: Vec<u64>,
    /// Same layout: set iff node `i` is alive with load 0.
    idle_bits: Vec<u64>,
    alive_tree: AliveTree,
    /// Sum of `loads` over live nodes.
    total_load: u64,
    /// Live nodes with load 0.
    idle_alive: usize,
}

/// Word index and bit mask of a node's position in the bitsets.
fn bit_of(slot: usize) -> (usize, u64) {
    (slot / 64, 1 << (slot % 64))
}

impl NodeTable {
    pub(crate) fn new(profiles: Vec<NodeProfile>) -> Self {
        let alive = profiles.len();
        let mut all_ones = vec![u64::MAX; alive.div_ceil(64)];
        if let Some(last) = all_ones.last_mut() {
            // Bits past the last node stay clear.
            *last >>= (64 - alive % 64) % 64;
        }
        NodeTable {
            nodes: profiles.into_iter().map(GridNode::new).collect(),
            alive,
            loads: vec![0; alive],
            queue_versions: vec![0; alive],
            alive_bits: all_ones.clone(),
            idle_bits: all_ones,
            alive_tree: AliveTree::all_ones(alive),
            total_load: 0,
            idle_alive: alive,
        }
    }

    /// Total number of nodes ever registered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of currently live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// The node behind a handle.
    pub fn get(&self, id: GridNodeId) -> &GridNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a node's *statistics* fields. The execution-state
    /// fields that back the load mirrors are module-private; mutate them
    /// through the table methods below.
    pub(crate) fn get_mut(&mut self, id: GridNodeId) -> &mut GridNode {
        &mut self.nodes[id.0 as usize]
    }

    /// A node's current load from the SoA column (no record deref).
    pub fn load_of(&self, id: GridNodeId) -> usize {
        self.loads[id.0 as usize] as usize
    }

    /// Per node, a counter that moves whenever its queue or running slot
    /// does: anything derived from those (its `committed_work_secs()`, say)
    /// is still good while the counter reads the same. Wrapping `u32`; a
    /// reader that looks at least once per 2³² changes of a node — the
    /// centralized matchmaker looks once per placed job — cannot miss one.
    pub(crate) fn queue_versions(&self) -> &[u32] {
        &self.queue_versions
    }

    /// The alive bitset: node `i` is bit `i % 64` of word `i / 64`.
    pub(crate) fn alive_words(&self) -> &[u64] {
        &self.alive_bits
    }

    /// The bitset of live nodes with load 0, laid out like
    /// [`alive_words`](Self::alive_words).
    pub(crate) fn idle_words(&self) -> &[u64] {
        &self.idle_bits
    }

    /// Sum of loads over live nodes (the telemetry `queue_depth` gauge).
    pub fn total_alive_load(&self) -> u64 {
        self.total_load
    }

    /// Number of live nodes with nothing queued or running.
    pub fn idle_alive_count(&self) -> usize {
        self.idle_alive
    }

    /// Least loaded live node, lowest id on ties — the deterministic
    /// fallback target for lease re-placement. A scan of the `loads`
    /// column that stops at the first idle node; the fallback fires a
    /// handful of times per run, too rarely to keep an index for.
    pub fn least_loaded_alive(&self) -> Option<GridNodeId> {
        let mut best: Option<(u32, usize)> = None;
        for slot in set_bits(&self.alive_bits) {
            let load = self.loads[slot];
            if load == 0 {
                return Some(GridNodeId(slot as u32));
            }
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, slot));
            }
        }
        best.map(|(_, slot)| GridNodeId(slot as u32))
    }

    /// Is the node up?
    pub fn is_alive(&self, id: GridNodeId) -> bool {
        self.get(id).alive
    }

    /// Handles of all live nodes, ascending.
    pub fn alive_ids(&self) -> impl Iterator<Item = GridNodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| GridNodeId(i as u32))
    }

    /// A uniformly random live node.
    ///
    /// Draws the same `gen_range(0..alive)` value and returns the same
    /// (n-th smallest live) id as the historical linear walk, via the
    /// Fenwick select — byte-identity depends on both halves. While every
    /// node is alive the n-th smallest live id is `n` itself, and the
    /// select is skipped.
    pub fn random_alive<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<GridNodeId> {
        if self.alive == 0 {
            return None;
        }
        let n = rng.gen_range(0..self.alive);
        let slot = if self.alive == self.nodes.len() {
            n
        } else {
            self.alive_tree.select(n)
        };
        Some(GridNodeId(slot as u32))
    }

    /// Bring every mirror of a live node back in line with its record,
    /// after its queue or running slot changed. O(1).
    fn resync(&mut self, id: GridNodeId) {
        let slot = id.0 as usize;
        let (old, new) = (self.loads[slot], self.nodes[slot].load() as u32);
        self.queue_versions[slot] = self.queue_versions[slot].wrapping_add(1);
        self.loads[slot] = new;
        self.total_load = self.total_load - u64::from(old) + u64::from(new);
        let (word, bit) = bit_of(slot);
        match (old, new) {
            (0, 1..) => {
                self.idle_alive -= 1;
                self.idle_bits[word] &= !bit;
            }
            (1.., 0) => {
                self.idle_alive += 1;
                self.idle_bits[word] |= bit;
            }
            _ => {}
        }
    }

    /// FIFO-queue a job on a live node.
    pub(crate) fn enqueue(&mut self, id: GridNodeId, q: QueuedJob) {
        self.nodes[id.0 as usize].queue.push_back(q);
        self.resync(id);
    }

    /// Dequeue the next job from a node's FIFO queue.
    pub(crate) fn pop_queue(&mut self, id: GridNodeId) -> Option<QueuedJob> {
        let q = self.nodes[id.0 as usize].queue.pop_front();
        if q.is_some() {
            self.resync(id);
        }
        q
    }

    /// Begin executing a job on an idle live node.
    pub(crate) fn set_running(&mut self, id: GridNodeId, q: QueuedJob, finish_at: SimTime) {
        let n = &mut self.nodes[id.0 as usize];
        debug_assert!(n.running.is_none(), "{id} already running a job");
        n.running = Some(q);
        n.running_finish_at = finish_at;
        self.resync(id);
    }

    /// Release a node's running job (completion, kill, or stale release).
    pub(crate) fn take_running(&mut self, id: GridNodeId) -> Option<QueuedJob> {
        let q = self.nodes[id.0 as usize].running.take();
        if q.is_some() {
            self.resync(id);
        }
        q
    }

    /// Clone a live node's record out of the table for exclusive
    /// shard-local mutation during one conservative window. The caller owns
    /// the copy; nothing else may touch the slot until
    /// [`commit_node`](Self::commit_node) writes it back. Aliveness cannot
    /// change while a record is checked out (failures and rejoins are
    /// barrier-phase events).
    pub(crate) fn checkout_node(&mut self, id: GridNodeId) -> GridNode {
        debug_assert!(self.nodes[id.0 as usize].alive, "checkout of dead {id}");
        self.nodes[id.0 as usize].clone()
    }

    /// Write a checked-out record back, reconciling every mirror with
    /// whatever the shard did to the copy in one step — also at an
    /// unchanged load, where the queue may hold different jobs.
    pub(crate) fn commit_node(&mut self, id: GridNodeId, node: GridNode) {
        let slot = id.0 as usize;
        debug_assert!(
            self.nodes[slot].alive && node.alive,
            "commit must not change {id} aliveness"
        );
        self.nodes[slot] = node;
        self.resync(id);
    }

    pub(crate) fn mark_failed(&mut self, id: GridNodeId) {
        let slot = id.0 as usize;
        assert!(self.nodes[slot].alive, "failing dead node {id}");
        let load = self.loads[slot];
        self.alive_tree.add(slot, -1);
        self.total_load -= u64::from(load);
        if load == 0 {
            self.idle_alive -= 1;
        }
        self.loads[slot] = 0;
        self.queue_versions[slot] = self.queue_versions[slot].wrapping_add(1);
        let (word, bit) = bit_of(slot);
        self.alive_bits[word] &= !bit;
        self.idle_bits[word] &= !bit;
        let n = &mut self.nodes[slot];
        n.alive = false;
        n.queue.clear();
        n.running = None;
        self.alive -= 1;
    }

    pub(crate) fn mark_rejoined(&mut self, id: GridNodeId) {
        let slot = id.0 as usize;
        assert!(!self.nodes[slot].alive, "rejoining live node {id}");
        self.nodes[slot].alive = true;
        self.alive += 1;
        self.alive_tree.add(slot, 1);
        // The failure cleared its queue, so it returns idle.
        debug_assert_eq!(self.loads[slot], 0);
        let (word, bit) = bit_of(slot);
        self.alive_bits[word] |= bit;
        self.idle_bits[word] |= bit;
        self.idle_alive += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_resources::{Capabilities, OsType};
    use dgrid_sim::SimDuration;
    use proptest::prelude::*;
    use rand::Rng;

    fn profile() -> NodeProfile {
        NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux))
    }

    fn qj(job: u64, runtime_secs: f64) -> QueuedJob {
        QueuedJob {
            job: JobId(job),
            runtime_secs,
            epoch: 0,
        }
    }

    #[test]
    fn load_counts_running_and_queued() {
        let mut n = GridNode::new(profile());
        assert_eq!(n.load(), 0);
        n.running = Some(qj(1, 10.0));
        n.queue.push_back(qj(2, 5.0));
        assert_eq!(n.load(), 2);
    }

    #[test]
    fn pending_work_includes_remaining_runtime() {
        let mut n = GridNode::new(profile());
        n.running = Some(qj(1, 10.0));
        n.running_finish_at = SimTime::ZERO + SimDuration::from_secs(8);
        n.queue.push_back(qj(2, 5.0));
        let now = SimTime::from_secs(2);
        assert!((n.pending_work_secs(now) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn table_failure_and_rejoin() {
        let mut t = NodeTable::new(vec![profile(), profile(), profile()]);
        assert_eq!(t.alive_count(), 3);
        t.mark_failed(GridNodeId(1));
        assert_eq!(t.alive_count(), 2);
        assert!(!t.is_alive(GridNodeId(1)));
        assert_eq!(
            t.alive_ids().collect::<Vec<_>>(),
            vec![GridNodeId(0), GridNodeId(2)]
        );
        t.mark_rejoined(GridNodeId(1));
        assert_eq!(t.alive_count(), 3);
    }

    #[test]
    fn random_alive_skips_dead() {
        let mut t = NodeTable::new(vec![profile(), profile(), profile()]);
        t.mark_failed(GridNodeId(0));
        t.mark_failed(GridNodeId(2));
        let mut rng = dgrid_sim::rng::rng_for(1, 1);
        for _ in 0..10 {
            assert_eq!(t.random_alive(&mut rng), Some(GridNodeId(1)));
        }
    }

    #[test]
    fn mutation_methods_keep_mirrors_in_sync() {
        let mut t = NodeTable::new(vec![profile(), profile()]);
        assert_eq!(t.idle_alive_count(), 2);
        t.set_running(GridNodeId(0), qj(1, 10.0), SimTime::from_secs(10));
        t.enqueue(GridNodeId(0), qj(2, 5.0));
        assert_eq!(t.load_of(GridNodeId(0)), 2);
        assert_eq!(t.total_alive_load(), 2);
        assert_eq!(t.idle_alive_count(), 1);
        assert_eq!(t.least_loaded_alive(), Some(GridNodeId(1)));
        let done = t.take_running(GridNodeId(0)).unwrap();
        assert_eq!(done.job, JobId(1));
        let next = t.pop_queue(GridNodeId(0)).unwrap();
        assert_eq!(next.job, JobId(2));
        assert_eq!(t.load_of(GridNodeId(0)), 0);
        assert_eq!(t.total_alive_load(), 0);
        assert_eq!(t.idle_alive_count(), 2);
        assert_eq!(t.least_loaded_alive(), Some(GridNodeId(0)));
    }

    #[test]
    fn checkout_commit_reconciles_mirrors() {
        let mut t = NodeTable::new(vec![profile(), profile()]);
        let mut n = t.checkout_node(GridNodeId(0));
        n.set_running_local(qj(1, 10.0), SimTime::from_secs(10));
        n.enqueue_local(qj(2, 5.0));
        n.enqueue_local(qj(3, 5.0));
        t.commit_node(GridNodeId(0), n);
        assert_eq!(t.load_of(GridNodeId(0)), 3);
        assert_eq!(t.total_alive_load(), 3);
        assert_eq!(t.idle_alive_count(), 1);
        assert_eq!(t.least_loaded_alive(), Some(GridNodeId(1)));
        // Drain it back down through another checkout.
        let mut n = t.checkout_node(GridNodeId(0));
        assert_eq!(n.take_running_local().unwrap().job, JobId(1));
        assert_eq!(n.pop_queue_local().unwrap().job, JobId(2));
        assert_eq!(n.pop_queue_local().unwrap().job, JobId(3));
        t.commit_node(GridNodeId(0), n);
        assert_eq!(t.load_of(GridNodeId(0)), 0);
        assert_eq!(t.total_alive_load(), 0);
        assert_eq!(t.idle_alive_count(), 2);
        assert_eq!(t.least_loaded_alive(), Some(GridNodeId(0)));
    }

    /// The naive references the SoA structures must agree with.
    fn scan_least_loaded(t: &NodeTable) -> Option<GridNodeId> {
        let mut best: Option<(usize, GridNodeId)> = None;
        for id in t.alive_ids() {
            let load = t.get(id).load();
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Every mirror against the record it mirrors, node by node.
    fn assert_mirrors(t: &NodeTable) -> Result<(), TestCaseError> {
        for slot in 0..t.len() {
            let n = t.get(GridNodeId(slot as u32));
            prop_assert_eq!(t.loads[slot] as usize, n.load());
            let (word, bit) = bit_of(slot);
            prop_assert_eq!(t.alive_bits[word] & bit != 0, n.alive);
            prop_assert_eq!(t.idle_bits[word] & bit != 0, n.alive && n.load() == 0);
        }
        let spare = t.alive_bits.len() * 64 - t.len();
        if spare > 0 {
            let past_end = u64::MAX << (64 - spare);
            prop_assert_eq!(t.alive_bits.last().unwrap() & past_end, 0);
            prop_assert_eq!(t.idle_bits.last().unwrap() & past_end, 0);
        }
        Ok(())
    }

    /// What a reader of [`NodeTable::queue_versions`] would have cached
    /// per node: the version it read, and what it derived at that version —
    /// the committed work to the bit, and the jobs held (running first).
    type Cached = (u32, u64, Vec<JobId>);

    fn cache_of(t: &NodeTable, slot: usize) -> Cached {
        let n = t.get(GridNodeId(slot as u32));
        let held = n.running_job().map(|q| q.job).into_iter();
        (
            t.queue_versions()[slot],
            n.committed_work_secs().to_bits(),
            held.chain(n.queued_jobs()).collect(),
        )
    }

    /// A node whose version has not moved since `cache` was taken still
    /// holds exactly what it held then; the others are cached afresh.
    fn assert_versions_cover_changes(
        t: &NodeTable,
        cache: &mut [Cached],
    ) -> Result<(), TestCaseError> {
        for (slot, cached) in cache.iter_mut().enumerate() {
            let now = cache_of(t, slot);
            if now.0 == cached.0 {
                prop_assert_eq!(&now, &*cached, "node {} changed under one version", slot);
            }
            *cached = now;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under arbitrary enqueue/start/finish/fail/rejoin histories —
        /// including shard-style checkouts that commit back a queue of the
        /// same length holding different jobs — every mirror equals what a
        /// naive walk of the records gives: the load column, both bitsets
        /// across a word boundary, a queue version that moved whenever the
        /// node's committed work (*to the bit*: runtimes are tenths, whose
        /// sums depend on the order of addition) or the jobs it holds did,
        /// the aggregates, `least_loaded_alive` (least loaded, lowest id on
        /// ties, as the lease re-placement fallback expects), and the
        /// O(log N) random-alive select against `alive_ids().nth(n)`.
        #[test]
        fn indexes_match_naive_scans(
            ops in proptest::collection::vec((0u8..8, 0u32..67, 0usize..32), 1..300),
        ) {
            let mut t = NodeTable::new((0..67).map(|_| profile()).collect());
            assert_mirrors(&t)?;
            let mut cache: Vec<Cached> = (0..t.len()).map(|slot| cache_of(&t, slot)).collect();
            let mut job = 0u64;
            for (op, raw_id, pick) in ops {
                // Few enough distinct targets that queues grow and drain.
                let id = GridNodeId(raw_id % 5 * 16 + raw_id % 3);
                let runtime = 0.1 * (pick + 1) as f64;
                match op {
                    0 if t.is_alive(id) => {
                        job += 1;
                        t.enqueue(id, qj(job, runtime));
                    }
                    1 if t.is_alive(id) && t.get(id).running_job().is_none() => {
                        job += 1;
                        t.set_running(id, qj(job, runtime), SimTime::from_secs(1));
                    }
                    2 if t.is_alive(id) => {
                        t.take_running(id);
                    }
                    3 if t.is_alive(id) => {
                        t.pop_queue(id);
                    }
                    4 if t.is_alive(id) => t.mark_failed(id),
                    5 if !t.is_alive(id) => t.mark_rejoined(id),
                    6 if t.is_alive(id) => {
                        // Same load, different contents.
                        let mut n = t.checkout_node(id);
                        if n.pop_queue_local().is_some() {
                            job += 1;
                            n.enqueue_local(qj(job, runtime));
                        }
                        t.commit_node(id, n);
                    }
                    7 if t.is_alive(id) => {
                        let mut n = t.checkout_node(id);
                        if n.take_running_local().is_none() {
                            job += 1;
                            n.set_running_local(qj(job, runtime), SimTime::from_secs(1));
                        }
                        job += 1;
                        n.enqueue_local(qj(job, runtime));
                        t.commit_node(id, n);
                    }
                    _ => {}
                }
                assert_mirrors(&t)?;
                assert_versions_cover_changes(&t, &mut cache)?;
                prop_assert_eq!(t.least_loaded_alive(), scan_least_loaded(&t));
                let total: u64 = t.alive_ids().map(|i| t.get(i).load() as u64).sum();
                prop_assert_eq!(t.total_alive_load(), total);
                let idle = t.alive_ids().filter(|&i| t.get(i).load() == 0).count();
                prop_assert_eq!(t.idle_alive_count(), idle);
                if t.alive_count() > 0 {
                    let n = pick % t.alive_count();
                    let via_select = GridNodeId(t.alive_tree.select(n) as u32);
                    prop_assert_eq!(t.alive_ids().nth(n), Some(via_select));
                }
            }
        }

        /// `random_alive` draws once and names the node the Fenwick select
        /// names for that draw, on tables with every node alive (where it
        /// skips the select) and with some dead.
        #[test]
        fn random_alive_is_the_select_of_one_draw(
            len in 1usize..200,
            dead in proptest::collection::vec(any::<usize>(), 0..4),
            seed in any::<u64>(),
        ) {
            let mut t = NodeTable::new((0..len).map(|_| profile()).collect());
            for d in dead {
                let id = GridNodeId((d % len) as u32);
                if t.is_alive(id) && t.alive_count() > 1 {
                    t.mark_failed(id);
                }
            }
            let mut rng = dgrid_sim::rng::rng_for(seed, 0);
            let mut again = rng.clone();
            for _ in 0..32 {
                let drawn = t.random_alive(&mut rng);
                let n = again.gen_range(0..t.alive_count());
                prop_assert_eq!(drawn, Some(GridNodeId(t.alive_tree.select(n) as u32)));
                prop_assert!(drawn.is_some_and(|id| t.is_alive(id)));
            }
            prop_assert_eq!(rng.gen::<u64>(), again.gen::<u64>(), "one draw per call");
        }
    }
}
