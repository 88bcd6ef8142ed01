//! Grid nodes and the node table.
//!
//! The table is the kernel's hottest state and, at 10⁵–10⁶ mostly idle
//! desktops, much of its memory, so it is kept in columns and a node pays
//! for execution state only once it holds work. `GridNodeId` *is* the index
//! into every column:
//!
//! * the capability column — the caller's `Vec<NodeProfile>`, moved in;
//! * `loads` — each node's load (queued plus running) as a dense `u32`;
//! * `queue_versions` — a `u32` per node, bumped whenever the node's queue
//!   or running slot changes (`enqueue`, `pop_queue`, `set_running`,
//!   `take_running`, `commit_node` even at an unchanged load, `mark_failed`).
//!   It is what lets the centralized matchmaker keep each node's
//!   [`NodeTable::committed_work_secs`] in a dense `f64` column of its own
//!   and re-sum only the nodes that moved since it last looked. The sum
//!   itself is not kept here: it could only be kept exact by re-summing the
//!   queue front to back on every mutation (f64 addition does not
//!   associate, and the matchmaker's tie-break tests exact equality, so a
//!   sum maintained by adding and subtracting runtimes would break ties
//!   differently from the sum it stands for), and that makes draining a
//!   queue quadratic in its length for the five matchmakers that never ask;
//! * two bitsets, one bit per node in `u64` words: `alive_bits`, the only
//!   record of liveness, and `idle_bits` for live nodes with load 0, so a
//!   scan can test 64 nodes with one word;
//! * `work_of` — a 4-byte handle per node into the *work slab*, `NONE`
//!   until the node first holds a job. A slab entry ([`NodeWork`], 80 B)
//!   keeps the node's FIFO queue, running job and its finish time, busy
//!   seconds and completions. An entry is never freed: the node's
//!   statistics outlive its work;
//! * a Fenwick tree over the alive bits, built at the first departure, so
//!   [`NodeTable::random_alive`] selects the n-th live node in O(log N)
//!   while drawing the *same* RNG value and returning the *same* node as an
//!   O(N) `nth()` walk. While every node is alive the n-th live node is
//!   `n` itself and the tree is neither needed nor built;
//! * O(1) aggregates (total live load, count of idle live nodes) for the
//!   telemetry sampler.
//!
//! Every mutation goes through a `NodeTable` method that updates the
//! columns in the same step.

use std::collections::VecDeque;
use std::fmt;

use dgrid_resources::{Capabilities, JobId, NodeProfile};
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

/// A node's execution state, from the first job it holds: the slab entry,
/// and the copy of it the sharded kernel checks out of the table for a
/// conservative window (a worker thread mutates the copy, and
/// [`NodeTable::commit_node`] writes it back and reconciles the columns
/// once instead of per mutation).
///
/// "Each run node processes jobs in its job queue in FIFO order and only
/// processes one job at a time." (Section 2.)
#[derive(Clone, Debug)]
pub(crate) struct NodeWork {
    /// The jobs waiting behind the running one.
    queue: VecDeque<QueuedJob>,
    /// The running job while `is_running`: apart from its flag, the two
    /// fit in 80 bytes with the rest, where an `Option` takes 88.
    running: QueuedJob,
    is_running: bool,
    running_finish_at: SimTime,
    /// Seconds spent executing jobs.
    pub busy_secs: f64,
    /// Jobs completed.
    pub completed_jobs: u32,
}

// What a node costs: 4 B of handle while it has never held work, 80 B more
// from the first job it holds, and its queue's buffer once it queues one.
const _: () = assert!(std::mem::size_of::<WorkRef>() == 4);
const _: () = assert!(std::mem::size_of::<NodeWork>() == 80);

impl Default for NodeWork {
    fn default() -> Self {
        NodeWork {
            queue: VecDeque::new(),
            running: QueuedJob {
                job: JobId(0),
                runtime_secs: 0.0,
                epoch: 0,
            },
            is_running: false,
            running_finish_at: SimTime::ZERO,
            busy_secs: 0.0,
            completed_jobs: 0,
        }
    }
}

impl NodeWork {
    /// Jobs currently held: queued plus running.
    pub(crate) fn load(&self) -> usize {
        self.queue.len() + usize::from(self.is_running)
    }

    /// The currently executing job, if any.
    pub(crate) fn running_job(&self) -> Option<QueuedJob> {
        self.is_running.then_some(self.running)
    }

    /// When the running job will finish (stale if nothing is running).
    pub(crate) fn running_finish_at(&self) -> SimTime {
        self.running_finish_at
    }

    /// FIFO-queue a job.
    pub(crate) fn enqueue(&mut self, q: QueuedJob) {
        self.queue.push_back(q);
    }

    /// Dequeue the next job.
    pub(crate) fn pop_queue(&mut self) -> Option<QueuedJob> {
        self.queue.pop_front()
    }

    /// Begin executing a job.
    pub(crate) fn set_running(&mut self, q: QueuedJob, finish_at: SimTime) {
        debug_assert!(!self.is_running, "node already running a job");
        (self.running, self.is_running) = (q, true);
        self.running_finish_at = finish_at;
    }

    /// Release the running job.
    pub(crate) fn take_running(&mut self) -> Option<QueuedJob> {
        std::mem::take(&mut self.is_running).then_some(self.running)
    }

    /// Queued runtimes front to back, plus the running job's *full*
    /// runtime.
    fn committed_work_secs(&self) -> f64 {
        let queued: f64 = self.queue.iter().map(|q| q.runtime_secs).sum();
        queued + self.running_job().map_or(0.0, |q| q.runtime_secs)
    }
}

/// A node's handle into the work slab.
#[derive(Clone, Copy, PartialEq, Eq)]
struct WorkRef(u32);

impl WorkRef {
    /// The node has never held a job.
    const NONE: WorkRef = WorkRef(u32::MAX);
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
        let first = Some(word).filter(|&x| x != 0);
        std::iter::successors(first, |&x| Some(x & (x - 1)).filter(|&x| x != 0))
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
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
    /// Advertised capabilities: the caller's buffer, moved in.
    profiles: Vec<NodeProfile>,
    alive: usize,
    /// Each node's load, queued plus running (zero for dead nodes).
    loads: Vec<u32>,
    /// Bumped (wrapping) by every change to the node's queue or running
    /// slot, so a reader can tell which of its cached sums are stale.
    queue_versions: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is alive.
    alive_bits: Vec<u64>,
    /// Same layout: set iff node `i` is alive with load 0.
    idle_bits: Vec<u64>,
    /// Built at the first departure.
    alive_tree: Option<AliveTree>,
    /// Sum of `loads` over live nodes.
    total_load: u64,
    /// Live nodes with load 0.
    idle_alive: usize,
    /// Each node's entry in `work`.
    work_of: Vec<WorkRef>,
    /// The work slab: an entry per node that has ever held a job.
    work: Vec<NodeWork>,
}

/// Word index and bit mask of a node's position in the bitsets.
fn bit_of(slot: usize) -> (usize, u64) {
    (slot / 64, 1 << (slot % 64))
}

impl NodeTable {
    pub(crate) fn new(profiles: Vec<NodeProfile>) -> Self {
        let n = profiles.len();
        let mut all_ones = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = all_ones.last_mut() {
            // Bits past the last node stay clear.
            *last >>= (64 - n % 64) % 64;
        }
        NodeTable {
            profiles,
            alive: n,
            loads: vec![0; n],
            queue_versions: vec![0; n],
            alive_bits: all_ones.clone(),
            idle_bits: all_ones,
            alive_tree: None,
            total_load: 0,
            idle_alive: n,
            work_of: vec![WorkRef::NONE; n],
            work: Vec::new(),
        }
    }

    /// Total number of nodes ever registered.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Number of currently live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// A node's advertised capabilities.
    pub fn capabilities(&self, id: GridNodeId) -> &Capabilities {
        &self.profiles[id.0 as usize].capabilities
    }

    /// The capability column, indexed by node.
    pub(crate) fn profiles(&self) -> &[NodeProfile] {
        &self.profiles
    }

    /// A node's current load: jobs queued plus running.
    pub fn load_of(&self, id: GridNodeId) -> usize {
        self.loads[id.0 as usize] as usize
    }

    /// Per node, a counter that moves whenever its queue or running slot
    /// does: anything derived from those (its `committed_work_secs`, say)
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
        let slot = id.0 as usize;
        debug_assert!(slot < self.len(), "{id} is not in the table");
        let (word, bit) = bit_of(slot);
        self.alive_bits[word] & bit != 0
    }

    /// Handles of all live nodes, ascending.
    pub fn alive_ids(&self) -> impl Iterator<Item = GridNodeId> + '_ {
        set_bits(&self.alive_bits).map(|slot| GridNodeId(slot as u32))
    }

    /// A uniformly random live node.
    ///
    /// Draws one `gen_range(0..alive)` value `n` and returns the n-th
    /// smallest live id, through the Fenwick select once a node has
    /// departed — byte-identity depends on both halves. While every node is
    /// alive the n-th smallest live id is `n` itself.
    pub fn random_alive<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<GridNodeId> {
        if self.alive == 0 {
            return None;
        }
        let n = rng.gen_range(0..self.alive);
        let slot = match &self.alive_tree {
            Some(tree) if self.alive < self.len() => tree.select(n),
            _ => n,
        };
        Some(GridNodeId(slot as u32))
    }

    /// The node's slab entry, if it has ever held work.
    fn entry(&self, id: GridNodeId) -> Option<&NodeWork> {
        let WorkRef(e) = self.work_of[id.0 as usize];
        self.work.get(e as usize)
    }

    /// The node's slab entry, if it has ever held work, for writing.
    fn entry_mut(&mut self, id: GridNodeId) -> Option<&mut NodeWork> {
        let WorkRef(e) = self.work_of[id.0 as usize];
        self.work.get_mut(e as usize)
    }

    /// The node's slab entry, made on its first job.
    fn entry_or_new(&mut self, id: GridNodeId) -> &mut NodeWork {
        let slot = id.0 as usize;
        if self.work_of[slot] == WorkRef::NONE {
            self.work_of[slot] = WorkRef(self.work.len() as u32);
            self.work.push(NodeWork::default());
        }
        &mut self.work[self.work_of[slot].0 as usize]
    }

    /// The currently executing job, if any.
    pub(crate) fn running_job(&self, id: GridNodeId) -> Option<QueuedJob> {
        self.entry(id).and_then(NodeWork::running_job)
    }

    /// When the node's running job will finish (stale if nothing is
    /// running).
    pub(crate) fn running_finish_at(&self, id: GridNodeId) -> SimTime {
        self.entry(id)
            .map_or(SimTime::ZERO, NodeWork::running_finish_at)
    }

    /// Ids of the node's queued jobs, FIFO order.
    pub(crate) fn queued_jobs(&self, id: GridNodeId) -> impl Iterator<Item = JobId> + '_ {
        self.entry(id)
            .into_iter()
            .flat_map(|w| &w.queue)
            .map(|q| q.job)
    }

    /// Queued runtimes plus the running job's *full* runtime — the
    /// instant-independent committed-work estimate the centralized
    /// baseline ranks nodes by.
    pub(crate) fn committed_work_secs(&self, id: GridNodeId) -> f64 {
        self.entry(id).map_or(0.0, NodeWork::committed_work_secs)
    }

    /// Total seconds the node has spent executing jobs.
    pub(crate) fn busy_secs(&self, id: GridNodeId) -> f64 {
        self.entry(id).map_or(0.0, |w| w.busy_secs)
    }

    /// Jobs the node has completed.
    pub(crate) fn completed_jobs(&self, id: GridNodeId) -> u64 {
        self.entry(id).map_or(0, |w| u64::from(w.completed_jobs))
    }

    /// Credit the node with `secs` of execution.
    pub(crate) fn add_busy_secs(&mut self, id: GridNodeId, secs: f64) {
        self.entry_or_new(id).busy_secs += secs;
    }

    /// Count one completion on the node.
    pub(crate) fn count_completion(&mut self, id: GridNodeId) {
        self.entry_or_new(id).completed_jobs += 1;
    }

    /// Bring every column of a live node in line with its new load, after
    /// its queue or running slot changed. O(1).
    fn resync(&mut self, id: GridNodeId, new: usize) {
        let slot = id.0 as usize;
        let (old, new) = (self.loads[slot], new as u32);
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
        self.entry_or_new(id).enqueue(q);
        self.resync(id, self.load_of(id) + 1);
    }

    /// Dequeue the next job from a node's FIFO queue.
    pub(crate) fn pop_queue(&mut self, id: GridNodeId) -> Option<QueuedJob> {
        let q = self.entry_mut(id)?.pop_queue()?;
        self.resync(id, self.load_of(id) - 1);
        Some(q)
    }

    /// Begin executing a job on an idle live node.
    pub(crate) fn set_running(&mut self, id: GridNodeId, q: QueuedJob, finish_at: SimTime) {
        self.entry_or_new(id).set_running(q, finish_at);
        self.resync(id, self.load_of(id) + 1);
    }

    /// Release a node's running job (completion, kill, or stale release).
    pub(crate) fn take_running(&mut self, id: GridNodeId) -> Option<QueuedJob> {
        let q = self.entry_mut(id)?.take_running()?;
        self.resync(id, self.load_of(id) - 1);
        Some(q)
    }

    /// Copy a live node's execution state out of the table for exclusive
    /// shard-local mutation during one conservative window. Nothing else
    /// may touch the node until [`commit_node`](Self::commit_node) writes
    /// the copy back. Aliveness cannot change while a node is checked out
    /// (failures and rejoins are barrier-phase events).
    pub(crate) fn checkout_node(&self, id: GridNodeId) -> NodeWork {
        debug_assert!(self.is_alive(id), "checkout of dead {id}");
        self.entry(id).cloned().unwrap_or_default()
    }

    /// Write a checked-out node back, reconciling every column with
    /// whatever the shard did to the copy in one step — also at an
    /// unchanged load, where the queue may hold different jobs. A node that
    /// had no slab entry gets one only if the copy holds or did work.
    pub(crate) fn commit_node(&mut self, id: GridNodeId, node: NodeWork) {
        debug_assert!(self.is_alive(id), "commit must not change {id} aliveness");
        let load = node.load();
        let blank = load == 0 && node.busy_secs == 0.0 && node.completed_jobs == 0;
        if self.entry(id).is_some() || !blank {
            *self.entry_or_new(id) = node;
        }
        self.resync(id, load);
    }

    pub(crate) fn mark_failed(&mut self, id: GridNodeId) {
        let slot = id.0 as usize;
        assert!(self.is_alive(id), "failing dead node {id}");
        let n = self.len();
        self.alive_tree
            .get_or_insert_with(|| AliveTree::all_ones(n))
            .add(slot, -1);
        let load = self.loads[slot];
        self.total_load -= u64::from(load);
        if load == 0 {
            self.idle_alive -= 1;
        }
        self.loads[slot] = 0;
        self.queue_versions[slot] = self.queue_versions[slot].wrapping_add(1);
        let (word, bit) = bit_of(slot);
        self.alive_bits[word] &= !bit;
        self.idle_bits[word] &= !bit;
        if let Some(w) = self.entry_mut(id) {
            w.queue = VecDeque::new();
            w.is_running = false;
        }
        self.alive -= 1;
    }

    pub(crate) fn mark_rejoined(&mut self, id: GridNodeId) {
        let slot = id.0 as usize;
        assert!(!self.is_alive(id), "rejoining live node {id}");
        self.alive += 1;
        self.alive_tree
            .as_mut()
            .expect("a node departed before it rejoins")
            .add(slot, 1);
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
        n.set_running(qj(1, 10.0), SimTime::from_secs(10));
        n.enqueue(qj(2, 5.0));
        n.enqueue(qj(3, 5.0));
        t.commit_node(GridNodeId(0), n);
        assert_eq!(t.load_of(GridNodeId(0)), 3);
        assert_eq!(t.total_alive_load(), 3);
        assert_eq!(t.idle_alive_count(), 1);
        assert_eq!(t.least_loaded_alive(), Some(GridNodeId(1)));
        // Drain it back down through another checkout.
        let mut n = t.checkout_node(GridNodeId(0));
        assert_eq!(n.take_running().unwrap().job, JobId(1));
        assert_eq!(n.pop_queue().unwrap().job, JobId(2));
        assert_eq!(n.pop_queue().unwrap().job, JobId(3));
        t.commit_node(GridNodeId(0), n);
        assert_eq!(t.load_of(GridNodeId(0)), 0);
        assert_eq!(t.total_alive_load(), 0);
        assert_eq!(t.idle_alive_count(), 2);
        assert_eq!(t.least_loaded_alive(), Some(GridNodeId(0)));
    }

    /// What one node holds, as a plain record kept beside the table under
    /// test: the reference every column, bitset, total and version of the
    /// table is checked against.
    #[derive(Clone, Default)]
    struct ModelNode {
        dead: bool,
        queue: VecDeque<QueuedJob>,
        running: Option<(QueuedJob, SimTime)>,
        busy_secs: f64,
        completed_jobs: u64,
        /// Moves with every change to `queue` or `running`, and at every
        /// commit and failure, as `queue_versions` promises.
        version: u32,
        /// Has the node ever held a job?
        ever_held: bool,
    }

    impl ModelNode {
        fn load(&self) -> usize {
            self.queue.len() + usize::from(self.running.is_some())
        }

        fn bump(&mut self) {
            self.version = self.version.wrapping_add(1);
            self.ever_held |= self.load() > 0;
        }

        /// Queued runtimes front to back, then the running job's: the sum
        /// to the bit, since f64 addition does not associate.
        fn committed_work_secs(&self) -> f64 {
            let queued: f64 = self.queue.iter().map(|q| q.runtime_secs).sum();
            queued + self.running.map_or(0.0, |(q, _)| q.runtime_secs)
        }
    }

    fn same_job(a: Option<QueuedJob>, b: Option<QueuedJob>) -> bool {
        let key = |q: Option<QueuedJob>| q.map(|q| (q.job, q.runtime_secs.to_bits(), q.epoch));
        key(a) == key(b)
    }

    /// The table against the model, node by node and in total.
    fn assert_matches_model(t: &NodeTable, model: &[ModelNode]) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.len(), model.len());
        let live: Vec<GridNodeId> = (0..model.len() as u32)
            .map(GridNodeId)
            .filter(|id| !model[id.0 as usize].dead)
            .collect();
        prop_assert_eq!(t.alive_count(), live.len());
        prop_assert_eq!(t.alive_ids().collect::<Vec<_>>(), live.clone());
        for (slot, m) in model.iter().enumerate() {
            let id = GridNodeId(slot as u32);
            prop_assert_eq!(t.is_alive(id), !m.dead, "{} liveness", id);
            prop_assert_eq!(t.load_of(id), m.load(), "{} load", id);
            prop_assert!(
                same_job(t.running_job(id), m.running.map(|(q, _)| q)),
                "{} running",
                id
            );
            if let Some((_, finish_at)) = m.running {
                prop_assert_eq!(t.running_finish_at(id), finish_at, "{} finish", id);
            }
            let queued: Vec<JobId> = m.queue.iter().map(|q| q.job).collect();
            prop_assert_eq!(
                t.queued_jobs(id).collect::<Vec<_>>(),
                queued,
                "{} queue",
                id
            );
            prop_assert_eq!(
                t.committed_work_secs(id).to_bits(),
                m.committed_work_secs().to_bits(),
                "{} committed work",
                id
            );
            let busy = t.busy_secs(id).to_bits();
            prop_assert_eq!(busy, m.busy_secs.to_bits(), "{} busy", id);
            prop_assert_eq!(t.completed_jobs(id), m.completed_jobs, "{} completed", id);
            // A slab entry from the first job held, and never before.
            prop_assert_eq!(t.entry(id).is_some(), m.ever_held, "{} slab entry", id);
            prop_assert_eq!(t.queue_versions()[slot], m.version, "{} version", id);
            let (word, bit) = bit_of(slot);
            prop_assert_eq!(
                t.alive_words()[word] & bit != 0,
                !m.dead,
                "{} alive bit",
                id
            );
            let idle = !m.dead && m.load() == 0;
            prop_assert_eq!(t.idle_words()[word] & bit != 0, idle, "{} idle bit", id);
        }
        // Bits past the last node stay clear.
        for words in [t.alive_words(), t.idle_words()] {
            for (w, &word) in words.iter().enumerate() {
                let past = (0..64).filter(|b| w * 64 + b >= model.len());
                prop_assert!(past.clone().all(|b| word >> b & 1 == 0));
            }
        }
        let total: usize = live.iter().map(|id| model[id.0 as usize].load()).sum();
        prop_assert_eq!(t.total_alive_load(), total as u64);
        let entries = model.iter().filter(|m| m.ever_held).count();
        prop_assert_eq!(t.work.len(), entries);
        let idle = live.iter().filter(|id| model[id.0 as usize].load() == 0);
        prop_assert_eq!(t.idle_alive_count(), idle.count());
        // Least loaded, lowest id on ties: the lease re-placement fallback.
        let least = live
            .iter()
            .min_by_key(|id| (model[id.0 as usize].load(), id.0));
        prop_assert_eq!(t.least_loaded_alive(), least.copied());
        Ok(())
    }

    /// `random_alive` draws once per call and names the n-th live node for
    /// draw n.
    fn assert_random_alive(
        t: &NodeTable,
        model: &[ModelNode],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let live: Vec<GridNodeId> = (0..model.len() as u32)
            .map(GridNodeId)
            .filter(|id| !model[id.0 as usize].dead)
            .collect();
        let mut rng = dgrid_sim::rng::rng_for(seed, 0);
        let mut again = rng.clone();
        for _ in 0..4 {
            let drawn = t.random_alive(&mut rng);
            let expected = (!live.is_empty()).then(|| live[again.gen_range(0..live.len())]);
            prop_assert_eq!(drawn, expected);
        }
        prop_assert_eq!(rng.gen::<u64>(), again.gen::<u64>(), "one draw per call");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under arbitrary enqueue/start/finish/fail/rejoin histories, with
        /// shard-style checkouts that commit back a queue of the same length
        /// holding different jobs, the table holds what a plain per-node
        /// model holds: every node's load, running job, finish time, queue,
        /// committed work (to the bit: runtimes are tenths, whose sums
        /// depend on the order of addition), busy seconds, completions and
        /// queue version; both bitsets across a word boundary; the totals;
        /// `least_loaded_alive`; and `random_alive`, one draw a call, with
        /// every node alive, after departures and after rejoins.
        #[test]
        fn table_matches_a_per_node_model(
            ops in proptest::collection::vec((0u8..9, 0u32..67, 0usize..32), 1..300),
            seed in any::<u64>(),
        ) {
            const N: usize = 67;
            let mut t = NodeTable::new((0..N).map(|_| profile()).collect());
            let mut model = vec![ModelNode::default(); N];
            assert_matches_model(&t, &model)?;
            assert_random_alive(&t, &model, seed)?;
            let mut job = 0u64;
            let mut next = |runtime: f64| {
                job += 1;
                qj(job, runtime)
            };
            for (step, (op, raw_id, pick)) in ops.into_iter().enumerate() {
                // Few enough distinct targets that queues grow and drain.
                let id = GridNodeId(raw_id % 5 * 16 + raw_id % 3);
                let m = &mut model[id.0 as usize];
                let runtime = 0.1 * (pick + 1) as f64;
                let finish_at = SimTime::from_secs(pick as u64);
                match op {
                    0 if !m.dead => {
                        let q = next(runtime);
                        t.enqueue(id, q);
                        m.queue.push_back(q);
                        m.bump();
                    }
                    1 if !m.dead && m.running.is_none() => {
                        let q = next(runtime);
                        t.set_running(id, q, finish_at);
                        m.running = Some((q, finish_at));
                        m.bump();
                    }
                    2 if !m.dead => {
                        let got = t.take_running(id);
                        prop_assert!(same_job(got, m.running.take().map(|(q, _)| q)));
                        if let Some(q) = got {
                            m.bump();
                            // What a completion credits the node with.
                            t.add_busy_secs(id, q.runtime_secs);
                            t.count_completion(id);
                            m.busy_secs += q.runtime_secs;
                            m.completed_jobs += 1;
                        }
                    }
                    3 if !m.dead => {
                        let got = t.pop_queue(id);
                        prop_assert!(same_job(got, m.queue.pop_front()));
                        if got.is_some() {
                            m.bump();
                        }
                    }
                    4 if !m.dead => {
                        t.mark_failed(id);
                        m.dead = true;
                        m.queue.clear();
                        m.running = None;
                        m.bump();
                    }
                    5 if m.dead => {
                        t.mark_rejoined(id);
                        m.dead = false;
                    }
                    6 if !m.dead => {
                        // Same load, different contents.
                        let mut n = t.checkout_node(id);
                        if n.pop_queue().is_some() {
                            let q = next(runtime);
                            n.enqueue(q);
                            m.queue.pop_front();
                            m.queue.push_back(q);
                        }
                        t.commit_node(id, n);
                        m.bump();
                    }
                    7 if !m.dead => {
                        // Finish or start the running job, and queue one.
                        let mut n = t.checkout_node(id);
                        match n.take_running() {
                            Some(q) => {
                                n.busy_secs += q.runtime_secs;
                                n.completed_jobs += 1;
                                m.busy_secs += q.runtime_secs;
                                m.completed_jobs += 1;
                                m.running = None;
                            }
                            None => {
                                let q = next(runtime);
                                n.set_running(q, finish_at);
                                m.running = Some((q, finish_at));
                            }
                        }
                        let q = next(runtime);
                        n.enqueue(q);
                        m.queue.push_back(q);
                        t.commit_node(id, n);
                        m.bump();
                    }
                    8 if !m.dead => {
                        // A checkout that changes nothing still commits.
                        let n = t.checkout_node(id);
                        t.commit_node(id, n);
                        m.bump();
                    }
                    _ => {}
                }
                assert_matches_model(&t, &model)?;
                assert_random_alive(&t, &model, seed ^ step as u64)?;
            }
        }

        /// `random_alive` draws once and names the node the Fenwick select
        /// names for that draw, on tables with every node alive (where no
        /// tree is built) and with some dead.
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
            prop_assert_eq!(t.alive_tree.is_some(), t.alive_count() < len);
            let mut rng = dgrid_sim::rng::rng_for(seed, 0);
            let mut again = rng.clone();
            for _ in 0..32 {
                let drawn = t.random_alive(&mut rng);
                let n = again.gen_range(0..t.alive_count());
                prop_assert_eq!(drawn, t.alive_ids().nth(n));
                if let Some(tree) = &t.alive_tree {
                    prop_assert_eq!(drawn, Some(GridNodeId(tree.select(n) as u32)));
                }
            }
            prop_assert_eq!(rng.gen::<u64>(), again.gen::<u64>(), "one draw per call");
        }
    }
}
