//! Per-job lifecycle state.

use std::collections::HashMap;

use dgrid_resources::{JobId, JobProfile};
use dgrid_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::node::GridNodeId;

/// Who currently plays the *owner* role for a job.
///
/// In the P2P system the owner is a peer chosen through the overlay
/// (Figure 1); in the centralized baseline the owner role is played by the
/// reliable server, which by the paper's client-server model never fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OwnerRef {
    /// The trusted central server (baseline only).
    Server,
    /// A peer owner node.
    Peer(GridNodeId),
}

impl OwnerRef {
    /// The peer id, if the owner is a peer.
    pub fn peer(self) -> Option<GridNodeId> {
        match self {
            OwnerRef::Peer(n) => Some(n),
            OwnerRef::Server => None,
        }
    }
}

/// Lifecycle states of a job in the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, owner assignment or matchmaking in progress.
    Matching,
    /// Matched; in transit to or queued at the run node.
    Queued,
    /// Executing on the run node.
    Running,
    /// Interrupted by a failure; recovery in progress.
    Recovering,
    /// Finished; results returned to the client.
    Completed,
    /// Permanently failed (matchmaking exhausted, resubmits exhausted, or
    /// killed by the sandbox).
    Failed,
}

impl JobState {
    /// No further transitions happen from a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed)
    }
}

/// Why a job permanently failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureReason {
    /// Matchmaking could not find a capable node after all retries.
    NoMatch,
    /// Both owner and run node failed too many times; resubmission budget
    /// exhausted.
    ResubmitsExhausted,
    /// The sandbox killed the job for exceeding its declared resource quota.
    SandboxKilled,
    /// A job this one depends on permanently failed, so its input will
    /// never exist (Section 5 dependencies).
    DependencyFailed,
    /// The simulation horizon ended before the job finished.
    HorizonExceeded,
}

/// The engine's record for one job (the replicated "job profile plus
/// monitoring state" that owner and run node each hold in the real system).
///
/// It holds only what every job needs from submission to the report: a
/// DAG hold lives in the engine, the owner in the table's [`OwnerColumn`],
/// the lease in its lease-only column, and times and nodes not reached yet
/// are sentinels behind accessors rather than `Option`s.
#[derive(Clone, Debug)]
pub(crate) struct JobRecord {
    pub profile: JobProfile,
    /// True wall-clock the job will take (differs from the profile's
    /// declared runtime for runaway jobs).
    pub actual_runtime_secs: f64,
    pub state: JobState,
    /// The run node's id, or [`NO_RUN_NODE`].
    run_node: u32,
    /// Invalidates stale in-flight events after any reassignment.
    pub epoch: u32,
    /// Matchmaking attempts in the current submission.
    pub match_attempts: u32,
    /// Consecutive lost/timed-out RPCs for the current in-flight transfer
    /// (drives capped exponential backoff; reset on any delivery).
    pub rpc_attempts: u32,
    /// Times the client had to resubmit after dual failure.
    pub resubmits: u32,
    pub first_submitted_at: SimTime,
    /// When the job last entered a run node's queue (heartbeats start).
    queued_at: SimTime,
    started_at: SimTime,
    pub failure: Option<FailureReason>,
}

const _: () = assert!(std::mem::size_of::<JobRecord>() <= 128);

/// [`JobRecord`]'s run node while it has none.
const NO_RUN_NODE: u32 = u32::MAX;

impl JobRecord {
    pub fn new(profile: JobProfile, actual_runtime_secs: f64, submitted_at: SimTime) -> Self {
        JobRecord {
            profile,
            actual_runtime_secs,
            state: JobState::Matching,
            run_node: NO_RUN_NODE,
            epoch: 0,
            match_attempts: 0,
            rpc_attempts: 0,
            resubmits: 0,
            first_submitted_at: submitted_at,
            queued_at: SimTime::MAX,
            started_at: SimTime::MAX,
            failure: None,
        }
    }

    /// The node the job was sent to run on, if it has one.
    pub fn run_node(&self) -> Option<GridNodeId> {
        (self.run_node != NO_RUN_NODE).then_some(GridNodeId(self.run_node))
    }

    pub fn set_run_node(&mut self, node: Option<GridNodeId>) {
        self.run_node = match node {
            Some(node) => {
                debug_assert_ne!(node.0, NO_RUN_NODE, "the sentinel is not a node");
                node.0
            }
            None => NO_RUN_NODE,
        };
    }

    /// Bump the epoch, invalidating all in-flight events for this job.
    pub fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// When the job last entered a run node's queue, if it ever did.
    pub fn queued_at(&self) -> Option<SimTime> {
        (self.queued_at != SimTime::MAX).then_some(self.queued_at)
    }

    pub fn set_queued_at(&mut self, now: SimTime) {
        self.queued_at = now;
    }

    /// Record the first start; later starts (re-runs) keep it.
    pub fn mark_started(&mut self, now: SimTime) {
        if self.started_at == SimTime::MAX {
            self.started_at = now;
        }
    }

    /// Wait time: submission until execution begins — the metric of
    /// Figure 2.
    pub fn wait_secs(&self) -> Option<f64> {
        (self.started_at != SimTime::MAX)
            .then(|| self.started_at.since(self.first_submitted_at).as_secs_f64())
    }
}

/// Ids with a value below this use the dense direct-index column; anything
/// larger (hash-shaped test ids) falls back to the sparse map.
pub(crate) const DENSE_ID_LIMIT: u64 = 1 << 21;

/// `dense` entry of an id with no index.
const ABSENT: u32 = u32::MAX;

/// A map from raw ids to `u32` indices. The engine's job table and the
/// stream consumers' per-id tables are addressed through it: the span
/// assembler's open spans, the analytics' job tracks and the binary
/// encoder's intern tables.
///
/// Engine ids are small sequential integers, usually inserted as 0, 1, 2, …
/// each at its own index. While they arrive that way the index is the
/// identity on a prefix `0..prefix` and stores nothing: a lookup is one
/// compare. The first insert or remove that breaks the pattern materialises
/// the prefix into the columns below, which answer from then on: ids below
/// [`DENSE_ID_LIMIT`] index a `Vec<u32>` directly (4 bytes per id up to the
/// largest one inserted) and no id is hashed on that path; ids from the
/// limit up (hash-shaped test ids) fall back to a hash map.
#[derive(Default)]
pub(crate) struct IdIndex {
    /// Until `materialised`, ids `0..prefix` are their own indices and no
    /// other id has one.
    prefix: u64,
    materialised: bool,
    /// `dense[id]` is the index of a dense id, or [`ABSENT`].
    dense: Vec<u32>,
    sparse: HashMap<u64, u32>,
}

impl IdIndex {
    /// The index of `id`, if it has one.
    #[inline]
    pub fn get(&self, id: u64) -> Option<u32> {
        if !self.materialised {
            (id < self.prefix).then_some(id as u32)
        } else if id < DENSE_ID_LIMIT {
            self.dense
                .get(id as usize)
                .copied()
                .filter(|&idx| idx != ABSENT)
        } else {
            self.sparse.get(&id).copied()
        }
    }

    /// The entry of `id` — its index, or [`ABSENT`] — in an index that is
    /// materialised or empty, without the identity check: for a table that
    /// keeps sentinels of its own above its indices and so leaves the
    /// identity path at its first insert.
    #[inline]
    fn entry(&self, id: u64) -> u32 {
        debug_assert!(self.materialised || self.prefix == 0);
        let entry = if id < DENSE_ID_LIMIT {
            self.dense.get(id as usize)
        } else {
            self.sparse.get(&id)
        };
        entry.copied().unwrap_or(ABSENT)
    }

    /// Give `id` the index `idx`, replacing any index it had.
    #[inline]
    pub fn insert(&mut self, id: u64, idx: u32) {
        debug_assert_ne!(idx, ABSENT, "the absent sentinel is not an index");
        if !self.materialised {
            if id == self.prefix && u64::from(idx) == id {
                self.prefix += 1;
                return;
            }
            self.materialise();
        }
        if id < DENSE_ID_LIMIT {
            let slot = id as usize;
            if slot >= self.dense.len() {
                self.dense.resize(slot + 1, ABSENT);
            }
            self.dense[slot] = idx;
        } else {
            self.sparse.insert(id, idx);
        }
    }

    /// Take `id`'s index away, returning it.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<u32> {
        if !self.materialised {
            if id >= self.prefix {
                return None;
            }
            self.materialise();
        }
        if id < DENSE_ID_LIMIT {
            let slot = self.dense.get_mut(id as usize)?;
            (*slot != ABSENT).then(|| std::mem::replace(slot, ABSENT))
        } else {
            self.sparse.remove(&id)
        }
    }

    /// Write the identity prefix out into the columns.
    #[cold]
    fn materialise(&mut self) {
        self.materialised = true;
        let prefix = std::mem::take(&mut self.prefix);
        let dense_end = prefix.min(DENSE_ID_LIMIT);
        // Indices are `u32`, so the prefix never passes `u32::MAX`.
        self.dense = (0..dense_end as u32).collect();
        self.sparse
            .extend((dense_end..prefix).map(|id| (id, id as u32)));
    }
}

/// `len` as the next index of a table addressed through an [`IdIndex`].
///
/// # Panics
/// If the table already holds 2³² − 1 entries. No stream or run comes near
/// that: it would take more than four billion distinct ids.
pub(crate) fn next_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != ABSENT)
        .expect("a table addressed by IdIndex holds fewer than 2³² − 1 entries")
}

/// [`IdIndex`] entry of an id the run was handed whose job has no record
/// yet: an arrival not submitted so far, or a DAG child still held. The
/// first one a table declares takes its index off the identity path.
const PENDING: u32 = u32::MAX - 2;
/// [`IdIndex`] entry of an id whose job reached its terminal event and
/// whose record was freed.
const RETIRED: u32 = u32::MAX - 1;

/// The engine's job store: a slab of the records of live jobs, addressed
/// by [`JobId`] through an [`IdIndex`], beside the [`OwnerColumn`] that
/// names each one's owner and, in lease mode only, the [`LeaseClock`] of
/// each slot.
///
/// A job's record exists from its first submission to its terminal event,
/// so the table's memory follows the jobs in flight, not every job the run
/// was handed. The index keeps one entry per id for the whole run: a slot,
/// [`PENDING`] before the record exists, or [`RETIRED`] after it is freed.
/// The engine treats a retired job as it treats a terminal record; a
/// handler that finds no record for any other id — one the run was never
/// handed, or one not submitted yet — has met a broken invariant, which it
/// counts in `unknown_job_events`. Freed slots go on a free list and are
/// reused before the slab grows, so its length is the peak number of live
/// records. A free slot keeps its last record until it is reused; a slot is
/// live while the index maps its record's id to it.
#[derive(Default)]
pub(crate) struct JobTable {
    slots: Vec<JobRecord>,
    free: Vec<u32>,
    index: IdIndex,
    owners: OwnerColumn,
    /// One clock per slot in lease mode; empty, and never grown, otherwise.
    leases: Vec<LeaseClock>,
    leased: bool,
}

/// The lease of a job-table slot's job: whether one is held and under
/// which grant, the expiry armed last, and which one `LeaseExpire` the
/// queue holds for the job.
///
/// Each grant or renewal arms a new expiry under a queue seq reserved for
/// it, but only the first arm with none queued files an event. When that
/// event pops, a later arm has superseded it unless its seq is `armed`'s;
/// a superseded one files the latest arm in its place, under the time and
/// seq reserved for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LeaseClock {
    /// Monotonic lease grant/renewal counter; never reset while the job
    /// lives, so a reissued lease can never collide with a stale in-flight
    /// event.
    pub seq: u64,
    /// Whether a lease is active; the active one is always number `seq`.
    /// Renew/expire events carry the seq they were scheduled under and are
    /// discarded when it no longer matches (the lease analogue of the
    /// epoch).
    pub held: bool,
    /// When the latest armed expiry is due.
    pub due: SimTime,
    /// The queue seq reserved for the latest armed expiry.
    pub armed: u64,
    /// The seq the queued `LeaseExpire` carries, [`NOT_FILED`] when none
    /// is queued.
    pub filed: u64,
}

/// [`LeaseClock::filed`] of a job with no `LeaseExpire` queued: no queue
/// seq reaches it.
pub(crate) const NOT_FILED: u64 = u64::MAX;

impl LeaseClock {
    /// The clock of a freshly admitted job: no lease, nothing armed,
    /// nothing queued.
    const IDLE: LeaseClock = LeaseClock {
        seq: 0,
        held: false,
        due: SimTime::ZERO,
        armed: NOT_FILED,
        filed: NOT_FILED,
    };

    /// Issue the next lease number and make it the active lease.
    pub fn grant(&mut self) -> u64 {
        self.seq += 1;
        self.held = true;
        self.seq
    }

    /// Is lease `seq` the active one?
    pub fn holds(&self, seq: u64) -> bool {
        self.held && self.seq == seq
    }
}

impl JobTable {
    /// An empty table; `leased` gives every slot a [`LeaseClock`].
    pub fn new(leased: bool) -> JobTable {
        JobTable {
            leased,
            ..JobTable::default()
        }
    }

    /// Hand the run job `id`, whose record is created later by
    /// [`JobTable::admit`]; `false` (and no change) if it was handed over
    /// already.
    pub fn declare(&mut self, id: JobId) -> bool {
        if self.index.entry(id.0) != ABSENT {
            return false;
        }
        self.index.insert(id.0, PENDING);
        true
    }

    /// Was `job` handed to the run but has no record yet?
    pub fn is_pending(&self, job: JobId) -> bool {
        self.index.entry(job.0) == PENDING
    }

    /// Did `job` reach its terminal event and lose its record?
    pub fn is_retired(&self, job: JobId) -> bool {
        self.index.entry(job.0) == RETIRED
    }

    /// Give the pending job `id` its record, in a free slot if there is one.
    /// It names no owner.
    pub fn admit(&mut self, id: JobId, record: JobRecord) {
        debug_assert!(self.is_pending(id), "{id} admitted twice or never declared");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = record;
                if self.leased {
                    self.leases[slot as usize] = LeaseClock::IDLE;
                }
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < PENDING)
                    .expect("fewer than 2³² − 2 jobs are live at once");
                self.slots.push(record);
                self.owners.push_unowned();
                if self.leased {
                    self.leases.push(LeaseClock::IDLE);
                }
                slot
            }
        };
        self.index.insert(id.0, slot);
    }

    /// The lease of the job in `slot`, one [`JobTable::slot`] named.
    ///
    /// # Panics
    /// Outside lease mode, where no slot has one.
    #[inline]
    pub fn lease_mut(&mut self, slot: u32) -> &mut LeaseClock {
        &mut self.leases[slot as usize]
    }

    /// The job in `slot` holds no lease any more; a no-op outside lease
    /// mode.
    #[inline]
    pub fn end_lease(&mut self, slot: u32) {
        if let Some(lease) = self.leases.get_mut(slot as usize) {
            lease.held = false;
        }
    }

    /// Free `job`'s record and mark it retired; a pending job is retired
    /// without one. No peer owns it afterwards. A no-op for a job that is
    /// absent or retired already.
    pub fn retire(&mut self, job: JobId) {
        match self.index.entry(job.0) {
            RETIRED | ABSENT => return,
            PENDING => {}
            slot => {
                self.owners.set(slot, None);
                self.free.push(slot);
            }
        }
        self.index.insert(job.0, RETIRED);
    }

    /// The slot of `job`'s live record.
    #[inline]
    pub fn slot(&self, job: JobId) -> Option<u32> {
        let entry = self.index.entry(job.0);
        (entry < PENDING).then_some(entry)
    }

    /// The record in `slot`, one [`JobTable::slot`] named.
    #[inline]
    pub fn at_mut(&mut self, slot: u32) -> &mut JobRecord {
        &mut self.slots[slot as usize]
    }

    pub fn get(&self, id: JobId) -> Option<&JobRecord> {
        Some(&self.slots[self.slot(id)? as usize])
    }

    pub fn get_mut(&mut self, id: JobId) -> Option<&mut JobRecord> {
        let slot = self.slot(id)?;
        Some(self.at_mut(slot))
    }

    /// Does `id` have a live record?
    pub fn contains(&self, id: JobId) -> bool {
        self.slot(id).is_some()
    }

    /// The live records, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobRecord)> {
        (0..)
            .zip(&self.slots)
            .filter(|&(slot, r)| self.slot(r.profile.id) == Some(slot))
            .map(|(_, r)| (r.profile.id, r))
    }

    /// The slab's length: the most records that were live at once.
    #[cfg(test)]
    pub fn slot_high_water(&self) -> usize {
        self.slots.len()
    }

    /// Who owns `job`, if it has a live record that names an owner. A
    /// terminal record keeps naming its last owner, and so does one whose
    /// owner departed, until recovery installs a new one.
    #[inline]
    pub fn owner(&self, job: JobId) -> Option<OwnerRef> {
        self.owners.get(self.slot(job)?)
    }

    /// Make `owner` the owner of `job`: the only writer of owners (a no-op
    /// for a job with no live record).
    pub fn set_owner(&mut self, job: JobId, owner: Option<OwnerRef>) {
        if let Some(slot) = self.slot(job) {
            self.owners.set(slot, owner);
        }
    }

    /// No peer owns `job` any more (a no-op if none did). Its record keeps
    /// naming the owner: what a terminal job does.
    pub fn disown(&mut self, job: JobId) {
        if let Some(slot) = self.slot(job) {
            self.owners.disown(slot);
        }
    }

    /// Disown every job `node` owns, returning them in ascending id order.
    pub fn take_owned(&mut self, node: GridNodeId) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self
            .owners
            .take(node)
            .into_iter()
            // `retire` clears a slot before freeing it, so every owned
            // slot holds a live record.
            .map(|slot| self.slots[slot as usize].profile.id)
            .collect();
        // Slots are reused, so slot order is not id order; the recovery
        // events a departure schedules follow this order, so it is pinned
        // by an explicit sort.
        jobs.sort_unstable();
        jobs
    }
}

/// [`OwnerColumn`] entry of an index that names no owner.
const NO_OWNER: u32 = u32::MAX;
/// [`OwnerColumn`] entry of an index the reliable server owns.
const SERVER: u32 = u32::MAX - 1;
/// Set in the [`OwnerColumn`] entry of an index that still names a peer
/// which no longer owns it: a departure took it, or its job reached its
/// terminal event. Peer ids stay below it.
const DISOWNED: u32 = 1 << 31;

/// The owner of each job-table slot, and whether a named peer still owns
/// it: what a departure must hand to recovery. A job has at most one
/// owner; the engine names one when it installs it and disowns it when it
/// lets it go. A departure takes its node's jobs, so a slot may keep naming
/// a departed owner until recovery installs a new one.
///
/// Every index a peer owns lies in the window `lo..hi`. An own widens it; a
/// departure scans only the window and narrows it to the indices still
/// owned, so its cost follows the jobs in flight, not every job submitted.
#[derive(Debug, Default)]
pub(crate) struct OwnerColumn {
    /// `owner[idx]` is the owning peer's id, that id with [`DISOWNED`]
    /// set, [`SERVER`] or [`NO_OWNER`].
    owner: Vec<u32>,
    lo: usize,
    hi: usize,
}

impl OwnerColumn {
    /// Append an index that names no owner.
    pub fn push_unowned(&mut self) {
        self.owner.push(NO_OWNER);
    }

    /// The owner index `idx` names, whether or not it still owns it.
    #[inline]
    pub fn get(&self, idx: u32) -> Option<OwnerRef> {
        match self.owner[idx as usize] {
            NO_OWNER => None,
            SERVER => Some(OwnerRef::Server),
            peer => Some(OwnerRef::Peer(GridNodeId(peer & !DISOWNED))),
        }
    }

    /// Index `idx` names `owner`, which owns it.
    #[inline]
    pub fn set(&mut self, idx: u32, owner: Option<OwnerRef>) {
        let i = idx as usize;
        self.owner[i] = match owner {
            None => NO_OWNER,
            Some(OwnerRef::Server) => SERVER,
            Some(OwnerRef::Peer(node)) => {
                debug_assert!(node.0 < DISOWNED, "peer ids stay below the disowned bit");
                if self.lo == self.hi {
                    (self.lo, self.hi) = (i, i + 1);
                } else {
                    self.lo = self.lo.min(i);
                    self.hi = self.hi.max(i + 1);
                }
                node.0
            }
        };
    }

    /// The peer index `idx` names does not own it any more; it keeps
    /// naming it.
    #[inline]
    pub fn disown(&mut self, idx: u32) {
        let entry = &mut self.owner[idx as usize];
        if *entry < DISOWNED {
            *entry |= DISOWNED;
        }
    }

    /// Disown every index `node` owns, returning them ascending.
    pub fn take(&mut self, node: GridNodeId) -> Vec<u32> {
        let mut taken = Vec::new();
        // The window's new bounds: the first and one past the last index
        // still owned after the take.
        let (mut lo, mut hi) = (self.hi, self.lo);
        for (i, owner) in (self.lo..).zip(&mut self.owner[self.lo..self.hi]) {
            if *owner == node.0 {
                *owner |= DISOWNED;
                taken.push(i as u32);
            } else if *owner < DISOWNED {
                lo = lo.min(i);
                hi = i + 1;
            }
        }
        (self.lo, self.hi) = if lo < hi { (lo, hi) } else { (0, 0) };
        taken
    }
}

#[cfg(test)]
mod tests {
    use dgrid_resources::{ClientId, JobId, JobRequirements};
    use proptest::prelude::*;

    use super::*;

    fn record() -> JobRecord {
        let profile = JobProfile::new(
            JobId(1),
            ClientId(0),
            JobRequirements::unconstrained(),
            50.0,
        );
        JobRecord::new(profile, 50.0, SimTime::from_secs(10))
    }

    #[test]
    fn terminal_states() {
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Recovering.is_terminal());
    }

    #[test]
    fn wait_counts_from_the_first_start() {
        let mut r = record();
        assert_eq!(r.wait_secs(), None);
        assert_eq!(r.queued_at(), None);
        r.set_queued_at(SimTime::from_secs(20));
        r.mark_started(SimTime::from_secs(25));
        r.mark_started(SimTime::from_secs(90));
        assert_eq!(r.wait_secs(), Some(15.0));
        assert_eq!(r.queued_at(), Some(SimTime::from_secs(20)));
    }

    #[test]
    fn only_the_latest_grant_is_held() {
        let mut lease = LeaseClock::IDLE;
        assert!(!lease.holds(0), "no lease before the first grant");
        let first = lease.grant();
        assert!(lease.holds(first));
        let second = lease.grant();
        assert!(!lease.holds(first) && lease.holds(second));
        lease.held = false;
        assert!(!lease.holds(second));
    }

    #[test]
    fn a_record_names_its_run_node_through_a_sentinel() {
        let mut r = record();
        assert_eq!(r.run_node(), None);
        r.set_run_node(Some(GridNodeId(0)));
        assert_eq!(r.run_node(), Some(GridNodeId(0)));
        r.set_run_node(None);
        assert_eq!(r.run_node(), None);
    }

    #[test]
    fn epoch_invalidation() {
        let mut r = record();
        let e0 = r.epoch;
        r.invalidate();
        assert_ne!(r.epoch, e0);
    }

    #[test]
    fn owner_ref_peer() {
        assert_eq!(OwnerRef::Server.peer(), None);
        assert_eq!(OwnerRef::Peer(GridNodeId(3)).peer(), Some(GridNodeId(3)));
    }

    fn record_for(id: u64) -> JobRecord {
        let profile = JobProfile::new(
            JobId(id),
            ClientId(0),
            JobRequirements::unconstrained(),
            50.0,
        );
        JobRecord::new(profile, 50.0, SimTime::ZERO)
    }

    /// A table with a record for each of `ids`, admitted in that order.
    fn table_of(ids: &[u64]) -> JobTable {
        let mut t = JobTable::default();
        for &id in ids {
            assert!(t.declare(JobId(id)));
            t.admit(JobId(id), record_for(id));
        }
        t
    }

    /// Only a leased table keeps a lease clock per slot, so a run without
    /// leases pays no byte for them; a reused slot's clock starts idle,
    /// whatever its last job held or left queued.
    #[test]
    fn only_a_leased_table_keeps_lease_clocks() {
        let mut plain = table_of(&[1, 2, 3]);
        assert!(plain.leases.is_empty() && plain.leases.capacity() == 0);
        plain.end_lease(0);

        let mut leased = JobTable::new(true);
        for id in [1, 2] {
            assert!(leased.declare(JobId(id)));
            leased.admit(JobId(id), record_for(id));
        }
        assert_eq!(leased.leases, [LeaseClock::IDLE; 2]);
        let slot = leased.slot(JobId(1)).expect("live");
        let armed = LeaseClock {
            seq: 3,
            held: true,
            due: SimTime::from_secs(130),
            armed: 7,
            filed: 7,
        };
        *leased.lease_mut(slot) = armed;
        leased.end_lease(slot);
        assert!(!leased.lease_mut(slot).holds(3));
        leased.retire(JobId(1));
        assert!(leased.declare(JobId(3)));
        leased.admit(JobId(3), record_for(3));
        assert_eq!(
            leased.slot(JobId(3)),
            Some(slot),
            "the freed slot is reused"
        );
        assert_eq!(*leased.lease_mut(slot), LeaseClock::IDLE);
        assert_eq!(leased.leases.len(), 2);
    }

    #[test]
    fn job_table_dense_and_sparse_ids() {
        let mut t = JobTable::default();
        // Dense id, sparse (hash-shaped) id, and a duplicate rejection.
        assert!(t.declare(JobId(3)));
        assert!(t.declare(JobId(u64::MAX - 7)));
        assert!(!t.declare(JobId(3)));
        assert!(t.is_pending(JobId(3)) && !t.contains(JobId(3)));
        t.admit(JobId(3), record_for(3));
        t.admit(JobId(u64::MAX - 7), record_for(u64::MAX - 7));
        assert!(!t.declare(JobId(3)), "a live id is refused too");
        assert!(t.contains(JobId(3)));
        assert!(t.contains(JobId(u64::MAX - 7)));
        assert!(!t.contains(JobId(4)) && !t.is_pending(JobId(4)));
        assert!(t.get(JobId(4)).is_none());
        assert!(
            t.get(JobId(2)).is_none(),
            "inside the dense column, no record"
        );
        t.get_mut(JobId(3)).unwrap().resubmits = 9;
        assert_eq!(t.get(JobId(3)).unwrap().resubmits, 9);
        // Slot order, which is admission order while no slot is reused.
        let order: Vec<JobId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![JobId(3), JobId(u64::MAX - 7)]);
    }

    #[test]
    fn a_retired_job_has_no_record_and_is_not_absent() {
        let mut t = table_of(&[0, 1 << 40]);
        t.declare(JobId(7));
        for id in [0, 1 << 40, 7] {
            t.retire(JobId(id));
            assert!(t.is_retired(JobId(id)) && !t.is_pending(JobId(id)));
            assert!(t.get(JobId(id)).is_none() && !t.contains(JobId(id)));
            assert!(!t.declare(JobId(id)), "a retired id stays handed over");
        }
        // A second retirement, or one of an id never declared, changes
        // nothing.
        t.retire(JobId(0));
        t.retire(JobId(9));
        assert!(t.is_retired(JobId(0)) && !t.is_retired(JobId(9)));
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.slot_high_water(), 2, "the pending job took no slot");
    }

    #[test]
    fn a_freed_slot_is_reused_before_the_slab_grows() {
        let mut t = table_of(&[0, 1, 2]);
        t.retire(JobId(1));
        t.retire(JobId(0));
        // The last slot freed is the first reused.
        for id in [3, 4, 5] {
            t.declare(JobId(id));
            t.admit(JobId(id), record_for(id));
        }
        assert_eq!(t.slot_high_water(), 4);
        let order: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, [3, 4, 2, 5]);
        for id in [2, 3, 4, 5] {
            assert_eq!(t.get(JobId(id)).unwrap().profile.id, JobId(id));
        }
        assert!(t.get(JobId(0)).is_none() && t.get(JobId(1)).is_none());
    }

    #[test]
    fn retiring_an_owned_job_leaves_its_reused_slot_unowned() {
        let mut t = table_of(&[0, 1]);
        let a = GridNodeId(4);
        t.set_owner(JobId(0), Some(OwnerRef::Peer(a)));
        t.set_owner(JobId(1), Some(OwnerRef::Peer(a)));
        t.retire(JobId(0));
        t.declare(JobId(2));
        t.admit(JobId(2), record_for(2));
        // Job 2 sits in job 0's old slot and no one owns it.
        assert_eq!(t.take_owned(a), [JobId(1)]);
        t.set_owner(JobId(2), Some(OwnerRef::Peer(a)));
        assert_eq!(t.take_owned(a), [JobId(2)]);
    }

    #[test]
    fn id_index_hashes_only_ids_from_the_limit_up() {
        let mut index = IdIndex::default();
        index.insert(DENSE_ID_LIMIT - 1, 0);
        index.insert(DENSE_ID_LIMIT, 1);
        index.insert(7, 2);
        assert_eq!(index.sparse.len(), 1);
        assert_eq!(index.dense.len() as u64, DENSE_ID_LIMIT);
        assert_eq!(index.remove(7), Some(2));
        assert_eq!(index.remove(7), None);
        assert_eq!(index.get(8), None, "inside the dense column, no index");
    }

    #[test]
    fn id_index_stores_nothing_until_ids_leave_the_identity() {
        let mut index = IdIndex::default();
        for id in 0..5 {
            index.insert(id, id as u32);
        }
        assert_eq!(index.remove(9), None, "an absent id keeps the identity");
        assert!(!index.materialised && index.dense.is_empty() && index.sparse.is_empty());
        assert_eq!((index.get(4), index.get(5)), (Some(4), None));
        // An out-of-order insert writes the prefix out.
        index.insert(8, 5);
        assert!(index.materialised);
        assert_eq!(index.dense, [0, 1, 2, 3, 4, ABSENT, ABSENT, ABSENT, 5]);
        assert_eq!(
            (index.get(4), index.get(8), index.get(5)),
            (Some(4), Some(5), None)
        );
    }

    #[test]
    fn owner_column_reowns_below_its_window() {
        let mut column = OwnerColumn::default();
        for _ in 0..12 {
            column.push_unowned();
        }
        let (a, b) = (GridNodeId(1), GridNodeId(2));
        let own = |column: &mut OwnerColumn, idx, node| column.set(idx, Some(OwnerRef::Peer(node)));
        own(&mut column, 5, a);
        own(&mut column, 9, b);
        own(&mut column, 7, a);
        assert_eq!(column.take(a), [5, 7]);
        assert_eq!(
            column.get(5),
            Some(OwnerRef::Peer(a)),
            "a taken index keeps naming"
        );
        assert_eq!((column.lo, column.hi), (9, 10), "narrowed to what b owns");
        own(&mut column, 2, a);
        own(&mut column, 11, a);
        assert_eq!((column.lo, column.hi), (2, 12));
        column.disown(9);
        assert_eq!(column.take(b), [] as [u32; 0]);
        assert_eq!((column.lo, column.hi), (2, 12));
        assert_eq!(column.take(a), [2, 11]);
        assert_eq!(column.lo, column.hi, "nothing owned, an empty window");
    }

    #[test]
    fn job_table_hands_over_owned_jobs_in_id_order() {
        let ids = [u64::MAX - 7, 40, 1 << 40, 3];
        let mut t = table_of(&ids);
        let (a, b) = (GridNodeId(0), GridNodeId(1));
        for id in ids {
            t.set_owner(JobId(id), Some(OwnerRef::Peer(a)));
        }
        t.set_owner(JobId(40), Some(OwnerRef::Peer(b)));
        t.set_owner(JobId(999), Some(OwnerRef::Peer(b)));
        assert_eq!(
            t.take_owned(a),
            [JobId(3), JobId(1 << 40), JobId(u64::MAX - 7)]
        );
        assert_eq!(t.take_owned(b), [JobId(40)]);
        assert!(t.take_owned(a).is_empty());
        // A record keeps naming the owner that handed it over.
        assert_eq!(t.owner(JobId(40)), Some(OwnerRef::Peer(b)));
        t.set_owner(JobId(3), Some(OwnerRef::Server));
        assert_eq!(t.owner(JobId(3)), Some(OwnerRef::Server));
        assert!(t.take_owned(a).is_empty(), "the server is no peer");
    }

    #[test]
    fn owned_jobs_come_back_in_id_order_after_slots_are_reused() {
        let mut t = table_of(&[10, 20, 30, 40]);
        t.retire(JobId(10));
        t.retire(JobId(30));
        // Ids 5 and 1 land in the freed slots, below 20's and 40's.
        for id in [50, 5, 1] {
            t.declare(JobId(id));
            t.admit(JobId(id), record_for(id));
        }
        let order: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, [5, 20, 50, 40, 1]);
        let a = GridNodeId(2);
        for id in [40, 1, 50, 5, 20] {
            t.set_owner(JobId(id), Some(OwnerRef::Peer(a)));
        }
        assert_eq!(
            t.take_owned(a),
            [1, 5, 20, 40, 50].map(JobId),
            "ascending ids, not slot order"
        );
    }

    /// Ids on both sides of the dense limit, at its edges and far past it.
    const PROBE_IDS: [u64; 12] = [
        0,
        1,
        5,
        4_000,
        DENSE_ID_LIMIT - 2,
        DENSE_ID_LIMIT - 1,
        DENSE_ID_LIMIT,
        DENSE_ID_LIMIT + 1,
        1 << 40,
        u64::MAX - 1,
        u64::MAX,
        63,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An identity run of `run` ids, then random inserts, removes, gets
        /// and identity extensions on both sides of the dense limit, answer
        /// as a `HashMap` does. The run stores nothing; an out-of-order
        /// insert, a remove of an indexed id or a sparse id ends it.
        #[test]
        fn id_index_matches_a_hashmap(
            run in 0u64..40,
            ops in proptest::collection::vec((0u8..4, 0usize..12, 0u32..1_000), 1..300),
        ) {
            let mut index = IdIndex::default();
            let mut model: HashMap<u64, u32> = HashMap::new();
            let mut next = 0u64;
            let mut extend = |index: &mut IdIndex, model: &mut HashMap<u64, u32>| {
                index.insert(next, next as u32);
                model.insert(next, next as u32);
                next += 1;
            };
            for _ in 0..run {
                extend(&mut index, &mut model);
            }
            prop_assert!(!index.materialised && index.dense.is_empty() && index.sparse.is_empty());
            for (op, pick, idx) in ops {
                let id = PROBE_IDS[pick];
                match op {
                    0 => {
                        index.insert(id, idx);
                        model.insert(id, idx);
                    }
                    1 => prop_assert_eq!(index.remove(id), model.remove(&id)),
                    2 => prop_assert_eq!(index.get(id), model.get(&id).copied()),
                    _ => extend(&mut index, &mut model),
                }
            }
            for id in PROBE_IDS.into_iter().chain(0..next + 1) {
                prop_assert_eq!(index.get(id), model.get(&id).copied());
            }
        }

        /// Under random own/disown/set/take sequences over up to 70 nodes
        /// and 24 indices, the column names what a model of one named owner
        /// per index names, a take returns the node's owned indices
        /// ascending and leaves them named, and every index a peer owns
        /// stays inside the window, also when indices below a narrowed
        /// window are owned again.
        #[test]
        fn owner_column_matches_one_owner_per_index(
            nodes in 1u32..=70,
            ops in proptest::collection::vec((0u8..4, 0u32..70, 0u32..24), 1..400),
        ) {
            let mut column = OwnerColumn::default();
            for _ in 0..24 {
                column.push_unowned();
            }
            // The named owner of each index, and whether it still owns it.
            let mut model: Vec<(Option<OwnerRef>, bool)> = vec![(None, false); 24];
            let owns = |m: &(Option<OwnerRef>, bool), n: u32| m.1 && m.0 == Some(OwnerRef::Peer(GridNodeId(n)));
            for (op, n, idx) in ops {
                let node = GridNodeId(n % nodes);
                let slot = &mut model[idx as usize];
                match op {
                    0 => {
                        column.set(idx, Some(OwnerRef::Peer(node)));
                        *slot = (Some(OwnerRef::Peer(node)), true);
                    }
                    1 => {
                        column.disown(idx);
                        slot.1 = false;
                    }
                    2 => {
                        let expected: Vec<u32> = (0..24u32)
                            .filter(|&i| owns(&model[i as usize], node.0))
                            .collect();
                        for &i in &expected {
                            model[i as usize].1 = false;
                        }
                        prop_assert_eq!(column.take(node), expected);
                    }
                    _ => {
                        let owner = (n % 2 == 0).then_some(OwnerRef::Server);
                        column.set(idx, owner);
                        *slot = (owner, false);
                    }
                }
                for (i, m) in model.iter().enumerate() {
                    prop_assert_eq!(column.get(i as u32), m.0);
                    prop_assert!(!m.1 || (column.lo..column.hi).contains(&i));
                }
            }
            for n in 0..nodes {
                let expected: Vec<u32> = (0..24u32).filter(|&i| owns(&model[i as usize], n)).collect();
                prop_assert_eq!(column.take(GridNodeId(n)), expected);
            }
        }
    }
}
