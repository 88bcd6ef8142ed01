//! Space-parallel execution of a single replication: the sharded
//! conservative-window kernel.
//!
//! The sequential kernel dispatches one event at a time against global
//! state. This module executes *windows* of events instead: nodes are
//! partitioned into `S` shards by a stable hash of their index, the
//! event queue batch-pops every event inside a conservative virtual-time
//! window ([`EventQueue::drain_window`](dgrid_sim::EventQueue::drain_window)),
//! and the events whose effects are provably confined to one run node —
//! arrivals at the run-node queue, completions, sandbox kills — execute in
//! parallel against shard-local copies of that state.
//!
//! This module holds no lifecycle logic of its own. A shard-local event runs
//! the same [`run_node`] handler the sequential kernel runs, through a
//! [`ShardCtx`] that points it at the checked-out node, job records and the
//! shard's network state. Everything a handler does beyond its home node
//! (emissions, scheduling, report counters, terminal failure, owner and DAG
//! bookkeeping) it hands to the context as an [`EnvOp`]; the shard context
//! records those as the event's *envelope*, and a deterministic barrier
//! walks the window in `(virtual_time, seq)` order, replaying each envelope
//! through the engine's own [`RunNodeCtx::effect`] and dispatching every
//! event that was not proven local (matchmaking, leases, owner recovery,
//! node churn) through the ordinary sequential handlers.
//!
//! The window width is the network's minimum one-hop latency
//! ([`Network::min_latency`]): no effect of an event at time `t` can reach
//! another entity before `t + lookahead`, so events inside one window are
//! causally independent across shards. Latency spikes only stretch
//! deliveries (their factor is validated `>= 1`), so they shrink nothing —
//! the lookahead is sound under every fault plan.
//!
//! # Determinism contract
//!
//! For a fixed shard count `S`, the observer byte stream and every
//! [`SimReport`](crate::SimReport) counter are **identical at every worker
//! thread count**, including one: shard assignment is a pure hash of the
//! node index, each shard owns derived RNG streams keyed by its shard index
//! (never by a thread id), shards never read each other's state inside a
//! window, and the barrier merges results in `(virtual_time, seq)` order
//! regardless of which thread produced them. `S` itself is part of the
//! configuration: runs with different shard counts are different (equally
//! valid) simulations, which is why the CLI pins
//! [`Engine::DEFAULT_SHARDS`] for every thread count.
//!
//! # How locality is proven, per window round
//!
//! An event is executed on a shard only when classification — a read-only,
//! strictly deterministic pass over the batch — shows its effects stay on
//! its *home node*:
//!
//! * `ArriveAtRunNode` with a valid epoch, an assigned, live run node;
//! * `Complete`/`SandboxKill` on a live node (valid epoch ⇒ full commit,
//!   superseded epoch ⇒ stale-execution release), except the by-reference
//!   result path (it consults the matchmaker) and the checker's
//!   epoch-dedup backdoor;
//! * additionally the home node must be *clean*: every job in its FIFO
//!   queue is terminal, retired, unknown, or assigned to this node — so the
//!   chain of `start_next_on` starts the event can trigger touches only
//!   records this shard checked out. (A valid event's record always satisfies
//!   `run_node == home`, so a job can never be claimed by two shards.)
//!
//! Classification evaluates exactly the guards `handle_arrive`,
//! `handle_complete` and `handle_sandbox_kill` evaluate before they call
//! into [`run_node`], so a shard enters the shared handler at the same
//! point the sequential kernel would. Everything else — and every event on
//! an unclean node — dispatches through those sequential handlers during
//! the barrier walk, which runs after shard state commits back, so the two
//! execution paths never observe half-merged state.

use std::collections::HashMap;

use dgrid_resources::{Capabilities, JobId, NodeProfile};
use dgrid_sim::fault::Network;
use dgrid_sim::rng::{self, SimRng};
use dgrid_sim::{SimDuration, SimTime};
use rayon::prelude::*;

use super::run_node::{self, EnvOp, RunNodeCtx};
use super::{Engine, Event};
use crate::config::EngineConfig;
use crate::job::{JobRecord, OwnerRef};
use crate::node::{GridNodeId, NodeWork, QueuedJob};

/// Below this many local events in a round, dispatching to the pool costs
/// more than it saves; run the shards inline (in shard order, which by
/// construction produces the identical result).
const PARALLEL_DISPATCH_FLOOR: usize = 32;

/// The shard a node's events execute on: a stable hash of the node index,
/// independent of thread count, event history, and everything else.
pub(super) fn shard_of(node: GridNodeId, shards: usize) -> usize {
    (rng::splitmix64(u64::from(node.0)) % shards as u64) as usize
}

/// Per-shard mutable context that persists across windows: the shard's own
/// network-latency RNG stream and fault-network facade, both derived from
/// the root seed and the *shard index* so the draw sequence is a pure
/// function of the configuration.
pub(super) struct ShardState {
    rng_net: SimRng,
    net: Network,
}

/// One shard-confined event, post-classification: which shared run-node
/// handler runs, entered past the guards classification evaluated.
#[derive(Clone, Copy)]
enum LocalEv {
    /// Valid-epoch arrival at a live assigned run node.
    Arrive { job: JobId },
    /// Current-epoch completion of the job its live node is running.
    Complete { job: JobId },
    /// Current-epoch sandbox kill of the job its live node is running.
    Kill { job: JobId },
    /// A completion (`ran_to_completion`) or kill under a superseded epoch
    /// on a live node: a duplicate execution winding down. `epoch` is the
    /// event's, so it releases only its own execution.
    ReleaseStale {
        job: JobId,
        epoch: u32,
        ran_to_completion: bool,
    },
}

/// One shard's round output: its checked-out state plus the per-batch
/// global effects it emitted.
type ShardRunResult = (ShardWork, Vec<(usize, Vec<EnvOp>)>);

/// A job record a shard checked out, with the owner it names; handlers
/// read the owner and never write it.
type Checkout = (JobRecord, Option<OwnerRef>);

/// Checked-out state one shard mutates during a window round.
struct ShardWork {
    shard: usize,
    state: ShardState,
    /// `(batch index, virtual time, event)` in `(time, seq)` order.
    events: Vec<(usize, SimTime, LocalEv, GridNodeId)>,
    nodes: HashMap<u32, NodeWork>,
    jobs: HashMap<JobId, Checkout>,
}

impl Engine {
    /// The windowed outer loop: returns the makespan (time of the last
    /// processed event), like the sequential loop.
    ///
    /// The queue holds one lease expiry per leased job, while the windows
    /// are cut as they were when every arm queued one: a window opens at
    /// the earliest armed expiry not yet drained when that comes first,
    /// every armed expiry due before a window's end counts as drained with
    /// the batch (the makespan reaches it, and a batch of nothing else
    /// still takes a round), and a queued expiry that a renewal superseded
    /// brings the latest arm into its batch when that falls due inside the
    /// window. A superseded expiry did nothing at its barrier, so only
    /// where windows fall and where batches end depend on them.
    pub(super) fn run_sharded_loop(&mut self, horizon: SimTime) -> SimTime {
        let shards = self.shards.expect("sharded loop without shard count");
        self.init_shard_states(shards);
        // A zero floor (per-hop latency 0, or full jitter) degenerates to
        // one-instant windows — still correct, just minimal batching.
        let lookahead = self.net.min_latency().max(SimDuration::from_nanos(1));
        let hard_end = horizon + SimDuration::from_nanos(1);
        let mut makespan = SimTime::ZERO;
        self.window_obs = Some(Vec::new());
        while self.outstanding > 0 {
            let next = match (self.queue.peek_time(), self.armed_dues.front()) {
                (Some(t), Some(&due)) => Some(t.min(due)),
                (t, due) => t.or(due.copied()),
            };
            let Some(t0) = next.filter(|&t0| t0 <= horizon) else {
                break;
            };
            let wend = (t0 + lookahead).min(hard_end);
            // Fixpoint rounds: effects landing inside the still-open window
            // (job starts chaining on a node, zero-delay retries) drain in
            // follow-up rounds at the same horizon until none remain.
            while self.outstanding > 0 {
                self.arrivals.stage_before(&mut self.queue, wend);
                let mut batch = self.queue.drain_window(wend);
                let mut armed = None;
                while let Some(due) = self.armed_dues.front().filter(|&&due| due < wend) {
                    armed = Some(*due);
                    self.armed_dues.pop_front();
                }
                self.pull_renewed_expiries(&mut batch, wend);
                let Some(last_at) = batch.last().map(|&(at, ..)| at).max(armed) else {
                    break;
                };
                makespan = makespan.max(last_at);
                self.run_window_round(batch, shards);
            }
            self.flush_window();
        }
        // The horizon sweep and final accounting emit directly.
        if let Some(buf) = self.window_obs.take() {
            debug_assert!(buf.is_empty(), "unflushed window emissions");
        }
        makespan
    }

    /// For each expiry in `batch` that a later arm superseded, file that
    /// latest arm in the batch itself when it falls due before `wend`:
    /// there it pops in `(time, seq)` order among the window's events, as
    /// it did when every arm queued an event, instead of in a later round.
    /// The superseded expiry then finds another filed and does nothing.
    fn pull_renewed_expiries(&mut self, batch: &mut Vec<(SimTime, u64, Event)>, wend: SimTime) {
        let mut pulled = Vec::new();
        for (_, _, ev) in batch.iter() {
            let &Event::LeaseExpire { job, seq } = ev else {
                continue;
            };
            let Some(slot) = self.jobs.slot(job) else {
                continue;
            };
            let clock = self.jobs.lease_mut(slot);
            if clock.filed == seq && clock.armed != seq && clock.due < wend {
                clock.filed = clock.armed;
                let ev = Event::LeaseExpire {
                    job,
                    seq: clock.armed,
                };
                pulled.push((clock.due, clock.armed, ev));
            }
        }
        for entry in pulled {
            let at = batch.partition_point(|&(t, s, _)| (t, s) < (entry.0, entry.1));
            batch.insert(at, entry);
        }
    }

    fn init_shard_states(&mut self, shards: usize) {
        if !self.shard_states.is_empty() {
            return;
        }
        for s in 0..shards {
            // Salted high above the engine's stream ids so no shard stream
            // collides with a global one (or with another shard's).
            let salt = (s as u64 + 1) << 32;
            self.shard_states.push(Some(ShardState {
                rng_net: rng::rng_for(self.cfg.seed, rng::streams::NETWORK ^ salt),
                net: Network::new(
                    self.cfg.latency,
                    self.net.plan().clone(),
                    rng::rng_for(self.cfg.seed, rng::streams::FAULT_INJECTION ^ salt),
                ),
            }));
        }
    }

    /// Flush the window's buffered emissions to the observer, sorted by
    /// `(time, commit order)` — the sort is stable, so same-instant events
    /// keep their barrier order and the stream stays nondecreasing in time.
    fn flush_window(&mut self) {
        let Some(buf) = self.window_obs.as_mut() else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let mut events = std::mem::take(buf);
        events.sort_by_key(|&(at, _)| at);
        for (at, ev) in events {
            self.observer.on_event(at, ev);
        }
    }

    /// True iff `node` is executing `job`. A valid-epoch completion or kill
    /// that fails this is an invariant breach; the sequential handler owns
    /// reporting it.
    fn runs(&self, node: GridNodeId, job: JobId) -> bool {
        let running = self.nodes.running_job(node);
        running.is_some_and(|q| q.job == job)
    }

    /// True iff every job queued on `home` is terminal, retired, unknown, or
    /// assigned to `home` — the condition under which a shard's
    /// `start_next_on` chain can only touch records it checked out.
    fn node_clean(&self, home: GridNodeId) -> bool {
        self.nodes.queued_jobs(home).all(|j| {
            self.jobs
                .get(j)
                .is_none_or(|r| r.state.is_terminal() || r.run_node() == Some(home))
        })
    }

    /// Classify → shard-execute → barrier-merge one drained batch.
    fn run_window_round(&mut self, batch: Vec<(SimTime, u64, Event)>, shards: usize) {
        // ---- Classification (sequential, read-only) ----
        let mut per_shard: Vec<Vec<(usize, SimTime, LocalEv, GridNodeId)>> =
            vec![Vec::new(); shards];
        let mut clean_cache: HashMap<u32, bool> = HashMap::new();
        for (i, (at, _seq, ev)) in batch.iter().enumerate() {
            let candidate = match *ev {
                Event::ArriveAtRunNode { job, epoch } if self.epoch_valid(job, epoch) => {
                    // `epoch_valid` read this live record a line above.
                    let rec = self.jobs.get(job).expect("valid epoch implies record");
                    rec.run_node()
                        .filter(|&run| self.nodes.is_alive(run))
                        .map(|run| (run, LocalEv::Arrive { job }))
                }
                // The by-reference result path consults the matchmaker.
                Event::Complete { job, epoch, node }
                    if self.nodes.is_alive(node) && !self.cfg.return_results_by_reference =>
                {
                    if self.epoch_valid(job, epoch) {
                        self.runs(node, job)
                            .then_some((node, LocalEv::Complete { job }))
                    } else if self.cfg.check_disable_epoch_dedup {
                        // The backdoor may double-commit; keep it sequential.
                        None
                    } else {
                        let stale = LocalEv::ReleaseStale {
                            job,
                            epoch,
                            ran_to_completion: true,
                        };
                        Some((node, stale))
                    }
                }
                Event::SandboxKill { job, epoch, node } if self.nodes.is_alive(node) => {
                    if self.epoch_valid(job, epoch) {
                        self.runs(node, job)
                            .then_some((node, LocalEv::Kill { job }))
                    } else {
                        let stale = LocalEv::ReleaseStale {
                            job,
                            epoch,
                            ran_to_completion: false,
                        };
                        Some((node, stale))
                    }
                }
                _ => None,
            };
            let Some((home, lev)) = candidate else {
                continue;
            };
            let clean = match clean_cache.get(&home.0) {
                Some(&c) => c,
                None => {
                    let c = self.node_clean(home);
                    clean_cache.insert(home.0, c);
                    c
                }
            };
            if !clean {
                continue; // dispatch sequentially at the barrier
            }
            per_shard[shard_of(home, shards)].push((i, *at, lev, home));
        }

        // ---- Checkout: move home nodes and job records into shard work ----
        let mut works: Vec<ShardWork> = Vec::new();
        for (s, events) in per_shard.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            let state = self.shard_states[s].take().expect("shard state in place");
            let mut work = ShardWork {
                shard: s,
                state,
                events,
                nodes: HashMap::new(),
                jobs: HashMap::new(),
            };
            for &(_, _, lev, home) in &work.events {
                if !work.nodes.contains_key(&home.0) {
                    // Everything startable in the FIFO queue rides along so
                    // start_next_on can run entirely shard-side; cleanliness
                    // guarantees these records belong to this node.
                    for j in self.nodes.queued_jobs(home) {
                        if let Some(r) = self.jobs.get(j) {
                            if !r.state.is_terminal() && !work.jobs.contains_key(&j) {
                                debug_assert_eq!(r.run_node(), Some(home));
                                work.jobs.insert(j, (r.clone(), self.jobs.owner(j)));
                            }
                        }
                    }
                    work.nodes.insert(home.0, self.nodes.checkout_node(home));
                }
                // The handlers that write the event's own record.
                if let LocalEv::Arrive { job } | LocalEv::Complete { job } = lev {
                    if let std::collections::hash_map::Entry::Vacant(slot) = work.jobs.entry(job) {
                        // Classification found it live under a valid epoch,
                        // and nothing retires between the two.
                        let r = self.jobs.get(job).expect("classified record");
                        debug_assert_eq!(r.run_node(), Some(home));
                        slot.insert((r.clone(), self.jobs.owner(job)));
                    }
                }
            }
            works.push(work);
        }

        // ---- Phase A: independent shard execution ----
        let total_local: usize = works.iter().map(|w| w.events.len()).sum();
        let cfg = &self.cfg;
        let profiles = self.nodes.profiles();
        let run_one = |mut w: ShardWork| {
            let ops = exec_shard(cfg, profiles, &mut w);
            (w, ops)
        };
        let results: Vec<ShardRunResult> =
            if total_local >= PARALLEL_DISPATCH_FLOOR && rayon::Pool::current_threads() > 1 {
                works.into_par_iter().map(run_one).collect()
            } else {
                works.into_iter().map(run_one).collect()
            };

        // ---- Commit shard state back (disjoint slots; sorted for a
        // deterministic walk even though order cannot affect the outcome) --
        let n = batch.len();
        let mut ops_by_item: Vec<Option<Vec<EnvOp>>> = (0..n).map(|_| None).collect();
        for (mut w, ops) in results {
            let mut nodes: Vec<(u32, NodeWork)> = w.nodes.drain().collect();
            nodes.sort_unstable_by_key(|e| e.0);
            for (id, node) in nodes {
                self.nodes.commit_node(GridNodeId(id), node);
            }
            let mut jobs: Vec<(JobId, Checkout)> = w.jobs.drain().collect();
            jobs.sort_unstable_by_key(|e| e.0);
            // Every checked-out record is still live: a shard hands its
            // retirements to the barrier walk below as envelope effects, and
            // nothing else runs between checkout and here.
            for (id, (rec, _)) in jobs {
                *self.jobs.get_mut(id).expect("checked-out job exists") = rec;
            }
            self.shard_states[w.shard] = Some(w.state);
            for (idx, o) in ops {
                ops_by_item[idx] = Some(o);
            }
        }

        // ---- Barrier walk: apply envelopes and dispatch global events in
        // (time, seq) order ----
        for (i, (at, _seq, ev)) in batch.into_iter().enumerate() {
            match ops_by_item[i].take() {
                Some(ops) => {
                    for op in ops {
                        self.effect(at, op);
                    }
                }
                None => self.dispatch(at, ev),
            }
        }
    }
}

/// Run one shard's events, in `(time, seq)` order, against its checked-out
/// state: the shared [`run_node`] handlers, entered past the guards that
/// classification already evaluated. Returns each event's envelope
/// operations by batch index.
fn exec_shard(
    cfg: &EngineConfig,
    profiles: &[NodeProfile],
    work: &mut ShardWork,
) -> Vec<(usize, Vec<EnvOp>)> {
    let events = std::mem::take(&mut work.events);
    let mut out = Vec::with_capacity(events.len());
    for (idx, at, lev, home) in events {
        let mut cx = ShardCtx {
            cfg,
            profiles,
            state: &mut work.state,
            jobs: &mut work.jobs,
            home,
            node: work
                .nodes
                .get_mut(&home.0)
                .expect("checkout put every event's home node in the shard's work"),
            ops: Vec::new(),
        };
        match lev {
            LocalEv::Arrive { job } => run_node::arrive(&mut cx, at, job, home),
            LocalEv::Complete { job } => run_node::complete_direct(&mut cx, at, job, home),
            LocalEv::Kill { job } => run_node::sandbox_kill(&mut cx, at, job, home),
            LocalEv::ReleaseStale {
                job,
                epoch,
                ran_to_completion,
            } => {
                run_node::release_stale_execution(&mut cx, at, job, epoch, home, ran_to_completion)
            }
        }
        out.push((idx, cx.ops));
    }
    out
}

/// The shard-local run-node context for one event: the handlers act on the
/// checked-out copy of the event's home node, the job records checked out
/// with it, and the shard's own network state, and read the node's
/// capabilities from the table's column, which no window changes; every
/// effect is recorded, in handler order, as the event's envelope for the
/// barrier to replay.
///
/// A queued job missing from `jobs` is terminal, retired or unknown
/// (classification would not have marked the node clean otherwise), which
/// is exactly what the handlers' skip rule for dead queue entries expects
/// of a miss.
struct ShardCtx<'a> {
    cfg: &'a EngineConfig,
    profiles: &'a [NodeProfile],
    state: &'a mut ShardState,
    jobs: &'a mut HashMap<JobId, Checkout>,
    home: GridNodeId,
    node: &'a mut NodeWork,
    ops: Vec<EnvOp>,
}

impl ShardCtx<'_> {
    fn node(&self, home: GridNodeId) -> &NodeWork {
        debug_assert_eq!(home, self.home, "shard handlers stay on the home node");
        self.node
    }

    fn node_mut(&mut self, home: GridNodeId) -> &mut NodeWork {
        debug_assert_eq!(home, self.home, "shard handlers stay on the home node");
        self.node
    }
}

impl RunNodeCtx for ShardCtx<'_> {
    fn cfg(&self) -> &EngineConfig {
        self.cfg
    }

    fn record(&self, job: JobId) -> Option<&JobRecord> {
        self.jobs.get(&job).map(|(rec, _)| rec)
    }

    fn record_mut(&mut self, job: JobId) -> Option<&mut JobRecord> {
        self.jobs.get_mut(&job).map(|(rec, _)| rec)
    }

    fn owner(&self, job: JobId) -> Option<OwnerRef> {
        self.jobs.get(&job).and_then(|&(_, owner)| owner)
    }

    fn capabilities(&self, home: GridNodeId) -> &Capabilities {
        debug_assert_eq!(home, self.home, "shard handlers stay on the home node");
        &self.profiles[home.0 as usize].capabilities
    }

    fn running_job(&self, home: GridNodeId) -> Option<QueuedJob> {
        self.node(home).running_job()
    }

    fn running_finish_at(&self, home: GridNodeId) -> SimTime {
        self.node(home).running_finish_at()
    }

    fn add_busy_secs(&mut self, home: GridNodeId, secs: f64) {
        self.node_mut(home).busy_secs += secs;
    }

    fn count_completion(&mut self, home: GridNodeId) {
        self.node_mut(home).completed_jobs += 1;
    }

    fn enqueue(&mut self, home: GridNodeId, q: QueuedJob) {
        self.node_mut(home).enqueue(q);
    }

    fn pop_queue(&mut self, home: GridNodeId) -> Option<QueuedJob> {
        self.node_mut(home).pop_queue()
    }

    fn set_running(&mut self, home: GridNodeId, q: QueuedJob, finish_at: SimTime) {
        self.node_mut(home).set_running(q, finish_at);
    }

    fn take_running(&mut self, home: GridNodeId) -> Option<QueuedJob> {
        self.node_mut(home).take_running()
    }

    fn net(&mut self) -> (&mut Network, &mut SimRng) {
        (&mut self.state.net, &mut self.state.rng_net)
    }

    fn effect(&mut self, _at: SimTime, op: EnvOp) {
        self.ops.push(op);
    }
}
