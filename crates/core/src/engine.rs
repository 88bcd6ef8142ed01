//! The discrete-event grid engine.
//!
//! Drives the six-step lifecycle of Figure 1 over any [`Matchmaker`], with
//! the owner/run-node replication and recovery protocol of Section 2:
//!
//! * **run-node failure** → the owner misses heartbeats, detects after
//!   `heartbeat_secs × heartbeat_misses`, and re-runs matchmaking;
//! * **owner failure** → the run node misses heartbeat acknowledgements,
//!   detects on the same schedule, and installs a new owner through the
//!   overlay (`reassign_owner`);
//! * **both fail** before recovery completes → the client resubmits after
//!   `client_resubmit_secs`.
//!
//! Every in-flight message carries the job's *epoch*; any reassignment bumps
//! the epoch, so events from a superseded assignment are ignored when they
//! arrive — the simulation analogue of the soft-state invalidation the
//! heartbeat protocol provides in a deployment.
//!
//! All engine-level messages flow through a fault-injecting
//! [`Network`] facade. With the default empty [`FaultPlan`] it is a
//! bit-exact no-op; with faults installed ([`Engine::with_fault_plan`])
//! messages can be lost or cut off by partitions, lifecycle RPCs retry with
//! capped exponential backoff, and sustained heartbeat loss triggers
//! *spurious* failure detections that exercise the same recovery protocol —
//! including duplicate executions that the epoch mechanism must suppress.

use std::collections::{HashMap, HashSet, VecDeque};

use dgrid_resources::{Capabilities, JobId, JobProfile, NodeProfile};
use dgrid_sim::fault::{Delivery, Endpoint, FaultPlan, Network};
use dgrid_sim::rng::{self, SimRng};
use dgrid_sim::stats::SampleSet;
use dgrid_sim::telemetry::{RegistryHook, SharedRegistry, TimeSeries};
use dgrid_sim::{EventQueue, SimDuration, SimTime};
use rand::Rng;

use self::run_node::{EnvOp, ReportOp, RunNodeCtx};
use crate::config::{ChurnConfig, EngineConfig};
use crate::dag::JobDag;
use crate::job::{FailureReason, JobRecord, JobState, JobTable, OwnerRef, NOT_FILED};
use crate::matchmaker::Matchmaker;
use crate::metrics::SimReport;
use crate::node::{GridNodeId, NodeTable, QueuedJob};
use crate::trace::{NullObserver, Observer, TraceEvent};

mod run_node;
mod shard;

/// A scheduled availability transition for one node (deterministic churn,
/// e.g. a diurnal desktop-availability trace: the machine leaves when its
/// user arrives in the morning and rejoins at night).
///
/// Departures from a trace are *graceful* — the volunteer client announces
/// them — unlike the stochastic crash churn of
/// [`ChurnConfig`](crate::ChurnConfig).
#[derive(Clone, Copy, Debug)]
pub struct AvailabilityEvent {
    /// When the transition happens, seconds from simulation start.
    pub at_secs: f64,
    /// Which node.
    pub node: GridNodeId,
    /// `true` = the node comes up; `false` = it leaves.
    pub up: bool,
}

/// One job the workload hands to the engine.
#[derive(Clone, Debug)]
pub struct JobSubmission {
    /// The job's profile (requirements, declared runtime, I/O sizes).
    pub profile: JobProfile,
    /// Client submission time, seconds from simulation start.
    pub arrival_secs: f64,
    /// True runtime if it differs from the declared one (runaway/malicious
    /// jobs for the sandbox experiments). Defaults to the declared runtime.
    pub actual_runtime_secs: Option<f64>,
}

/// The submissions that arrive in input order and are not submitted yet:
/// a FIFO the run pulls from. It is the `Vec` the engine was handed, moved
/// in rather than copied and reversed once, so the next arrival is its last
/// entry and taking it is a `pop`. Once [`RELEASE_STEP`] entries' room lies
/// unused the buffer shrinks to fit, which frees its tail without moving an
/// entry. Its next `staged` arrivals wait in the queue as `Submit` events,
/// filed under seqs reserved at construction; the rest are staged as the
/// run reaches them.
struct Arrivals {
    /// Reversed: the next arrival is the last entry.
    fifo: Vec<JobSubmission>,
    staged: usize,
    /// The seq reserved for the first unstaged arrival.
    next_seq: u64,
}

/// The most entries' room the arrival FIFO leaves unused before it shrinks.
const RELEASE_STEP: usize = 4_096;

impl Arrivals {
    /// The FIFO of `in_order`, submissions in arrival order whose seqs
    /// start at `first`.
    fn new(mut in_order: Vec<JobSubmission>, first: u64) -> Arrivals {
        in_order.reverse();
        in_order.shrink_to_fit();
        Arrivals {
            fifo: in_order,
            staged: 0,
            next_seq: first,
        }
    }

    fn arrival(sub: &JobSubmission) -> SimTime {
        SimTime::from_secs_f64(sub.arrival_secs)
    }

    /// The `n`-th arrival to come, counting from 0.
    fn nth(&self, n: usize) -> Option<&JobSubmission> {
        let i = self.fifo.len().checked_sub(n + 1)?;
        Some(&self.fifo[i])
    }

    /// Stage the first unstaged arrival, if there is one.
    fn stage_next(&mut self, queue: &mut EventQueue<Event>) {
        let Some(sub) = self.nth(self.staged) else {
            return;
        };
        let job = sub.profile.id;
        queue.file(Self::arrival(sub), self.next_seq, Event::Submit { job });
        self.next_seq += 1;
        self.staged += 1;
    }

    /// Stage every arrival before `end`, and the next one if none is
    /// staged: what a window drain that ends at `end` must find queued.
    fn stage_before(&mut self, queue: &mut EventQueue<Event>, end: SimTime) {
        while let Some(sub) = self.nth(self.staged) {
            if self.staged > 0 && Self::arrival(sub) >= end {
                break;
            }
            self.stage_next(queue);
        }
    }

    /// Take `job`'s submission off the front now that its `Submit` was
    /// delivered, and stage the next arrival if none is left staged, so the
    /// queue always holds the earliest one; `None` if `job` is not at the
    /// front.
    fn take(&mut self, job: JobId, queue: &mut EventQueue<Event>) -> Option<JobSubmission> {
        if self.staged == 0 || self.fifo.last()?.profile.id != job {
            return None;
        }
        let sub = self.fifo.pop()?;
        self.staged -= 1;
        if self.staged == 0 {
            self.stage_next(queue);
        }
        if self.fifo.capacity() - self.fifo.len() >= RELEASE_STEP {
            self.fifo.shrink_to_fit();
        }
        Some(sub)
    }
}

/// A job held back until its DAG parents complete.
#[derive(Clone, Copy, Debug)]
struct Hold {
    /// Parents that have not completed yet.
    unmet_parents: u32,
    /// Nominal arrival time, the earliest the job is submitted.
    arrival: SimTime,
}

#[derive(Debug)]
enum Event {
    Submit {
        job: JobId,
    },
    OwnerAssigned {
        job: JobId,
        epoch: u32,
        owner: OwnerRef,
    },
    RetryMatch {
        job: JobId,
        epoch: u32,
    },
    /// A lost submission-routing RPC is retried after backoff.
    ResendSubmit {
        job: JobId,
        epoch: u32,
    },
    /// Sustained heartbeat loss made the owner falsely declare the run node
    /// dead (the node is alive; its execution becomes a duplicate).
    SpuriousRunFailure {
        job: JobId,
        epoch: u32,
    },
    /// Sustained ack loss made the run node falsely declare the owner dead.
    SpuriousOwnerFailure {
        job: JobId,
        epoch: u32,
    },
    ArriveAtRunNode {
        job: JobId,
        epoch: u32,
    },
    Complete {
        job: JobId,
        epoch: u32,
        node: GridNodeId,
    },
    SandboxKill {
        job: JobId,
        epoch: u32,
        node: GridNodeId,
    },
    RunFailureDetected {
        job: JobId,
        epoch: u32,
    },
    OwnerFailureDetected {
        job: JobId,
        epoch: u32,
    },
    ClientResubmit {
        job: JobId,
        epoch: u32,
    },
    /// The owner's periodic lease-renewal heartbeat (lease mode only).
    /// Carries the lease seq it was scheduled under; a stale seq means the
    /// lease was re-granted meanwhile and the event is ignored.
    LeaseRenew {
        job: JobId,
        seq: u64,
    },
    /// A lease reached `ttl + grace` without a successful renewal. Carries
    /// the queue seq reserved when its expiry was armed. The queue holds
    /// one per leased job: if the lease was renewed or re-granted since,
    /// the latest armed expiry is filed in its place; otherwise it expires
    /// the lease and transfers it to a freshly placed owner.
    LeaseExpire {
        job: JobId,
        seq: u64,
    },
    NodeFail {
        node: GridNodeId,
    },
    NodeLeave {
        node: GridNodeId,
    },
    NodeRejoin {
        node: GridNodeId,
    },
    Maintenance,
    /// Take one time-series sample of the grid gauges. Only ever scheduled
    /// when sampling is enabled, so the default path never sees it.
    TelemetrySample,
}

/// The simulation engine: nodes, jobs, one matchmaker, one event queue.
///
/// ```
/// use dgrid_core::{CentralizedMatchmaker, ChurnConfig, Engine, EngineConfig, JobSubmission};
/// use dgrid_resources::{Capabilities, ClientId, JobId, JobProfile, JobRequirements,
///                       NodeProfile, OsType};
///
/// let nodes = vec![NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux)); 8];
/// let jobs: Vec<JobSubmission> = (0..20)
///     .map(|i| JobSubmission {
///         profile: JobProfile::new(JobId(i), ClientId(0), JobRequirements::unconstrained(), 30.0),
///         arrival_secs: i as f64,
///         actual_runtime_secs: None,
///     })
///     .collect();
/// let report = Engine::new(
///     EngineConfig::default(),
///     ChurnConfig::none(),
///     Box::new(CentralizedMatchmaker::new()),
///     nodes,
///     jobs,
/// )
/// .run();
/// assert_eq!(report.jobs_completed, 20);
/// ```
pub struct Engine {
    cfg: EngineConfig,
    churn: ChurnConfig,
    nodes: NodeTable,
    jobs: JobTable,
    mm: Box<dyn Matchmaker>,
    queue: EventQueue<Event>,
    rng_engine: SimRng,
    rng_mm: SimRng,
    rng_fail: SimRng,
    rng_net: SimRng,
    net: Network,
    report: SimReport,
    dag: JobDag,
    dag_children: HashMap<JobId, Vec<JobId>>,
    /// The DAG jobs still held back from submission (Section 5
    /// dependencies); empty when the DAG is.
    held: HashMap<JobId, Hold>,
    /// The arrivals in input order not submitted yet.
    arrivals: Arrivals,
    /// The submissions of every other job not submitted yet, until they
    /// are: arrivals out of input order and DAG children.
    parked: HashMap<JobId, JobSubmission>,
    observer: Box<dyn Observer>,
    outstanding: usize,
    registry: Option<SharedRegistry>,
    timeseries: Option<TimeSeries>,
    sample_every: SimDuration,
    /// `Some(S)` switches [`Engine::run`] to the sharded conservative-window
    /// kernel with `S` node shards. See [`Engine::set_sharded_execution`].
    shards: Option<usize>,
    /// Per-shard RNG/network state, created lazily on the first window (so
    /// it sees the final fault plan). Lives here rather than in the run
    /// loop so the shard count is pinned for the whole run.
    shard_states: Vec<Option<shard::ShardState>>,
    /// While a conservative window is open, emissions buffer here and flush
    /// sorted by `(time, commit order)` at the barrier; `None` (the
    /// sequential kernel) forwards straight to the observer.
    window_obs: Option<Vec<(SimTime, TraceEvent)>>,
    /// The due time of the latest lease expiry armed to fall due no later
    /// than `max_sim_secs`; zero before one is. Arms come in time order,
    /// each due a fixed bound after its arm, so one value tracks them.
    expiry_by_horizon: SimTime,
    /// Sharded kernel only: the due time of every lease expiry armed and
    /// not yet inside a drained window, ascending. See
    /// [`Engine::run_sharded_loop`].
    armed_dues: VecDeque<SimTime>,
}

impl Engine {
    /// Assemble an engine: nodes join the overlay, submissions and churn are
    /// scheduled, the matchmaker gets one initial maintenance tick.
    ///
    /// The engine holds no record per job: it keeps `submissions` as the
    /// queue of jobs to come and creates a job's record when the job is
    /// submitted, then frees it at the job's terminal event, so its memory
    /// follows the jobs in flight.
    ///
    /// # Panics
    /// On invalid configuration, duplicate job ids, or an empty node set.
    pub fn new(
        cfg: EngineConfig,
        churn: ChurnConfig,
        matchmaker: Box<dyn Matchmaker>,
        node_profiles: Vec<NodeProfile>,
        submissions: Vec<JobSubmission>,
    ) -> Self {
        Self::with_dag(
            cfg,
            churn,
            matchmaker,
            node_profiles,
            submissions,
            JobDag::none(),
        )
    }

    /// Like [`Engine::new`], but with DAGMan-style job dependencies
    /// (Section 5): a job is submitted only after every parent completes
    /// (the parent's result GUID becomes its input), and a permanently
    /// failed parent cascades failure to all descendants.
    ///
    /// # Panics
    /// Additionally if `dag` references unknown jobs or contains a cycle.
    pub fn with_dag(
        cfg: EngineConfig,
        churn: ChurnConfig,
        matchmaker: Box<dyn Matchmaker>,
        node_profiles: Vec<NodeProfile>,
        submissions: Vec<JobSubmission>,
        dag: JobDag,
    ) -> Self {
        Self::with_dag_and_schedule(
            cfg,
            churn,
            matchmaker,
            node_profiles,
            submissions,
            dag,
            Vec::new(),
        )
    }

    /// The full constructor: dependencies plus a deterministic availability
    /// trace (diurnal desktop schedules and the like). Trace departures are
    /// graceful; stochastic [`ChurnConfig`] crashes can be layered on top.
    ///
    /// # Panics
    /// Additionally if a trace event references an unknown node.
    pub fn with_dag_and_schedule(
        cfg: EngineConfig,
        churn: ChurnConfig,
        mut matchmaker: Box<dyn Matchmaker>,
        node_profiles: Vec<NodeProfile>,
        submissions: Vec<JobSubmission>,
        dag: JobDag,
        schedule: Vec<AvailabilityEvent>,
    ) -> Self {
        cfg.validate();
        assert!(!node_profiles.is_empty(), "a grid needs at least one node");
        if cfg.leases_enabled() {
            // validate() guarantees a policy is present when leases are on.
            matchmaker.set_placement(cfg.placement.expect("validated placement"));
        }

        let nodes = NodeTable::new(node_profiles);
        let mut rng_mm = rng::rng_for(cfg.seed, rng::streams::MATCHMAKER);
        let mut rng_fail = rng::rng_for(cfg.seed, rng::streams::FAILURES);
        let mut queue = EventQueue::new();

        matchmaker.bootstrap(&nodes, &mut rng_mm);
        matchmaker.tick(&nodes);

        // An empty DAG names no job, so there is nothing to check it
        // against: skip hashing every submission's id.
        if !dag.is_empty() {
            let known: HashSet<JobId> = submissions.iter().map(|s| s.profile.id).collect();
            dag.validate(&known);
        }
        let dag_children = dag.children_index();

        // Each submission is handed to the job table, which gets no record
        // until the job is submitted. The ones that arrive in input order
        // stay in `submissions`, which becomes the arrival FIFO, and are
        // staged into the queue one ahead of the run; any other is parked.
        // One that steps back from the latest arrival before it is staged
        // now; a DAG child is scheduled when released. Every undeferred
        // submission gets one of the seqs reserved before any other event
        // exists, so at equal times submissions go first: the FIFO's in
        // order, then the stepped-back ones in input order. At equal times
        // that is input order too, since every FIFO submission due when a
        // stepped-back one is comes before it in the input: the ones after
        // it arrive no earlier than the arrival it stepped back from.
        let mut submissions = submissions;
        let jobs_total = submissions.len();
        let mut jobs = JobTable::new(cfg.leases_enabled());
        let mut held = HashMap::new();
        let mut parked = HashMap::new();
        let mut out_of_order = Vec::new();
        let mut latest = SimTime::ZERO;
        submissions.retain(|sub| {
            let actual = sub.actual_runtime_secs.unwrap_or(sub.profile.run_time_secs);
            assert!(actual > 0.0, "non-positive runtime for {}", sub.profile.id);
            let at = SimTime::from_secs_f64(sub.arrival_secs);
            let id = sub.profile.id;
            assert!(jobs.declare(id), "duplicate job id {id}");
            let parents = dag.parents_of(id).len();
            if parents > 0 {
                // Held back until the last parent completes.
                let hold = Hold {
                    unmet_parents: parents as u32,
                    arrival: at,
                };
                held.insert(id, hold);
                parked.insert(id, sub.clone());
                return false;
            }
            if at < latest {
                out_of_order.push((at, id));
                parked.insert(id, sub.clone());
                return false;
            }
            latest = at;
            true
        });
        let in_order = submissions.len() as u64;
        let first = queue.reserve_seqs(in_order + out_of_order.len() as u64);
        let mut arrivals = Arrivals::new(submissions, first);
        arrivals.stage_next(&mut queue);
        for ((at, job), seq) in out_of_order.into_iter().zip(first + in_order..) {
            queue.file(at, seq, Event::Submit { job });
        }

        // Churn injection: exponential lifetimes per node; each departure
        // is graceful with the configured probability.
        if let Some(mttf) = churn.mttf_secs {
            assert!(
                (0.0..=1.0).contains(&churn.graceful_fraction),
                "graceful_fraction out of range"
            );
            for id in nodes.alive_ids() {
                let at = SimTime::from_secs_f64(rng::sample_exp(&mut rng_fail, mttf));
                let ev = if rng_fail.gen_bool(churn.graceful_fraction) {
                    Event::NodeLeave { node: id }
                } else {
                    Event::NodeFail { node: id }
                };
                queue.schedule(at, ev);
            }
        }
        for ev in &schedule {
            assert!(
                (ev.node.0 as usize) < nodes.len(),
                "availability event for unknown node {:?}",
                ev.node
            );
            let at = SimTime::from_secs_f64(ev.at_secs);
            let event = if ev.up {
                Event::NodeRejoin { node: ev.node }
            } else {
                Event::NodeLeave { node: ev.node }
            };
            queue.schedule(at, event);
        }
        queue.schedule(
            SimTime::from_secs_f64(cfg.maintenance_secs),
            Event::Maintenance,
        );

        // One sample per job in each: reserved up front, a run never copies
        // them as they grow.
        let per_job = || SampleSet::with_capacity(jobs_total);
        Engine {
            report: SimReport {
                algorithm: matchmaker.name().to_string(),
                jobs_total: jobs_total as u64,
                wait_time: per_job(),
                turnaround: per_job(),
                match_hops: per_job(),
                owner_hops: per_job(),
                ..SimReport::default()
            },
            rng_engine: rng::rng_for(cfg.seed, rng::streams::ARRIVALS ^ 0xE16),
            rng_net: rng::rng_for(cfg.seed, rng::streams::NETWORK),
            net: Network::new(
                cfg.latency,
                FaultPlan::none(),
                rng::rng_for(cfg.seed, rng::streams::FAULT_INJECTION),
            ),
            cfg,
            churn,
            nodes,
            jobs,
            mm: matchmaker,
            queue,
            rng_mm,
            rng_fail,
            dag,
            dag_children,
            held,
            arrivals,
            parked,
            observer: Box::new(NullObserver),
            outstanding: jobs_total,
            registry: None,
            timeseries: None,
            sample_every: SimDuration::ZERO,
            shards: None,
            shard_states: Vec::new(),
            window_obs: None,
            expiry_by_horizon: SimTime::ZERO,
            armed_dues: VecDeque::new(),
        }
    }

    /// Switch [`Engine::run`] to the space-parallel conservative-window
    /// kernel with `shards` node shards (see the docs of the private
    /// `engine::shard` module): events execute against shard-local state
    /// inside windows bounded by the network's minimum latency, and a
    /// deterministic barrier merges their effects in `(time, seq)` order.
    ///
    /// The output is a pure function of the configuration **and of `S`**:
    /// for a fixed shard count the event stream and report are byte-identical
    /// at every worker-thread count (including one), but they are *not* the
    /// sequential kernel's bytes — sharding gives each shard its own derived
    /// network RNG stream. Callers that compare runs must therefore compare
    /// sharded-to-sharded with equal `S` (the CLI pins
    /// [`DEFAULT_SHARDS`](Engine::DEFAULT_SHARDS)).
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn set_sharded_execution(&mut self, shards: usize) {
        assert!(shards > 0, "shard count must be positive");
        self.shards = Some(shards);
    }

    /// Enable sharded execution, builder-style.
    pub fn with_sharded_execution(mut self, shards: usize) -> Self {
        self.set_sharded_execution(shards);
        self
    }

    /// Install a lifecycle [`Observer`] (tracing, test assertions,
    /// visualization). Call before [`Engine::run`].
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = observer;
    }

    /// Install an observer, builder-style.
    pub fn with_observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.set_observer(observer);
        self
    }

    /// Install a shared [`MetricsRegistry`](dgrid_sim::telemetry::MetricsRegistry):
    /// the matchmaker's overlay operations report lookup hops, failovers,
    /// and retries into it (via a [`RegistryHook`]), and time-series
    /// sampling mirrors its gauges. Call before [`Engine::run`]; when not
    /// installed, nothing on the hot path references telemetry at all.
    pub fn set_telemetry_registry(&mut self, registry: SharedRegistry) {
        self.mm
            .set_telemetry_hook(RegistryHook::shared(registry.clone()));
        self.registry = Some(registry);
    }

    /// Install a telemetry registry, builder-style.
    pub fn with_telemetry_registry(mut self, registry: SharedRegistry) -> Self {
        self.set_telemetry_registry(registry);
        self
    }

    /// Enable virtual-time gauge sampling: every `every`, the engine
    /// records queue depth, free nodes, in-flight jobs, cumulative retries,
    /// and live-node count into a [`TimeSeries`] returned in
    /// [`SimReport::timeseries`]. The sampler is driven by its own
    /// recurring event, so runs without sampling pay nothing.
    ///
    /// # Panics
    /// If `every` is zero.
    pub fn set_timeseries_sampling(&mut self, every: SimDuration) {
        assert!(!every.is_zero(), "sampling cadence must be positive");
        if self.timeseries.is_none() {
            // First sample fires at t=0 so the series covers the whole run.
            self.queue.schedule(SimTime::ZERO, Event::TelemetrySample);
        }
        self.sample_every = every;
        self.timeseries = Some(TimeSeries::new(every.as_secs_f64()));
    }

    /// Enable gauge sampling, builder-style.
    pub fn with_timeseries_sampling(mut self, every: SimDuration) -> Self {
        self.set_timeseries_sampling(every);
        self
    }

    /// Install a [`FaultPlan`]. Call before [`Engine::run`].
    ///
    /// Scheduled crashes become abrupt node failures (with a rejoin when the
    /// plan says so); loss, partitions, and latency spikes take effect per
    /// message. Installing [`FaultPlan::none`] is a bit-exact no-op: the
    /// simulation is indistinguishable from one without a fault layer.
    ///
    /// # Panics
    /// On an invalid plan or a crash referencing an unknown node.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        plan.validate();
        for c in &plan.crashes {
            assert!(
                (c.node as usize) < self.nodes.len(),
                "crash scheduled for unknown node {}",
                c.node
            );
            let at = SimTime::from_secs_f64(c.at_secs);
            let node = GridNodeId(c.node);
            self.queue.schedule(at, Event::NodeFail { node });
            if let Some(r) = c.rejoin_after_secs {
                self.queue.schedule(
                    at + SimDuration::from_secs_f64(r),
                    Event::NodeRejoin { node },
                );
            }
        }
        self.net = Network::new(
            self.cfg.latency,
            plan,
            rng::rng_for(self.cfg.seed, rng::streams::FAULT_INJECTION),
        );
    }

    /// Install a fault plan, builder-style.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// The shard count the CLI pins when `run --threads` enables sharded
    /// execution. One fixed value for every thread count is what keeps the
    /// streams comparable across `--threads 1/2/8`; 64 shards keep all
    /// plausible worker counts busy without fragmenting the windows.
    pub const DEFAULT_SHARDS: usize = 64;

    /// Forward a lifecycle event to the observer — or, while a conservative
    /// window is open, into the window buffer that the barrier flushes in
    /// `(time, commit order)` sorted order. Every emission in the engine
    /// goes through here so the two kernels share one code path.
    fn emit(&mut self, at: SimTime, event: TraceEvent) {
        match &mut self.window_obs {
            Some(buf) => buf.push((at, event)),
            None => self.observer.on_event(at, event),
        }
    }

    /// Run to completion and return the report.
    pub fn run(mut self) -> SimReport {
        let horizon = SimTime::from_secs_f64(self.cfg.max_sim_secs);
        let makespan = if self.shards.is_some() {
            self.run_sharded_loop(horizon)
        } else {
            self.run_sequential_loop(horizon)
        };
        // Jobs still open at the horizon fail, in id order: the live ones,
        // and those never submitted (late arrivals, DAG children still held
        // or released too late). The table iterates in slot order, and the
        // failure order is visible in the trace stream, so it is pinned by
        // an explicit sort.
        let mut open: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, r)| !r.state.is_terminal())
            .map(|(id, _)| id)
            .chain(self.arrivals.fifo.iter().map(|sub| sub.profile.id))
            .chain(self.parked.keys().copied())
            .collect();
        open.sort_unstable();
        for id in open {
            self.fail_job(id, FailureReason::HorizonExceeded, makespan);
        }
        // Every job is terminal now: free the job table and the queue
        // before the per-node columns below are allocated, so the two never
        // add to one peak.
        self.jobs = JobTable::default();
        self.queue = EventQueue::new();
        // Final per-node accounting.
        self.report.node_busy_secs = (0..self.nodes.len() as u32)
            .map(|i| self.nodes.busy_secs(GridNodeId(i)))
            .collect();
        self.report.node_jobs = (0..self.nodes.len() as u32)
            .map(|i| self.nodes.completed_jobs(GridNodeId(i)))
            .collect();
        self.report.makespan_secs = makespan.as_secs_f64();
        self.report.wait_stats = Some(self.report.wait_time.summary());
        self.report.turnaround_stats = Some(self.report.turnaround.summary());
        // The report hands its samples over ascending: `mean_wait` and the
        // other means read later sum them in that order, and a summary
        // leaves them only partly ordered.
        self.report.wait_time.sort();
        self.report.turnaround.sort();
        self.report.tenant_fairness = Some(self.report.client_fairness());
        self.report.timeseries = self.timeseries.take();
        self.report.stream_bytes_written = self.observer.bytes_written().unwrap_or(0);
        self.report
    }

    /// The classic one-event-at-a-time kernel.
    fn run_sequential_loop(&mut self, horizon: SimTime) -> SimTime {
        let mut makespan = SimTime::ZERO;
        while self.outstanding > 0 {
            let Some((now, ev)) = self.queue.pop().filter(|&(now, _)| now <= horizon) else {
                // Stopped with jobs open, at the horizon or with nothing
                // left to happen. Every lease expiry armed to fall due by
                // the horizon was an event of its own when each renewal
                // queued one, and the run reached it; one a renewal had
                // superseded did nothing, but the run ended no earlier.
                return makespan.max(self.expiry_by_horizon);
            };
            self.dispatch(now, ev);
            makespan = now;
        }
        makespan
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Submit { job } => self.handle_submit(now, job),
            Event::OwnerAssigned { job, epoch, owner } => {
                self.handle_owner_assigned(now, job, epoch, owner)
            }
            Event::RetryMatch { job, epoch } => {
                if self.epoch_valid(job, epoch) {
                    self.try_match(now, job);
                }
            }
            Event::ResendSubmit { job, epoch } => {
                if self.epoch_valid(job, epoch) {
                    self.route_submission(now, job, epoch);
                }
            }
            Event::SpuriousRunFailure { job, epoch } => {
                self.handle_spurious_run_failure(now, job, epoch)
            }
            Event::SpuriousOwnerFailure { job, epoch } => {
                self.handle_spurious_owner_failure(now, job, epoch)
            }
            Event::ArriveAtRunNode { job, epoch } => self.handle_arrive(now, job, epoch),
            Event::Complete { job, epoch, node } => self.handle_complete(now, job, epoch, node),
            Event::SandboxKill { job, epoch, node } => {
                self.handle_sandbox_kill(now, job, epoch, node)
            }
            Event::RunFailureDetected { job, epoch } => {
                self.handle_run_failure_detected(now, job, epoch)
            }
            Event::OwnerFailureDetected { job, epoch } => {
                self.handle_owner_failure_detected(now, job, epoch)
            }
            Event::ClientResubmit { job, epoch } => self.handle_client_resubmit(now, job, epoch),
            Event::LeaseRenew { job, seq } => self.handle_lease_renew(now, job, seq),
            Event::LeaseExpire { job, seq } => self.handle_lease_expire(now, job, seq),
            Event::NodeFail { node } => self.handle_node_depart(now, node, false),
            Event::NodeLeave { node } => self.handle_node_depart(now, node, true),
            Event::NodeRejoin { node } => self.handle_node_rejoin(now, node),
            Event::Maintenance => {
                self.mm.tick(&self.nodes);
                if self.outstanding > 0 {
                    // Relative to the event's own time, not the queue clock:
                    // under the windowed kernel the clock sits at the window
                    // start while this dispatches at the barrier.
                    self.queue.schedule(
                        now + SimDuration::from_secs_f64(self.cfg.maintenance_secs),
                        Event::Maintenance,
                    );
                }
            }
            Event::TelemetrySample => self.handle_telemetry_sample(now),
        }
    }

    /// Record one row of grid gauges into the time series (and mirror them
    /// into the registry when one is installed), then reschedule. Draws no
    /// randomness and mutates no simulation state, so enabling sampling
    /// cannot change a run's outcome.
    fn handle_telemetry_sample(&mut self, now: SimTime) {
        let Some(ts) = self.timeseries.as_mut() else {
            return;
        };
        // O(1) from the node table's SoA aggregates — identical values to
        // the historical per-node walk.
        let queue_depth = self.nodes.total_alive_load() as usize;
        let free_nodes = self.nodes.idle_alive_count();
        // Cumulative retries as already folded into the report (overlay
        // failovers drained from the matchmaker plus engine RPC resends).
        let retries = self.report.lookup_retries;
        let row: [(&str, f64); 5] = [
            ("queue_depth", queue_depth as f64),
            ("free_nodes", free_nodes as f64),
            ("in_flight", self.outstanding as f64),
            ("retries", retries as f64),
            ("nodes_alive", self.nodes.alive_count() as f64),
        ];
        ts.record(now, &row);
        if let Some(reg) = &self.registry {
            let mut reg = reg.borrow_mut();
            for (name, v) in row {
                reg.gauge_set(name, v);
            }
        }
        if self.outstanding > 0 {
            self.queue
                .schedule(now + self.sample_every, Event::TelemetrySample);
        }
    }

    fn epoch_valid(&self, job: JobId, epoch: u32) -> bool {
        self.jobs
            .get(job)
            .is_some_and(|r| !r.state.is_terminal() && r.epoch == epoch)
    }

    /// Checked job lookup for the recovery paths. A retired job has no
    /// record and its events change nothing, as a terminal record's do. Any
    /// other missing record means an engine invariant broke; instead of
    /// aborting the whole replication with a panic, the breach is counted
    /// (`unknown_job_events`) and the event dropped — the conservation
    /// oracle then reports the stuck job, the same way the `was_terminal`
    /// guard surfaces double commits.
    fn job_mut(&mut self, job: JobId) -> Option<&mut JobRecord> {
        match self.jobs.slot(job) {
            Some(slot) => Some(self.jobs.at_mut(slot)),
            None => {
                self.note_missing(job);
                None
            }
        }
    }

    /// Shared-reference variant of [`Engine::job_mut`].
    fn job_ref(&mut self, job: JobId) -> Option<&JobRecord> {
        self.job_mut(job).map(|rec| &*rec)
    }

    /// A handler found no record for `job`: count the breach, unless the
    /// job is retired.
    fn note_missing(&mut self, job: JobId) {
        if !self.jobs.is_retired(job) {
            self.report.unknown_job_events += 1;
        }
    }

    fn guid_of(&self, job: JobId, resubmits: u32) -> u64 {
        rng::splitmix64(job.0.wrapping_add(u64::from(resubmits) << 48))
    }

    fn endpoint_of(owner: OwnerRef) -> Endpoint {
        match owner {
            OwnerRef::Server => Endpoint::External,
            OwnerRef::Peer(p) => Endpoint::Node(p.0),
        }
    }

    /// Fold the matchmaker's drained overlay-failover retry count into the
    /// report. Called after every overlay operation.
    fn absorb_lookup_retries(&mut self) {
        self.report.lookup_retries += self.mm.take_lookup_retries();
    }

    /// A lifecycle RPC (submission routing when `via_submit`, otherwise the
    /// owner→run-node job transfer) was lost: retry after backoff, or fall
    /// back to client resubmission once the retry budget is spent.
    fn note_rpc_loss(&mut self, now: SimTime, job: JobId, epoch: u32, via_submit: bool) {
        let attempts = {
            let Some(rec) = self.job_mut(job) else { return };
            rec.rpc_attempts += 1;
            rec.rpc_attempts
        };
        if attempts > self.cfg.max_rpc_retries {
            self.schedule_client_resubmit(now, job, epoch);
            return;
        }
        let d = run_node::backoff_delay(self, attempts - 1);
        let ev = if via_submit {
            Event::ResendSubmit { job, epoch }
        } else {
            Event::RetryMatch { job, epoch }
        };
        self.queue.schedule(now + d, ev);
    }

    // ------------------------------------------------------------------
    // Lease subsystem: one grant/renew/expire/transfer state machine.
    //
    // When `cfg.leases_enabled()`, every peer owner holds a renewable lease
    // on each job it owns, registered (conceptually) at the job's DHT key.
    // The owner renews every `lease_renew_secs` with a message to the
    // registrar; a lease not renewed for `ttl + grace` expires and is
    // transferred to a freshly *placed* owner — which weighs reported node
    // load under `PlacementPolicy::LoadAware` instead of rehashing into the
    // substrate's skew. Owner-death recovery then needs no heartbeat
    // detection at all: expiry is the detection. With leases off none of
    // this schedules anything, draws nothing, and the engine is bit-exact
    // the pre-lease engine.
    // ------------------------------------------------------------------

    /// Grant (or re-grant) the lease on `job` to its freshly installed peer
    /// owner: bump the per-job lease seq — invalidating every in-flight
    /// renewal for older grants — schedule the first renewal under the new
    /// seq, and arm the ttl+grace expiry. Server owners (the reliable
    /// centralized baseline) hold an implicit permanent lease.
    fn grant_lease(&mut self, now: SimTime, job: JobId) {
        if !self.cfg.leases_enabled() {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        // A live record has a slot.
        let Some(slot) = self.jobs.slot(job) else {
            return;
        };
        if !matches!(self.jobs.owner(job), Some(OwnerRef::Peer(_))) {
            self.jobs.end_lease(slot);
            return;
        }
        let seq = self.jobs.lease_mut(slot).grant();
        self.queue.schedule(
            now + SimDuration::from_secs_f64(self.cfg.lease_renew_secs),
            Event::LeaseRenew { job, seq },
        );
        self.arm_lease_expiry(now, job);
    }

    /// Arm the expiry clock of the lease just granted or renewed on `job`:
    /// it falls due `ttl + grace` from now, under a queue seq reserved for
    /// it here, where an event used to be scheduled. The queue holds one
    /// expiry per job: this one is filed only if none is, and otherwise
    /// the one queued, when it pops, files this in its place.
    fn arm_lease_expiry(&mut self, now: SimTime, job: JobId) {
        let bound = self
            .cfg
            .lease_expiry_bound_secs()
            .expect("only called in lease mode");
        let due = now + SimDuration::from_secs_f64(bound);
        let seq = self.queue.reserve_seqs(1);
        if due <= SimTime::from_secs_f64(self.cfg.max_sim_secs) {
            self.expiry_by_horizon = due;
        }
        if self.shards.is_some() {
            self.armed_dues.push_back(due);
        }
        // Every arm follows a grant to the job's live record.
        let Some(slot) = self.jobs.slot(job) else {
            return;
        };
        let clock = self.jobs.lease_mut(slot);
        (clock.due, clock.armed) = (due, seq);
        if clock.filed == NOT_FILED {
            clock.filed = seq;
            self.queue.file(due, seq, Event::LeaseExpire { job, seq });
        }
    }

    /// The owner's renewal heartbeat. A delivered renewal re-arms both the
    /// renewal clock, under a fresh seq, and the expiry clock (the queued
    /// expiry is superseded); a lost one retries at the next heartbeat
    /// under the *same* seq, so the expiry armed by the last successful
    /// renewal stands — a partition outlasting `ttl + grace` therefore
    /// expires the lease.
    fn handle_lease_renew(&mut self, now: SimTime, job: JobId, seq: u64) {
        let Some(rec) = self.job_ref(job) else { return };
        let (terminal, resubmits) = (rec.state.is_terminal(), rec.resubmits);
        let Some(slot) = self.jobs.slot(job) else {
            return;
        };
        if terminal || !self.jobs.lease_mut(slot).holds(seq) {
            return;
        }
        let Some(OwnerRef::Peer(owner)) = self.jobs.owner(job) else {
            return;
        };
        if !self.nodes.is_alive(owner) {
            // A dead owner renews nothing; the pending expiry stands and
            // will transfer the lease — this *is* the failure detection.
            return;
        }
        let guid = self.guid_of(job, resubmits);
        let registrar = self.mm.lease_registrar(&self.nodes, guid);
        // Renew at the substrate owner of the job's key; when the overlay
        // has no live registrar, fall back to the reliable registry.
        let to = registrar.map_or(Endpoint::External, |g| Endpoint::Node(g.0));
        let renew_in = SimDuration::from_secs_f64(self.cfg.lease_renew_secs);
        match run_node::send_message(self, now, Endpoint::Node(owner.0), to, 1) {
            Delivery::Delivered(_) => {
                self.report.lease_renewals += 1;
                let Some(slot) = self.jobs.slot(job) else {
                    self.note_missing(job);
                    return;
                };
                let seq = self.jobs.lease_mut(slot).grant();
                self.queue
                    .schedule(now + renew_in, Event::LeaseRenew { job, seq });
                self.arm_lease_expiry(now, job);
            }
            _ => {
                self.queue
                    .schedule(now + renew_in, Event::LeaseRenew { job, seq });
            }
        }
    }

    /// A lease ran out its `ttl + grace`: the holder — dead, partitioned,
    /// or silently gone — loses ownership and the lease transfers. The
    /// expiry queued for the job carries the seq reserved when it was
    /// armed; if the lease was renewed or re-granted since, the latest arm
    /// takes its place in the queue instead, unless the job holds no lease
    /// any more.
    fn handle_lease_expire(&mut self, now: SimTime, job: JobId, seq: u64) {
        let Some(slot) = self.jobs.slot(job) else {
            self.note_missing(job);
            return;
        };
        let clock = self.jobs.lease_mut(slot);
        if clock.filed != seq {
            // Not the one the clock has queued: one a sharded window
            // replaced by the latest arm, or one dispatched by hand.
            return;
        }
        clock.filed = NOT_FILED;
        let (due, armed, held) = (clock.due, clock.armed, clock.held);
        if self.jobs.at_mut(slot).state.is_terminal() || !held {
            return;
        }
        if armed != seq {
            self.jobs.lease_mut(slot).filed = armed;
            let ev = Event::LeaseExpire { job, seq: armed };
            self.queue.file(due, armed, ev);
            return;
        }
        self.report.lease_expiries += 1;
        self.emit(now, TraceEvent::LeaseExpired { job });
        self.jobs.set_owner(job, None);
        self.jobs.end_lease(slot);
        self.transfer_lease(now, job);
    }

    /// Place a new owner for an expired lease. The overlay's
    /// `reassign_owner` (honouring the configured placement policy) is
    /// asked first; if it cannot name a live peer the engine falls back to
    /// the deterministic least-loaded live node (lowest id on ties), so a
    /// transfer succeeds whenever *any* live candidate exists — the
    /// property the no-orphan oracle checks. With an empty grid the expiry
    /// clock is simply re-armed.
    fn transfer_lease(&mut self, now: SimTime, job: JobId) {
        let choice = if self.nodes.alive_count() == 0 {
            None
        } else {
            match self.reassign(job) {
                Some((OwnerRef::Peer(p), hops)) if self.nodes.is_alive(p) => Some((p, hops)),
                // Least loaded live node, lowest id on ties.
                _ => self.nodes.least_loaded_alive().map(|id| (id, 0)),
            }
        };
        match choice {
            Some((new_owner, hops)) => {
                self.report.owner_hops.push(f64::from(hops));
                self.report.lease_transfers += 1;
                self.jobs.set_owner(job, Some(OwnerRef::Peer(new_owner)));
                self.emit(
                    now,
                    TraceEvent::LeaseTransferred {
                        job,
                        owner: new_owner,
                    },
                );
                self.grant_lease(now, job);
                // Execution in progress survives the transfer untouched
                // (no epoch bump — the at-most-once argument is the same
                // as for spurious owner recovery). An idle job resumes
                // matchmaking under its new owner immediately. The expiry
                // that led here found the record live, and nothing on the
                // way retires it; a miss is counted like any other.
                let Some(rec) = self.job_ref(job) else { return };
                let run_node = rec.run_node();
                let idle = run_node.is_none_or(|r| !self.nodes.is_alive(r));
                if idle {
                    self.reset_run(job);
                    self.rematch(now, job);
                }
            }
            None => {
                // No live candidate anywhere: hold the lease vacant and
                // re-arm the clock; the bound restarts once nodes rejoin.
                let Some(slot) = self.jobs.slot(job) else {
                    self.note_missing(job);
                    return;
                };
                self.jobs.lease_mut(slot).grant();
                self.arm_lease_expiry(now, job);
            }
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle handlers
    // ------------------------------------------------------------------

    /// Create `job`'s record at its first submission, from the submission
    /// the engine was handed: the arrival FIFO's front, or a parked one.
    /// `false` if there is none, which is a breach unless the job retired.
    fn admit(&mut self, job: JobId) -> bool {
        let sub = if self.jobs.is_pending(job) {
            let front = self.arrivals.take(job, &mut self.queue);
            front.or_else(|| self.parked.remove(&job))
        } else {
            None
        };
        let Some(sub) = sub else {
            self.note_missing(job);
            return false;
        };
        let actual = sub.actual_runtime_secs.unwrap_or(sub.profile.run_time_secs);
        let at = SimTime::from_secs_f64(sub.arrival_secs);
        self.jobs
            .admit(job, JobRecord::new(sub.profile, actual, at));
        true
    }

    fn handle_submit(&mut self, now: SimTime, job: JobId) {
        if !self.jobs.contains(job) && !self.admit(job) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        self.jobs.set_owner(job, None);
        // Any lease from an earlier life of this job is abandoned: pending
        // renew/expire events find no active lease and drop themselves.
        if let Some(slot) = self.jobs.slot(job) {
            self.jobs.end_lease(slot);
        }
        let Some(rec) = self.job_mut(job) else { return };
        rec.state = JobState::Matching;
        rec.match_attempts = 0;
        rec.rpc_attempts = 0;
        rec.set_run_node(None);
        rec.invalidate();
        let epoch = rec.epoch;
        let resubmits = rec.resubmits;
        self.emit(now, TraceEvent::Submitted { job, resubmits });
        self.route_submission(now, job, epoch);
    }

    /// Figure 1, steps 1–2 as one RPC: route the submission through a random
    /// injection node to the owner-to-be. A lost send backs off and retries
    /// via [`Event::ResendSubmit`].
    fn route_submission(&mut self, now: SimTime, job: JobId, epoch: u32) {
        let Some(rec) = self.job_ref(job) else { return };
        let resubmits = rec.resubmits;
        let profile = rec.profile;
        let Some(injection) = self.nodes.random_alive(&mut self.rng_engine) else {
            // Empty grid: retry after the resubmit timeout, like a client
            // that cannot find an entry point.
            self.schedule_client_resubmit(now, job, epoch);
            return;
        };
        let guid = self.guid_of(job, resubmits);
        let assigned =
            self.mm
                .assign_owner(&self.nodes, &profile, guid, injection, &mut self.rng_mm);
        self.absorb_lookup_retries();
        // client -> injection -> ... -> owner
        self.send_to_owner(now, job, epoch, assigned, 1);
    }

    /// Send `job`'s submission to the owner an overlay lookup `found`,
    /// `extra_hops` past the lookup's own. A lookup that found no owner
    /// (the overlay is in flux) counts as a failed matchmaking attempt.
    fn send_to_owner(
        &mut self,
        now: SimTime,
        job: JobId,
        epoch: u32,
        found: Option<(OwnerRef, u32)>,
        extra_hops: u32,
    ) {
        let Some((owner, hops)) = found else {
            self.note_match_failure(now, job, epoch);
            return;
        };
        self.report.owner_hops.push(f64::from(hops));
        let to = Self::endpoint_of(owner);
        match run_node::send_message(self, now, Endpoint::External, to, hops + extra_hops) {
            Delivery::Delivered(d) => {
                if let Some(rec) = self.job_mut(job) {
                    rec.rpc_attempts = 0;
                }
                self.queue
                    .schedule(now + d, Event::OwnerAssigned { job, epoch, owner });
            }
            _ => self.note_rpc_loss(now, job, epoch, true),
        }
    }

    fn handle_owner_assigned(&mut self, now: SimTime, job: JobId, epoch: u32, owner: OwnerRef) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        if !self.owner_alive(Some(owner)) {
            // The designated owner died while the job was in transit: ask
            // the overlay again.
            let found = self.reassign(job);
            self.send_to_owner(now, job, epoch, found, 0);
            return;
        }
        self.jobs.set_owner(job, Some(owner));
        self.emit(now, TraceEvent::OwnerAssigned { job, owner });
        self.grant_lease(now, job);
        self.try_match(now, job);
    }

    /// Figure 1, step 3: the owner searches for a run node.
    fn try_match(&mut self, now: SimTime, job: JobId) {
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        let epoch = rec.epoch;
        let Some(owner) = self.jobs.owner(job) else {
            // Owner lost before matching; the epoch-valid path that led here
            // left a resubmission, detection, or lease-expiry event pending.
            // One path does not: an owner dead in transit whose overlay
            // named no replacement leaves the job to the horizon.
            return;
        };
        // Owner must be alive to conduct matchmaking.
        if !self.owner_alive(Some(owner)) {
            self.owner_lost(now, job, epoch);
            return;
        }
        let Some(rec) = self.job_mut(job) else { return };
        rec.state = JobState::Matching;
        rec.match_attempts += 1;
        let profile = rec.profile;
        let outcome = self
            .mm
            .find_run_node(&self.nodes, owner, &profile, &mut self.rng_mm);
        self.absorb_lookup_retries();
        match outcome.run_node {
            Some(run) if self.nodes.is_alive(run) => {
                self.report.match_hops.push(f64::from(outcome.hops));
                self.emit(
                    now,
                    TraceEvent::Matched {
                        job,
                        run_node: run,
                        hops: outcome.hops,
                    },
                );
                // owner -> run node transfer
                match run_node::send_message(
                    self,
                    now,
                    Self::endpoint_of(owner),
                    Endpoint::Node(run.0),
                    outcome.hops + 1,
                ) {
                    Delivery::Delivered(d) => {
                        let Some(rec) = self.job_mut(job) else { return };
                        rec.set_run_node(Some(run));
                        rec.state = JobState::Queued;
                        rec.invalidate();
                        rec.rpc_attempts = 0;
                        let epoch = rec.epoch;
                        self.queue
                            .schedule(now + d, Event::ArriveAtRunNode { job, epoch });
                    }
                    // Transfer lost: nothing committed; a fresh matchmaking
                    // round runs after backoff.
                    _ => self.note_rpc_loss(now, job, epoch, false),
                }
            }
            _ => self.note_match_failure(now, job, epoch),
        }
    }

    fn note_match_failure(&mut self, now: SimTime, job: JobId, epoch: u32) {
        self.report.match_failures += 1;
        let Some(rec) = self.job_mut(job) else { return };
        let attempts = rec.match_attempts;
        if attempts >= self.cfg.max_match_attempts {
            self.fail_job(job, FailureReason::NoMatch, now);
        } else {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(self.cfg.match_retry_secs),
                Event::RetryMatch { job, epoch },
            );
        }
    }

    /// Figure 1, step 5: the job reaches the run node's FIFO queue.
    fn handle_arrive(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        let Some(run) = rec.run_node() else {
            // Arrival without an assignment is the same invariant breach as
            // an unknown job: count it and drop the event.
            self.report.unknown_job_events += 1;
            return;
        };
        if !self.nodes.is_alive(run) {
            // Died while the job was in transit: the owner's heartbeat
            // timeout fires as if the job had been accepted.
            self.lose_run_node(now, job, self.cfg.detection_delay());
            return;
        }
        run_node::arrive(self, now, job, run);
    }

    /// Figure 1, step 6: completion; results return to the client.
    fn handle_complete(&mut self, now: SimTime, job: JobId, epoch: u32, node: GridNodeId) {
        if !self.nodes.is_alive(node) {
            return;
        }
        if !self.epoch_valid(job, epoch) {
            // A duplicate execution (spurious run-failure recovery) finished
            // under a superseded epoch: free the node, grant no job credit.
            // With the checker's backdoor set, fall through instead — while
            // the node still holds the stale execution — and double-commit
            // the result (see `EngineConfig::check_disable_epoch_dedup`).
            let held = self
                .nodes
                .running_job(node)
                .is_some_and(|q| q.job == job && q.epoch == epoch);
            if !(self.cfg.check_disable_epoch_dedup && held) {
                run_node::release_stale_execution(self, now, job, epoch, node, true);
                return;
            }
        }
        // Figure 1 step 6: return results directly, or publish a pointer in
        // the DHT and let the client resolve it (Section 2's by-reference
        // option).
        if !self.cfg.return_results_by_reference {
            run_node::complete_direct(self, now, job, node);
            return;
        }
        let result_guid = rng::splitmix64(self.guid_of(job, u32::MAX));
        let publish = self
            .mm
            .resolve_guid(&self.nodes, result_guid, &mut self.rng_mm)
            .unwrap_or(0);
        let fetch = self
            .mm
            .resolve_guid(&self.nodes, result_guid, &mut self.rng_mm)
            .unwrap_or(0);
        self.absorb_lookup_retries();
        self.report.result_hops.push(f64::from(publish + fetch));
        let (from, client) = (Endpoint::Node(node.0), Endpoint::External);
        let result_delay = run_node::deliver_with_retries(self, now, from, client, publish)
            + run_node::deliver_with_retries(self, now, client, client, fetch + 1);
        run_node::commit_completion(self, now, job, node, result_delay);
    }

    /// Section 5 dependencies: the parent's results are now available, so
    /// each child with no remaining unmet parents is submitted (at its
    /// nominal arrival time if that is still in the future).
    fn release_dependents(&mut self, now: SimTime, parent: JobId) {
        // Take ownership instead of cloning: a parent releases its children
        // at most once (later completions of the same job are superseded
        // epochs that never reach here, and a re-run's release finds the
        // children entry already gone). A child with no hold left was
        // failed by a cascade, which is ordinary, not an invariant breach.
        // Without a DAG there is nothing to look up.
        if self.dag_children.is_empty() {
            return;
        }
        let Some(children) = self.dag_children.remove(&parent) else {
            return;
        };
        for child in children {
            let Some(hold) = self.held.get_mut(&child) else {
                continue;
            };
            hold.unmet_parents -= 1;
            if hold.unmet_parents == 0 {
                let arrival = hold.arrival;
                self.held.remove(&child);
                self.queue
                    .schedule(arrival.max(now), Event::Submit { job: child });
            }
        }
    }

    fn handle_sandbox_kill(&mut self, now: SimTime, job: JobId, epoch: u32, node: GridNodeId) {
        if !self.nodes.is_alive(node) {
            return;
        }
        if !self.epoch_valid(job, epoch) {
            // A duplicate execution was sandbox-killed after its epoch was
            // superseded: just free the node.
            run_node::release_stale_execution(self, now, job, epoch, node, false);
            return;
        }
        run_node::sandbox_kill(self, now, job, node);
    }

    // ------------------------------------------------------------------
    // Failure handling (Section 2's recovery protocol)
    // ------------------------------------------------------------------

    fn handle_node_depart(&mut self, now: SimTime, node: GridNodeId, graceful: bool) {
        if !self.nodes.is_alive(node) {
            return;
        }
        if graceful {
            self.report.graceful_leaves += 1;
        } else {
            self.report.node_failures += 1;
        }
        self.emit(now, TraceEvent::NodeDown { node, graceful });

        // Victim jobs held by the node (running + queued), gathered before
        // the table clears them.
        let victims: Vec<JobId> = self
            .nodes
            .running_job(node)
            .map(|q| q.job)
            .into_iter()
            .chain(self.nodes.queued_jobs(node))
            .collect();
        // Taken sorted by id, so the recovery events scheduled below never
        // depend on the order in which the jobs were owned.
        let owned = self.jobs.take_owned(node);

        self.nodes.mark_failed(node);
        self.mm.on_leave(&self.nodes, node, graceful);

        // A graceful departure notifies its partners directly (one message)
        // instead of being discovered by missed heartbeats; if that goodbye
        // is lost, discovery falls back to the heartbeat timeout.
        let detect = if graceful {
            match run_node::send_message(self, now, Endpoint::Node(node.0), Endpoint::External, 1) {
                Delivery::Delivered(d) => d,
                _ => self.cfg.detection_delay(),
            }
        } else {
            self.cfg.detection_delay()
        };
        for job in victims {
            self.lose_run_node(now, job, detect);
        }

        for job in owned {
            debug_assert_eq!(
                self.jobs.owner(job),
                Some(OwnerRef::Peer(node)),
                "{job} was owned by {node:?}"
            );
            let Some(rec) = self.job_ref(job) else {
                continue;
            };
            if rec.state.is_terminal() {
                continue;
            }
            // The job keeps running/queued elsewhere; do NOT invalidate.
            let (epoch, run_node, state) = (rec.epoch, rec.run_node(), rec.state);
            if self.cfg.leases_enabled() {
                // The dead owner stops renewing, so its lease will run out
                // `ttl + grace` after the last renewal and transfer. Detach
                // ownership now: if the node rejoins before the expiry
                // fires, it must not resume renewing a lease it lost.
                self.jobs.set_owner(job, None);
                continue;
            }
            match run_node {
                Some(run) if self.nodes.is_alive(run) => {
                    self.queue
                        .schedule(now + detect, Event::OwnerFailureDetected { job, epoch });
                }
                // Run node dead too: the victim path, or the arrival of a job
                // in transit, covers it.
                Some(_) => {}
                // Purely owner-held (matching in progress): resubmit.
                None if state == JobState::Matching => {
                    if let Some(epoch) = self.reset_run(job) {
                        self.schedule_client_resubmit(now, job, epoch);
                    }
                }
                None => {}
            }
        }

        if let Some(repair) = self.churn.rejoin_after_secs {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(repair),
                Event::NodeRejoin { node },
            );
        }
    }

    /// Whether `owner` can act: the reliable server always, a peer while it
    /// is up, no owner never.
    fn owner_alive(&self, owner: Option<OwnerRef>) -> bool {
        match owner {
            Some(OwnerRef::Server) => true,
            Some(OwnerRef::Peer(p)) => self.nodes.is_alive(p),
            None => false,
        }
    }

    /// Whether `job`'s run node and owner are both up, as a spurious
    /// detection requires: a real failure meanwhile takes the real path.
    fn partners_alive(&mut self, job: JobId) -> bool {
        let Some(rec) = self.job_ref(job) else {
            return false;
        };
        let run_node = rec.run_node();
        run_node.is_some_and(|r| self.nodes.is_alive(r)) && self.owner_alive(self.jobs.owner(job))
    }

    /// Take `job` off its run node under a fresh epoch, which it returns.
    fn reset_run(&mut self, job: JobId) -> Option<u32> {
        let rec = self.job_mut(job)?;
        rec.state = JobState::Recovering;
        rec.set_run_node(None);
        rec.invalidate();
        Some(rec.epoch)
    }

    /// Start a fresh matchmaking round for `job` under its owner.
    fn rematch(&mut self, now: SimTime, job: JobId) {
        let Some(rec) = self.job_mut(job) else { return };
        rec.match_attempts = 0;
        rec.rpc_attempts = 0;
        self.try_match(now, job);
    }

    /// `job`'s owner is gone and no run node is left to replace it: the
    /// client resubmits, or with leases the dead owner's lease expiry moves
    /// the job and the client is never involved.
    fn owner_lost(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.cfg.leases_enabled() {
            self.schedule_client_resubmit(now, job, epoch);
        }
    }

    /// Section 2's run-failure step: `job` lost its run node. A live owner
    /// notices `detect` later and rematches; a dead one is `owner_lost`.
    fn lose_run_node(&mut self, now: SimTime, job: JobId, detect: SimDuration) {
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        let owner = self.jobs.owner(job);
        let Some(epoch) = self.reset_run(job) else {
            return;
        };
        if self.owner_alive(owner) {
            self.queue
                .schedule(now + detect, Event::RunFailureDetected { job, epoch });
        } else {
            self.owner_lost(now, job, epoch);
        }
    }

    /// Ask the overlay for a new owner of `job` (Section 2's owner-failure
    /// lookup).
    fn reassign(&mut self, job: JobId) -> Option<(OwnerRef, u32)> {
        let rec = self.job_ref(job)?;
        let (resubmits, profile) = (rec.resubmits, rec.profile);
        let guid = self.guid_of(job, resubmits);
        let found = self
            .mm
            .reassign_owner(&self.nodes, &profile, guid, &mut self.rng_mm);
        self.absorb_lookup_retries();
        found
    }

    /// The run node installs `new_owner`, found `hops` away through the
    /// overlay. The execution is undisturbed, so the epoch stays.
    fn recover_owner(&mut self, now: SimTime, job: JobId, new_owner: OwnerRef, hops: u32) {
        // The replacement lookup pays overlay routing like the initial
        // assignment did; count it in the same owner_hops series so the
        // T-overhead message totals cover recovery traffic too.
        self.report.owner_hops.push(f64::from(hops));
        self.report.owner_recoveries += 1;
        self.emit(now, TraceEvent::OwnerRecovery { job });
        self.jobs.set_owner(job, Some(new_owner));
    }

    fn handle_run_failure_detected(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        if self.job_ref(job).is_none() {
            return;
        }
        let owner = self.jobs.owner(job);
        if !self.owner_alive(owner) {
            // Owner died during the detection window: dual failure.
            self.owner_lost(now, job, epoch);
            return;
        }
        self.report.run_recoveries += 1;
        self.emit(now, TraceEvent::RunRecovery { job });
        self.rematch(now, job);
    }

    /// Heartbeat loss made the owner falsely declare the (alive) run node
    /// dead. The recovery protocol runs exactly as for a real failure: the
    /// epoch is bumped and the job rematched — while the old node keeps
    /// executing a now-duplicate copy that the stale epoch will discard.
    fn handle_spurious_run_failure(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) || !self.partners_alive(job) {
            return;
        }
        self.report.spurious_detections += 1;
        self.report.run_recoveries += 1;
        self.emit(now, TraceEvent::RunRecovery { job });
        self.reset_run(job);
        self.rematch(now, job);
    }

    /// Ack loss made the run node falsely declare the (alive) owner dead:
    /// it installs a replacement owner through the overlay.
    fn handle_spurious_owner_failure(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) || !self.partners_alive(job) {
            return;
        }
        self.report.spurious_detections += 1;
        // On `None` the overlay cannot name a replacement; since the old
        // owner is in fact alive, dropping the spurious detection is safe.
        if let Some((new_owner, hops)) = self.reassign(job) {
            self.recover_owner(now, job, new_owner, hops);
        }
    }

    fn handle_owner_failure_detected(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        if !rec.run_node().is_some_and(|r| self.nodes.is_alive(r)) {
            // Both sides gone: the run-failure path or resubmission handles
            // it; nothing for the (dead) run node to do.
            return;
        }
        match self.reassign(job) {
            Some((new_owner, hops)) => self.recover_owner(now, job, new_owner, hops),
            None => {
                // Overlay cannot name an owner right now; retry shortly.
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(self.cfg.match_retry_secs),
                    Event::OwnerFailureDetected { job, epoch },
                );
            }
        }
    }

    fn schedule_client_resubmit(&mut self, now: SimTime, job: JobId, epoch: u32) {
        // `now` is the caller's event time — equal to the queue clock in the
        // sequential kernel, ahead of it at the windowed kernel's barrier.
        self.queue.schedule(
            now + self.cfg.client_resubmit_delay(),
            Event::ClientResubmit { job, epoch },
        );
    }

    fn handle_client_resubmit(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        self.report.client_resubmits += 1;
        let Some(rec) = self.job_mut(job) else { return };
        rec.resubmits += 1;
        let resubmits = rec.resubmits;
        if resubmits > self.cfg.max_resubmits {
            self.fail_job(job, FailureReason::ResubmitsExhausted, now);
        } else {
            self.handle_submit(now, job);
        }
    }

    fn handle_node_rejoin(&mut self, now: SimTime, node: GridNodeId) {
        if self.nodes.is_alive(node) {
            return;
        }
        self.nodes.mark_rejoined(node);
        self.emit(now, TraceEvent::NodeUp { node });
        self.mm.on_join(&self.nodes, node, &mut self.rng_mm);
        if let Some(mttf) = self.churn.mttf_secs {
            let dt = SimDuration::from_secs_f64(rng::sample_exp(&mut self.rng_fail, mttf));
            let ev = if self.rng_fail.gen_bool(self.churn.graceful_fraction) {
                Event::NodeLeave { node }
            } else {
                Event::NodeFail { node }
            };
            self.queue.schedule(now + dt, ev);
        }
    }

    // ------------------------------------------------------------------
    // Termination helpers
    // ------------------------------------------------------------------

    fn fail_job(&mut self, job: JobId, reason: FailureReason, now: SimTime) {
        if !self.fail_one(now, job, reason) || self.dag.is_empty() {
            // The paper's base model: no dependencies, nothing to cascade.
            // Skips rebuilding the children index on every failure.
            return;
        }
        // Descendants can never obtain this job's output: cascade.
        for d in self.dag.descendants_of(job) {
            if self.fail_one(now, d, FailureReason::DependencyFailed) {
                // The descendant will never be released: drop its hold so a
                // later parent completion cannot resurrect it.
                self.held.remove(&d);
                self.report.dependency_failures += 1;
            }
        }
    }

    /// Fail `job` for `reason`; `false` if it was already terminal or
    /// retired. A job never submitted (a late arrival, a DAG child) fails
    /// without a record.
    fn fail_one(&mut self, now: SimTime, job: JobId, reason: FailureReason) -> bool {
        if let Some(slot) = self.jobs.slot(job) {
            let rec = self.jobs.at_mut(slot);
            if rec.state.is_terminal() {
                return false;
            }
            rec.state = JobState::Failed;
            rec.failure = Some(reason);
            rec.invalidate();
            self.jobs.end_lease(slot);
        } else if self.jobs.is_pending(job) {
            self.parked.remove(&job);
        } else {
            self.note_missing(job);
            return false;
        }
        self.report.jobs_failed += 1;
        self.outstanding -= 1;
        self.emit(now, TraceEvent::Failed { job });
        self.retire(job);
        true
    }

    /// `job` reached its terminal event — its completion committed, or
    /// `fail_one` failed it — and no peer owns it any more: free its
    /// record. The one place a record is freed; the sharded kernel reaches
    /// it from the barrier, after shard state commits back, so a record a
    /// shard checked out is never freed under it. With the checker's epoch
    /// dedup backdoor set the terminal record stays, because the double
    /// commit the backdoor lets through needs it.
    fn retire(&mut self, job: JobId) {
        if self.cfg.check_disable_epoch_dedup && self.jobs.contains(job) {
            self.jobs.disown(job);
        } else {
            self.jobs.retire(job);
        }
    }
}

/// The global run-node context: the handlers act on the engine's own tables
/// and every effect applies on the spot. The sharded kernel's barrier
/// replays its shards' recorded effects through the same `effect`.
impl RunNodeCtx for Engine {
    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn record(&self, job: JobId) -> Option<&JobRecord> {
        self.jobs.get(job)
    }

    fn record_mut(&mut self, job: JobId) -> Option<&mut JobRecord> {
        self.jobs.get_mut(job)
    }

    fn owner(&self, job: JobId) -> Option<OwnerRef> {
        self.jobs.owner(job)
    }

    fn capabilities(&self, home: GridNodeId) -> &Capabilities {
        self.nodes.capabilities(home)
    }

    fn running_job(&self, home: GridNodeId) -> Option<QueuedJob> {
        self.nodes.running_job(home)
    }

    fn running_finish_at(&self, home: GridNodeId) -> SimTime {
        self.nodes.running_finish_at(home)
    }

    fn add_busy_secs(&mut self, home: GridNodeId, secs: f64) {
        self.nodes.add_busy_secs(home, secs);
    }

    fn count_completion(&mut self, home: GridNodeId) {
        self.nodes.count_completion(home);
    }

    fn enqueue(&mut self, home: GridNodeId, q: QueuedJob) {
        self.nodes.enqueue(home, q);
    }

    fn pop_queue(&mut self, home: GridNodeId) -> Option<QueuedJob> {
        self.nodes.pop_queue(home)
    }

    fn set_running(&mut self, home: GridNodeId, q: QueuedJob, finish_at: SimTime) {
        self.nodes.set_running(home, q, finish_at);
    }

    fn take_running(&mut self, home: GridNodeId) -> Option<QueuedJob> {
        self.nodes.take_running(home)
    }

    fn net(&mut self) -> (&mut Network, &mut SimRng) {
        (&mut self.net, &mut self.rng_net)
    }

    // Forced inline: the shared handlers pass literal ops, so in their
    // `Engine` instantiation the match folds away and the sequential hot path
    // is the bare counter bump, `queue.schedule` or `emit` — no `EnvOp` is
    // built. Left to its own judgement the compiler keeps this a call.
    #[inline(always)]
    fn effect(&mut self, at: SimTime, op: EnvOp) {
        match op {
            EnvOp::Emit(ev) => self.emit(at, ev),
            EnvOp::Schedule { at, event } => self.queue.schedule(at, event),
            EnvOp::Report(r) => match r {
                ReportOp::MessagesLost => self.report.messages_lost += 1,
                ReportOp::DuplicateExecution => self.report.duplicate_executions += 1,
                ReportOp::SandboxKill => self.report.sandbox_kills += 1,
                ReportOp::HeartbeatMessages(n) => self.report.heartbeat_messages += n,
                ReportOp::JobCompleted => self.report.jobs_completed += 1,
                ReportOp::WaitPush { client, wait } => {
                    self.report.wait_time.push(wait);
                    self.report
                        .client_waits
                        .entry(client.0)
                        .or_default()
                        .push(wait);
                }
                ReportOp::TurnaroundPush(t) => self.report.turnaround.push(t),
            },
            EnvOp::OutstandingDec => self.outstanding -= 1,
            EnvOp::FailJob { job, reason } => self.fail_job(job, reason, at),
            EnvOp::Retire(job) => self.retire(job),
            EnvOp::ReleaseDependents(job) => self.release_dependents(at, job),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use dgrid_resources::{Capabilities, ClientId, JobRequirements, OsType};

    use super::*;
    use crate::matchmaker::MatchOutcome;
    use crate::{CentralizedMatchmaker, RnTreeMatchmaker};

    #[test]
    fn owner_recovery_takes_the_job_off_every_earlier_owners_list() {
        let job = JobId(0);
        let jobs = vec![JobSubmission {
            profile: JobProfile::new(job, ClientId(0), JobRequirements::unconstrained(), 1e4),
            arrival_secs: 0.0,
            actual_runtime_secs: None,
        }];
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let nodes = 8;
        let mut engine = Engine::new(
            EngineConfig::default(),
            ChurnConfig::none(),
            Box::new(RnTreeMatchmaker::with_defaults()),
            vec![node; nodes],
            jobs,
        );
        let mut now = SimTime::ZERO;
        while engine
            .jobs
            .get(job)
            .is_none_or(|r| r.state != JobState::Running)
        {
            let (at, ev) = engine.queue.pop().expect("the job starts");
            now = at;
            engine.dispatch(now, ev);
        }
        let rec = engine.jobs.get(job).expect("submitted");
        let (Some(OwnerRef::Peer(first)), Some(run)) = (engine.jobs.owner(job), rec.run_node())
        else {
            panic!("a peer owns the running job");
        };
        assert_ne!(first, run, "owner and run node are different peers");
        let epoch = rec.epoch;
        let secs = |s: u64| now + SimDuration::from_secs(s);

        // The owner crashes and is back before the run node's detection
        // fires; meanwhile a spurious detection replaces it.
        engine.dispatch(now, Event::NodeFail { node: first });
        engine.dispatch(secs(1), Event::NodeRejoin { node: first });
        engine.dispatch(secs(2), Event::SpuriousOwnerFailure { job, epoch });
        engine.dispatch(secs(30), Event::OwnerFailureDetected { job, epoch });
        assert_eq!(engine.report.owner_recoveries, 2, "both replaced the owner");
        assert!(engine.jobs.contains(job), "submitted");
        let owner = engine.jobs.owner(job);

        // Only the current owner holds the job, once.
        for n in 0..nodes as u32 {
            let node = GridNodeId(n);
            let listed = engine.jobs.take_owned(node);
            let expected = if owner == Some(OwnerRef::Peer(node)) {
                vec![job]
            } else {
                Vec::new()
            };
            assert_eq!(listed, expected, "jobs owned by {node:?}");
        }
    }

    /// Places every owner on node `owner` and every run node on node `run`;
    /// a test moves either between steps. An owner of [`NOBODY`] is the
    /// overlay naming no owner; one the test crashed is it naming a dead one.
    struct Scripted {
        owner: Rc<Cell<u32>>,
        run: u32,
    }

    impl Scripted {
        fn named_owner(&self) -> Option<(OwnerRef, u32)> {
            let owner = self.owner.get();
            (owner != NOBODY).then_some((OwnerRef::Peer(GridNodeId(owner)), 1))
        }
    }

    impl Matchmaker for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn on_join(&mut self, _: &NodeTable, _: GridNodeId, _: &mut SimRng) {}

        fn on_leave(&mut self, _: &NodeTable, _: GridNodeId, _: bool) {}

        fn assign_owner(
            &mut self,
            _: &NodeTable,
            _: &JobProfile,
            _: u64,
            _: GridNodeId,
            _: &mut SimRng,
        ) -> Option<(OwnerRef, u32)> {
            self.named_owner()
        }

        fn find_run_node(
            &mut self,
            _: &NodeTable,
            _: OwnerRef,
            _: &JobProfile,
            _: &mut SimRng,
        ) -> MatchOutcome {
            MatchOutcome {
                run_node: Some(GridNodeId(self.run)),
                hops: 1,
            }
        }

        fn reassign_owner(
            &mut self,
            _: &NodeTable,
            _: &JobProfile,
            _: u64,
            _: &mut SimRng,
        ) -> Option<(OwnerRef, u32)> {
            self.named_owner()
        }

        fn tick(&mut self, _: &NodeTable) {}
    }

    /// Keeps the recovery events of a stream: what a departure's handover
    /// turns into.
    #[derive(Clone, Default)]
    struct Recoveries(Rc<RefCell<Vec<TraceEvent>>>);

    impl Observer for Recoveries {
        fn on_event(&mut self, _: SimTime, event: TraceEvent) {
            if matches!(
                event,
                TraceEvent::OwnerRecovery { .. }
                    | TraceEvent::RunRecovery { .. }
                    | TraceEvent::Submitted { resubmits: 1.., .. }
                    | TraceEvent::LeaseExpired { .. }
                    | TraceEvent::LeaseTransferred { .. }
                    | TraceEvent::Failed { .. }
            ) {
                self.0.borrow_mut().push(event);
            }
        }
    }

    /// Owner `OWNER` and run node `RUN` of every job until a test moves
    /// the owner to `NEXT` or `LAST`.
    const OWNER: u32 = 0;
    const RUN: u32 = 1;
    const NEXT: u32 = 2;
    const LAST: u32 = 3;
    /// The overlay names no owner.
    const NOBODY: u32 = u32::MAX;

    /// Keeps every event of a stream as `"<time> <event>"`.
    #[derive(Clone, Default)]
    struct Stream(Rc<RefCell<Vec<String>>>);

    impl Observer for Stream {
        fn on_event(&mut self, at: SimTime, event: TraceEvent) {
            self.0.borrow_mut().push(format!("{at} {event:?}"));
        }
    }

    impl Stream {
        fn take(&self) -> Vec<String> {
            self.0.take()
        }
    }

    /// Four nodes under [`Scripted`], one 10⁴-second job per id arriving a
    /// second apart in the order given, and the recovery log.
    fn scripted(cfg: EngineConfig, ids: &[u64]) -> (Engine, Rc<Cell<u32>>, Recoveries) {
        let jobs = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| JobSubmission {
                profile: JobProfile::new(
                    JobId(id),
                    ClientId(0),
                    JobRequirements::unconstrained(),
                    1e4,
                ),
                arrival_secs: i as f64,
                actual_runtime_secs: None,
            })
            .collect();
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let owner = Rc::new(Cell::new(OWNER));
        let log = Recoveries::default();
        let engine = Engine::new(
            cfg,
            ChurnConfig::none(),
            Box::new(Scripted {
                owner: Rc::clone(&owner),
                run: RUN,
            }),
            vec![node; 4],
            jobs,
        )
        .with_observer(Box::new(log.clone()));
        (engine, owner, log)
    }

    /// Dispatch events until every job is submitted and sits at its run
    /// node; the time of the last one.
    fn until_all_placed(engine: &mut Engine) -> SimTime {
        let mut now = SimTime::ZERO;
        while !engine.arrivals.fifo.is_empty()
            || !engine.parked.is_empty()
            || engine
                .jobs
                .iter()
                .any(|(_, r)| !matches!(r.state, JobState::Queued | JobState::Running))
        {
            let (at, ev) = engine.queue.pop().expect("every job gets placed");
            now = at;
            engine.dispatch(now, ev);
        }
        now
    }

    /// Dispatch every event before `end`.
    fn run_until(engine: &mut Engine, end: SimTime) {
        while engine.queue.peek_time().is_some_and(|at| at < end) {
            let (at, ev) = engine.queue.pop().expect("peeked");
            engine.dispatch(at, ev);
        }
    }

    fn crash(engine: &mut Engine, at: SimTime, node: u32) {
        engine.dispatch(
            at,
            Event::NodeFail {
                node: GridNodeId(node),
            },
        );
    }

    fn owner_of(engine: &Engine, job: u64) -> Option<OwnerRef> {
        assert!(engine.jobs.contains(JobId(job)), "submitted");
        engine.jobs.owner(JobId(job))
    }

    fn owner_recoveries(ids: &[u64]) -> Vec<TraceEvent> {
        ids.iter()
            .map(|&id| TraceEvent::OwnerRecovery { job: JobId(id) })
            .collect()
    }

    #[test]
    fn a_departure_hands_over_hash_shaped_ids_in_ascending_order() {
        // Hash-shaped ids, arriving out of id order.
        let ids: Vec<u64> = (0..5).map(rng::splitmix64).collect();
        let mut ascending = ids.clone();
        ascending.sort_unstable();
        assert_ne!(ids, ascending);
        let (mut engine, owner, log) = scripted(EngineConfig::default(), &ids);
        let now = until_all_placed(&mut engine);
        assert!(ids
            .iter()
            .all(|&id| owner_of(&engine, id) == Some(OwnerRef::Peer(GridNodeId(OWNER)))));

        owner.set(NEXT);
        crash(&mut engine, now, OWNER);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(log.0.take(), owner_recoveries(&ascending));

        // The new owner's departure hands the same jobs over again.
        owner.set(LAST);
        let now = now + SimDuration::from_secs(600);
        crash(&mut engine, now, NEXT);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(log.0.take(), owner_recoveries(&ascending));
        assert_eq!(engine.report.owner_recoveries, 10);
        assert!(ids
            .iter()
            .all(|&id| owner_of(&engine, id) == Some(OwnerRef::Peer(GridNodeId(LAST)))));
    }

    #[test]
    fn a_job_resubmitted_and_owned_again_is_handed_over_once_in_id_order() {
        let (mut engine, owner, log) = scripted(EngineConfig::default(), &[0, 1, 2]);
        let now = until_all_placed(&mut engine);
        // The client resubmits job 0: its owner lets go of it, and the
        // resubmission lands on the same owner again.
        let epoch = engine.jobs.get(JobId(0)).expect("submitted").epoch;
        engine.dispatch(
            now,
            Event::ClientResubmit {
                job: JobId(0),
                epoch,
            },
        );
        let now = until_all_placed(&mut engine);
        assert_eq!(
            log.0.take(),
            vec![TraceEvent::Submitted {
                job: JobId(0),
                resubmits: 1
            }]
        );
        assert_eq!(
            owner_of(&engine, 0),
            Some(OwnerRef::Peer(GridNodeId(OWNER)))
        );

        owner.set(NEXT);
        crash(&mut engine, now, OWNER);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(log.0.take(), owner_recoveries(&[0, 1, 2]));
        assert_eq!(engine.report.owner_recoveries, 3);
    }

    #[test]
    fn a_lease_moved_before_its_old_owner_departs_stays_with_the_new_one() {
        let cfg = EngineConfig {
            lease_ttl_secs: Some(120.0),
            lease_renew_secs: 30.0,
            lease_grace_secs: 10.0,
            placement: Some(crate::config::PlacementPolicy::Hash),
            ..EngineConfig::default()
        };
        let (mut engine, owner, log) = scripted(cfg, &[0, 1, 2]);
        let now = until_all_placed(&mut engine);
        // Job 1's lease runs out and moves to another owner while its old
        // owner is still up.
        owner.set(NEXT);
        let slot = engine.jobs.slot(JobId(1)).expect("submitted");
        let seq = engine.jobs.lease_mut(slot).armed;
        engine.dispatch(now, Event::LeaseExpire { job: JobId(1), seq });
        let moved = |job| {
            [
                TraceEvent::LeaseExpired { job: JobId(job) },
                TraceEvent::LeaseTransferred {
                    job: JobId(job),
                    owner: GridNodeId(NEXT),
                },
            ]
        };
        assert_eq!(log.0.take(), moved(1));

        // The old owner departs: it hands over jobs 0 and 2 only, whose
        // leases expire and move; job 1 keeps its new owner.
        let now = now + SimDuration::from_secs(1);
        crash(&mut engine, now, OWNER);
        assert_eq!(owner_of(&engine, 0), None);
        assert_eq!(owner_of(&engine, 1), Some(OwnerRef::Peer(GridNodeId(NEXT))));
        assert_eq!(owner_of(&engine, 2), None);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(log.0.take(), [moved(0), moved(2)].concat());

        // Now the new owner departs holding all three.
        owner.set(LAST);
        let now = now + SimDuration::from_secs(600);
        crash(&mut engine, now, NEXT);
        assert!((0..3).all(|job| owner_of(&engine, job).is_none()));
        run_until(&mut engine, now + SimDuration::from_secs(600));
        let last = |job| {
            [
                TraceEvent::LeaseExpired { job: JobId(job) },
                TraceEvent::LeaseTransferred {
                    job: JobId(job),
                    owner: GridNodeId(LAST),
                },
            ]
        };
        // Expiries fire on each lease's own renewal clock: job 1's was
        // re-armed by its move, so it runs out last.
        assert_eq!(log.0.take(), [last(0), last(2), last(1)].concat());
        assert_eq!(engine.report.lease_transfers, 6);
    }

    /// [`scripted`] with every event of the stream kept.
    fn streamed(cfg: EngineConfig, ids: &[u64]) -> (Engine, Rc<Cell<u32>>, Stream) {
        let (mut engine, owner, _) = scripted(cfg, ids);
        let stream = Stream::default();
        engine.set_observer(Box::new(stream.clone()));
        (engine, owner, stream)
    }

    fn leased() -> EngineConfig {
        EngineConfig {
            lease_ttl_secs: Some(120.0),
            lease_renew_secs: 30.0,
            lease_grace_secs: 10.0,
            placement: Some(crate::config::PlacementPolicy::Hash),
            ..EngineConfig::default()
        }
    }

    fn rejoin(engine: &mut Engine, at: SimTime, node: u32) {
        engine.dispatch(
            at,
            Event::NodeRejoin {
                node: GridNodeId(node),
            },
        );
    }

    /// The recovery counters of a run and the owner lookups' hop counts.
    #[derive(Debug, Default, PartialEq)]
    struct Counts {
        owner_hops: Vec<f64>,
        match_failures: u64,
        run_recoveries: u64,
        owner_recoveries: u64,
        client_resubmits: u64,
        lease_expiries: u64,
        lease_transfers: u64,
        jobs_failed: u64,
        unknown_job_events: u64,
    }

    fn counts_of(engine: &Engine) -> Counts {
        let r = &engine.report;
        Counts {
            owner_hops: r.owner_hops.samples().to_vec(),
            match_failures: r.match_failures,
            run_recoveries: r.run_recoveries,
            owner_recoveries: r.owner_recoveries,
            client_resubmits: r.client_resubmits,
            lease_expiries: r.lease_expiries,
            lease_transfers: r.lease_transfers,
            jobs_failed: r.jobs_failed,
            unknown_job_events: r.unknown_job_events,
        }
    }

    /// The submission reaches an owner that died in transit: the overlay is
    /// asked again and the job sent on to the owner it names.
    #[test]
    fn an_owner_dead_in_transit_is_replaced_through_the_overlay() {
        let (mut engine, owner, stream) = streamed(EngineConfig::default(), &[0]);
        let (at, submit) = engine.queue.pop().expect("the submission");
        engine.dispatch(at, submit);
        crash(&mut engine, at, OWNER);
        owner.set(NEXT);
        run_until(&mut engine, at + SimDuration::from_secs(600));
        assert_eq!(
            stream.take(),
            [
                "0.000s Submitted { job: job#0, resubmits: 0 }",
                "0.000s NodeDown { node: node#0, graceful: false }",
                "0.136s OwnerAssigned { job: job#0, owner: Peer(node#2) }",
                "0.136s Matched { job: job#0, run_node: node#1, hops: 1 }",
                "0.215s Started { job: job#0, run_node: node#1 }",
            ]
        );
        assert_eq!(
            counts_of(&engine),
            Counts {
                owner_hops: vec![1.0, 1.0],
                ..Counts::default()
            }
        );
    }

    /// The same, but the overlay names no owner: a failed matchmaking
    /// attempt whose retry finds no owner to match for, so the job waits
    /// for the horizon.
    #[test]
    fn an_owner_dead_in_transit_with_no_replacement_leaves_the_job_to_the_horizon() {
        let (mut engine, owner, stream) = streamed(EngineConfig::default(), &[0]);
        let (at, submit) = engine.queue.pop().expect("the submission");
        engine.dispatch(at, submit);
        crash(&mut engine, at, OWNER);
        owner.set(NOBODY);
        run_until(&mut engine, at + SimDuration::from_secs(600));
        assert_eq!(
            stream.take(),
            [
                "0.000s Submitted { job: job#0, resubmits: 0 }",
                "0.000s NodeDown { node: node#0, graceful: false }",
            ]
        );
        assert_eq!(
            counts_of(&engine),
            Counts {
                owner_hops: vec![1.0],
                match_failures: 1,
                ..Counts::default()
            }
        );
        assert_eq!(owner_of(&engine, 0), None);
        let report = engine.run();
        assert_eq!(stream.take(), ["604800.000s Failed { job: job#0 }"]);
        assert_eq!((report.jobs_failed, report.match_failures), (1, 1));
    }

    /// Owner detection finds no owner in the overlay and retries until one
    /// is named.
    #[test]
    fn an_owner_failure_detection_retries_until_the_overlay_names_an_owner() {
        let (mut engine, owner, stream) = streamed(EngineConfig::default(), &[0]);
        // Once the job runs, its owner dies and the overlay names none.
        let now = until_all_placed(&mut engine) + SimDuration::from_secs(1);
        run_until(&mut engine, now);
        stream.take();
        owner.set(NOBODY);
        crash(&mut engine, now, OWNER);
        run_until(&mut engine, now + SimDuration::from_secs(75));
        owner.set(NEXT);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(
            stream.take(),
            [
                "1.085s NodeDown { node: node#0, graceful: false }",
                "91.085s OwnerRecovery { job: job#0 }",
            ]
        );
        assert_eq!(
            counts_of(&engine),
            Counts {
                owner_hops: vec![1.0, 1.0],
                owner_recoveries: 1,
                ..Counts::default()
            }
        );
        assert_eq!(owner_of(&engine, 0), Some(OwnerRef::Peer(GridNodeId(NEXT))));
    }

    /// An owner departs while its job is still being matched (the run node
    /// is down): the client resubmits it.
    #[test]
    fn a_departing_owner_hands_a_job_still_matching_back_to_its_client() {
        let (mut engine, owner, stream) = streamed(EngineConfig::default(), &[0]);
        crash(&mut engine, SimTime::ZERO, RUN);
        run_until(&mut engine, SimTime::from_secs(10));
        owner.set(NEXT);
        crash(&mut engine, SimTime::from_secs(10), OWNER);
        run_until(&mut engine, SimTime::from_secs(100));
        rejoin(&mut engine, SimTime::from_secs(100), RUN);
        run_until(&mut engine, SimTime::from_secs(900));
        assert_eq!(
            stream.take(),
            [
                "0.000s NodeDown { node: node#1, graceful: false }",
                "0.000s Submitted { job: job#0, resubmits: 0 }",
                "0.085s OwnerAssigned { job: job#0, owner: Peer(node#0) }",
                "10.000s NodeDown { node: node#0, graceful: false }",
                "100.000s NodeUp { node: node#1 }",
                "310.000s Submitted { job: job#0, resubmits: 1 }",
                "310.093s OwnerAssigned { job: job#0, owner: Peer(node#2) }",
                "310.093s Matched { job: job#0, run_node: node#1, hops: 1 }",
                "310.180s Started { job: job#0, run_node: node#1 }",
            ]
        );
        assert_eq!(
            counts_of(&engine),
            Counts {
                owner_hops: vec![1.0, 1.0],
                match_failures: 1,
                client_resubmits: 1,
                ..Counts::default()
            }
        );
    }

    /// The run node and then the owner die while the job is in transit to
    /// the run node: its arrival finds both gone. Without leases the client
    /// resubmits; with them the lease expiry moves the job.
    #[test]
    fn an_arrival_at_a_dead_run_node_with_a_dead_owner() {
        for (cfg, expected, counts) in [
            (
                EngineConfig::default(),
                vec![
                    "0.000s Submitted { job: job#0, resubmits: 0 }",
                    "0.085s OwnerAssigned { job: job#0, owner: Peer(node#0) }",
                    "0.085s Matched { job: job#0, run_node: node#1, hops: 1 }",
                    "0.085s NodeDown { node: node#1, graceful: false }",
                    "0.085s NodeDown { node: node#0, graceful: false }",
                    "100.085s NodeUp { node: node#1 }",
                    "300.178s Submitted { job: job#0, resubmits: 1 }",
                    "300.266s OwnerAssigned { job: job#0, owner: Peer(node#2) }",
                    "300.266s Matched { job: job#0, run_node: node#1, hops: 1 }",
                    "300.355s Started { job: job#0, run_node: node#1 }",
                ],
                Counts {
                    owner_hops: vec![1.0, 1.0],
                    client_resubmits: 1,
                    ..Counts::default()
                },
            ),
            (
                leased(),
                vec![
                    "0.000s Submitted { job: job#0, resubmits: 0 }",
                    "0.085s OwnerAssigned { job: job#0, owner: Peer(node#0) }",
                    "0.085s Matched { job: job#0, run_node: node#1, hops: 1 }",
                    "0.085s NodeDown { node: node#1, graceful: false }",
                    "0.085s NodeDown { node: node#0, graceful: false }",
                    "100.085s NodeUp { node: node#1 }",
                    "130.085s LeaseExpired { job: job#0 }",
                    "130.085s LeaseTransferred { job: job#0, owner: node#2 }",
                    "130.085s Matched { job: job#0, run_node: node#1, hops: 1 }",
                    "130.173s Started { job: job#0, run_node: node#1 }",
                ],
                Counts {
                    owner_hops: vec![1.0, 1.0],
                    lease_expiries: 1,
                    lease_transfers: 1,
                    ..Counts::default()
                },
            ),
        ] {
            let (mut engine, owner, stream) = streamed(cfg, &[0]);
            let now = until_all_placed(&mut engine);
            assert_eq!(
                engine.jobs.get(JobId(0)).expect("submitted").state,
                JobState::Queued
            );
            crash(&mut engine, now, RUN);
            crash(&mut engine, now, OWNER);
            owner.set(NEXT);
            run_until(&mut engine, now + SimDuration::from_secs(100));
            rejoin(&mut engine, now + SimDuration::from_secs(100), RUN);
            run_until(&mut engine, now + SimDuration::from_secs(900));
            assert_eq!(stream.take(), expected);
            assert_eq!(counts_of(&engine), counts);
        }
    }

    /// A lease transfer whose overlay names a dead owner, and one whose
    /// overlay names none, both fall back to the least-loaded live node.
    #[test]
    fn a_lease_transfer_falls_back_to_the_least_loaded_live_node() {
        let (mut engine, owner, stream) = streamed(leased(), &[0, 1, 2]);
        let now = until_all_placed(&mut engine);
        stream.take();
        // Owner names the crashed node: the fallback picks node 2, the
        // lowest idle one.
        crash(&mut engine, now, OWNER);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(
            stream.take(),
            [
                "2.109s NodeDown { node: node#0, graceful: false }",
                "130.085s LeaseExpired { job: job#0 }",
                "130.085s LeaseTransferred { job: job#0, owner: node#2 }",
                "131.087s LeaseExpired { job: job#1 }",
                "131.087s LeaseTransferred { job: job#1, owner: node#2 }",
                "132.109s LeaseExpired { job: job#2 }",
                "132.109s LeaseTransferred { job: job#2, owner: node#2 }",
            ]
        );
        owner.set(NOBODY);
        let now = now + SimDuration::from_secs(600);
        crash(&mut engine, now, NEXT);
        run_until(&mut engine, now + SimDuration::from_secs(600));
        assert_eq!(
            stream.take(),
            [
                "602.109s NodeDown { node: node#2, graceful: false }",
                "710.085s LeaseExpired { job: job#0 }",
                "710.085s LeaseTransferred { job: job#0, owner: node#3 }",
                "711.087s LeaseExpired { job: job#1 }",
                "711.087s LeaseTransferred { job: job#1, owner: node#3 }",
                "712.109s LeaseExpired { job: job#2 }",
                "712.109s LeaseTransferred { job: job#2, owner: node#3 }",
            ]
        );
        assert_eq!(
            counts_of(&engine),
            Counts {
                owner_hops: vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                lease_expiries: 6,
                lease_transfers: 6,
                ..Counts::default()
            }
        );
    }

    /// Pop every pending event, keeping `job`'s lease expiries as
    /// `(time, seq)`.
    fn drain_expiries(engine: &mut Engine, job: JobId) -> Vec<(SimTime, u64)> {
        let mut expiries = Vec::new();
        while let Some((at, ev)) = engine.queue.pop() {
            if let Event::LeaseExpire { job: j, seq } = ev {
                if j == job {
                    expiries.push((at, seq));
                }
            }
        }
        expiries
    }

    /// Each renewal arms a new expiry, but the queue keeps the one it had:
    /// ten renewals in, one `LeaseExpire` is queued for the job, the one
    /// the grant filed, and the clock names the latest arm.
    #[test]
    fn a_renewed_lease_keeps_one_expiry_in_the_queue() {
        let (mut engine, _, _) = scripted(leased(), &[0]);
        let granted = until_all_placed(&mut engine);
        run_until(&mut engine, granted + SimDuration::from_secs(10 * 30 + 1));
        assert_eq!(engine.report.lease_renewals, 10);
        let slot = engine.jobs.slot(JobId(0)).expect("running");
        let clock = *engine.jobs.lease_mut(slot);
        let last_renewal = granted + SimDuration::from_secs(10 * 30);
        assert_eq!(clock.due, last_renewal + SimDuration::from_secs(130));
        assert_ne!(clock.filed, clock.armed, "the grant's expiry is queued");
        // The grant's expiry popped at 130 s and filed the arm of 120 s in
        // its place, which popped at 250 s and filed the arm of 240 s.
        let queued_due = granted + SimDuration::from_secs(240 + 130);
        assert_eq!(
            drain_expiries(&mut engine, JobId(0)),
            [(queued_due, clock.filed)]
        );
    }

    /// The expiry that acts pops at the `(time, seq)` its arm reserved:
    /// after an event scheduled for the same instant before the arm, and
    /// before one scheduled after it — here one a renewal superseded files
    /// it in its place, and the owner's crash stops further renewals.
    #[test]
    fn a_refiled_expiry_pops_in_its_reserved_place_among_equal_times() {
        let (mut engine, _, stream) = streamed(leased(), &[0]);
        let granted = until_all_placed(&mut engine);
        let renewal = granted + SimDuration::from_secs(30);
        run_until(&mut engine, renewal);
        let due = renewal + SimDuration::from_secs(130);
        // Markers: a telemetry sample does nothing while sampling is off.
        engine.queue.schedule(due, Event::TelemetrySample);
        let (at, ev) = engine.queue.pop().expect("the renewal is next");
        assert_eq!(at, renewal);
        assert!(matches!(ev, Event::LeaseRenew { .. }));
        engine.dispatch(at, ev);
        engine.queue.schedule(due, Event::TelemetrySample);
        crash(&mut engine, renewal + SimDuration::from_secs(1), OWNER);
        stream.take();
        let mut at_due = Vec::new();
        while let Some((at, ev)) = engine.queue.pop().filter(|&(at, _)| at <= due) {
            if at == due {
                at_due.push(match ev {
                    Event::TelemetrySample => "marker",
                    Event::LeaseExpire { .. } => "expiry",
                    _ => "other",
                });
            }
            engine.dispatch(at, ev);
        }
        assert_eq!(at_due, ["marker", "expiry", "marker"]);
        assert_eq!(
            stream.take(),
            [
                "160.085s LeaseExpired { job: job#0 }",
                "160.085s LeaseTransferred { job: job#0, owner: node#2 }",
            ]
        );
    }

    /// Renewals lost in a partition arm nothing, so the expiry the last
    /// delivered renewal armed (at 30 s) stands and fires at its deadline:
    /// the grant's queued expiry finds itself superseded and files that one.
    #[test]
    fn after_lost_renewals_the_last_delivered_ones_expiry_fires_on_time() {
        let (engine, _, stream) = streamed(leased(), &[0]);
        let mut engine =
            engine.with_fault_plan(FaultPlan::none().with_partition(45.0, 400.0, vec![OWNER]));
        let granted = until_all_placed(&mut engine);
        stream.take();
        run_until(&mut engine, granted + SimDuration::from_secs(300));
        assert_eq!(
            engine.report.lease_renewals, 1,
            "only the first is delivered"
        );
        // The transfer stays inside the partition, so the new grant's
        // renewals are lost too and it runs out 130 s later.
        let leases: Vec<String> = stream
            .take()
            .into_iter()
            .filter(|line| line.contains("Lease"))
            .collect();
        assert_eq!(
            leases,
            [
                "160.085s LeaseExpired { job: job#0 }",
                "160.085s LeaseTransferred { job: job#0, owner: node#0 }",
                "290.085s LeaseExpired { job: job#0 }",
                "290.085s LeaseTransferred { job: job#0, owner: node#0 }",
            ]
        );
    }

    /// With every node down a lease expiry has nowhere to go: the lease is
    /// held vacant and re-armed until nodes rejoin.
    #[test]
    fn a_lease_with_no_live_node_is_rearmed_until_one_rejoins() {
        let (mut engine, owner, stream) = streamed(leased(), &[0]);
        let now = until_all_placed(&mut engine);
        stream.take();
        for node in [OWNER, RUN, NEXT, LAST] {
            crash(&mut engine, now, node);
        }
        run_until(&mut engine, now + SimDuration::from_secs(400));
        owner.set(LAST);
        let later = now + SimDuration::from_secs(400);
        rejoin(&mut engine, later, RUN);
        rejoin(&mut engine, later, LAST);
        run_until(&mut engine, later + SimDuration::from_secs(400));
        assert_eq!(
            stream.take(),
            [
                "0.085s NodeDown { node: node#0, graceful: false }",
                "0.085s NodeDown { node: node#1, graceful: false }",
                "0.085s NodeDown { node: node#2, graceful: false }",
                "0.085s NodeDown { node: node#3, graceful: false }",
                "130.085s LeaseExpired { job: job#0 }",
                "260.085s LeaseExpired { job: job#0 }",
                "390.085s LeaseExpired { job: job#0 }",
                "400.085s NodeUp { node: node#1 }",
                "400.085s NodeUp { node: node#3 }",
                "520.085s LeaseExpired { job: job#0 }",
                "520.085s LeaseTransferred { job: job#0, owner: node#3 }",
                "520.085s Matched { job: job#0, run_node: node#1, hops: 1 }",
                "520.173s Started { job: job#0, run_node: node#1 }",
            ]
        );
        assert_eq!(
            counts_of(&engine),
            Counts {
                owner_hops: vec![1.0, 1.0],
                lease_expiries: 4,
                lease_transfers: 1,
                ..Counts::default()
            }
        );
    }

    /// Jobs `(id, arrival, runtime)` in the order given, on four nodes under
    /// [`Scripted`] (owner `OWNER`, run node `RUN`), with every event of the
    /// stream kept.
    fn scripted_dag(cfg: EngineConfig, jobs: &[(u64, f64, f64)], dag: JobDag) -> (Engine, Stream) {
        let jobs = jobs
            .iter()
            .map(|&(id, arrival_secs, runtime)| JobSubmission {
                profile: JobProfile::new(
                    JobId(id),
                    ClientId(0),
                    JobRequirements::unconstrained(),
                    runtime,
                ),
                arrival_secs,
                actual_runtime_secs: None,
            })
            .collect();
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let stream = Stream::default();
        let engine = Engine::with_dag(
            cfg,
            ChurnConfig::none(),
            Box::new(Scripted {
                owner: Rc::new(Cell::new(OWNER)),
                run: RUN,
            }),
            vec![node; 4],
            jobs,
            dag,
        )
        .with_observer(Box::new(stream.clone()));
        (engine, stream)
    }

    /// A report's job counts: total, completed, failed, dependency
    /// failures, duplicate executions and unknown-job events.
    fn job_counts(r: &SimReport) -> [u64; 6] {
        [
            r.jobs_total,
            r.jobs_completed,
            r.jobs_failed,
            r.dependency_failures,
            r.duplicate_executions,
            r.unknown_job_events,
        ]
    }

    /// The horizon falls before the last arrivals: two jobs never submitted
    /// (one out of input order), a DAG child still held behind its running
    /// parent, and one released but due after the horizon all fail with
    /// the running and queued jobs, in id order, the held child right
    /// after its parent.
    #[test]
    fn a_horizon_before_the_last_arrivals_fails_every_open_job_in_id_order() {
        let cfg = EngineConfig {
            max_sim_secs: 500.0,
            ..EngineConfig::default()
        };
        let mut dag = JobDag::none();
        dag.add_dependency(JobId(4), JobId(1));
        dag.add_dependency(JobId(5), JobId(0));
        let jobs = [
            (0, 0.0, 10.0),
            (1, 1.0, 1e4),
            (2, 700.0, 10.0),
            (3, 600.0, 10.0),
            (4, 2.0, 10.0),
            (5, 900.0, 10.0),
            (6, 3.0, 10.0),
        ];
        let (engine, stream) = scripted_dag(cfg, &jobs, dag);
        let report = engine.run();
        assert_eq!(
            stream.take(),
            [
                "0.000s Submitted { job: job#0, resubmits: 0 }",
                "0.085s OwnerAssigned { job: job#0, owner: Peer(node#0) }",
                "0.085s Matched { job: job#0, run_node: node#1, hops: 1 }",
                "0.178s Started { job: job#0, run_node: node#1 }",
                "1.000s Submitted { job: job#1, resubmits: 0 }",
                "1.087s OwnerAssigned { job: job#1, owner: Peer(node#0) }",
                "1.087s Matched { job: job#1, run_node: node#1, hops: 1 }",
                "3.000s Submitted { job: job#6, resubmits: 0 }",
                "3.109s OwnerAssigned { job: job#6, owner: Peer(node#0) }",
                "3.109s Matched { job: job#6, run_node: node#1, hops: 1 }",
                "10.178s Completed { job: job#0, results_at: t=10.225501s }",
                "10.178s Started { job: job#1, run_node: node#1 }",
                "480.000s Failed { job: job#1 }",
                "480.000s Failed { job: job#4 }",
                "480.000s Failed { job: job#2 }",
                "480.000s Failed { job: job#3 }",
                "480.000s Failed { job: job#5 }",
                "480.000s Failed { job: job#6 }",
            ]
        );
        assert_eq!(job_counts(&report), [7, 1, 6, 1, 0, 0]);
        // The last event before the horizon is a maintenance tick.
        assert_eq!(report.makespan_secs, 480.0);
    }

    /// A failing job cascades to a held child and grandchild, to a child
    /// the test submitted ahead of its parent that is still running, and to
    /// one submitted ahead that already completed: the first three fail,
    /// the completed one keeps its result.
    #[test]
    fn a_dag_cascade_fails_held_and_live_descendants_and_spares_a_completed_one() {
        let cfg = EngineConfig {
            max_resubmits: 0,
            ..EngineConfig::default()
        };
        let mut dag = JobDag::none();
        for child in [2, 3, 4] {
            dag.add_dependency(JobId(child), JobId(1));
        }
        dag.add_dependency(JobId(5), JobId(2));
        // The parent arrives at 50 s. The test submits job 4 at 1 s, which
        // finishes, and job 3 at 20 s, which is still running at 100 s.
        let jobs = [
            (1, 50.0, 1e4),
            (2, 0.0, 10.0),
            (3, 0.0, 1e4),
            (4, 0.0, 5.0),
            (5, 0.0, 10.0),
        ];
        let (mut engine, stream) = scripted_dag(cfg, &jobs, dag);
        for (at, job) in [(1, 4), (20, 3)] {
            let at = SimTime::from_secs(at);
            run_until(&mut engine, at);
            engine.dispatch(at, Event::Submit { job: JobId(job) });
        }
        run_until(&mut engine, SimTime::from_secs(100));
        // The parent's client gives up on it.
        let epoch = engine.jobs.get(JobId(1)).expect("submitted").epoch;
        engine.dispatch(
            SimTime::from_secs(100),
            Event::ClientResubmit {
                job: JobId(1),
                epoch,
            },
        );
        let report = engine.run();
        assert_eq!(
            stream.take(),
            [
                "1.000s Submitted { job: job#4, resubmits: 0 }",
                "1.085s OwnerAssigned { job: job#4, owner: Peer(node#0) }",
                "1.085s Matched { job: job#4, run_node: node#1, hops: 1 }",
                "1.178s Started { job: job#4, run_node: node#1 }",
                "6.178s Completed { job: job#4, results_at: t=6.215101s }",
                "20.000s Submitted { job: job#3, resubmits: 0 }",
                "20.097s OwnerAssigned { job: job#3, owner: Peer(node#0) }",
                "20.097s Matched { job: job#3, run_node: node#1, hops: 1 }",
                "20.190s Started { job: job#3, run_node: node#1 }",
                "50.000s Submitted { job: job#1, resubmits: 0 }",
                "50.108s OwnerAssigned { job: job#1, owner: Peer(node#0) }",
                "50.108s Matched { job: job#1, run_node: node#1, hops: 1 }",
                "100.000s Failed { job: job#1 }",
                "100.000s Failed { job: job#2 }",
                "100.000s Failed { job: job#3 }",
                "100.000s Failed { job: job#5 }",
            ]
        );
        assert_eq!(job_counts(&report), [5, 1, 4, 3, 0, 0]);
    }

    /// Submissions that step back from an earlier arrival are submitted at
    /// their own times, and at equal times every submission goes in input
    /// order.
    #[test]
    fn submissions_at_equal_times_go_in_input_order() {
        let jobs = [
            (0, 5.0, 10.0),
            (1, 10.0, 10.0),
            (2, 5.0, 10.0),
            (3, 10.0, 10.0),
            (4, 5.0, 10.0),
            (5, 1.0, 10.0),
        ];
        let (mut engine, stream) = scripted_dag(EngineConfig::default(), &jobs, JobDag::none());
        run_until(&mut engine, SimTime::from_secs(11));
        let submitted: Vec<String> = stream
            .take()
            .into_iter()
            .filter(|e| e.contains("Submitted"))
            .collect();
        assert_eq!(
            submitted,
            [
                "1.000s Submitted { job: job#5, resubmits: 0 }",
                "5.000s Submitted { job: job#0, resubmits: 0 }",
                "5.000s Submitted { job: job#2, resubmits: 0 }",
                "5.000s Submitted { job: job#4, resubmits: 0 }",
                "10.000s Submitted { job: job#1, resubmits: 0 }",
                "10.000s Submitted { job: job#3, resubmits: 0 }",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate job id job#3")]
    fn a_duplicate_job_id_is_refused_at_construction() {
        scripted_dag(
            EngineConfig::default(),
            &[(3, 0.0, 10.0), (4, 1.0, 10.0), (3, 2.0, 10.0)],
            JobDag::none(),
        );
    }

    /// After a job retires, events that acted on it while it lived — a
    /// completion that frees a duplicate execution, a lease renewal and
    /// expiry, a matchmaking retry, a client resubmission — do what they
    /// do for a terminal record: the duplicate's node is freed and nothing
    /// else changes or counts.
    #[test]
    fn events_for_a_retired_job_change_nothing_and_count_nothing() {
        let jobs = [(0, 0.0, 10.0), (1, 0.0, 1e4)];
        let (mut engine, stream) = scripted_dag(leased(), &jobs, JobDag::none());
        let job = JobId(0);
        while engine
            .jobs
            .get(job)
            .is_none_or(|r| r.state != JobState::Running)
        {
            let (at, ev) = engine.queue.pop().expect("job 0 starts");
            engine.dispatch(at, ev);
        }
        let slot = engine.jobs.slot(job).expect("running");
        let (epoch, seq) = (
            engine.jobs.at_mut(slot).epoch,
            engine.jobs.lease_mut(slot).seq,
        );
        let now = SimTime::from_secs(100);
        run_until(&mut engine, now);
        assert!(engine.jobs.is_retired(job) && engine.jobs.get(job).is_none());
        stream.take();
        let (before, renewals) = (counts_of(&engine), engine.report.lease_renewals);

        // A duplicate of job 0 still runs on another node.
        let dup = GridNodeId(NEXT);
        let q = QueuedJob {
            job,
            runtime_secs: 50.0,
            epoch,
        };
        engine.nodes.set_running(dup, q, now);
        engine.dispatch(
            now,
            Event::Complete {
                job,
                epoch,
                node: dup,
            },
        );
        assert!(engine.nodes.running_job(dup).is_none());
        assert_eq!(engine.report.duplicate_executions, 1);
        for ev in [
            Event::LeaseRenew { job, seq },
            Event::LeaseExpire { job, seq },
            Event::RetryMatch { job, epoch },
            Event::ClientResubmit { job, epoch },
        ] {
            engine.dispatch(now, ev);
        }
        assert_eq!(counts_of(&engine), before);
        assert_eq!(engine.report.lease_renewals, renewals);
        assert!(engine.jobs.is_retired(job));
        assert_eq!(stream.take(), [""; 0]);
        let report = engine.run();
        assert_eq!(job_counts(&report), [2, 2, 0, 0, 1, 0]);
    }

    /// An event for an id the run was never handed counts one unknown-job
    /// event, and so does a lease event for a job not submitted yet.
    #[test]
    fn an_event_for_an_id_never_submitted_counts_one() {
        let jobs = [(0, 0.0, 10.0), (1, 100.0, 10.0)];
        let (mut engine, _) = scripted_dag(leased(), &jobs, JobDag::none());
        let (never, later) = (JobId(7), JobId(1));
        let events = [
            Event::LeaseRenew { job: never, seq: 1 },
            Event::LeaseExpire { job: never, seq: 1 },
            Event::Submit { job: never },
            Event::LeaseRenew { job: later, seq: 1 },
        ];
        for (counted, ev) in (1..).zip(events) {
            engine.dispatch(SimTime::ZERO, ev);
            assert_eq!(engine.report.unknown_job_events, counted);
        }
        let report = engine.run();
        assert_eq!(job_counts(&report), [2, 2, 0, 0, 0, 4]);
    }

    /// Counts the jobs between their first `Submitted` and their terminal
    /// event, and the most at once.
    #[derive(Clone, Default)]
    struct LiveJobs(Rc<RefCell<(HashSet<JobId>, usize)>>);

    impl Observer for LiveJobs {
        fn on_event(&mut self, _: SimTime, event: TraceEvent) {
            let (live, peak) = &mut *self.0.borrow_mut();
            match event {
                TraceEvent::Submitted { job, .. } => {
                    live.insert(job);
                    *peak = (*peak).max(live.len());
                }
                TraceEvent::Completed { job, .. } | TraceEvent::Failed { job } => {
                    live.remove(&job);
                }
                _ => {}
            }
        }
    }

    /// Under churn, run recoveries and a horizon that cuts the stream
    /// short, the slab's length is the most jobs the stream shows live at
    /// once, far below the jobs handed over.
    #[test]
    fn the_slab_holds_as_many_slots_as_jobs_were_ever_live_at_once() {
        const JOBS: u64 = 600;
        let jobs = (0..JOBS)
            .map(|i| JobSubmission {
                profile: JobProfile::new(
                    JobId(i),
                    ClientId(0),
                    JobRequirements::unconstrained(),
                    20.0 + (i % 7) as f64 * 15.0,
                ),
                arrival_secs: i as f64 * 10.0,
                actual_runtime_secs: None,
            })
            .collect();
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let churn = ChurnConfig {
            mttf_secs: Some(600.0),
            rejoin_after_secs: Some(60.0),
            graceful_fraction: 0.5,
        };
        let cfg = EngineConfig {
            max_sim_secs: 1_700.0,
            ..EngineConfig::default()
        };
        let live = LiveJobs::default();
        let mut engine = Engine::new(
            cfg,
            churn,
            Box::new(CentralizedMatchmaker::new()),
            vec![node; 12],
            jobs,
        )
        .with_observer(Box::new(live.clone()));
        engine.run_sequential_loop(SimTime::from_secs(1_700));
        let peak = live.0.borrow().1;
        assert!(engine.report.run_recoveries > 0 && !engine.arrivals.fifo.is_empty());
        assert_eq!(engine.jobs.slot_high_water(), peak);
        assert!(peak > 0 && (peak as u64) < JOBS / 10, "peak {peak}");
    }

    /// Of 10⁴ submissions that arrive in input order, the queue holds one,
    /// the next, beside the run's own events.
    #[test]
    fn ordered_submissions_keep_one_arrival_in_the_queue() {
        const JOBS: u64 = 10_000;
        const NODES: usize = 50;
        let jobs = (0..JOBS)
            .map(|i| JobSubmission {
                profile: JobProfile::new(
                    JobId(i),
                    ClientId(0),
                    JobRequirements::unconstrained(),
                    10.0,
                ),
                arrival_secs: (i / 4) as f64 * 0.5,
                actual_runtime_secs: None,
            })
            .collect();
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let churn = ChurnConfig {
            mttf_secs: Some(1_000.0),
            rejoin_after_secs: Some(60.0),
            graceful_fraction: 0.5,
        };
        let engine = Engine::new(
            EngineConfig::default(),
            churn,
            Box::new(CentralizedMatchmaker::new()),
            vec![node; NODES],
            jobs,
        );
        // The next arrival, one departure per node and the first
        // maintenance tick.
        assert_eq!(engine.queue.len(), NODES + 2, "{:?}", engine.queue);
    }

    /// The arrival FIFO gives the room of admitted submissions back in
    /// steps: after every event its buffer has room for at most one step
    /// more than the submissions still to come, and it shrank at least
    /// once per step of them.
    #[test]
    fn the_arrival_fifo_keeps_at_most_one_step_of_spare_room() {
        const JOBS: u64 = 20_000;
        let mut jobs: Vec<JobSubmission> = Vec::with_capacity(2 * JOBS as usize);
        jobs.extend((0..JOBS).map(|i| JobSubmission {
            profile: JobProfile::new(JobId(i), ClientId(0), JobRequirements::unconstrained(), 0.5),
            arrival_secs: i as f64 * 0.01,
            actual_runtime_secs: None,
        }));
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let mut engine = Engine::new(
            EngineConfig::default(),
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            vec![node; 100],
            jobs,
        );
        let spare = |e: &Engine| e.arrivals.fifo.capacity() - e.arrivals.fifo.len();
        assert!(
            spare(&engine) <= RELEASE_STEP,
            "the handed-over room is trimmed"
        );
        let mut shrinks = 0;
        while engine.outstanding > 0 {
            let before = engine.arrivals.fifo.capacity();
            let (at, ev) = engine.queue.pop().expect("every job completes");
            engine.dispatch(at, ev);
            assert!(spare(&engine) <= RELEASE_STEP, "{} spare", spare(&engine));
            shrinks += usize::from(engine.arrivals.fifo.capacity() < before);
        }
        assert_eq!(engine.report.jobs_completed, JOBS);
        assert!(shrinks >= JOBS as usize / RELEASE_STEP, "{shrinks} shrinks");
    }
}
