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

use std::collections::{BTreeSet, HashMap, HashSet};

use dgrid_resources::{JobId, JobProfile, NodeProfile};
use dgrid_sim::fault::{Delivery, Endpoint, FaultPlan, Network};
use dgrid_sim::rng::{self, SimRng};
use dgrid_sim::telemetry::{RegistryHook, SharedRegistry, TimeSeries};
use dgrid_sim::{EventQueue, SimDuration, SimTime};
use rand::Rng;

use self::run_node::{EnvOp, ReportOp, RunNodeCtx};
use crate::config::{ChurnConfig, EngineConfig};
use crate::dag::JobDag;
use crate::job::{FailureReason, JobRecord, JobState, JobTable, OwnerRef};
use crate::matchmaker::Matchmaker;
use crate::metrics::SimReport;
use crate::node::{GridNode, GridNodeId, NodeTable, QueuedJob};
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
    /// A lease reached `ttl + grace` without a successful renewal. Stale
    /// seqs (the lease was renewed or re-granted) are ignored; a live seq
    /// expires the lease and transfers it to a freshly placed owner.
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
    // BTreeSet, not HashSet: a departure iterates the owned set, and with
    // replications now running on pool workers a per-thread-seeded hash
    // order would leak the thread schedule into the event stream.
    owner_jobs: HashMap<GridNodeId, BTreeSet<JobId>>,
    dag: JobDag,
    dag_children: HashMap<JobId, Vec<JobId>>,
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
}

impl Engine {
    /// Assemble an engine: nodes join the overlay, submissions and churn are
    /// scheduled, the matchmaker gets one initial maintenance tick.
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

        // The submissions go over in input order, before any other event
        // exists. The generators emit them ascending, so they land in the
        // queue's sorted run and the calendar holds only what the simulation
        // schedules itself; an out-of-order input stays correct, its steps
        // back just land in the calendar.
        let mut jobs = JobTable::with_capacity(submissions.len());
        queue.schedule_sorted(submissions.iter().filter_map(|sub| {
            let actual = sub.actual_runtime_secs.unwrap_or(sub.profile.run_time_secs);
            assert!(actual > 0.0, "non-positive runtime for {}", sub.profile.id);
            let at = SimTime::from_secs_f64(sub.arrival_secs);
            let id = sub.profile.id;
            let fresh = jobs.insert(id, JobRecord::new(sub.profile, actual, at));
            assert!(fresh, "duplicate job id {id}");
            let parents = dag.parents_of(id).len();
            if parents == 0 {
                return Some((at, Event::Submit { job: id }));
            }
            // Held back until the last parent completes.
            let rec = jobs.get_mut(id).expect("just inserted");
            rec.unmet_parents = parents as u32;
            rec.held_arrival = Some(at);
            None
        }));

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

        let outstanding = jobs.len();
        Engine {
            report: SimReport {
                algorithm: matchmaker.name().to_string(),
                jobs_total: jobs.len() as u64,
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
            owner_jobs: HashMap::new(),
            dag,
            dag_children,
            observer: Box::new(NullObserver),
            outstanding,
            registry: None,
            timeseries: None,
            sample_every: SimDuration::ZERO,
            shards: None,
            shard_states: Vec::new(),
            window_obs: None,
        }
    }

    /// Switch [`Engine::run`] to the space-parallel conservative-window
    /// kernel with `shards` node shards (see the module docs of
    /// [`shard`](self) internals): events execute against shard-local state
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
        // Jobs still open at the horizon fail, in id order: the table
        // iterates in insertion order, and the failure order is visible in
        // the trace stream, so it is pinned by an explicit sort.
        let mut open: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, r)| !r.state.is_terminal())
            .map(|(id, _)| id)
            .collect();
        open.sort_unstable();
        for id in open {
            self.fail_job(id, FailureReason::HorizonExceeded, makespan);
        }
        // Final per-node accounting.
        self.report.node_busy_secs = (0..self.nodes.len() as u32)
            .map(|i| self.nodes.get(GridNodeId(i)).busy_secs)
            .collect();
        self.report.node_jobs = (0..self.nodes.len() as u32)
            .map(|i| self.nodes.get(GridNodeId(i)).completed_jobs)
            .collect();
        self.report.makespan_secs = makespan.as_secs_f64();
        self.report.wait_stats = Some(self.report.wait_time.summary());
        self.report.turnaround_stats = Some(self.report.turnaround.summary());
        self.report.tenant_fairness = Some(self.report.client_fairness());
        self.report.timeseries = self.timeseries.take();
        self.report.stream_bytes_written = self.observer.bytes_written().unwrap_or(0);
        self.report
    }

    /// The classic one-event-at-a-time kernel.
    fn run_sequential_loop(&mut self, horizon: SimTime) -> SimTime {
        let mut makespan = SimTime::ZERO;
        while self.outstanding > 0 {
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            if now > horizon {
                break;
            }
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

    /// Checked job lookup for the recovery paths. A missing record means an
    /// engine invariant broke; instead of aborting the whole replication
    /// with a panic, the breach is counted (`unknown_job_events`) and the
    /// event dropped — the conservation oracle then reports the stuck job,
    /// the same way the `was_terminal` guard surfaces double commits.
    fn job_mut(&mut self, job: JobId) -> Option<&mut JobRecord> {
        if !self.jobs.contains(job) {
            self.report.unknown_job_events += 1;
            return None;
        }
        self.jobs.get_mut(job)
    }

    /// Shared-reference variant of [`Engine::job_mut`].
    fn job_ref(&mut self, job: JobId) -> Option<&JobRecord> {
        if !self.jobs.contains(job) {
            self.report.unknown_job_events += 1;
            return None;
        }
        self.jobs.get(job)
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
    /// renew/expire for older grants — and schedule the first renewal plus
    /// the ttl+grace expiry under the new seq. Server owners (the reliable
    /// centralized baseline) hold an implicit permanent lease.
    fn grant_lease(&mut self, now: SimTime, job: JobId) {
        if !self.cfg.leases_enabled() {
            return;
        }
        let Some(rec) = self.job_mut(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        if !matches!(rec.owner, Some(OwnerRef::Peer(_))) {
            rec.lease = None;
            return;
        }
        rec.lease_seq += 1;
        let seq = rec.lease_seq;
        rec.lease = Some(seq);
        self.queue.schedule(
            now + SimDuration::from_secs_f64(self.cfg.lease_renew_secs),
            Event::LeaseRenew { job, seq },
        );
        self.schedule_lease_expiry(now, job, seq);
    }

    /// Arm the expiry clock for lease `seq`: it fires `ttl + grace` after
    /// the grant or last successful renewal.
    fn schedule_lease_expiry(&mut self, now: SimTime, job: JobId, seq: u64) {
        let bound = self
            .cfg
            .lease_expiry_bound_secs()
            .expect("only called in lease mode");
        self.queue.schedule(
            now + SimDuration::from_secs_f64(bound),
            Event::LeaseExpire { job, seq },
        );
    }

    /// The owner's renewal heartbeat. A delivered renewal re-arms both the
    /// renewal and expiry clocks under a fresh seq (the pending expiry goes
    /// stale); a lost one retries at the next heartbeat under the *same*
    /// seq, so the expiry armed by the last successful renewal stands — a
    /// partition outlasting `ttl + grace` therefore expires the lease.
    fn handle_lease_renew(&mut self, now: SimTime, job: JobId, seq: u64) {
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() || rec.lease != Some(seq) {
            return;
        }
        let Some(OwnerRef::Peer(owner)) = rec.owner else {
            return;
        };
        let resubmits = rec.resubmits;
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
                let Some(rec) = self.job_mut(job) else { return };
                rec.lease_seq += 1;
                let seq = rec.lease_seq;
                rec.lease = Some(seq);
                self.queue
                    .schedule(now + renew_in, Event::LeaseRenew { job, seq });
                self.schedule_lease_expiry(now, job, seq);
            }
            _ => {
                self.queue
                    .schedule(now + renew_in, Event::LeaseRenew { job, seq });
            }
        }
    }

    /// A lease ran out its `ttl + grace`: the holder — dead, partitioned,
    /// or silently gone — loses ownership and the lease transfers.
    fn handle_lease_expire(&mut self, now: SimTime, job: JobId, seq: u64) {
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() || rec.lease != Some(seq) {
            return;
        }
        self.report.lease_expiries += 1;
        self.emit(now, TraceEvent::LeaseExpired { job });
        self.detach_owner(job);
        let Some(rec) = self.job_mut(job) else { return };
        rec.owner = None;
        rec.lease = None;
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
        let Some(rec) = self.job_ref(job) else { return };
        let resubmits = rec.resubmits;
        let profile = rec.profile;
        let guid = self.guid_of(job, resubmits);
        let mut choice: Option<(GridNodeId, u32)> = None;
        if self.nodes.alive_count() > 0 {
            let reassigned = self
                .mm
                .reassign_owner(&self.nodes, &profile, guid, &mut self.rng_mm);
            self.absorb_lookup_retries();
            choice = match reassigned {
                Some((OwnerRef::Peer(p), hops)) if self.nodes.is_alive(p) => Some((p, hops)),
                _ => None,
            };
            if choice.is_none() {
                // Least loaded live node, lowest id on ties.
                choice = self.nodes.least_loaded_alive().map(|id| (id, 0));
            }
        }
        match choice {
            Some((new_owner, hops)) => {
                self.report.owner_hops.push(f64::from(hops));
                self.report.lease_transfers += 1;
                let Some(rec) = self.job_mut(job) else { return };
                rec.owner = Some(OwnerRef::Peer(new_owner));
                self.owner_jobs.entry(new_owner).or_default().insert(job);
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
                // matchmaking under its new owner immediately.
                let idle = self
                    .jobs
                    .get(job)
                    .expect("lease transfer of known job")
                    .run_node
                    .is_none_or(|r| !self.nodes.is_alive(r));
                if idle {
                    let Some(rec) = self.job_mut(job) else { return };
                    rec.state = JobState::Recovering;
                    rec.run_node = None;
                    rec.invalidate();
                    rec.match_attempts = 0;
                    rec.rpc_attempts = 0;
                    self.try_match(now, job);
                }
            }
            None => {
                // No live candidate anywhere: hold the lease vacant and
                // re-arm the clock; the bound restarts once nodes rejoin.
                let Some(rec) = self.job_mut(job) else { return };
                rec.lease_seq += 1;
                let seq = rec.lease_seq;
                rec.lease = Some(seq);
                self.schedule_lease_expiry(now, job, seq);
            }
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle handlers
    // ------------------------------------------------------------------

    fn handle_submit(&mut self, now: SimTime, job: JobId) {
        let Some(rec) = self.job_ref(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        self.detach_owner(job);
        let Some(rec) = self.job_mut(job) else { return };
        rec.state = JobState::Matching;
        rec.match_attempts = 0;
        rec.rpc_attempts = 0;
        rec.owner = None;
        rec.run_node = None;
        // Any lease from an earlier life of this job is abandoned: pending
        // renew/expire events find `lease == None` and drop themselves.
        rec.lease = None;
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
        match assigned {
            Some((owner, hops)) => {
                self.report.owner_hops.push(f64::from(hops));
                // client -> injection -> ... -> owner
                match run_node::send_message(
                    self,
                    now,
                    Endpoint::External,
                    Self::endpoint_of(owner),
                    hops + 1,
                ) {
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
            None => {
                // Overlay in flux; treat as a failed matchmaking attempt.
                self.note_match_failure(now, job, epoch);
            }
        }
    }

    fn handle_owner_assigned(&mut self, now: SimTime, job: JobId, epoch: u32, owner: OwnerRef) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        // The designated owner may have died while the job was in transit.
        if let OwnerRef::Peer(p) = owner {
            if !self.nodes.is_alive(p) {
                let Some(rec) = self.job_ref(job) else { return };
                let resubmits = rec.resubmits;
                let profile = rec.profile;
                let guid = self.guid_of(job, resubmits);
                let reassigned =
                    self.mm
                        .reassign_owner(&self.nodes, &profile, guid, &mut self.rng_mm);
                self.absorb_lookup_retries();
                match reassigned {
                    Some((new_owner, hops)) => {
                        self.report.owner_hops.push(f64::from(hops));
                        match run_node::send_message(
                            self,
                            now,
                            Endpoint::External,
                            Self::endpoint_of(new_owner),
                            hops,
                        ) {
                            Delivery::Delivered(d) => {
                                if let Some(rec) = self.job_mut(job) {
                                    rec.rpc_attempts = 0;
                                }
                                self.queue.schedule(
                                    now + d,
                                    Event::OwnerAssigned {
                                        job,
                                        epoch,
                                        owner: new_owner,
                                    },
                                );
                            }
                            _ => self.note_rpc_loss(now, job, epoch, true),
                        }
                    }
                    None => self.note_match_failure(now, job, epoch),
                }
                return;
            }
        }
        let Some(rec) = self.job_mut(job) else { return };
        rec.owner = Some(owner);
        if let OwnerRef::Peer(p) = owner {
            self.owner_jobs.entry(p).or_default().insert(job);
        }
        self.emit(now, TraceEvent::OwnerAssigned { job, owner });
        self.grant_lease(now, job);
        self.try_match(now, job);
    }

    /// Figure 1, step 3: the owner searches for a run node.
    fn try_match(&mut self, now: SimTime, job: JobId) {
        let Some(rec) = self.job_mut(job) else { return };
        if rec.state.is_terminal() {
            return;
        }
        let Some(owner) = rec.owner else {
            // Owner lost before matching; the epoch-valid path that led here
            // guarantees a resubmission, detection, or lease-expiry event is
            // pending.
            return;
        };
        let epoch = rec.epoch;
        // Owner must be alive to conduct matchmaking.
        if let OwnerRef::Peer(p) = owner {
            if !self.nodes.is_alive(p) {
                if self.cfg.leases_enabled() {
                    // The dead owner's lease expires and transfers the job;
                    // no client involvement needed.
                    return;
                }
                self.schedule_client_resubmit(now, job, epoch);
                return;
            }
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
                        rec.run_node = Some(run);
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
        let Some(run) = rec.run_node else {
            // Arrival without an assignment is the same invariant breach as
            // an unknown job: count it and drop the event.
            self.report.unknown_job_events += 1;
            return;
        };
        if !self.nodes.is_alive(run) {
            // Died while the job was in transit: the owner's heartbeat
            // timeout fires as if the job had been accepted.
            self.begin_run_failure_recovery(now, job);
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
                .get(node)
                .running_job()
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
        // children entry already gone). Bookkeeping goes through
        // `jobs.get_mut` directly, not `job_mut`: a child zeroed by a failure
        // cascade is ordinary, not an unknown-job invariant breach.
        let Some(children) = self.dag_children.remove(&parent) else {
            return;
        };
        for child in children {
            let Some(rec) = self.jobs.get_mut(child) else {
                continue;
            };
            if rec.unmet_parents == 0 {
                continue;
            }
            rec.unmet_parents -= 1;
            if rec.unmet_parents == 0 {
                let arrival = rec.held_arrival.take().unwrap_or(now);
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
        let victims: Vec<JobId> = {
            let n = self.nodes.get(node);
            n.running_job()
                .map(|q| q.job)
                .into_iter()
                .chain(n.queued_jobs())
                .collect()
        };
        // Iterated directly below (ascending JobId) — no intermediate Vec.
        let owned: BTreeSet<JobId> = self.owner_jobs.remove(&node).unwrap_or_default();

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
            let Some(rec) = self.job_mut(job) else {
                continue;
            };
            if rec.state.is_terminal() {
                continue;
            }
            rec.state = JobState::Recovering;
            rec.run_node = None;
            rec.invalidate();
            let epoch = rec.epoch;
            let owner = rec.owner;
            let owner_alive = match owner {
                Some(OwnerRef::Server) => true,
                Some(OwnerRef::Peer(p)) => p != node && self.nodes.is_alive(p),
                None => false,
            };
            if owner_alive {
                self.queue
                    .schedule(now + detect, Event::RunFailureDetected { job, epoch });
            } else if !self.cfg.leases_enabled() {
                self.schedule_client_resubmit(now, job, epoch);
            }
            // In lease mode a dead (or already detached) owner's pending
            // lease expiry transfers ownership and rematches the job — the
            // client is never involved in owner-death recovery.
        }

        for job in owned {
            let Some(rec) = self.job_mut(job) else {
                continue;
            };
            if rec.state.is_terminal() {
                continue;
            }
            // The job keeps running/queued elsewhere; do NOT invalidate.
            let epoch = rec.epoch;
            let run_node = rec.run_node;
            let state = rec.state;
            if self.cfg.leases_enabled() {
                // The dead owner stops renewing, so its lease will run out
                // `ttl + grace` after the last renewal and transfer. Detach
                // ownership now: if the node rejoins before the expiry
                // fires, it must not resume renewing a lease it lost.
                if let Some(rec) = self.job_mut(job) {
                    rec.owner = None;
                }
                continue;
            }
            match run_node {
                Some(run) if self.nodes.is_alive(run) => {
                    self.queue
                        .schedule(now + detect, Event::OwnerFailureDetected { job, epoch });
                }
                // Run node dead too (or none): the victim path above, or a
                // pending matching event, already covers this job; if it was
                // purely owner-held (matching in progress), resubmit.
                Some(_) => {} // handled via the victim path
                None => {
                    if state == JobState::Matching {
                        let Some(rec) = self.job_mut(job) else {
                            continue;
                        };
                        rec.state = JobState::Recovering;
                        rec.invalidate();
                        let epoch = rec.epoch;
                        self.schedule_client_resubmit(now, job, epoch);
                    }
                }
            }
        }

        if let Some(repair) = self.churn.rejoin_after_secs {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(repair),
                Event::NodeRejoin { node },
            );
        }
    }

    fn begin_run_failure_recovery(&mut self, now: SimTime, job: JobId) {
        let Some(rec) = self.job_mut(job) else { return };
        rec.state = JobState::Recovering;
        rec.run_node = None;
        rec.invalidate();
        let epoch = rec.epoch;
        let owner = rec.owner;
        let owner_alive = match owner {
            Some(OwnerRef::Server) => true,
            Some(OwnerRef::Peer(p)) => self.nodes.is_alive(p),
            None => false,
        };
        if owner_alive {
            let detect = self.cfg.detection_delay();
            self.queue
                .schedule(now + detect, Event::RunFailureDetected { job, epoch });
        } else if !self.cfg.leases_enabled() {
            self.schedule_client_resubmit(now, job, epoch);
        }
        // Lease mode: the dead owner's lease expiry transfers the job.
    }

    fn handle_run_failure_detected(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        let owner = rec.owner;
        let epoch = rec.epoch;
        let owner_alive = match owner {
            Some(OwnerRef::Server) => true,
            Some(OwnerRef::Peer(p)) => self.nodes.is_alive(p),
            None => false,
        };
        if !owner_alive {
            // Owner died during the detection window: dual failure — unless
            // leases are on, in which case the expiry transfers the job.
            if !self.cfg.leases_enabled() {
                self.schedule_client_resubmit(now, job, epoch);
            }
            return;
        }
        self.report.run_recoveries += 1;
        self.emit(now, TraceEvent::RunRecovery { job });
        let Some(rec) = self.job_mut(job) else { return };
        rec.match_attempts = 0; // fresh matchmaking round
        rec.rpc_attempts = 0;
        self.try_match(now, job);
    }

    /// Heartbeat loss made the owner falsely declare the (alive) run node
    /// dead. The recovery protocol runs exactly as for a real failure: the
    /// epoch is bumped and the job rematched — while the old node keeps
    /// executing a now-duplicate copy that the stale epoch will discard.
    fn handle_spurious_run_failure(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        // Spurious means both sides are in fact alive; a real failure in the
        // meantime is handled by the real detection path.
        let run_node = rec.run_node;
        let owner = rec.owner;
        let run_alive = run_node.is_some_and(|r| self.nodes.is_alive(r));
        let owner_alive = match owner {
            Some(OwnerRef::Server) => true,
            Some(OwnerRef::Peer(p)) => self.nodes.is_alive(p),
            None => false,
        };
        if !run_alive || !owner_alive {
            return;
        }
        self.report.spurious_detections += 1;
        self.report.run_recoveries += 1;
        self.emit(now, TraceEvent::RunRecovery { job });
        let Some(rec) = self.job_mut(job) else { return };
        rec.state = JobState::Recovering;
        rec.run_node = None;
        rec.invalidate();
        rec.match_attempts = 0;
        rec.rpc_attempts = 0;
        self.try_match(now, job);
    }

    /// Ack loss made the run node falsely declare the (alive) owner dead:
    /// it installs a replacement owner through the overlay. The execution is
    /// undisturbed, so the epoch is *not* bumped.
    fn handle_spurious_owner_failure(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        let run_node = rec.run_node;
        let owner = rec.owner;
        let resubmits = rec.resubmits;
        let profile = rec.profile;
        let run_alive = run_node.is_some_and(|r| self.nodes.is_alive(r));
        let owner_alive = match owner {
            Some(OwnerRef::Server) => true,
            Some(OwnerRef::Peer(p)) => self.nodes.is_alive(p),
            None => false,
        };
        if !run_alive || !owner_alive {
            return;
        }
        self.report.spurious_detections += 1;
        let guid = self.guid_of(job, resubmits);
        let reassigned = self
            .mm
            .reassign_owner(&self.nodes, &profile, guid, &mut self.rng_mm);
        self.absorb_lookup_retries();
        // On `None` the overlay cannot name a replacement; since the old
        // owner is in fact alive, dropping the spurious detection is safe.
        if let Some((new_owner, hops)) = reassigned {
            // The replacement lookup pays overlay routing like the initial
            // assignment did; count it in the same owner_hops series so the
            // T-overhead message totals cover recovery traffic too.
            self.report.owner_hops.push(f64::from(hops));
            self.report.owner_recoveries += 1;
            self.emit(now, TraceEvent::OwnerRecovery { job });
            self.detach_owner(job);
            let Some(rec) = self.job_mut(job) else { return };
            rec.owner = Some(new_owner);
            if let OwnerRef::Peer(p) = new_owner {
                self.owner_jobs.entry(p).or_default().insert(job);
            }
        }
    }

    fn handle_owner_failure_detected(&mut self, now: SimTime, job: JobId, epoch: u32) {
        if !self.epoch_valid(job, epoch) {
            return;
        }
        let Some(rec) = self.job_ref(job) else { return };
        let run_node = rec.run_node;
        let resubmits = rec.resubmits;
        let profile = rec.profile;
        let run_alive = run_node.is_some_and(|r| self.nodes.is_alive(r));
        if !run_alive {
            // Both sides gone: the run-failure path or resubmission handles
            // it; nothing for the (dead) run node to do.
            return;
        }
        let guid = self.guid_of(job, resubmits);
        let reassigned = self
            .mm
            .reassign_owner(&self.nodes, &profile, guid, &mut self.rng_mm);
        self.absorb_lookup_retries();
        match reassigned {
            Some((new_owner, hops)) => {
                self.report.owner_hops.push(f64::from(hops));
                self.report.owner_recoveries += 1;
                self.emit(now, TraceEvent::OwnerRecovery { job });
                let Some(rec) = self.job_mut(job) else { return };
                rec.owner = Some(new_owner);
                if let OwnerRef::Peer(p) = new_owner {
                    self.owner_jobs.entry(p).or_default().insert(job);
                }
            }
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
        {
            let Some(rec) = self.job_mut(job) else { return };
            if rec.state.is_terminal() {
                return;
            }
            rec.state = JobState::Failed;
            rec.failure = Some(reason);
            rec.finished_at = Some(now);
            rec.lease = None;
            rec.invalidate();
        }
        self.report.jobs_failed += 1;
        self.outstanding -= 1;
        self.emit(now, TraceEvent::Failed { job });
        self.detach_owner(job);
        if self.dag.is_empty() {
            // The paper's base model: no dependencies, nothing to cascade.
            // Skips rebuilding the children index on every failure.
            return;
        }
        // Descendants can never obtain this job's output: cascade.
        for d in self.dag.descendants_of(job) {
            let Some(rec) = self.job_mut(d) else { continue };
            if rec.state.is_terminal() {
                continue;
            }
            rec.state = JobState::Failed;
            rec.failure = Some(FailureReason::DependencyFailed);
            rec.finished_at = Some(now);
            rec.lease = None;
            rec.invalidate();
            // The descendant will never be released: clear its hold state so
            // a later parent completion cannot resurrect it.
            rec.unmet_parents = 0;
            rec.held_arrival = None;
            self.report.jobs_failed += 1;
            self.report.dependency_failures += 1;
            self.outstanding -= 1;
            self.emit(now, TraceEvent::Failed { job: d });
            self.detach_owner(d);
        }
    }

    fn detach_owner(&mut self, job: JobId) {
        let Some(rec) = self.jobs.get(job) else {
            return;
        };
        if let Some(OwnerRef::Peer(p)) = rec.owner {
            if let Some(set) = self.owner_jobs.get_mut(&p) {
                set.remove(&job);
            }
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

    fn node(&self, home: GridNodeId) -> &GridNode {
        self.nodes.get(home)
    }

    fn node_mut(&mut self, home: GridNodeId) -> &mut GridNode {
        self.nodes.get_mut(home)
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
            EnvOp::DetachOwner(job) => self.detach_owner(job),
            EnvOp::ReleaseDependents(job) => self.release_dependents(at, job),
        }
    }
}

#[cfg(test)]
mod tests {
    use dgrid_resources::{Capabilities, ClientId, JobRequirements, OsType};

    use super::*;
    use crate::CentralizedMatchmaker;

    #[test]
    fn ordered_submissions_leave_only_other_events_in_the_calendar() {
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
        // One departure per node and the first maintenance tick.
        let calendar = NODES + 1;
        let shape = format!("{:?}", engine.queue);
        assert!(
            shape.contains(&format!("run: {JOBS}, calendar: {calendar},")),
            "{shape}"
        );
    }
}
