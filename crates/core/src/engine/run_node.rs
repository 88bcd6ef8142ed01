//! The run-node half of the job lifecycle, written once.
//!
//! Figure 1's steps 5–6 (arrive at the run node → start → complete or
//! sandbox-kill → start the next queued job), the stale-execution release
//! that discards a duplicate run, and the message helpers they share touch
//! only one *home node*, the job records assigned to it, a network/RNG pair
//! and the engine configuration. The handlers here are generic over
//! [`RunNodeCtx`], which exposes exactly that and nothing else; every effect
//! that reaches beyond the home node — an observer emission, a future event,
//! a report counter, a terminal failure, owner bookkeeping, a DAG release —
//! leaves through [`RunNodeCtx::effect`] as an [`EnvOp`].
//!
//! Two contexts drive the handlers. [`Engine`] itself applies each effect on
//! the spot (the sequential kernel, and the barrier phase of the sharded
//! one); the sharded kernel's per-event context in [`shard`](super::shard)
//! mutates checked-out copies on a worker thread and records the effects as
//! an envelope the barrier replays in `(virtual_time, seq)` order. Because
//! both run this code, a lifecycle fix is made in one place.

use dgrid_resources::{Capabilities, ClientId, JobId, ResourceKind};
use dgrid_sim::fault::{Delivery, Endpoint, Network};
use dgrid_sim::rng::SimRng;
use dgrid_sim::{SimDuration, SimTime};
use rand::Rng;

use super::{Engine, Event};
use crate::config::EngineConfig;
use crate::job::{FailureReason, JobRecord, JobState, OwnerRef};
use crate::node::{GridNodeId, QueuedJob};
use crate::trace::TraceEvent;

/// An effect of a run-node handler that reaches beyond its home node.
pub(super) enum EnvOp {
    /// Observer emission.
    Emit(TraceEvent),
    /// Future event for the global event queue.
    Schedule { at: SimTime, event: Event },
    /// Report-counter mutation.
    Report(ReportOp),
    /// One job left the in-flight set (completion commit).
    OutstandingDec,
    /// Terminal failure: the full `fail_job` (terminal guard, DAG cascade,
    /// owner detach).
    FailJob { job: JobId, reason: FailureReason },
    /// The job's completion committed: no peer owns it any more and its
    /// record is freed.
    Retire(JobId),
    /// DAG children of a completed parent become submittable.
    ReleaseDependents(JobId),
}

/// The [`SimReport`](crate::SimReport) mutations run-node handlers perform.
/// Kept as ordered operations so a deferred replay pushes histogram samples
/// in the handlers' own order.
pub(super) enum ReportOp {
    MessagesLost,
    DuplicateExecution,
    SandboxKill,
    HeartbeatMessages(u64),
    JobCompleted,
    WaitPush { client: ClientId, wait: f64 },
    TurnaroundPush(f64),
}

/// What the run-node handlers may touch. `home` always names the one node
/// the current event executes on; a context that holds a single node may
/// assume it.
pub(super) trait RunNodeCtx {
    fn cfg(&self) -> &EngineConfig;
    /// The record of `job`, if this context holds it. A record is freed
    /// only at its job's terminal event, after the last read here, and the
    /// handlers are invoked only for a job whose record is live (a valid
    /// epoch, or a job the node runs); a miss for one of those is a broken
    /// invariant. A queued job with no record retired while queued.
    fn record(&self, job: JobId) -> Option<&JobRecord>;
    fn record_mut(&mut self, job: JobId) -> Option<&mut JobRecord>;
    /// Who owns `job`, if this context holds its record and it names one.
    fn owner(&self, job: JobId) -> Option<OwnerRef>;
    /// The home node's advertised capabilities.
    fn capabilities(&self, home: GridNodeId) -> &Capabilities;
    /// The job the home node is executing, if any.
    fn running_job(&self, home: GridNodeId) -> Option<QueuedJob>;
    /// When the home node's running job finishes (stale while it idles).
    fn running_finish_at(&self, home: GridNodeId) -> SimTime;
    /// Credit the home node with `secs` of execution.
    fn add_busy_secs(&mut self, home: GridNodeId, secs: f64);
    /// Count one completion on the home node.
    fn count_completion(&mut self, home: GridNodeId);
    fn enqueue(&mut self, home: GridNodeId, q: QueuedJob);
    fn pop_queue(&mut self, home: GridNodeId) -> Option<QueuedJob>;
    fn set_running(&mut self, home: GridNodeId, q: QueuedJob, finish_at: SimTime);
    fn take_running(&mut self, home: GridNodeId) -> Option<QueuedJob>;
    /// The fault-injecting network and the latency RNG its sends draw from.
    fn net(&mut self) -> (&mut Network, &mut SimRng);
    /// Hand an effect of the event at virtual time `at` to the kernel.
    fn effect(&mut self, at: SimTime, op: EnvOp);
}

/// Send one engine-level message through the fault-injecting network,
/// counting losses. Latency draws come from the network RNG in exactly the
/// pre-fault-layer order, so an empty plan changes nothing.
pub(super) fn send_message<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    from: Endpoint,
    to: Endpoint,
    hops: u32,
) -> Delivery {
    let (net, rng) = cx.net();
    let d = net.send(rng, now, from, to, hops);
    if !d.is_delivered() {
        cx.effect(now, EnvOp::Report(ReportOp::MessagesLost));
    }
    d
}

/// RPC timeout plus capped exponential backoff with jitter for the given
/// zero-based retry attempt. Jitter draws from the fault RNG, so this must
/// only be called on a fault path (losses never happen with an empty plan).
pub(super) fn backoff_delay<C: RunNodeCtx>(cx: &mut C, attempt: u32) -> SimDuration {
    let cfg = cx.cfg();
    let backoff =
        (cfg.backoff_base_secs * 2f64.powi(attempt.min(16) as i32)).min(cfg.backoff_cap_secs);
    let jitter = cfg.backoff_jitter;
    let timeout = cfg.rpc_timeout_secs;
    let factor = if jitter > 0.0 {
        1.0 + jitter * (cx.net().0.fault_rng().gen::<f64>() * 2.0 - 1.0)
    } else {
        1.0
    };
    SimDuration::from_secs_f64(timeout + backoff * factor)
}

/// Total virtual time for a transfer retried until it gets through: each
/// loss costs a timeout plus backoff; past the retry budget the
/// receiver-side poll picks the data up one backoff cap later. Used for
/// result return, which the client pulls and therefore never abandons.
pub(super) fn deliver_with_retries<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    from: Endpoint,
    to: Endpoint,
    hops: u32,
) -> SimDuration {
    let mut total = SimDuration::ZERO;
    let mut attempt = 0u32;
    loop {
        if let Delivery::Delivered(d) = send_message(cx, now + total, from, to, hops) {
            return total + d;
        }
        if attempt >= cx.cfg().max_rpc_retries {
            return total + SimDuration::from_secs_f64(cx.cfg().backoff_cap_secs);
        }
        total += backoff_delay(cx, attempt);
        attempt += 1;
    }
}

/// Figure 1, step 5: the job reaches the FIFO queue of its live, assigned
/// run node `home` under a valid epoch (the caller checked all three).
pub(super) fn arrive<C: RunNodeCtx>(cx: &mut C, now: SimTime, job: JobId, home: GridNodeId) {
    // A valid epoch means a live, non-terminal job, and only a terminal
    // job retires.
    let rec = cx
        .record(job)
        .expect("a valid-epoch arrival implies the job's record");
    let (profile, actual_runtime, epoch) = (rec.profile, rec.actual_runtime_secs, rec.epoch);
    if cx.cfg().sandbox.rejects_at_admission(&profile) {
        sandbox_fail(cx, now, job);
        return;
    }
    let runtime = if cx.cfg().scale_runtime_by_cpu {
        let cpu = cx.capabilities(home).get(ResourceKind::CpuSpeed);
        actual_runtime * cx.cfg().reference_cpu_ghz / cpu.max(0.1)
    } else {
        actual_runtime
    };
    let busy = cx.running_job(home).is_some();
    let rec = cx
        .record_mut(job)
        .expect("record read at the top of this handler");
    rec.set_queued_at(now);
    if busy {
        rec.state = JobState::Queued;
        cx.enqueue(
            home,
            QueuedJob {
                job,
                runtime_secs: runtime,
                epoch,
            },
        );
    } else {
        start_job(cx, now, job, home, runtime);
    }
}

/// Count a sandbox kill and fail the job for it.
fn sandbox_fail<C: RunNodeCtx>(cx: &mut C, now: SimTime, job: JobId) {
    cx.effect(now, EnvOp::Report(ReportOp::SandboxKill));
    let reason = FailureReason::SandboxKilled;
    cx.effect(now, EnvOp::FailJob { job, reason });
}

fn start_job<C: RunNodeCtx>(cx: &mut C, now: SimTime, job: JobId, home: GridNodeId, runtime: f64) {
    // An arrival has a valid epoch and `start_next_on` starts only entries
    // whose record it found live: neither job is terminal, so neither
    // retired.
    let rec = cx
        .record_mut(job)
        .expect("only arrivals and non-terminal queue entries start, and both have records");
    rec.state = JobState::Running;
    rec.mark_started(now);
    rec.invalidate();
    let (epoch, profile) = (rec.epoch, rec.profile);
    let owner = cx.owner(job);
    cx.effect(
        now,
        EnvOp::Emit(TraceEvent::Started {
            job,
            run_node: home,
        }),
    );
    let kill_after = cx.cfg().sandbox.kill_after_secs(&profile);
    cx.set_running(
        home,
        QueuedJob {
            job,
            runtime_secs: runtime,
            epoch,
        },
        now + SimDuration::from_secs_f64(runtime),
    );
    let (after, event) = match kill_after {
        Some(k) if runtime > k => (
            k,
            Event::SandboxKill {
                job,
                epoch,
                node: home,
            },
        ),
        _ => (
            runtime,
            Event::Complete {
                job,
                epoch,
                node: home,
            },
        ),
    };
    cx.effect(
        now,
        EnvOp::Schedule {
            at: now + SimDuration::from_secs_f64(after),
            event,
        },
    );
    if cx.net().0.faulty() {
        schedule_spurious_detections(cx, now, job, home, runtime, epoch, owner);
    }
}

/// While `job` executes on `run`, scan the heartbeat schedule in both
/// directions for `heartbeat_misses` consecutive losses; the first such run
/// makes the monitoring side falsely declare its partner dead — Section 2's
/// detection rule misfiring on a lossy network. Only called in fault mode
/// (the scan draws from the fault RNG).
fn schedule_spurious_detections<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    job: JobId,
    run: GridNodeId,
    runtime: f64,
    epoch: u32,
    owner: Option<OwnerRef>,
) {
    let Some(owner) = owner else { return };
    let owner_ep = Engine::endpoint_of(owner);
    let run_ep = Endpoint::Node(run.0);
    let period = cx.cfg().heartbeat_secs;
    let misses = cx.cfg().heartbeat_misses;
    // Run node -> owner heartbeats: the owner spuriously detects a run
    // failure and re-runs matchmaking under a fresh epoch.
    if let Some(at) = cx
        .net()
        .0
        .first_consecutive_losses(now, run_ep, owner_ep, period, misses, runtime)
    {
        let event = Event::SpuriousRunFailure { job, epoch };
        cx.effect(now, EnvOp::Schedule { at, event });
    }
    // Owner -> run node acks: the run node spuriously detects an owner
    // failure and installs a replacement through the overlay. In lease mode
    // the owner's liveness is judged solely by its renewals — a partitioned
    // owner loses the lease instead of being replaced by its run node, so
    // the spurious owner path is never scheduled.
    if cx.cfg().leases_enabled() {
        return;
    }
    if let Some(at) = cx
        .net()
        .0
        .first_consecutive_losses(now, owner_ep, run_ep, period, misses, runtime)
    {
        let event = Event::SpuriousOwnerFailure { job, epoch };
        cx.effect(now, EnvOp::Schedule { at, event });
    }
}

/// Figure 1, step 6 with results returned directly to the client.
pub(super) fn complete_direct<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    job: JobId,
    home: GridNodeId,
) {
    let result_delay = deliver_with_retries(cx, now, Endpoint::Node(home.0), Endpoint::External, 1);
    commit_completion(cx, now, job, home, result_delay);
}

/// Commit the completion of the job running on `home`; its results reach
/// the client `result_delay` from now.
pub(super) fn commit_completion<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    job: JobId,
    home: GridNodeId,
    result_delay: SimDuration,
) {
    let finished = now + result_delay;
    let done = release_running(cx, now, home, true);
    debug_assert_eq!(done.job, job);
    cx.count_completion(home);
    // The node ran this job under a valid epoch, so it is live; retirement
    // follows this commit (the `Retire` effect below). The checker's dedup
    // backdoor double-commits a terminal job, and with it set terminal
    // records are kept.
    let rec = cx
        .record_mut(job)
        .expect("the node ran this job, so its record exists");
    // Only one completion per epoch exists and stale epochs never commit,
    // so the job can never already be terminal here — except when the
    // checker's dedup backdoor lets a stale completion through after the
    // current epoch already committed. Guard the in-flight counter so that
    // broken run still terminates and the trace oracles (not an underflow
    // panic) report the double commit.
    let was_terminal = rec.state.is_terminal();
    rec.state = JobState::Completed;
    let (queued_at, client) = (rec.queued_at(), rec.profile.client);
    let wait = rec.wait_secs();
    let turnaround = finished.since(rec.first_submitted_at).as_secs_f64();
    if let Some(q) = queued_at {
        let held = now.since(q).as_secs_f64();
        let beats = (held / cx.cfg().heartbeat_secs).ceil() as u64;
        cx.effect(now, EnvOp::Report(ReportOp::HeartbeatMessages(beats)));
    }
    cx.effect(now, EnvOp::Report(ReportOp::JobCompleted));
    if let Some(wait) = wait {
        cx.effect(now, EnvOp::Report(ReportOp::WaitPush { client, wait }));
    }
    cx.effect(now, EnvOp::Report(ReportOp::TurnaroundPush(turnaround)));
    if !was_terminal {
        cx.effect(now, EnvOp::OutstandingDec);
    }
    cx.effect(
        now,
        EnvOp::Emit(TraceEvent::Completed {
            job,
            results_at: finished,
        }),
    );
    cx.effect(now, EnvOp::Retire(job));
    cx.effect(now, EnvOp::ReleaseDependents(job));
    start_next_on(cx, now, home);
}

/// The sandbox kills the job running on `home` under its current epoch.
pub(super) fn sandbox_kill<C: RunNodeCtx>(cx: &mut C, now: SimTime, job: JobId, home: GridNodeId) {
    let killed = release_running(cx, now, home, false);
    debug_assert_eq!(killed.job, job);
    sandbox_fail(cx, now, job);
    start_next_on(cx, now, home);
}

/// A completion or kill arrived for a superseded epoch while the node is
/// alive: if it still holds that execution, the spurious-detection path
/// re-ran the job elsewhere and this is the duplicate winding down. Release
/// the node, crediting the time it burned, without granting job credit —
/// the at-least-once analogue of discarding a duplicate result.
pub(super) fn release_stale_execution<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    job: JobId,
    epoch: u32,
    home: GridNodeId,
    ran_to_completion: bool,
) {
    // Match on (job, epoch), not job alone: after a crash + rejoin the node
    // may be re-running the same job under its current epoch, and the
    // pre-crash execution's completion must not steal that slot.
    let held = cx
        .running_job(home)
        .is_some_and(|q| q.job == job && q.epoch == epoch);
    if !held {
        return;
    }
    release_running(cx, now, home, ran_to_completion);
    cx.effect(now, EnvOp::Report(ReportOp::DuplicateExecution));
    start_next_on(cx, now, home);
}

/// Free `home`'s running slot — the caller established that it is occupied,
/// by an execution that either `ran_to_completion` or is being cut short at
/// `now` — and credit the node the time that execution burned: its full
/// runtime, or the runtime minus whatever would have remained past `now`.
fn release_running<C: RunNodeCtx>(
    cx: &mut C,
    now: SimTime,
    home: GridNodeId,
    ran_to_completion: bool,
) -> QueuedJob {
    let finish_at = cx.running_finish_at(home);
    let q = cx
        .take_running(home)
        .expect("completions, kills and stale releases fire only while their node runs the job");
    let burned = if ran_to_completion {
        q.runtime_secs
    } else {
        let remaining = finish_at.since(now).as_secs_f64();
        (q.runtime_secs - remaining).max(0.0)
    };
    cx.add_busy_secs(home, burned);
    q
}

/// Start the first queued job on `home` that can still run, dropping
/// entries whose job terminated while queued or whose record this context
/// does not hold. A loop, not a recursion: the stack stays flat however
/// many dead entries head the queue.
pub(super) fn start_next_on<C: RunNodeCtx>(cx: &mut C, now: SimTime, home: GridNodeId) {
    while let Some(q) = cx.pop_queue(home) {
        if cx.record(q.job).is_some_and(|r| !r.state.is_terminal()) {
            start_job(cx, now, q.job, home, q.runtime_secs);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use dgrid_resources::{Capabilities, JobProfile, JobRequirements, NodeProfile, OsType};

    use super::*;
    use crate::{CentralizedMatchmaker, ChurnConfig, JobSubmission};

    #[test]
    fn start_next_on_skips_a_long_run_of_dead_entries_without_recursing() {
        // 100k entries whose jobs terminated while queued and retired, then
        // one live job, on an idle node. One stack frame per skipped entry
        // would overflow the test thread's 2 MiB stack long before the live
        // one.
        const DEAD: u64 = 100_000;
        let jobs = (0..=DEAD)
            .map(|i| JobSubmission {
                profile: JobProfile::new(
                    JobId(i),
                    ClientId(0),
                    JobRequirements::unconstrained(),
                    10.0,
                ),
                arrival_secs: 0.0,
                actual_runtime_secs: None,
            })
            .collect();
        let node = NodeProfile::new(Capabilities::new(2.0, 4.0, 100.0, OsType::Linux));
        let mut engine = Engine::new(
            EngineConfig::default(),
            ChurnConfig::none(),
            Box::new(CentralizedMatchmaker::new()),
            vec![node],
            jobs,
        );
        let home = GridNodeId(0);
        for i in 0..=DEAD {
            let (job, sub) = (JobId(i), engine.arrivals.nth(i as usize).unwrap().clone());
            engine
                .jobs
                .admit(job, JobRecord::new(sub.profile, 10.0, SimTime::ZERO));
            if i < DEAD {
                engine.jobs.retire(job);
            }
            let q = QueuedJob {
                job,
                runtime_secs: 10.0,
                epoch: 0,
            };
            engine.nodes.enqueue(home, q);
        }

        start_next_on(&mut engine, SimTime::ZERO, home);

        let running = engine.nodes.running_job(home);
        assert_eq!(running.map(|q| q.job), Some(JobId(DEAD)));
        assert_eq!(
            engine.nodes.load_of(home),
            1,
            "every dead entry was dropped"
        );
        let started = engine.jobs.get(JobId(DEAD)).expect("submitted above");
        assert_eq!(started.state, JobState::Running);
    }
}
