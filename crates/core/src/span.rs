//! Per-job phase spans assembled from the flat trace stream.
//!
//! Figure 2 reports one number per job — wait time — but a wait hides very
//! different sicknesses: slow overlay routing to the owner, repeated
//! matchmaking under churn, a deep FIFO queue at the run node, or time lost
//! to failure recovery. [`SpanAssembler`] folds the [`TraceEvent`] stream
//! into one [`JobSpan`] per job whose [`Phase`] durations decompose the
//! job's turnaround *exactly*: segment boundaries are the event timestamps
//! themselves (integer nanoseconds), so the phase durations of a completed
//! job sum to its reported turnaround to the bit, with no float residue.
//!
//! The attribution rule is: the interval between two consecutive events of
//! a job belongs to the phase the *earlier* event opened (submission opens
//! routing, owner assignment opens matchmaking, a match opens dispatch, a
//! start opens execution) — unless the *later* event reveals the interval
//! was spent recovering (a recovery notification, a resubmission, or the
//! permanent failure), in which case it counts as [`Phase::Recovery`].

use dgrid_resources::JobId;
use dgrid_sim::stats::SampleSet;
use dgrid_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::job::{next_index, IdIndex};
use crate::trace::{Observer, TraceEvent};

/// The lifecycle phases a job's turnaround decomposes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Submission → owner assigned: overlay routing (Figure 1, steps 1–2),
    /// including lost-submission retries.
    Routing,
    /// Owner assigned → matched: the matchmaking search (step 3), including
    /// match-retry backoffs.
    Matchmaking,
    /// Matched → started: the owner → run-node transfer plus FIFO queueing
    /// at the run node (steps 4–5).
    Dispatch,
    /// Started → completed: execution on the run node.
    Execution,
    /// Time revealed to be lost to failure handling: intervals ending in a
    /// recovery notification, a client resubmission, or permanent failure
    /// (wasted partial executions, detection timeouts, resubmit delays).
    Recovery,
    /// Completion → results at the client (step 6): the result transfer,
    /// direct or by-reference through the DHT.
    ResultReturn,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 6] = [
        Phase::Routing,
        Phase::Matchmaking,
        Phase::Dispatch,
        Phase::Execution,
        Phase::Recovery,
        Phase::ResultReturn,
    ];

    /// Stable label for tables and serialization.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Routing => "routing",
            Phase::Matchmaking => "matchmaking",
            Phase::Dispatch => "dispatch",
            Phase::Execution => "execution",
            Phase::Recovery => "recovery",
            Phase::ResultReturn => "result-return",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Routing => 0,
            Phase::Matchmaking => 1,
            Phase::Dispatch => 2,
            Phase::Execution => 3,
            Phase::Recovery => 4,
            Phase::ResultReturn => 5,
        }
    }
}

/// How a job's span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// Results reached the client.
    Completed,
    /// The job permanently failed.
    Failed,
    /// The trace ended with the job still in flight.
    Open,
}

/// One job's assembled lifecycle span with exact per-phase durations.
///
/// 80 bytes: the close instant is not stored but derived, as the submission
/// time plus the phase sum, which the assembly rule makes exact for a
/// closed span.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpan {
    job: JobId,
    submitted_at: SimTime,
    /// Per-phase durations in nanoseconds, indexed by [`Phase::index`].
    phase_ns: [u64; 6],
    resubmits: u32,
    recoveries: u32,
    outcome: SpanOutcome,
}

const _: () = assert!(std::mem::size_of::<JobSpan>() <= 80);

impl JobSpan {
    fn new(job: JobId, submitted_at: SimTime) -> Self {
        JobSpan {
            job,
            submitted_at,
            phase_ns: [0; 6],
            resubmits: 0,
            recoveries: 0,
            outcome: SpanOutcome::Open,
        }
    }

    fn add(&mut self, phase: Phase, d: SimDuration) {
        self.phase_ns[phase.index()] += d.as_nanos();
    }

    /// The job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// First submission time (the turnaround clock's zero).
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// When the span closed: results at the client for completed jobs, the
    /// failure instant for failed ones; `None` while open.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.turnaround()
            .map(|d| SimTime::from_nanos(self.submitted_at.as_nanos().saturating_add(d.as_nanos())))
    }

    /// Terminal state of the job at end of trace.
    pub fn outcome(&self) -> SpanOutcome {
        self.outcome
    }

    /// Client resubmissions observed.
    pub fn resubmits(&self) -> u32 {
        self.resubmits
    }

    /// Recovery notifications observed (run + owner).
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Duration spent in one phase.
    pub fn phase(&self, phase: Phase) -> SimDuration {
        SimDuration::from_nanos(self.phase_ns[phase.index()])
    }

    /// Sum of all phase durations: for a closed span, its turnaround.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.phase_ns.iter().sum())
    }

    /// Turnaround (`finished_at - submitted_at`), when closed. Every
    /// interval between two of the job's events is added to one phase and
    /// the close adds the result return, so in a time-ordered stream the
    /// phase sum is the turnaround exactly.
    pub fn turnaround(&self) -> Option<SimDuration> {
        (self.outcome != SpanOutcome::Open).then(|| self.total())
    }

    /// The pre-execution wait decomposition: everything before the job
    /// first ran (routing + matchmaking + dispatch + recovery) — the part
    /// of Figure 2's wait time that spans make inspectable.
    pub fn wait(&self) -> SimDuration {
        self.phase(Phase::Routing)
            + self.phase(Phase::Matchmaking)
            + self.phase(Phase::Dispatch)
            + self.phase(Phase::Recovery)
    }
}

/// Attribute the interval `[prev, next)` to a phase (see module docs).
fn segment_phase(prev: &TraceEvent, next: &TraceEvent) -> Phase {
    match next {
        // The later event reveals the interval was failure handling.
        TraceEvent::RunRecovery { .. }
        | TraceEvent::OwnerRecovery { .. }
        | TraceEvent::LeaseExpired { .. }
        | TraceEvent::LeaseTransferred { .. } => Phase::Recovery,
        TraceEvent::Submitted { resubmits, .. } if *resubmits > 0 => Phase::Recovery,
        TraceEvent::Failed { .. } => Phase::Recovery,
        // Otherwise the earlier event names the work in progress.
        _ => match prev {
            TraceEvent::Submitted { .. } => Phase::Routing,
            TraceEvent::OwnerAssigned { .. } => Phase::Matchmaking,
            TraceEvent::Matched { .. } => Phase::Dispatch,
            TraceEvent::Started { .. } => Phase::Execution,
            // After a recovery notification the owner re-runs matchmaking
            // (run recovery) or execution continues under a fresh owner
            // (owner recovery); either way the next productive segment is
            // already reattributed by its own closing event.
            TraceEvent::RunRecovery { .. } => Phase::Matchmaking,
            TraceEvent::OwnerRecovery { .. } => Phase::Execution,
            // An expired lease waits for its transfer; once transferred
            // the job either resumes executing (run node untouched) or the
            // next closing event reattributes the segment itself.
            TraceEvent::LeaseExpired { .. } => Phase::Recovery,
            TraceEvent::LeaseTransferred { .. } => Phase::Execution,
            _ => Phase::Recovery,
        },
    }
}

/// Fold `event` at `at` into `span`'s counters and, for a closing event,
/// its outcome and result return; `true` when the span closed.
fn accept(span: &mut JobSpan, at: SimTime, event: &TraceEvent) -> bool {
    match *event {
        TraceEvent::Submitted { resubmits, .. } => span.resubmits = span.resubmits.max(resubmits),
        TraceEvent::RunRecovery { .. }
        | TraceEvent::OwnerRecovery { .. }
        | TraceEvent::LeaseTransferred { .. } => span.recoveries += 1,
        TraceEvent::Completed { results_at, .. } => {
            span.add(Phase::ResultReturn, results_at.since(at));
            span.outcome = SpanOutcome::Completed;
            return true;
        }
        TraceEvent::Failed { .. } => {
            span.outcome = SpanOutcome::Failed;
            return true;
        }
        _ => {}
    }
    false
}

/// A span still open, with the job's latest event.
struct OpenSpan {
    at: SimTime,
    last: TraceEvent,
    span: JobSpan,
}

/// Folds a time-ordered event stream into per-job [`JobSpan`]s.
///
/// Usable directly as an [`Observer`] (install on the engine), or fed from
/// a parsed JSONL stream via [`SpanAssembler::observe`].
///
/// Open spans live in a slab whose freed slots are reused, found through an
/// `IdIndex`: memory is 4 bytes per dense job id plus one slot per job
/// open *at the same time*, and no event hashes or walks a tree.
#[derive(Default)]
pub struct SpanAssembler {
    /// Job id → its slot in `open`.
    index: IdIndex,
    /// `None` marks a free slot, listed in `free`.
    open: Vec<Option<OpenSpan>>,
    free: Vec<u32>,
    done: Vec<JobSpan>,
}

impl SpanAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one event (events must arrive in nondecreasing time order, as
    /// the engine emits them).
    pub fn observe(&mut self, at: SimTime, event: TraceEvent) {
        let Some(job) = event.job() else { return };
        let Some(slot) = self.index.get(job.0) else {
            // First sighting, or the first since the job's span closed: the
            // span's clock starts here.
            let mut span = JobSpan::new(job, at);
            if accept(&mut span, at, &event) {
                self.done.push(span);
            } else {
                self.open_span(OpenSpan {
                    at,
                    last: event,
                    span,
                });
            }
            return;
        };
        let entry = self.open[slot as usize]
            .as_mut()
            .expect("an indexed slot holds an open span");
        debug_assert!(at >= entry.at, "events out of order");
        entry
            .span
            .add(segment_phase(&entry.last, &event), at.since(entry.at));
        if accept(&mut entry.span, at, &event) {
            let closed = self.open[slot as usize].take().expect("checked above");
            self.index.remove(job.0);
            self.free.push(slot);
            self.done.push(closed.span);
        } else {
            entry.at = at;
            entry.last = event;
        }
    }

    fn open_span(&mut self, entry: OpenSpan) {
        let job = entry.span.job;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.open[slot as usize] = Some(entry);
                slot
            }
            None => {
                let slot = next_index(self.open.len());
                self.open.push(Some(entry));
                slot
            }
        };
        self.index.insert(job.0, slot);
    }

    /// Consume the assembler: every span, closed ones first in completion
    /// order, then still-open jobs by id.
    pub fn finish(self) -> Vec<JobSpan> {
        let mut spans = self.done;
        let closed = spans.len();
        spans.extend(self.open.into_iter().flatten().map(|e| e.span));
        spans[closed..].sort_unstable_by_key(|s| s.job);
        spans
    }
}

impl Observer for SpanAssembler {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.observe(at, event);
    }
}

/// Per-phase duration samples (seconds) across spans — the raw material
/// for the `dgrid report` percentile table — one phase at a time, in
/// [`Phase::ALL`] order: a phase's set is built only when the iterator
/// reaches it, so one set is alive at a time if the caller drops each
/// before taking the next.
pub fn phase_samples(spans: &[JobSpan]) -> impl ExactSizeIterator<Item = (Phase, SampleSet)> + '_ {
    Phase::ALL.into_iter().map(move |p| {
        let mut set = SampleSet::with_capacity(spans.len());
        for s in spans {
            set.push(s.phase(p).as_secs_f64());
        }
        (p, set)
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::job::OwnerRef;
    use crate::node::GridNodeId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn clean_run_decomposes_exactly() {
        let mut a = SpanAssembler::new();
        let job = JobId(7);
        a.observe(t(10), TraceEvent::Submitted { job, resubmits: 0 });
        a.observe(
            t(12),
            TraceEvent::OwnerAssigned {
                job,
                owner: OwnerRef::Peer(GridNodeId(1)),
            },
        );
        a.observe(
            t(15),
            TraceEvent::Matched {
                job,
                run_node: GridNodeId(2),
                hops: 3,
            },
        );
        a.observe(
            t(21),
            TraceEvent::Started {
                job,
                run_node: GridNodeId(2),
            },
        );
        a.observe(
            t(51),
            TraceEvent::Completed {
                job,
                results_at: t(52),
            },
        );
        let spans = a.finish();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.outcome, SpanOutcome::Completed);
        assert_eq!(s.phase(Phase::Routing), SimDuration::from_secs(2));
        assert_eq!(s.phase(Phase::Matchmaking), SimDuration::from_secs(3));
        assert_eq!(s.phase(Phase::Dispatch), SimDuration::from_secs(6));
        assert_eq!(s.phase(Phase::Execution), SimDuration::from_secs(30));
        assert_eq!(s.phase(Phase::ResultReturn), SimDuration::from_secs(1));
        assert_eq!(s.phase(Phase::Recovery), SimDuration::ZERO);
        assert_eq!(s.total(), SimDuration::from_secs(42));
        assert_eq!(s.turnaround(), Some(SimDuration::from_secs(42)));
        assert_eq!(s.wait(), SimDuration::from_secs(11));
    }

    #[test]
    fn recovery_segments_are_reattributed() {
        let mut a = SpanAssembler::new();
        let job = JobId(1);
        a.observe(t(0), TraceEvent::Submitted { job, resubmits: 0 });
        a.observe(
            t(1),
            TraceEvent::OwnerAssigned {
                job,
                owner: OwnerRef::Server,
            },
        );
        a.observe(
            t(2),
            TraceEvent::Matched {
                job,
                run_node: GridNodeId(0),
                hops: 1,
            },
        );
        a.observe(
            t(3),
            TraceEvent::Started {
                job,
                run_node: GridNodeId(0),
            },
        );
        // Node dies mid-run; owner detects at t=9 and rematches.
        a.observe(t(9), TraceEvent::RunRecovery { job });
        a.observe(
            t(9),
            TraceEvent::Matched {
                job,
                run_node: GridNodeId(1),
                hops: 2,
            },
        );
        a.observe(
            t(10),
            TraceEvent::Started {
                job,
                run_node: GridNodeId(1),
            },
        );
        a.observe(
            t(40),
            TraceEvent::Completed {
                job,
                results_at: t(40),
            },
        );
        let spans = a.finish();
        let s = &spans[0];
        // The wasted execution + detection window counts as recovery, not
        // execution; the rematch interval is zero-length here.
        assert_eq!(s.phase(Phase::Recovery), SimDuration::from_secs(6));
        assert_eq!(s.phase(Phase::Execution), SimDuration::from_secs(30));
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.total(), s.turnaround().unwrap());
    }

    #[test]
    fn resubmission_counts_and_reattributes() {
        let mut a = SpanAssembler::new();
        let job = JobId(2);
        a.observe(t(0), TraceEvent::Submitted { job, resubmits: 0 });
        a.observe(
            t(1),
            TraceEvent::OwnerAssigned {
                job,
                owner: OwnerRef::Server,
            },
        );
        // Dual failure: the client resubmits at t=31.
        a.observe(t(31), TraceEvent::Submitted { job, resubmits: 1 });
        a.observe(
            t(32),
            TraceEvent::OwnerAssigned {
                job,
                owner: OwnerRef::Server,
            },
        );
        a.observe(
            t(33),
            TraceEvent::Matched {
                job,
                run_node: GridNodeId(0),
                hops: 1,
            },
        );
        a.observe(
            t(34),
            TraceEvent::Started {
                job,
                run_node: GridNodeId(0),
            },
        );
        a.observe(
            t(64),
            TraceEvent::Completed {
                job,
                results_at: t(65),
            },
        );
        let spans = a.finish();
        let s = &spans[0];
        assert_eq!(s.resubmits, 1);
        assert_eq!(s.phase(Phase::Recovery), SimDuration::from_secs(30));
        assert_eq!(s.phase(Phase::Routing), SimDuration::from_secs(2));
        assert_eq!(s.total(), SimDuration::from_secs(65));
        assert_eq!(s.total(), s.turnaround().unwrap());
    }

    #[test]
    fn failed_and_open_jobs_close_consistently() {
        let mut a = SpanAssembler::new();
        a.observe(
            t(0),
            TraceEvent::Submitted {
                job: JobId(1),
                resubmits: 0,
            },
        );
        a.observe(t(5), TraceEvent::Failed { job: JobId(1) });
        a.observe(
            t(2),
            TraceEvent::Submitted {
                job: JobId(2),
                resubmits: 0,
            },
        );
        let spans = a.finish();
        assert_eq!(spans.len(), 2);
        let failed = spans.iter().find(|s| s.job == JobId(1)).unwrap();
        assert_eq!(failed.outcome, SpanOutcome::Failed);
        assert_eq!(failed.phase(Phase::Recovery), SimDuration::from_secs(5));
        assert_eq!(failed.total(), failed.turnaround().unwrap());
        let open = spans.iter().find(|s| s.job == JobId(2)).unwrap();
        assert_eq!(open.outcome, SpanOutcome::Open);
        assert_eq!(open.turnaround(), None);
        assert_eq!(open.total(), SimDuration::ZERO);
    }

    #[test]
    fn node_events_are_ignored() {
        let mut a = SpanAssembler::new();
        a.observe(
            t(0),
            TraceEvent::NodeDown {
                node: GridNodeId(0),
                graceful: true,
            },
        );
        a.observe(
            t(1),
            TraceEvent::NodeUp {
                node: GridNodeId(0),
            },
        );
        assert!(a.finish().is_empty());
    }

    /// An assembler over a `BTreeMap` of open spans: the same per-event
    /// rules as [`SpanAssembler`], the plainest store, and each closed
    /// span's end recorded from its closing event.
    #[derive(Default)]
    struct ReferenceAssembler {
        open: BTreeMap<JobId, (SimTime, TraceEvent, JobSpan)>,
        done: Vec<(JobSpan, Option<SimTime>)>,
    }

    impl ReferenceAssembler {
        fn observe(&mut self, at: SimTime, event: TraceEvent) {
            let Some(job) = event.job() else { return };
            let mut span = match self.open.remove(&job) {
                None => JobSpan::new(job, at),
                Some((prev_at, prev, mut span)) => {
                    span.add(segment_phase(&prev, &event), at.since(prev_at));
                    span
                }
            };
            if accept(&mut span, at, &event) {
                let end = match event {
                    TraceEvent::Completed { results_at, .. } => results_at,
                    _ => at,
                };
                self.done.push((span, Some(end)));
            } else {
                self.open.insert(job, (at, event, span));
            }
        }

        fn finish(self) -> Vec<(JobSpan, Option<SimTime>)> {
            let mut spans = self.done;
            spans.extend(self.open.into_values().map(|(_, _, s)| (s, None)));
            spans
        }
    }

    /// Every field of a span, with the end it closed at, for comparison.
    #[allow(clippy::type_complexity)]
    fn fields(
        s: &JobSpan,
        finished_at: Option<SimTime>,
    ) -> (
        JobId,
        SimTime,
        Option<SimTime>,
        SpanOutcome,
        u32,
        u32,
        [u64; 6],
    ) {
        (
            s.job,
            s.submitted_at,
            finished_at,
            s.outcome,
            s.resubmits,
            s.recoveries,
            s.phase_ns,
        )
    }

    /// Job ids both sides of the dense limit, at its edges and far past it.
    const JOB_IDS: [u64; 8] = [
        0,
        1,
        2,
        9,
        crate::job::DENSE_ID_LIMIT - 1,
        crate::job::DENSE_ID_LIMIT,
        crate::job::DENSE_ID_LIMIT + 3,
        u64::MAX,
    ];

    fn event(kind: u8, job: JobId, node: GridNodeId, at: SimTime, n: u32) -> TraceEvent {
        match kind {
            0 => TraceEvent::Submitted { job, resubmits: n },
            1 => TraceEvent::OwnerAssigned {
                job,
                owner: OwnerRef::Peer(node),
            },
            2 => TraceEvent::Matched {
                job,
                run_node: node,
                hops: n,
            },
            3 => TraceEvent::Started {
                job,
                run_node: node,
            },
            4 => TraceEvent::Completed {
                job,
                results_at: at + SimDuration::from_secs(u64::from(n)),
            },
            5 => TraceEvent::Failed { job },
            6 => TraceEvent::NodeDown {
                node,
                graceful: n.is_multiple_of(2),
            },
            7 => TraceEvent::NodeUp { node },
            8 => TraceEvent::RunRecovery { job },
            9 => TraceEvent::OwnerRecovery { job },
            10 => TraceEvent::LeaseExpired { job },
            _ => TraceEvent::LeaseTransferred { job, owner: node },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random time-ordered streams over a few job ids either side of
        /// the dense limit — jobs close and reopen, node events interleave,
        /// some jobs are still open at the end — the slab assembler's
        /// `finish()` equals the `BTreeMap` reference's, span for span, and
        /// each closed span's derived `finished_at()` is the instant its
        /// closing event named.
        #[test]
        fn slab_assembler_matches_a_btreemap_reference(
            steps in proptest::collection::vec(
                (0u8..12, 0usize..JOB_IDS.len(), 0u64..3, 0u32..4),
                0..300,
            ),
        ) {
            let (mut slab, mut reference) = (SpanAssembler::new(), ReferenceAssembler::default());
            let mut at = SimTime::ZERO;
            for (kind, pick, dt, n) in steps {
                at += SimDuration::from_secs(dt);
                let ev = event(kind, JobId(JOB_IDS[pick]), GridNodeId(n), at, n);
                slab.observe(at, ev);
                reference.observe(at, ev);
            }
            let got: Vec<_> = slab.finish().iter().map(|s| fields(s, s.finished_at())).collect();
            let want: Vec<_> = reference.finish().iter().map(|(s, end)| fields(s, *end)).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn phase_samples_cover_all_phases() {
        let mut a = SpanAssembler::new();
        let job = JobId(3);
        a.observe(t(0), TraceEvent::Submitted { job, resubmits: 0 });
        a.observe(
            t(1),
            TraceEvent::OwnerAssigned {
                job,
                owner: OwnerRef::Server,
            },
        );
        a.observe(
            t(2),
            TraceEvent::Matched {
                job,
                run_node: GridNodeId(0),
                hops: 0,
            },
        );
        a.observe(
            t(3),
            TraceEvent::Started {
                job,
                run_node: GridNodeId(0),
            },
        );
        a.observe(
            t(13),
            TraceEvent::Completed {
                job,
                results_at: t(13),
            },
        );
        let spans = a.finish();
        let samples = phase_samples(&spans);
        assert_eq!(samples.len(), Phase::ALL.len());
        let phases: Vec<_> = samples
            .map(|(p, set)| (p, set.samples().to_vec()))
            .collect();
        assert_eq!(
            phases,
            Phase::ALL.map(|p| {
                let secs = match p {
                    Phase::Execution => 10.0,
                    Phase::Recovery | Phase::ResultReturn => 0.0,
                    _ => 1.0,
                };
                (p, vec![secs])
            })
        );
    }
}
