//! Streaming analytics over the live event stream.
//!
//! [`StreamAnalytics`] is an [`Observer`] that folds every lifecycle event
//! into fixed-footprint online state *while the run executes* — the
//! consumer side of the proto/live-query split: the wire format
//! ([`trace::binary`](crate::trace::binary)) carries events, this module
//! turns them into answers. It keeps
//!
//! * per-kind event totals and per-window counters
//!   ([`Windowed`](dgrid_sim::telemetry::sketch::Windowed)) for live rates,
//! * inflight / executing job gauges,
//! * wait and turnaround [`QuantileSketch`]es whose p50/p95/p99 match the
//!   post-hoc percentiles in `SimReport` up to one log₂ bucket (asserted by
//!   the stream e2e test).
//!
//! The same type powers `dgrid watch` (fed from a decoded stream, live or
//! recorded) and can sit directly on an engine as its observer. All state
//! is integer-deterministic; feeding the same event sequence always yields
//! the same snapshot.

use dgrid_sim::telemetry::sketch::{QuantileSketch, WindowRow, Windowed};
use dgrid_sim::{SimDuration, SimTime};

use crate::job::{next_index, IdIndex};
use crate::trace::{EventKind, EventRecord, Observer, TraceEvent};

/// Counters per window: one per [`EventKind`].
pub const WINDOW_COUNTER_ARITY: usize = EventKind::ALL.len();

#[derive(Default)]
struct JobTrack {
    /// First `Submitted` time, if the stream contained it (a tailed stream
    /// may start mid-lifecycle).
    first_submit_ns: Option<u64>,
    /// A `Started` was seen (wait is sampled only once per job).
    started: bool,
    /// Currently executing on a run node.
    executing: bool,
    /// Reached `Completed` or `Failed`.
    done: bool,
}

/// Point summary of one quantile sketch, for display.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchStats {
    /// Number of samples.
    pub count: u64,
    /// p50 point estimate (upper bucket edge, clamped to the exact
    /// maximum), nanoseconds.
    pub p50_ns: u64,
    /// p95 point estimate, nanoseconds.
    pub p95_ns: u64,
    /// p99 point estimate, nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
    /// Exact mean (the sum is tracked exactly), nanoseconds.
    pub mean_ns: f64,
}

fn stats_of(s: &QuantileSketch) -> Option<SketchStats> {
    // The sketch's point estimate is the bucket's upper edge; the exact
    // maximum is a tighter bound whenever the top sample shares the bucket.
    let max = s.max();
    Some(SketchStats {
        count: s.count(),
        p50_ns: s.quantile(0.5)?.min(max),
        p95_ns: s.quantile(0.95)?.min(max),
        p99_ns: s.quantile(0.99)?.min(max),
        max_ns: max,
        mean_ns: s.mean(),
    })
}

/// One refresh-worth of analytics state, ready to render.
#[derive(Clone, Debug)]
pub struct AnalyticsSnapshot {
    /// Total events folded in.
    pub events_total: u64,
    /// Cumulative count per [`EventKind::index`].
    pub per_kind: [u64; WINDOW_COUNTER_ARITY],
    /// Jobs seen but not yet completed/failed.
    pub inflight: u64,
    /// Jobs currently executing on a run node.
    pub executing: u64,
    /// Wait-time sketch summary (first submit → first start).
    pub wait: Option<SketchStats>,
    /// Turnaround sketch summary (first submit → results at client).
    pub turnaround: Option<SketchStats>,
    /// The window length, nanoseconds.
    pub window_ns: u64,
    /// Recently closed windows, oldest first.
    pub recent: Vec<WindowRow>,
    /// Start of the still-open window, nanoseconds.
    pub current_start_ns: u64,
    /// Per-kind counts of the still-open window.
    pub current: Vec<u64>,
    /// Virtual time of the newest event folded in, nanoseconds.
    pub last_t_ns: u64,
}

/// Online analytics over a lifecycle event stream (see module docs).
pub struct StreamAnalytics {
    window: Windowed,
    wait: QuantileSketch,
    turnaround: QuantileSketch,
    /// Job id → its track in `tracks`; tracks are never removed.
    jobs: IdIndex,
    tracks: Vec<JobTrack>,
    per_kind: [u64; WINDOW_COUNTER_ARITY],
    events_total: u64,
    inflight: u64,
    executing: u64,
    last_t_ns: u64,
}

impl StreamAnalytics {
    /// Analytics with per-kind counters over `window`-long windows, keeping
    /// the last `history` closed windows for rate display.
    pub fn new(window: SimDuration, history: usize) -> Self {
        StreamAnalytics {
            window: Windowed::new(window, WINDOW_COUNTER_ARITY, history),
            wait: QuantileSketch::new(),
            turnaround: QuantileSketch::new(),
            jobs: IdIndex::default(),
            tracks: Vec::new(),
            per_kind: [0; WINDOW_COUNTER_ARITY],
            events_total: 0,
            inflight: 0,
            executing: 0,
            last_t_ns: 0,
        }
    }

    /// The index in `tracks` of `job`'s track, created (and counted in
    /// flight) on first sight.
    fn track(&mut self, job: u64) -> usize {
        let idx = match self.jobs.get(job) {
            Some(idx) => idx,
            None => {
                let idx = next_index(self.tracks.len());
                self.jobs.insert(job, idx);
                self.tracks.push(JobTrack::default());
                self.inflight += 1;
                idx
            }
        };
        idx as usize
    }

    /// Fold one event in. Timestamps normally arrive in nondecreasing
    /// order; a backwards jump (a concatenated multi-replication stream) is
    /// clamped for windowing so rates stay monotone in virtual time.
    pub fn feed(&mut self, t_ns: u64, event: &TraceEvent) {
        let kind = event.kind();
        self.per_kind[kind.index()] += 1;
        self.events_total += 1;
        let t = t_ns.max(self.last_t_ns);
        self.last_t_ns = t;
        self.window
            .bump(SimTime::ZERO + SimDuration::from_nanos(t), kind.index());

        match *event {
            TraceEvent::Submitted { job, .. } => {
                let i = self.track(job.0);
                let tr = &mut self.tracks[i];
                if tr.done {
                    // A terminal job submitting again can only be the same
                    // id in a later run of a concatenated multi-replication
                    // stream — start a fresh lifecycle so the sketches
                    // sample every replication, not just the first.
                    *tr = JobTrack::default();
                    self.inflight += 1;
                }
                if tr.first_submit_ns.is_none() {
                    tr.first_submit_ns = Some(t_ns);
                }
            }
            TraceEvent::Started { job, .. } => {
                let i = self.track(job.0);
                let tr = &mut self.tracks[i];
                if !tr.done && !tr.executing {
                    tr.executing = true;
                    self.executing += 1;
                }
                if !tr.started {
                    tr.started = true;
                    if let Some(fs) = tr.first_submit_ns {
                        self.wait.record(t_ns.saturating_sub(fs));
                    }
                }
            }
            TraceEvent::RunRecovery { job } => {
                // The run node died; the job is back in matchmaking.
                let i = self.track(job.0);
                let tr = &mut self.tracks[i];
                if tr.executing {
                    tr.executing = false;
                    self.executing -= 1;
                }
            }
            TraceEvent::Completed { job, results_at } => {
                let i = self.track(job.0);
                let tr = &mut self.tracks[i];
                if !tr.done {
                    tr.done = true;
                    self.inflight -= 1;
                    if tr.executing {
                        tr.executing = false;
                        self.executing -= 1;
                    }
                    if let Some(fs) = tr.first_submit_ns {
                        self.turnaround
                            .record(results_at.as_nanos().saturating_sub(fs));
                    }
                }
            }
            TraceEvent::Failed { job } => {
                let i = self.track(job.0);
                let tr = &mut self.tracks[i];
                if !tr.done {
                    tr.done = true;
                    self.inflight -= 1;
                    if tr.executing {
                        tr.executing = false;
                        self.executing -= 1;
                    }
                }
            }
            // The remaining kinds only contribute to the counters above.
            TraceEvent::OwnerAssigned { .. }
            | TraceEvent::Matched { .. }
            | TraceEvent::NodeDown { .. }
            | TraceEvent::NodeUp { .. }
            | TraceEvent::OwnerRecovery { .. }
            | TraceEvent::LeaseExpired { .. }
            | TraceEvent::LeaseTransferred { .. } => {}
        }
    }

    /// Fold a decoded record in (the `dgrid watch` path).
    pub fn feed_record(&mut self, rec: &EventRecord) {
        self.feed(rec.t_ns, &rec.event);
    }

    /// The wait-time sketch (first submit → first start), for merging or
    /// direct quantile queries.
    pub fn wait_sketch(&self) -> &QuantileSketch {
        &self.wait
    }

    /// The turnaround sketch (first submit → results at client).
    pub fn turnaround_sketch(&self) -> &QuantileSketch {
        &self.turnaround
    }

    /// Snapshot the current state for rendering.
    pub fn snapshot(&self) -> AnalyticsSnapshot {
        let (current_start, current) = self.window.current();
        AnalyticsSnapshot {
            events_total: self.events_total,
            per_kind: self.per_kind,
            inflight: self.inflight,
            executing: self.executing,
            wait: stats_of(&self.wait),
            turnaround: stats_of(&self.turnaround),
            window_ns: self.window.window().as_nanos(),
            recent: self.window.rows().cloned().collect(),
            current_start_ns: current_start.as_nanos(),
            current: current.to_vec(),
            last_t_ns: self.last_t_ns,
        }
    }
}

impl Observer for StreamAnalytics {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.feed(at.as_nanos(), &event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::GridNodeId;
    use dgrid_resources::JobId;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn gauges_and_sketches_follow_the_lifecycle() {
        let mut a = StreamAnalytics::new(SimDuration::from_secs(10), 8);
        let job = JobId(1);
        a.feed(
            secs(1).as_nanos(),
            &TraceEvent::Submitted { job, resubmits: 0 },
        );
        assert_eq!(a.snapshot().inflight, 1);
        a.feed(
            secs(5).as_nanos(),
            &TraceEvent::Started {
                job,
                run_node: GridNodeId(2),
            },
        );
        let snap = a.snapshot();
        assert_eq!(snap.executing, 1);
        // Wait = 4 s, inside the [2^32, 2^33) ns bucket.
        let wait = snap.wait.unwrap();
        assert_eq!(wait.count, 1);
        assert_eq!(wait.max_ns, 4_000_000_000);
        a.feed(
            secs(9).as_nanos(),
            &TraceEvent::Completed {
                job,
                results_at: secs(9),
            },
        );
        let snap = a.snapshot();
        assert_eq!((snap.inflight, snap.executing), (0, 0));
        let ta = snap.turnaround.unwrap();
        assert_eq!(ta.max_ns, 8_000_000_000);
        assert_eq!(snap.events_total, 3);
        assert_eq!(snap.per_kind[EventKind::Completed.index()], 1);
    }

    #[test]
    fn run_recovery_releases_the_executing_gauge() {
        let mut a = StreamAnalytics::new(SimDuration::from_secs(10), 8);
        let job = JobId(3);
        a.feed(0, &TraceEvent::Submitted { job, resubmits: 0 });
        a.feed(
            1,
            &TraceEvent::Started {
                job,
                run_node: GridNodeId(1),
            },
        );
        a.feed(2, &TraceEvent::RunRecovery { job });
        assert_eq!(a.snapshot().executing, 0);
        // A second Started resumes execution but records no second wait.
        a.feed(
            3,
            &TraceEvent::Started {
                job,
                run_node: GridNodeId(4),
            },
        );
        let snap = a.snapshot();
        assert_eq!(snap.executing, 1);
        assert_eq!(snap.wait.unwrap().count, 1);
    }

    #[test]
    fn windows_count_per_kind() {
        let mut a = StreamAnalytics::new(SimDuration::from_secs(1), 4);
        for i in 0..5u64 {
            a.feed(
                SimTime::from_millis(100 * i).as_nanos(),
                &TraceEvent::Submitted {
                    job: JobId(i),
                    resubmits: 0,
                },
            );
        }
        a.feed(
            secs(2).as_nanos(),
            &TraceEvent::NodeDown {
                node: GridNodeId(0),
                graceful: false,
            },
        );
        let snap = a.snapshot();
        assert_eq!(snap.recent.len(), 2);
        assert_eq!(snap.recent[0].counts[EventKind::Submitted.index()], 5);
        assert_eq!(snap.current[EventKind::NodeDown.index()], 1);
    }

    #[test]
    fn concatenated_replications_sample_every_lifecycle() {
        // Job ids repeat across the runs of a concatenated stream; each
        // re-submission after a terminal state is a fresh lifecycle.
        let mut a = StreamAnalytics::new(SimDuration::from_secs(10), 8);
        let job = JobId(1);
        for run in 0..3u64 {
            a.feed(
                secs(run * 100).as_nanos(),
                &TraceEvent::Submitted { job, resubmits: 0 },
            );
            a.feed(
                secs(run * 100 + 4).as_nanos(),
                &TraceEvent::Started {
                    job,
                    run_node: GridNodeId(2),
                },
            );
            a.feed(
                secs(run * 100 + 9).as_nanos(),
                &TraceEvent::Completed {
                    job,
                    results_at: secs(run * 100 + 9),
                },
            );
        }
        let snap = a.snapshot();
        assert_eq!((snap.inflight, snap.executing), (0, 0));
        assert_eq!(snap.wait.unwrap().count, 3);
        assert_eq!(snap.turnaround.unwrap().count, 3);
    }

    #[test]
    fn mid_stream_tail_without_submit_records_no_wait() {
        let mut a = StreamAnalytics::new(SimDuration::from_secs(10), 4);
        a.feed(
            5,
            &TraceEvent::Started {
                job: JobId(9),
                run_node: GridNodeId(1),
            },
        );
        let snap = a.snapshot();
        assert_eq!(snap.inflight, 1);
        assert!(snap.wait.is_none());
    }
}
