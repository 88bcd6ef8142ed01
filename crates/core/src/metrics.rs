//! Simulation metrics and the final report.

use dgrid_sim::stats::{jains_fairness, OnlineStats, SampleSet, SampleSummary};
use dgrid_sim::telemetry::TimeSeries;
use serde::{Deserialize, Serialize};

/// Everything one simulation run reports — the raw material for every
/// figure and table in `EXPERIMENTS.md`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Matchmaker name ("rn-tree", "can", "can-push", "central").
    pub algorithm: String,
    /// Jobs submitted.
    pub jobs_total: u64,
    /// Jobs that completed and returned results.
    pub jobs_completed: u64,
    /// Jobs that permanently failed.
    pub jobs_failed: u64,
    /// Job wait times, seconds (submission → execution start): Figure 2's
    /// metric. Mean and standard deviation are the paper's reported values.
    /// Ascending once the run has finished.
    pub wait_time: SampleSet,
    /// Turnaround times, seconds (submission → results returned).
    /// Ascending once the run has finished.
    pub turnaround: SampleSet,
    /// Matchmaking cost in overlay hops per successful match.
    pub match_hops: SampleSet,
    /// Owner-assignment routing cost in overlay hops per submission.
    pub owner_hops: SampleSet,
    /// Result publish+resolve cost in overlay hops per completion (only
    /// populated when returning results by reference).
    pub result_hops: SampleSet,
    /// Matchmaking attempts that found no node (before retry).
    pub match_failures: u64,
    /// Run-node failures recovered by the owner (job rematched).
    pub run_recoveries: u64,
    /// Owner failures recovered by the run node (owner reassigned).
    pub owner_recoveries: u64,
    /// Dual failures that forced the client to resubmit.
    pub client_resubmits: u64,
    /// Jobs killed by the sandbox quota policy.
    pub sandbox_kills: u64,
    /// Modeled heartbeat messages: one per held job per heartbeat period
    /// ("the run node must generate heartbeat messages for every job in its
    /// job queue, including jobs that are not yet running", Section 2).
    pub heartbeat_messages: u64,
    /// Abrupt node failures injected.
    pub node_failures: u64,
    /// Graceful (announced) node departures.
    pub graceful_leaves: u64,
    /// Jobs failed because a dependency permanently failed (Section 5
    /// DAG extension).
    pub dependency_failures: u64,
    /// Application-level messages dropped by the injected fault plan, by
    /// loss or by partition, across every message class the engine sends
    /// (submissions, transfers, result returns, leave notifications).
    #[serde(default)]
    pub messages_lost: u64,
    /// Lookup/RPC retries forced by faults: overlay failover detours inside
    /// the DHTs plus engine-level retransmissions after RPC timeouts.
    #[serde(default)]
    pub lookup_retries: u64,
    /// Failure detections triggered by lost heartbeats while both partners
    /// were in fact alive — false positives that nonetheless drive the
    /// paper's recovery protocol for real.
    #[serde(default)]
    pub spurious_detections: u64,
    /// Executions that ran to completion under a superseded job epoch
    /// (at-least-once duplicates whose results were discarded).
    #[serde(default)]
    pub duplicate_executions: u64,
    /// Successful lease renewals recorded at registrars (lease mode only).
    #[serde(default)]
    pub lease_renewals: u64,
    /// Leases that ran out their `ttl + grace` without a renewal.
    #[serde(default)]
    pub lease_expiries: u64,
    /// Expired leases re-granted to a freshly placed owner.
    #[serde(default)]
    pub lease_transfers: u64,
    /// Engine events that referenced a job the engine no longer knows —
    /// an internal invariant breach surfaced as a counter (and a trace
    /// oracle violation) instead of a panic, so one corrupted record
    /// cannot abort a whole replication.
    #[serde(default)]
    pub unknown_job_events: u64,
    /// Bytes the installed stream observer wrote (0 when tracing is off or
    /// the observer is not a stream writer).
    #[serde(default)]
    pub stream_bytes_written: u64,
    /// Percentile summary (p50/p95/p99 and friends) of the wait times,
    /// computed once at the end of the run.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wait_stats: Option<SampleSummary>,
    /// Percentile summary of the turnaround times.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub turnaround_stats: Option<SampleSummary>,
    /// Virtual-time series of grid gauges (queue depth, free nodes,
    /// in-flight jobs, retries, nodes alive), present only when sampling
    /// was enabled on the engine.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub timeseries: Option<TimeSeries>,
    /// Per-client wait-time summaries (key = client id) — the raw material
    /// for the fairness question Section 5 leaves as future work.
    pub client_waits: std::collections::BTreeMap<u32, OnlineStats>,
    /// Jain's fairness index over per-tenant mean wait times, computed once
    /// at the end of the run (scenario tenants map 1:1 onto client ids).
    /// `None` on reports that predate the scenario subsystem.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tenant_fairness: Option<f64>,
    /// Per-node busy seconds (index = node id), for load-balance analysis.
    pub node_busy_secs: Vec<f64>,
    /// Per-node completed-job counts.
    pub node_jobs: Vec<u64>,
    /// Simulated time when the last job terminated.
    pub makespan_secs: f64,
}

impl SimReport {
    /// Jain's fairness index over per-node executed work — 1.0 is a perfect
    /// balance (the load-balancing claim for the improved CAN).
    pub fn load_fairness(&self) -> f64 {
        jains_fairness(&self.node_busy_secs)
    }

    /// Jain's fairness index over per-client *mean wait times*: how evenly
    /// the system treats competing submitters (Section 5's fairness
    /// question). 1.0 means every client saw the same average wait.
    pub fn client_fairness(&self) -> f64 {
        let means: Vec<f64> = self.client_waits.values().map(OnlineStats::mean).collect();
        jains_fairness(&means)
    }

    /// Per-tenant fairness: the finalized [`SimReport::tenant_fairness`]
    /// when present, else recomputed from the per-client wait summaries
    /// (tenants are clients — a scenario assigns tenant `i` client id `i`).
    pub fn tenant_fairness(&self) -> f64 {
        self.tenant_fairness
            .unwrap_or_else(|| self.client_fairness())
    }

    /// Fraction of submitted jobs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.jobs_total == 0 {
            return 1.0;
        }
        self.jobs_completed as f64 / self.jobs_total as f64
    }

    /// Mean job wait time in seconds (Figure 2a/2c).
    pub fn mean_wait(&self) -> f64 {
        self.wait_time.mean()
    }

    /// Standard deviation of job wait time in seconds (Figure 2b/2d).
    pub fn std_wait(&self) -> f64 {
        self.wait_time.std_dev()
    }

    /// Summarize hop statistics as `(mean, p99)`.
    pub fn hop_summary(&mut self) -> (f64, f64) {
        let mean = self.match_hops.mean();
        let p99 = self.match_hops.percentile(99.0).unwrap_or(0.0);
        (mean, p99)
    }

    /// Collapse wait times into an online summary (for merging across
    /// replications).
    pub fn wait_summary(&self) -> OnlineStats {
        self.wait_time.to_online()
    }

    /// Total application-level messages this run sent, per accounting
    /// category: overlay routing for owner assignment, matchmaking search,
    /// one transfer per placement, result return, and heartbeats. The price
    /// of removing the central server, measured (experiment `T-overhead`).
    pub fn total_messages(&self) -> f64 {
        let owner_routing: f64 = self.owner_hops.samples().iter().sum();
        let matchmaking: f64 = self.match_hops.samples().iter().sum();
        let transfers = self.match_hops.len() as f64; // owner -> run node
        let results: f64 = if self.result_hops.is_empty() {
            self.jobs_completed as f64 // direct return, one message each
        } else {
            self.result_hops.samples().iter().sum::<f64>() + self.jobs_completed as f64
        };
        owner_routing + matchmaking + transfers + results + self.heartbeat_messages as f64
    }

    /// [`SimReport::total_messages`] per completed job.
    pub fn messages_per_job(&self) -> f64 {
        if self.jobs_completed == 0 {
            return 0.0;
        }
        self.total_messages() / self.jobs_completed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_rate_and_fairness() {
        let mut r = SimReport {
            jobs_total: 10,
            jobs_completed: 9,
            jobs_failed: 1,
            node_busy_secs: vec![5.0, 5.0, 5.0, 5.0],
            ..Default::default()
        };
        assert!((r.completion_rate() - 0.9).abs() < 1e-12);
        assert!((r.load_fairness() - 1.0).abs() < 1e-12);
        r.node_busy_secs = vec![20.0, 0.0, 0.0, 0.0];
        assert!((r.load_fairness() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::default();
        assert_eq!(r.completion_rate(), 1.0);
        assert_eq!(r.mean_wait(), 0.0);
        assert_eq!(r.std_wait(), 0.0);
    }

    #[test]
    fn message_accounting() {
        let mut r = SimReport {
            jobs_total: 2,
            jobs_completed: 2,
            heartbeat_messages: 10,
            ..SimReport::default()
        };
        r.owner_hops.push(3.0);
        r.owner_hops.push(5.0);
        r.match_hops.push(4.0);
        r.match_hops.push(6.0);
        // owner 8 + matching 10 + transfers 2 + results 2 + heartbeats 10
        assert!((r.total_messages() - 32.0).abs() < 1e-9);
        assert!((r.messages_per_job() - 16.0).abs() < 1e-9);
        // By-reference results add the lookup hops on top of the transfers.
        r.result_hops.push(7.0);
        assert!((r.total_messages() - 39.0).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_default_when_absent() {
        // Reports serialized before the fault layer existed must still load.
        let r = SimReport::default();
        let mut v: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        let map = v.as_object_mut().unwrap();
        map.remove("messages_lost");
        map.remove("lookup_retries");
        map.remove("spurious_detections");
        map.remove("duplicate_executions");
        map.remove("lease_renewals");
        map.remove("lease_expiries");
        map.remove("lease_transfers");
        map.remove("unknown_job_events");
        let back: SimReport = serde_json::from_value(v).unwrap();
        assert_eq!(back.messages_lost, 0);
        assert_eq!(back.spurious_detections, 0);
        assert_eq!(back.lease_expiries, 0);
        assert_eq!(back.unknown_job_events, 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut r = SimReport {
            algorithm: "rn-tree".into(),
            ..SimReport::default()
        };
        r.wait_time.push(3.0);
        r.wait_time.push(5.0);
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, "rn-tree");
        assert!((back.wait_time.mean() - 4.0).abs() < 1e-12);
    }
}
