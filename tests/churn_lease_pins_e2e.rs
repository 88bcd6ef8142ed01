//! Pins for the paths that membership churn and leases drive: the RN-Tree
//! index kept up with joins and departures on every substrate, and the
//! lease-expiry clock, on both kernels and cut short by the horizon.
//!
//! The rows checked here (`leased_horizon`, `churned`, `sharded/leased_churn`
//! and `sharded/short_lease` in `common/golden.rs`) were recorded on the
//! commit before the RN-Tree index was refreshed in place and a leased job
//! kept one pending expiry event; both changes claim to move host time
//! only, so none of these bytes may move.

mod common;

use common::golden::{self, last_lines, t_ns};

/// A run cut by `max_sim_secs` ends at the last event it processed before
/// the horizon, and the horizon sweep fails every open job at that instant.
/// Lease-expiry events that find their lease renewed do nothing, but they
/// are events: the makespan and the sweep's timestamps count them. The
/// horizons cut the runs while leases still renew: jobs are still arriving
/// at the first and still queued at the last.
#[test]
fn leased_runs_cut_by_the_horizon_keep_their_makespan_and_stream() {
    for (row, run) in golden::check(&["leased_horizon"]) {
        let horizon: f64 = row.name["leased_horizon/".len()..].parse().unwrap();
        let report = &run.report;
        assert!(
            report.jobs_failed > 0,
            "the horizon at {horizon} s cuts jobs"
        );
        assert!(report.lease_renewals > 0, "leases renew before {horizon} s");
        assert!(report.makespan_secs <= horizon);
        let swept = last_lines(&run.bytes, report.jobs_failed as usize);
        for line in &swept {
            assert!(line.contains("\"Failed\""), "{line}: not a horizon failure");
            assert_eq!(t_ns(line), t_ns(swept[0]), "one sweep instant");
        }
    }
}

/// Pastry's and Tapestry's ownership put no order between a node's rank
/// and its parent's, so their trees are folded in depth-first order; every
/// index rebuild through this churn must match the one before it.
#[test]
fn churned_pastry_and_tapestry_streams_match_their_pins() {
    for (row, run) in golden::check(&["churned"]) {
        let departures = run.report.node_failures + run.report.graceful_leaves;
        assert!(departures >= 100, "{}: {departures} departures", row.id());
    }
}

/// The sharded kernel runs the lease handlers at its barrier, the same
/// ones the sequential kernel runs; its windows open at the next pending
/// event, lease expiries included.
#[test]
fn a_leased_run_on_the_sharded_kernel_matches_its_pin_at_one_and_two_threads() {
    for (_, run) in golden::check_at(&["sharded/leased_churn"], &[2]) {
        assert!(run.report.lease_renewals > 0 && run.report.lease_expiries > 0);
    }
}

#[test]
fn a_lease_shorter_than_a_window_on_the_sharded_kernel_matches_its_pin() {
    for (_, run) in golden::check_at(&["sharded/short_lease"], &[2]) {
        assert!(run.report.lease_renewals > 0 && run.report.lease_expiries > 0);
    }
}
