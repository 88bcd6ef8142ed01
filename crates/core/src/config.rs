//! Engine configuration.

use dgrid_sim::net::LatencyModel;
use dgrid_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::security::SandboxPolicy;

/// Failure injection: exponential node lifetimes, optional repair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean time to failure per node, seconds. `None` disables failures.
    pub mttf_secs: Option<f64>,
    /// If set, a failed node rejoins this many seconds after failing
    /// (fresh overlay identity, empty queue — its in-flight work is lost).
    pub rejoin_after_secs: Option<f64>,
    /// Fraction of departures that are *graceful* (the volunteer reclaims
    /// the machine and the client announces its departure: overlay
    /// neighbours repair immediately and job owners are notified without
    /// waiting for heartbeat timeouts). The rest are abrupt crashes.
    pub graceful_fraction: f64,
}

impl ChurnConfig {
    /// No failures at all.
    pub fn none() -> Self {
        ChurnConfig::default()
    }
}

/// How a new owner is chosen when a job lease must be (re-)placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Rehash to the substrate owner of the job's GUID (the overlay's
    /// deterministic choice, however skewed it is).
    Hash,
    /// Probe the substrate owner *and* its failover peers and take the one
    /// with the shallowest queue (`NodeTable::load_of`), breaking ties by the
    /// overlay's own preference order.
    LoadAware,
}

impl PlacementPolicy {
    /// CLI/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Hash => "hash",
            PlacementPolicy::LoadAware => "load-aware",
        }
    }
}

impl std::str::FromStr for PlacementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hash" => Ok(PlacementPolicy::Hash),
            "load-aware" | "load_aware" => Ok(PlacementPolicy::LoadAware),
            other => Err(format!(
                "unknown placement policy '{other}' (expected hash|load-aware)"
            )),
        }
    }
}

/// All engine tunables. Defaults follow the paper's experimental setup
/// where stated, and conservative desktop-grid practice elsewhere.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Root seed; the whole simulation is a pure function of it.
    pub seed: u64,
    /// Overlay/direct message latency model.
    pub latency: LatencyModel,
    /// Heartbeat period between run node and owner (direct connection).
    pub heartbeat_secs: f64,
    /// Failures are declared after this many missed heartbeats.
    pub heartbeat_misses: u32,
    /// If owner *and* run node fail, the client notices after this long and
    /// resubmits (Section 2: "the client must resubmit the job").
    pub client_resubmit_secs: f64,
    /// Maximum client resubmissions before giving up on a job.
    pub max_resubmits: u32,
    /// Delay between matchmaking retries when no run node was found.
    pub match_retry_secs: f64,
    /// Matchmaking attempts per submission before the job fails.
    pub max_match_attempts: u32,
    /// Matchmaker maintenance period (stabilization, aggregate refresh,
    /// neighbor load exchange).
    pub maintenance_secs: f64,
    /// Hard simulation horizon; jobs still unfinished then are failed.
    pub max_sim_secs: f64,
    /// Sandbox quota policy every run node enforces.
    pub sandbox: SandboxPolicy,
    /// Return results by reference: the run node publishes the result in
    /// the DHT under a fresh GUID and the client resolves the pointer
    /// (Section 2's alternative to shipping the result directly). Adds two
    /// overlay lookups per completion, counted in `result_hops`.
    pub return_results_by_reference: bool,
    /// Scale job runtimes by node CPU speed relative to
    /// [`EngineConfig::reference_cpu_ghz`] (off by default: the paper's
    /// wait-time experiments use intrinsic runtimes).
    pub scale_runtime_by_cpu: bool,
    /// Reference CPU for runtime scaling.
    pub reference_cpu_ghz: f64,
    /// How long a matchmaking/transfer RPC waits for an acknowledgement
    /// before retrying. Only reachable when a fault plan injects losses —
    /// on a reliable network no RPC is ever retried.
    pub rpc_timeout_secs: f64,
    /// Base of the capped exponential backoff between RPC retries: retry
    /// `n` waits `min(backoff_cap_secs, backoff_base_secs * 2^n)` (plus
    /// jitter) on top of the timeout.
    pub backoff_base_secs: f64,
    /// Cap on the exponential backoff term.
    pub backoff_cap_secs: f64,
    /// Uniform jitter fraction applied to backoff delays, in `[0, 1]`:
    /// each delay is scaled by a factor in `[1 - j, 1 + j]` so synchronized
    /// losers do not retry in lockstep.
    pub backoff_jitter: f64,
    /// Consecutive lost-RPC retries before the sender gives up and falls
    /// back to the end-to-end safety net (client resubmission).
    pub max_rpc_retries: u32,
    /// Lease time-to-live in seconds: an owner that has not renewed its
    /// lease on a job for this long (plus [`EngineConfig::lease_grace_secs`])
    /// loses it, and the lease transfers to a freshly placed owner. `None`
    /// — or a non-finite TTL — disables the lease subsystem entirely and
    /// the engine falls back to reactive reassign-on-death recovery,
    /// bit-for-bit identical to the pre-lease engine.
    #[serde(default)]
    pub lease_ttl_secs: Option<f64>,
    /// How often the owner renews its lease at the registrar (must be
    /// shorter than the TTL or every lease would expire spuriously).
    /// Deserializes to `0.0` when absent, which `validate` only rejects
    /// when leases are actually enabled.
    #[serde(default)]
    pub lease_renew_secs: f64,
    /// Slack added on top of the TTL before an unrenewed lease is declared
    /// expired (absorbs renewal-message latency; zero is legal).
    #[serde(default)]
    pub lease_grace_secs: f64,
    /// Owner placement policy used when granting or transferring leases.
    /// Required whenever leases are enabled; irrelevant (and ignored)
    /// otherwise.
    #[serde(default)]
    pub placement: Option<PlacementPolicy>,
    /// Fault-injection backdoor for the model checker's self-test: when
    /// set, completions arriving under a superseded epoch are committed
    /// instead of discarded, deliberately breaking the at-most-once result
    /// guarantee so `dgrid check` can prove its oracles catch the bug.
    /// Never set this outside `dgrid-check`.
    #[doc(hidden)]
    #[serde(default)]
    pub check_disable_epoch_dedup: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            latency: LatencyModel::default(),
            heartbeat_secs: 10.0,
            heartbeat_misses: 3,
            client_resubmit_secs: 300.0,
            max_resubmits: 5,
            match_retry_secs: 30.0,
            max_match_attempts: 8,
            maintenance_secs: 30.0,
            max_sim_secs: 7.0 * 24.0 * 3600.0,
            sandbox: SandboxPolicy::default(),
            return_results_by_reference: false,
            scale_runtime_by_cpu: false,
            reference_cpu_ghz: 2.0,
            rpc_timeout_secs: 15.0,
            backoff_base_secs: 5.0,
            backoff_cap_secs: 120.0,
            backoff_jitter: 0.25,
            max_rpc_retries: 6,
            lease_ttl_secs: None,
            lease_renew_secs: 30.0,
            lease_grace_secs: 30.0,
            placement: None,
            check_disable_epoch_dedup: false,
        }
    }
}

impl EngineConfig {
    /// How long until a partner's failure is detected: the heartbeat period
    /// times the miss threshold.
    pub fn detection_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.heartbeat_secs * f64::from(self.heartbeat_misses))
    }

    /// The client resubmission timeout as a duration.
    pub fn client_resubmit_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.client_resubmit_secs)
    }

    /// Whether the lease subsystem is active. An absent *or infinite* TTL
    /// disables it — `ttl = ∞` is the documented spelling for "a lease that
    /// never expires", which degenerates to reassign-on-death.
    pub fn leases_enabled(&self) -> bool {
        matches!(self.lease_ttl_secs, Some(ttl) if ttl.is_finite())
    }

    /// The orphan bound the no-orphan liveness oracle enforces: an expired
    /// lease is re-placed within `ttl + grace` of the owner's death, as
    /// long as any live candidate node exists.
    pub fn lease_expiry_bound_secs(&self) -> Option<f64> {
        self.leases_enabled()
            .then(|| self.lease_ttl_secs.unwrap_or(f64::INFINITY) + self.lease_grace_secs)
    }

    /// Validate invariants; call before running. Panics on nonsense values.
    pub fn validate(&self) {
        self.latency.validate();
        assert!(
            self.heartbeat_secs > 0.0,
            "heartbeat period must be positive"
        );
        assert!(self.heartbeat_misses >= 1);
        assert!(self.match_retry_secs > 0.0);
        assert!(self.max_match_attempts >= 1);
        assert!(self.maintenance_secs > 0.0);
        assert!(self.max_sim_secs > 0.0);
        assert!(
            self.client_resubmit_secs > self.detection_delay().as_secs_f64(),
            "clients must wait longer than failure detection, else they race recovery"
        );
        assert!(self.reference_cpu_ghz > 0.0);
        assert!(self.rpc_timeout_secs > 0.0, "RPC timeout must be positive");
        assert!(
            self.backoff_base_secs > 0.0,
            "backoff bounds must be positive"
        );
        assert!(
            self.backoff_cap_secs >= self.backoff_base_secs,
            "backoff cap must be at least the base"
        );
        assert!(
            (0.0..=1.0).contains(&self.backoff_jitter),
            "backoff jitter out of range"
        );
        assert!(self.max_rpc_retries >= 1);
        if self.leases_enabled() {
            let ttl = self.lease_ttl_secs.unwrap_or(f64::INFINITY);
            assert!(ttl > 0.0, "lease ttl must be positive");
            assert!(
                self.lease_renew_secs > 0.0,
                "lease renew interval must be positive"
            );
            assert!(
                ttl > self.lease_renew_secs,
                "lease ttl must exceed the renew interval, else every lease expires \
                 before its owner ever renews"
            );
            assert!(
                self.lease_grace_secs >= 0.0 && self.lease_grace_secs.is_finite(),
                "lease grace must be finite and nonnegative"
            );
            assert!(
                self.placement.is_some(),
                "leases require an explicit placement policy (hash|load-aware)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        EngineConfig::default().validate();
    }

    #[test]
    fn detection_delay_is_period_times_misses() {
        let cfg = EngineConfig {
            heartbeat_secs: 5.0,
            heartbeat_misses: 4,
            ..Default::default()
        };
        assert_eq!(cfg.detection_delay(), SimDuration::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "clients must wait longer")]
    fn client_timeout_must_exceed_detection() {
        EngineConfig {
            heartbeat_secs: 100.0,
            heartbeat_misses: 5,
            client_resubmit_secs: 300.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "backoff bounds must be positive")]
    fn negative_backoff_base_is_rejected() {
        EngineConfig {
            backoff_base_secs: -1.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "backoff cap must be at least the base")]
    fn backoff_cap_below_base_is_rejected() {
        EngineConfig {
            backoff_base_secs: 60.0,
            backoff_cap_secs: 10.0,
            ..Default::default()
        }
        .validate();
    }

    fn leased(ttl: f64, renew: f64, grace: f64) -> EngineConfig {
        EngineConfig {
            lease_ttl_secs: Some(ttl),
            lease_renew_secs: renew,
            lease_grace_secs: grace,
            placement: Some(PlacementPolicy::Hash),
            ..Default::default()
        }
    }

    #[test]
    fn lease_configs_validate() {
        leased(120.0, 30.0, 30.0).validate();
        // Zero grace is legal: expiry fires exactly at the TTL boundary.
        leased(120.0, 30.0, 0.0).validate();
        // An infinite TTL disables the subsystem, so the other knobs are
        // never inspected.
        let cfg = EngineConfig {
            lease_ttl_secs: Some(f64::INFINITY),
            lease_renew_secs: -1.0,
            placement: None,
            ..Default::default()
        };
        assert!(!cfg.leases_enabled());
        cfg.validate();
        assert!(leased(120.0, 30.0, 30.0).leases_enabled());
        assert_eq!(
            leased(120.0, 30.0, 15.0).lease_expiry_bound_secs(),
            Some(135.0)
        );
        assert_eq!(EngineConfig::default().lease_expiry_bound_secs(), None);
    }

    #[test]
    #[should_panic(expected = "ttl must exceed the renew interval")]
    fn lease_ttl_not_beyond_renew_is_rejected() {
        leased(30.0, 30.0, 10.0).validate();
    }

    #[test]
    #[should_panic(expected = "grace must be finite and nonnegative")]
    fn negative_lease_grace_is_rejected() {
        leased(120.0, 30.0, -1.0).validate();
    }

    #[test]
    #[should_panic(expected = "explicit placement policy")]
    fn leases_without_placement_are_rejected() {
        EngineConfig {
            lease_ttl_secs: Some(120.0),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn placement_policy_parses_and_labels() {
        assert_eq!("hash".parse(), Ok(PlacementPolicy::Hash));
        assert_eq!("load-aware".parse(), Ok(PlacementPolicy::LoadAware));
        assert!("nearest".parse::<PlacementPolicy>().is_err());
        assert_eq!(PlacementPolicy::LoadAware.label(), "load-aware");
    }

    #[test]
    #[should_panic(expected = "jitter out of range")]
    fn latency_jitter_is_validated_at_config_time() {
        let mut cfg = EngineConfig::default();
        cfg.latency.jitter = 2.0;
        cfg.validate();
    }
}
