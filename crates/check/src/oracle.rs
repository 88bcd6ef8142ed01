//! Trace oracles: invariants checked against the engine's observer stream.
//!
//! Each oracle watches the [`TraceEvent`] stream of one simulation and, when
//! the run ends, reports every invariant violation it saw. Oracles are
//! deliberately *independent* of the engine's own bookkeeping: the overlay
//! oracles maintain their own mirror CAN / Chord / Pastry / Tapestry /
//! RN-Tree instances driven
//! purely by the membership events in the trace, so a bug that corrupts the
//! engine's internal state still has to fool a second, separately-written
//! implementation to escape detection.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use dgrid_can::{CanConfig, CanNetwork, CanNodeId};
use dgrid_chord::{ChordConfig, ChordRing};
use dgrid_core::router::{KeyRouter, PastryNetwork, TapestryNetwork};
use dgrid_core::{OwnerRef, SimReport, SpanAssembler, SpanOutcome, TraceEvent};
use dgrid_resources::{Capabilities, JobId, OsType};
use dgrid_rntree::RnTreeIndex;
use dgrid_sim::rng::splitmix64;
use dgrid_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Cap on recorded violations per oracle: once an overlay invariant breaks,
/// every subsequent membership event tends to re-report it, and an unbounded
/// list would bloat repro artifacts without adding information.
const MAX_VIOLATIONS_PER_ORACLE: usize = 4;

/// One invariant violation, attributed to the oracle that found it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Name of the oracle that fired (see [`TraceOracle::name`]).
    pub oracle: String,
    /// Human-readable description of what broke.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// An invariant checked against one simulation's trace.
///
/// The checker feeds every `(time, event)` pair to [`on_event`] in emission
/// order, then calls [`finish`] exactly once with the engine's final report.
///
/// [`on_event`]: TraceOracle::on_event
/// [`finish`]: TraceOracle::finish
pub trait TraceOracle {
    /// Stable oracle name used in violation reports.
    fn name(&self) -> &'static str;
    /// Observe one trace event.
    fn on_event(&mut self, at: SimTime, event: &TraceEvent);
    /// End of trace: return every violation found.
    fn finish(&mut self, report: &SimReport) -> Vec<Violation>;
}

fn violation(oracle: &'static str, detail: String) -> Violation {
    Violation {
        oracle: oracle.to_string(),
        detail,
    }
}

/// SplitMix64 step — the checker's private id/point generator, so mirror
/// overlay identities are a pure function of `(scenario seed, join order)`
/// and never collide with anything the engine derives from the same seed.
fn splitmix_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// Uniform f64 in `[0, 1)` from one SplitMix64 output.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix_next(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The bookkeeping the overlay oracles share: the id each live grid node
/// holds in the oracle's own overlay, and the [`splitmix_next`] state new
/// ids are drawn from. It follows the trace's `NodeDown` and `NodeUp` events.
struct Mirror<I> {
    ids: BTreeMap<u32, I>,
    state: u64,
}

/// A membership change a trace event made to a mirrored grid: a join, or
/// the departure of the peer holding an id (gracefully if the flag is set),
/// which the oracle takes out of its overlay.
enum Change<I> {
    Joined,
    Departed(I, bool),
}

impl<I> Mirror<I> {
    /// Grid nodes `0..nodes` joined in order under the ids `join` draws.
    fn new(nodes: usize, seed: u64, mut join: impl FnMut(&mut u64) -> I) -> Self {
        let mut state = seed;
        let ids = (0..nodes as u32)
            .map(|node| (node, join(&mut state)))
            .collect();
        Mirror { ids, state }
    }

    /// Follow `event`, joining a grid node not mirrored that comes up under
    /// the id `join` draws. The membership change it made, if any.
    fn apply(&mut self, event: &TraceEvent, join: impl FnOnce(&mut u64) -> I) -> Option<Change<I>> {
        match *event {
            TraceEvent::NodeDown { node, graceful } => self
                .ids
                .remove(&node.0)
                .map(|id| Change::Departed(id, graceful)),
            TraceEvent::NodeUp { node } if !self.ids.contains_key(&node.0) => {
                let id = join(&mut self.state);
                self.ids.insert(node.0, id);
                Some(Change::Joined)
            }
            _ => None,
        }
    }
}

/// Join a key-based substrate under the first drawn key no live peer holds.
fn join_key(net: &mut impl KeyRouter, state: &mut u64) -> u64 {
    let id = loop {
        let id = splitmix_next(state);
        if !net.is_alive(id) {
            break id;
        }
    };
    net.join(id);
    id
}

// ---------------------------------------------------------------------------
// Job conservation
// ---------------------------------------------------------------------------

/// Every submitted job reaches a terminal state, no terminal event refers to
/// an unsubmitted job, and the final report's job counts agree with the
/// trace. Catches lost jobs (engine exits with work outstanding), phantom
/// completions, and report/trace drift.
pub struct JobConservation {
    expected_jobs: usize,
    submitted: BTreeSet<JobId>,
    completed: BTreeMap<JobId, u32>,
    failed: BTreeMap<JobId, u32>,
}

impl JobConservation {
    /// `expected_jobs` is the submission count the scenario generated.
    pub fn new(expected_jobs: usize) -> Self {
        JobConservation {
            expected_jobs,
            submitted: BTreeSet::new(),
            completed: BTreeMap::new(),
            failed: BTreeMap::new(),
        }
    }
}

impl TraceOracle for JobConservation {
    fn name(&self) -> &'static str {
        "job-conservation"
    }

    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        match event {
            TraceEvent::Submitted { job, .. } => {
                self.submitted.insert(*job);
            }
            TraceEvent::Completed { job, .. } => {
                *self.completed.entry(*job).or_insert(0) += 1;
            }
            TraceEvent::Failed { job } => {
                *self.failed.entry(*job).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn finish(&mut self, report: &SimReport) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.submitted.len() != self.expected_jobs {
            out.push(violation(
                self.name(),
                format!(
                    "{} distinct jobs were submitted but the scenario generated {}",
                    self.submitted.len(),
                    self.expected_jobs
                ),
            ));
        }
        let mut unterminated = 0usize;
        let mut sample = None;
        for job in &self.submitted {
            if !self.completed.contains_key(job) && !self.failed.contains_key(job) {
                unterminated += 1;
                sample.get_or_insert(*job);
            }
        }
        if unterminated > 0 {
            out.push(violation(
                self.name(),
                format!(
                    "{unterminated} submitted job(s) never reached a terminal state (e.g. {:?})",
                    sample.unwrap()
                ),
            ));
        }
        for job in self.completed.keys().chain(self.failed.keys()) {
            if !self.submitted.contains(job) {
                out.push(violation(
                    self.name(),
                    format!("terminal event for {job:?}, which was never submitted"),
                ));
                break;
            }
        }
        if report.jobs_total != self.submitted.len() as u64 {
            out.push(violation(
                self.name(),
                format!(
                    "report.jobs_total = {} but the trace saw {} distinct submissions",
                    report.jobs_total,
                    self.submitted.len()
                ),
            ));
        }
        if report.jobs_completed + report.jobs_failed != report.jobs_total {
            out.push(violation(
                self.name(),
                format!(
                    "report counts don't conserve: {} completed + {} failed != {} total",
                    report.jobs_completed, report.jobs_failed, report.jobs_total
                ),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// At-most-once result commit
// ---------------------------------------------------------------------------

/// Under the epoch protocol a job's result is committed at most once: a job
/// emits at most one `Completed`, never both `Completed` and `Failed`, and
/// the report's commit counter matches the number of distinct completed
/// jobs. This is the oracle the epoch-dedup fault-injection self-test must
/// trip.
#[derive(Default)]
pub struct AtMostOnceCommit {
    completed: BTreeMap<JobId, u32>,
    failed: BTreeMap<JobId, u32>,
}

impl AtMostOnceCommit {
    /// Fresh oracle.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceOracle for AtMostOnceCommit {
    fn name(&self) -> &'static str {
        "at-most-once-commit"
    }

    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        match event {
            TraceEvent::Completed { job, .. } => {
                *self.completed.entry(*job).or_insert(0) += 1;
            }
            TraceEvent::Failed { job } => {
                *self.failed.entry(*job).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn finish(&mut self, report: &SimReport) -> Vec<Violation> {
        let mut out = Vec::new();
        for (job, n) in &self.completed {
            if *n > 1 && out.len() < MAX_VIOLATIONS_PER_ORACLE {
                out.push(violation(
                    self.name(),
                    format!("{job:?} committed results {n} times"),
                ));
            }
            if self.failed.contains_key(job) && out.len() < MAX_VIOLATIONS_PER_ORACLE {
                out.push(violation(
                    self.name(),
                    format!("{job:?} both completed and permanently failed"),
                ));
            }
        }
        for (job, n) in &self.failed {
            if *n > 1 && out.len() < MAX_VIOLATIONS_PER_ORACLE {
                out.push(violation(
                    self.name(),
                    format!("{job:?} permanently failed {n} times"),
                ));
            }
        }
        if report.jobs_completed != self.completed.len() as u64 {
            out.push(violation(
                self.name(),
                format!(
                    "report.jobs_completed = {} but {} distinct jobs completed in the trace",
                    report.jobs_completed,
                    self.completed.len()
                ),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Span-sum conservation
// ---------------------------------------------------------------------------

/// Re-assembles per-job phase spans from the trace (reusing
/// [`SpanAssembler`]) and checks that every closed span's phase durations
/// sum exactly to its turnaround — from its submission to the instant its
/// closing event names — and that no span is left open at end of run — the
/// engine's horizon failsafe guarantees every job closes.
pub struct SpanConservation {
    assembler: Option<SpanAssembler>,
    /// The instant each closing event names, in stream order: results at
    /// the client for `Completed`, the event's own time for `Failed`.
    ends: Vec<SimTime>,
}

impl SpanConservation {
    /// Fresh oracle.
    pub fn new() -> Self {
        SpanConservation {
            assembler: Some(SpanAssembler::new()),
            ends: Vec::new(),
        }
    }
}

impl Default for SpanConservation {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceOracle for SpanConservation {
    fn name(&self) -> &'static str {
        "span-conservation"
    }

    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        if let Some(a) = self.assembler.as_mut() {
            a.observe(at, *event);
        }
        match *event {
            TraceEvent::Completed { results_at, .. } => self.ends.push(results_at),
            TraceEvent::Failed { .. } => self.ends.push(at),
            _ => {}
        }
    }

    fn finish(&mut self, report: &SimReport) -> Vec<Violation> {
        let mut out = Vec::new();
        let spans = self.assembler.take().expect("finish called once").finish();
        // Each closing event closes one span, and the closed spans come
        // first, in the order their closing events came.
        for (span, &end) in spans.iter().zip(&self.ends) {
            if span.finished_at() != Some(end) && out.len() < MAX_VIOLATIONS_PER_ORACLE {
                out.push(violation(
                    self.name(),
                    format!(
                        "span for {:?}: phase sum {:?} != turnaround {:?}",
                        span.job(),
                        span.total(),
                        end.since(span.submitted_at())
                    ),
                ));
            }
        }
        let open = spans
            .iter()
            .filter(|s| s.outcome() == SpanOutcome::Open)
            .count();
        if open > 0 {
            out.push(violation(
                self.name(),
                format!("{open} span(s) still open at end of run"),
            ));
        }
        if spans.len() as u64 != report.jobs_total {
            out.push(violation(
                self.name(),
                format!(
                    "assembled {} spans but report.jobs_total = {}",
                    spans.len(),
                    report.jobs_total
                ),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// CAN zone partition / neighbor symmetry
// ---------------------------------------------------------------------------

/// Mirrors grid membership into an independent [`CanNetwork`] and checks,
/// after every membership change, that the zones still exactly partition the
/// space and the neighbor relation is symmetric.
pub struct CanZoneOracle {
    net: CanNetwork,
    mirror: Mirror<CanNodeId>,
    violations: Vec<Violation>,
}

/// Join a CAN peer at a drawn point of the unit cube.
fn join_can(net: &mut CanNetwork, state: &mut u64) -> CanNodeId {
    net.join(&[unit_f64(state), unit_f64(state), unit_f64(state)])
}

impl CanZoneOracle {
    /// Mirror a grid that starts with `nodes` live nodes.
    pub fn new(nodes: usize, seed: u64) -> Self {
        let mut net = CanNetwork::new(CanConfig {
            dims: 3,
            ..CanConfig::default()
        });
        let mirror = Mirror::new(nodes, seed ^ 0xCA17_0000_0000_0001, |state| {
            join_can(&mut net, state)
        });
        let mut oracle = CanZoneOracle {
            net,
            mirror,
            violations: Vec::new(),
        };
        oracle.check();
        oracle
    }

    fn check(&mut self) {
        if self.violations.len() >= MAX_VIOLATIONS_PER_ORACLE {
            return;
        }
        if let Some(v) = self.net.partition_violation() {
            self.violations.push(violation("can-zones", v));
        }
        if let Some(v) = self.net.neighbor_symmetry_violation() {
            self.violations.push(violation("can-zones", v));
        }
    }
}

impl TraceOracle for CanZoneOracle {
    fn name(&self) -> &'static str {
        "can-zones"
    }

    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        let join = |state: &mut u64| join_can(&mut self.net, state);
        match self.mirror.apply(event, join) {
            Some(Change::Joined) => {}
            Some(Change::Departed(id, true)) => self.net.leave(id),
            Some(Change::Departed(id, false)) => self.net.fail(id),
            None => return,
        }
        self.check();
    }

    fn finish(&mut self, _report: &SimReport) -> Vec<Violation> {
        self.check();
        std::mem::take(&mut self.violations)
    }
}

// ---------------------------------------------------------------------------
// Overlay routing-table consistency (Chord / Pastry / Tapestry)
// ---------------------------------------------------------------------------

/// Mirrors grid membership into an independent overlay substrate. After
/// every membership change the overlay is stabilized (churn has quiesced
/// from the overlay's point of view) and the substrate's own
/// [`table_violation`](KeyRouter::table_violation) debug check must pass:
/// for Chord that means every peer's successor/predecessor view agrees with
/// the true ring order; for Pastry and Tapestry, that leaf sets / neighbor
/// maps are sound.
pub struct SubstrateTableOracle<R: KeyRouter> {
    net: R,
    mirror: Mirror<u64>,
    violations: Vec<Violation>,
}

/// Mirrors membership into a Chord ring (the historical name of the
/// substrate-generic oracle).
pub type ChordRingOracle = SubstrateTableOracle<ChordRing>;

impl<R: KeyRouter> SubstrateTableOracle<R> {
    /// Mirror a grid that starts with `nodes` live nodes.
    pub fn new(nodes: usize, seed: u64) -> Self {
        let mut net = R::default();
        let mirror = Mirror::new(nodes, seed ^ 0xC40D_0000_0000_0002, |state| {
            join_key(&mut net, state)
        });
        let mut oracle = SubstrateTableOracle {
            net,
            mirror,
            violations: Vec::new(),
        };
        oracle.stabilize_and_check();
        oracle
    }

    fn oracle_name() -> &'static str {
        match R::SUBSTRATE {
            "pastry" => "pastry-table",
            "tapestry" => "tapestry-table",
            _ => "chord-ring",
        }
    }

    fn stabilize_and_check(&mut self) {
        self.net.stabilize();
        if self.violations.len() >= MAX_VIOLATIONS_PER_ORACLE {
            return;
        }
        if let Some(v) = self.net.table_violation() {
            self.violations.push(violation(Self::oracle_name(), v));
        }
    }
}

impl<R: KeyRouter> TraceOracle for SubstrateTableOracle<R> {
    fn name(&self) -> &'static str {
        Self::oracle_name()
    }

    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        let join = |state: &mut u64| join_key(&mut self.net, state);
        match self.mirror.apply(event, join) {
            Some(Change::Joined) => {}
            Some(Change::Departed(id, true)) => self.net.leave(id),
            Some(Change::Departed(id, false)) => self.net.fail(id),
            None => return,
        }
        self.stabilize_and_check();
    }

    fn finish(&mut self, _report: &SimReport) -> Vec<Violation> {
        self.stabilize_and_check();
        std::mem::take(&mut self.violations)
    }
}

// ---------------------------------------------------------------------------
// RN-Tree aggregate monotonicity
// ---------------------------------------------------------------------------

/// Mirrors grid membership into a Chord ring with deterministic per-node
/// capabilities and, once churn quiesces (end of trace), rebuilds the
/// RN-Tree and checks the aggregate invariants: every parent's max-capacity
/// vector dominates its children's, OS sets are supersets, and subtree node
/// counts sum exactly.
pub struct RnTreeAggregateOracle {
    ring: ChordRing,
    caps: HashMap<u64, Capabilities>,
    mirror: Mirror<u64>,
}

/// Join a Chord peer under a drawn key and give it drawn capabilities.
fn join_capable(
    ring: &mut ChordRing,
    caps: &mut HashMap<u64, Capabilities>,
    state: &mut u64,
) -> u64 {
    let id = join_key(ring, state);
    let drawn = Capabilities::new(
        1.0 + 3.0 * unit_f64(state),
        1.0 + 15.0 * unit_f64(state),
        10.0 + 190.0 * unit_f64(state),
        OsType::ALL[(splitmix_next(state) % 4) as usize],
    );
    caps.insert(id, drawn);
    id
}

impl RnTreeAggregateOracle {
    /// Mirror a grid that starts with `nodes` live nodes.
    pub fn new(nodes: usize, seed: u64) -> Self {
        let mut ring = ChordRing::new(ChordConfig::default());
        let mut caps = HashMap::new();
        let mirror = Mirror::new(nodes, seed ^ 0x27EE_0000_0000_0003, |state| {
            join_capable(&mut ring, &mut caps, state)
        });
        RnTreeAggregateOracle { ring, caps, mirror }
    }
}

impl TraceOracle for RnTreeAggregateOracle {
    fn name(&self) -> &'static str {
        "rntree-aggregates"
    }

    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        let join = |state: &mut u64| join_capable(&mut self.ring, &mut self.caps, state);
        match self.mirror.apply(event, join) {
            Some(Change::Departed(id, true)) => self.ring.leave(id),
            Some(Change::Departed(id, false)) => self.ring.fail(id),
            _ => {}
        }
    }

    fn finish(&mut self, _report: &SimReport) -> Vec<Violation> {
        if self.ring.is_empty() {
            return Vec::new();
        }
        self.ring.stabilize();
        let index = RnTreeIndex::build(&self.ring, &self.caps);
        match index.aggregate_violation() {
            Some(v) => vec![violation(self.name(), v)],
            None => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// No-orphan liveness (lease mode)
// ---------------------------------------------------------------------------

/// The lease subsystem's liveness bound: *no job remains unowned longer
/// than `ttl + grace` while any live candidate node exists.* A job becomes
/// an orphan when its peer owner dies; the pending lease expiry must then
/// fire and transfer ownership within the bound — or, if the grid was empty
/// when the lease ran out, within the bound of the first node rejoining.
/// Server-owned jobs (the centralized baseline) never orphan.
pub struct NoOrphanOracle {
    bound_secs: f64,
    alive: BTreeSet<u32>,
    /// Jobs currently owned by a live peer, keyed by job → owner node.
    owner: BTreeMap<JobId, u32>,
    /// Orphans: job → virtual time its no-orphan clock (re)started. The
    /// clock restarts when an empty grid becomes non-empty again, mirroring
    /// the engine's re-armed expiry.
    orphan_since: BTreeMap<JobId, SimTime>,
    violations: Vec<Violation>,
}

impl NoOrphanOracle {
    /// Oracle for a grid starting with `nodes` live nodes and a lease
    /// expiry bound of `bound_secs` (= ttl + grace).
    pub fn new(nodes: usize, bound_secs: f64) -> Self {
        NoOrphanOracle {
            bound_secs,
            alive: (0..nodes as u32).collect(),
            owner: BTreeMap::new(),
            orphan_since: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// Slack on top of the bound: transfers are synchronous at the expiry
    /// event, so anything beyond float noise is a real liveness breach.
    const EPSILON_SECS: f64 = 1e-3;

    fn check_deadlines(&mut self, at: SimTime) {
        if self.alive.is_empty() {
            return; // no candidate owner exists; the clock is paused
        }
        let now = at.as_secs_f64();
        let bound = self.bound_secs + Self::EPSILON_SECS;
        let expired: Vec<(JobId, SimTime)> = self
            .orphan_since
            .iter()
            .filter(|(_, since)| now - since.as_secs_f64() > bound)
            .map(|(j, s)| (*j, *s))
            .collect();
        for (job, since) in expired {
            self.orphan_since.remove(&job);
            if self.violations.len() < MAX_VIOLATIONS_PER_ORACLE {
                self.violations.push(violation(
                    "no-orphan",
                    format!(
                        "{job:?} unowned since t={:.1}s, still unowned at t={now:.1}s \
                         with {} live node(s) — exceeds the ttl+grace bound of {:.1}s",
                        since.as_secs_f64(),
                        self.alive.len(),
                        self.bound_secs,
                    ),
                ));
            }
        }
    }

    fn close_job(&mut self, job: JobId) {
        self.owner.remove(&job);
        self.orphan_since.remove(&job);
    }
}

impl TraceOracle for NoOrphanOracle {
    fn name(&self) -> &'static str {
        "no-orphan"
    }

    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        // Deadlines are checked against each event's timestamp *before* the
        // event applies, so a transfer arriving exactly at the bound clears
        // its orphan rather than tripping the oracle.
        self.check_deadlines(at);
        match event {
            TraceEvent::Submitted { job, .. } => {
                // (Re)submission puts the job back in the client's hands.
                self.close_job(*job);
            }
            TraceEvent::OwnerAssigned { job, owner } => {
                self.orphan_since.remove(job);
                match owner {
                    OwnerRef::Peer(p) => {
                        self.owner.insert(*job, p.0);
                    }
                    OwnerRef::Server => {
                        self.owner.remove(job);
                    }
                }
            }
            TraceEvent::LeaseTransferred { job, owner } => {
                self.orphan_since.remove(job);
                self.owner.insert(*job, owner.0);
            }
            TraceEvent::OwnerRecovery { job } => {
                // A replacement owner was installed through the overlay;
                // the trace does not say which, so stop tracking the job.
                self.close_job(*job);
            }
            TraceEvent::Completed { job, .. } | TraceEvent::Failed { job } => {
                self.close_job(*job);
            }
            TraceEvent::NodeDown { node, .. } => {
                self.alive.remove(&node.0);
                let orphaned: Vec<JobId> = self
                    .owner
                    .iter()
                    .filter(|(_, &o)| o == node.0)
                    .map(|(j, _)| *j)
                    .collect();
                for job in orphaned {
                    self.owner.remove(&job);
                    self.orphan_since.entry(job).or_insert(at);
                }
            }
            TraceEvent::NodeUp { node } => {
                if self.alive.is_empty() {
                    // The grid was empty: every orphan's clock restarts now,
                    // matching the engine's re-armed expiry.
                    for since in self.orphan_since.values_mut() {
                        *since = at;
                    }
                }
                self.alive.insert(node.0);
            }
            _ => {}
        }
    }

    fn finish(&mut self, _report: &SimReport) -> Vec<Violation> {
        // Every job must be terminal by end of run (the horizon failsafe),
        // and terminal events close their orphan entries — so any orphan
        // still open here outlived even the engine's own shutdown.
        for job in std::mem::take(&mut self.orphan_since).into_keys() {
            if self.violations.len() >= MAX_VIOLATIONS_PER_ORACLE {
                break;
            }
            self.violations.push(violation(
                "no-orphan",
                format!("{job:?} still unowned (and non-terminal) at end of run"),
            ));
        }
        std::mem::take(&mut self.violations)
    }
}

// ---------------------------------------------------------------------------
// Tenant fairness consistency
// ---------------------------------------------------------------------------

/// Report-level fairness invariants. The trace cannot attribute waits to
/// clients (`Submitted` carries no client id), so this oracle audits the
/// report's own books instead: the finalized [`SimReport::tenant_fairness`]
/// must equal Jain's index recomputed from the per-client wait summaries,
/// every fairness index must lie in the Jain range `(0, 1]`, and the
/// per-client wait counts must tile the global wait sample set exactly —
/// no wait sample unattributed, none double-counted.
#[derive(Default)]
pub struct FairnessOracle;

impl FairnessOracle {
    /// Fresh oracle.
    pub fn new() -> Self {
        FairnessOracle
    }
}

impl TraceOracle for FairnessOracle {
    fn name(&self) -> &'static str {
        "tenant-fairness"
    }

    fn on_event(&mut self, _at: SimTime, _event: &TraceEvent) {}

    fn finish(&mut self, report: &SimReport) -> Vec<Violation> {
        let mut out = Vec::new();
        let recomputed = report.client_fairness();
        for (label, value) in [
            ("client_fairness", recomputed),
            ("load_fairness", report.load_fairness()),
            ("tenant_fairness", report.tenant_fairness()),
        ] {
            if !value.is_finite() || value <= 0.0 || value > 1.0 + 1e-9 {
                out.push(violation(
                    self.name(),
                    format!("{label} = {value} is outside the Jain index range (0, 1]"),
                ));
            }
        }
        if let Some(finalized) = report.tenant_fairness {
            if (finalized - recomputed).abs() > 1e-9 {
                out.push(violation(
                    self.name(),
                    format!(
                        "finalized tenant_fairness = {finalized} but Jain over the \
                         per-client wait means recomputes to {recomputed}"
                    ),
                ));
            }
        }
        let attributed: u64 = report.client_waits.values().map(|s| s.count()).sum();
        if attributed != report.wait_time.len() as u64 {
            out.push(violation(
                self.name(),
                format!(
                    "per-client wait counts sum to {attributed} but the report \
                     holds {} wait samples — per-tenant accounting leaks",
                    report.wait_time.len()
                ),
            ));
        }
        out
    }
}

/// The full oracle battery for a grid of `nodes` nodes expecting
/// `expected_jobs` submissions, with mirror-overlay identities derived from
/// `seed`; when `lease_bound_secs` is set (= ttl + grace of a leased run),
/// plus the [`NoOrphanOracle`] liveness check.
pub fn battery(
    nodes: usize,
    expected_jobs: usize,
    seed: u64,
    lease_bound_secs: Option<f64>,
) -> Vec<Box<dyn TraceOracle>> {
    let mut out: Vec<Box<dyn TraceOracle>> = vec![
        Box::new(JobConservation::new(expected_jobs)),
        Box::new(AtMostOnceCommit::new()),
        Box::new(SpanConservation::new()),
        Box::new(CanZoneOracle::new(nodes, seed)),
        Box::new(ChordRingOracle::new(nodes, seed)),
        Box::new(SubstrateTableOracle::<PastryNetwork>::new(nodes, seed)),
        Box::new(SubstrateTableOracle::<TapestryNetwork>::new(nodes, seed)),
        Box::new(RnTreeAggregateOracle::new(nodes, seed)),
        Box::new(FairnessOracle::new()),
    ];
    if let Some(bound) = lease_bound_secs {
        out.push(Box::new(NoOrphanOracle::new(nodes, bound)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_core::GridNodeId;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn conservation_flags_lost_job() {
        let mut o = JobConservation::new(2);
        o.on_event(
            t(0.0),
            &TraceEvent::Submitted {
                job: JobId(1),
                resubmits: 0,
            },
        );
        o.on_event(
            t(0.0),
            &TraceEvent::Submitted {
                job: JobId(2),
                resubmits: 0,
            },
        );
        o.on_event(
            t(5.0),
            &TraceEvent::Completed {
                job: JobId(1),
                results_at: t(5.0),
            },
        );
        let report = SimReport {
            jobs_total: 2,
            jobs_completed: 1,
            jobs_failed: 1,
            ..SimReport::default()
        };
        let v = o.finish(&report);
        assert!(
            v.iter().any(|v| v.detail.contains("never reached")),
            "expected a lost-job violation, got {v:?}"
        );
    }

    #[test]
    fn at_most_once_flags_double_commit() {
        let mut o = AtMostOnceCommit::new();
        for _ in 0..2 {
            o.on_event(
                t(1.0),
                &TraceEvent::Completed {
                    job: JobId(7),
                    results_at: t(1.0),
                },
            );
        }
        let report = SimReport {
            jobs_total: 1,
            jobs_completed: 2,
            ..SimReport::default()
        };
        let v = o.finish(&report);
        assert!(v
            .iter()
            .any(|v| v.detail.contains("committed results 2 times")));
        assert!(v.iter().any(|v| v.detail.contains("distinct jobs")));
    }

    #[test]
    fn no_orphan_flags_job_unowned_past_bound() {
        // Owner dies at t=10; bound is 70s; a live candidate (node 1) exists
        // the whole time, yet no transfer ever happens.
        let mut o = NoOrphanOracle::new(2, 70.0);
        o.on_event(
            t(0.0),
            &TraceEvent::OwnerAssigned {
                job: JobId(1),
                owner: OwnerRef::Peer(GridNodeId(0)),
            },
        );
        o.on_event(
            t(10.0),
            &TraceEvent::NodeDown {
                node: GridNodeId(0),
                graceful: false,
            },
        );
        // Some unrelated event well past the bound trips the deadline check.
        o.on_event(
            t(200.0),
            &TraceEvent::NodeUp {
                node: GridNodeId(0),
            },
        );
        let v = o.finish(&SimReport::default());
        assert!(
            v.iter().any(|v| v.detail.contains("exceeds the ttl+grace")),
            "expected a no-orphan violation, got {v:?}"
        );
    }

    #[test]
    fn no_orphan_accepts_transfer_within_bound_and_pauses_on_empty_grid() {
        let mut o = NoOrphanOracle::new(2, 70.0);
        o.on_event(
            t(0.0),
            &TraceEvent::OwnerAssigned {
                job: JobId(1),
                owner: OwnerRef::Peer(GridNodeId(0)),
            },
        );
        o.on_event(
            t(10.0),
            &TraceEvent::NodeDown {
                node: GridNodeId(0),
                graceful: false,
            },
        );
        // Transferred at t=75 — within the 70s bound of the t=10 orphaning.
        o.on_event(
            t(75.0),
            &TraceEvent::LeaseTransferred {
                job: JobId(1),
                owner: GridNodeId(1),
            },
        );
        // New owner dies too, and then the *whole grid* goes empty: the
        // no-orphan clock must pause until somebody rejoins.
        o.on_event(
            t(80.0),
            &TraceEvent::NodeDown {
                node: GridNodeId(1),
                graceful: false,
            },
        );
        // Node 0 rejoins only at t=500 — far past 80+70, but legal because
        // the grid was empty; the clock restarts at t=500.
        o.on_event(
            t(500.0),
            &TraceEvent::NodeUp {
                node: GridNodeId(0),
            },
        );
        o.on_event(
            t(540.0),
            &TraceEvent::LeaseTransferred {
                job: JobId(1),
                owner: GridNodeId(0),
            },
        );
        o.on_event(
            t(560.0),
            &TraceEvent::Completed {
                job: JobId(1),
                results_at: t(560.0),
            },
        );
        let v = o.finish(&SimReport::default());
        assert!(v.is_empty(), "unexpected violations {v:?}");
    }

    #[test]
    fn fairness_oracle_flags_drift_and_leaky_accounting() {
        let mut r = SimReport::default();
        r.wait_time.push(4.0);
        r.wait_time.push(8.0);
        r.client_waits.entry(0).or_default().push(4.0);
        r.client_waits.entry(1).or_default().push(8.0);
        r.tenant_fairness = Some(r.client_fairness());
        let v = FairnessOracle::new().finish(&r);
        assert!(v.is_empty(), "clean report flagged: {v:?}");

        // Finalized index drifting from the per-client books is a violation.
        let mut drifted = r.clone();
        drifted.tenant_fairness = Some(1.0);
        let v = FairnessOracle::new().finish(&drifted);
        assert!(v.iter().any(|v| v.detail.contains("recomputes")), "{v:?}");

        // A wait sample with no client attribution is a violation.
        let mut leaky = r.clone();
        leaky.wait_time.push(6.0);
        leaky.tenant_fairness = Some(leaky.client_fairness());
        let v = FairnessOracle::new().finish(&leaky);
        assert!(v.iter().any(|v| v.detail.contains("leaks")), "{v:?}");
    }

    #[test]
    fn overlay_oracles_follow_churn_cleanly() {
        let seed = 42;
        let mut oracles: Vec<Box<dyn TraceOracle>> = vec![
            Box::new(CanZoneOracle::new(12, seed)),
            Box::new(ChordRingOracle::new(12, seed)),
            Box::new(RnTreeAggregateOracle::new(12, seed)),
        ];
        let events = [
            TraceEvent::NodeDown {
                node: GridNodeId(3),
                graceful: false,
            },
            TraceEvent::NodeDown {
                node: GridNodeId(7),
                graceful: true,
            },
            TraceEvent::NodeUp {
                node: GridNodeId(3),
            },
            TraceEvent::NodeDown {
                node: GridNodeId(0),
                graceful: false,
            },
        ];
        let report = SimReport::default();
        for o in &mut oracles {
            for (i, e) in events.iter().enumerate() {
                o.on_event(t(i as f64 * 10.0), e);
            }
            let v = o.finish(&report);
            assert!(v.is_empty(), "{}: unexpected violations {v:?}", o.name());
        }
    }
}
