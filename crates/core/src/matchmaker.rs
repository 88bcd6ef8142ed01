//! The pluggable matchmaking interface.

use dgrid_resources::JobProfile;
use dgrid_sim::rng::SimRng;
use dgrid_sim::telemetry::SharedHook;

use crate::config::PlacementPolicy;
use crate::job::OwnerRef;
use crate::node::{GridNodeId, NodeTable};

/// Result of a run-node search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchOutcome {
    /// The chosen run node, or `None` if no capable node was found this
    /// attempt (the engine retries and eventually fails the job).
    pub run_node: Option<GridNodeId>,
    /// Overlay messages spent on this matchmaking attempt — the paper's
    /// "matchmaking cost".
    pub hops: u32,
}

/// A matchmaking mechanism: Section 3's pluggable heart of the system.
///
/// Implementations keep their own overlay state (Chord ring + RN-Tree, CAN
/// space, or nothing for the centralized baseline) and are driven by the
/// [`Engine`](crate::Engine) through these hooks.
pub trait Matchmaker {
    /// Short identifier used in reports ("rn-tree", "can", "can-push",
    /// "central").
    fn name(&self) -> &'static str;

    /// A node joined the grid (initial population and rejoin after repair).
    fn on_join(&mut self, nodes: &NodeTable, node: GridNodeId, rng: &mut SimRng);

    /// Admit the entire initial population at once — called exactly once by
    /// the engine constructor, before any events run and before the first
    /// maintenance [`Matchmaker::tick`].
    ///
    /// Must be observably equivalent to calling [`Matchmaker::on_join`] for
    /// every alive node in ascending id order (including any RNG draws, so
    /// the event stream stays byte-identical). Overlay matchmakers override
    /// it to bulk-build the substrate via
    /// [`KeyRouter::bulk_join`](dgrid_sim::router::KeyRouter::bulk_join),
    /// skipping the per-join routing-table work that makes naive
    /// construction of a 10⁶-node overlay O(N log N).
    fn bootstrap(&mut self, nodes: &NodeTable, rng: &mut SimRng) {
        for id in nodes.alive_ids() {
            self.on_join(nodes, id, rng);
        }
    }

    /// A node left the grid. `graceful` distinguishes an announced
    /// departure (the peer notifies its overlay neighbours and the owners
    /// of jobs it holds before going away) from an abrupt failure
    /// (discovered only by timeouts). The engine calls it right after
    /// marking `node` dead in `nodes`, as it calls [`Matchmaker::on_join`]
    /// right after marking a rejoining node live, so a matchmaker's
    /// membership always equals the table's live set.
    fn on_leave(&mut self, nodes: &NodeTable, node: GridNodeId, graceful: bool);

    /// Figure 1, steps 1–2: assign `job` (with overlay GUID `guid`) to an
    /// owner, starting from the `injection` node. Returns the owner and the
    /// overlay hops spent routing, or `None` if the overlay cannot place
    /// the job right now.
    fn assign_owner(
        &mut self,
        nodes: &NodeTable,
        job: &JobProfile,
        guid: u64,
        injection: GridNodeId,
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)>;

    /// Figure 1, step 3: from the owner, find a run node capable of
    /// executing `job`.
    fn find_run_node(
        &mut self,
        nodes: &NodeTable,
        owner: OwnerRef,
        job: &JobProfile,
        rng: &mut SimRng,
    ) -> MatchOutcome;

    /// Recovery: the run node detected the owner's failure and needs a new
    /// owner for `guid` (Section 2's owner-failure path).
    fn reassign_owner(
        &mut self,
        nodes: &NodeTable,
        job: &JobProfile,
        guid: u64,
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)>;

    /// Periodic maintenance: overlay stabilization, aggregate refresh, and
    /// neighbor load exchange. Called by the engine every maintenance
    /// period.
    fn tick(&mut self, nodes: &NodeTable);

    /// Overlay cost (hops) of resolving `guid` from a random live peer.
    ///
    /// Section 2: "the result can be returned to the client as either a
    /// pointer to the result (another GUID) or as the result itself". When
    /// the engine is configured for return-by-reference, the run node
    /// publishes the result under a GUID and the client resolves it — both
    /// are one overlay lookup, costed through this hook. `None` means the
    /// overlay cannot resolve right now (engine falls back to direct
    /// return).
    fn resolve_guid(&mut self, nodes: &NodeTable, guid: u64, rng: &mut SimRng) -> Option<u32> {
        let _ = (nodes, guid, rng);
        None
    }

    /// Drain the count of overlay lookup retries (failover detours that
    /// re-issued a failed lookup) performed since the last call. The engine
    /// folds this into `SimReport::lookup_retries` after each overlay
    /// operation. Matchmakers without an overlay never retry.
    fn take_lookup_retries(&mut self) -> u64 {
        0
    }

    /// Install a [`TelemetryHook`](dgrid_sim::telemetry::TelemetryHook):
    /// overlay operations report lookup hops, failover detours, and
    /// fault-forced retries into it as they happen, without threading the
    /// values through every return type on the path. Matchmakers without
    /// an overlay (the centralized baseline) ignore the hook; the default
    /// does nothing, so not installing one costs nothing.
    fn set_telemetry_hook(&mut self, hook: SharedHook) {
        let _ = hook;
    }

    /// Install the owner [`PlacementPolicy`] the lease subsystem selected.
    /// Under [`PlacementPolicy::LoadAware`] overlay matchmakers probe the
    /// substrate owner *and* its failover peers and place the job on the
    /// least-loaded live candidate instead of blindly accepting the hash
    /// mapping. The default ignores the policy (the centralized baseline
    /// has no placement freedom), and the engine only calls this when
    /// leases are enabled, so the legacy paths never see it.
    fn set_placement(&mut self, placement: PlacementPolicy) {
        let _ = placement;
    }

    /// The lease registrar for `guid`: the ground-truth substrate owner of
    /// the job's DHT key, where the job owner's renewals are recorded.
    /// `None` means the overlay has no live registrar (or the matchmaker
    /// has no overlay at all) and renewals fall back to the reliable
    /// external registry.
    fn lease_registrar(&mut self, nodes: &NodeTable, guid: u64) -> Option<GridNodeId> {
        let _ = (nodes, guid);
        None
    }
}
