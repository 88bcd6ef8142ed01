//! Ring membership, per-peer routing state, and churn.

use std::collections::BTreeMap;

use dgrid_sim::prefix::{Entry, Lazy, Snapshot};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::id::{ChordId, ID_BITS};

/// Tunables for the Chord substrate.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChordConfig {
    /// Successor-list length `r`. Chord tolerates up to `r - 1` simultaneous
    /// consecutive failures between stabilization rounds.
    pub successor_list_len: usize,
    /// Safety valve on routing: a lookup exceeding this many hops fails.
    pub max_route_hops: u32,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list_len: 8,
            max_route_hops: 192,
        }
    }
}

/// Per-peer routing state, as the peer itself believes it to be.
///
/// Entries go stale under churn until the next [`ChordRing::stabilize`],
/// which is exactly the window in which routing pays timeout penalties.
/// Each component is a [`Lazy`]: `Canon` when a full stabilize refreshed it
/// last — a pure function of the sorted alive-key snapshot taken then, so
/// it is *computed on demand* by binary search instead of being stored —
/// or `Mat`, state materialized by an individual refresh since (join
/// notifications, graceful-leave repairs). A million-peer ring holds one
/// shared 8-byte-per-peer snapshot instead of ~72 materialized ids per
/// peer, and stabilization itself becomes O(N) flag resets.
/// A `Canon` component stays pinned to the snapshot of the last stabilize
/// even as membership changes afterwards — byte-identical staleness to the
/// materialized vectors it replaces.
#[derive(Clone, Debug)]
pub(crate) struct PeerState {
    pub(crate) alive: bool,
    pub(crate) predecessor: Lazy<Option<ChordId>>,
    /// First `r` alive successors at last refresh, clockwise.
    pub(crate) successors: Lazy<Vec<ChordId>>,
    /// `fingers[k] = successor(self + 2^k)` at last refresh.
    pub(crate) fingers: Lazy<Vec<ChordId>>,
}

/// Read-only snapshot of one peer's position on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerView {
    /// The peer's ring identifier.
    pub id: ChordId,
    /// Its current first successor (itself on a single-node ring).
    pub successor: ChordId,
    /// Its current predecessor (itself on a single-node ring).
    pub predecessor: ChordId,
}

/// The Chord ring: authoritative membership plus every peer's (possibly
/// stale) local routing state.
///
/// A peer's state is stored only where it differs from what the last
/// [`ChordRing::stabilize`] implies ([`Lazy::Mat`]); everything else is one
/// binary search into the shared snapshot, made when a route asks for it
/// through the peer's [`Hop`] view. In particular no finger *table* is ever
/// built for a routing hop: [`ChordRing::lookup`] resolves single fingers,
/// top candidate first, and stops at the first live one.
#[derive(Clone)]
pub struct ChordRing {
    cfg: ChordConfig,
    peers: BTreeMap<u64, PeerState>,
    alive_count: usize,
    /// Sorted alive keys at the last [`ChordRing::stabilize`]: what every
    /// `Canon` component is computed from.
    snapshot: Snapshot,
    /// No membership change since the last [`ChordRing::stabilize`]: every
    /// peer's routing state equals what the snapshot implies and the
    /// snapshot *is* the live set, so routes and ground-truth reads leave
    /// `peers` alone. Set by `stabilize`, cleared by every join and
    /// departure.
    settled: bool,
}

impl Default for ChordRing {
    fn default() -> Self {
        Self::new(ChordConfig::default())
    }
}

impl ChordRing {
    /// An empty ring.
    pub fn new(cfg: ChordConfig) -> Self {
        assert!(
            cfg.successor_list_len >= 1,
            "successor list must be non-empty"
        );
        ChordRing {
            cfg,
            peers: BTreeMap::new(),
            alive_count: 0,
            snapshot: Snapshot::default(),
            settled: false,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    /// Number of live peers.
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// True iff no peer is alive.
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// Is `id` a live member?
    pub fn is_alive(&self, id: ChordId) -> bool {
        self.peers.get(&id.0).is_some_and(|p| p.alive)
    }

    /// All live peer ids in ascending ring order.
    pub fn alive_ids(&self) -> Vec<ChordId> {
        self.live_keys().map(ChordId).collect()
    }

    /// The live keys, ascending.
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let alive = self.peers.iter().filter(|(_, p)| p.alive);
        alive.map(|(&id, _)| id)
    }

    /// A uniformly random live peer.
    pub fn random_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<ChordId> {
        if self.alive_count == 0 {
            return None;
        }
        let n = rng.gen_range(0..self.alive_count);
        self.alive_key_at(n).map(ChordId)
    }

    /// The `rank`-th live key in ascending order: one index into the
    /// snapshot while settled, a walk of the live set otherwise.
    pub(crate) fn alive_key_at(&self, rank: usize) -> Option<u64> {
        if self.settled {
            self.snapshot.keys().get(rank).copied()
        } else {
            self.live_keys().nth(rank)
        }
    }

    // ------------------------------------------------------------------
    // Ground truth (what a fully stabilized ring would know)
    // ------------------------------------------------------------------

    /// The live owner of `key`: the first live peer clockwise from `key`
    /// (inclusive). `None` on an empty ring.
    pub fn successor_of(&self, key: ChordId) -> Option<ChordId> {
        if self.settled {
            // The snapshot is the live set.
            let rank = self.snapshot.successor_rank(key.0)?;
            return Some(ChordId(self.snapshot.keys()[rank]));
        }
        if self.alive_count == 0 {
            return None;
        }
        self.peers
            .range(key.0..)
            .find(|(_, p)| p.alive)
            .or_else(|| self.peers.range(..).find(|(_, p)| p.alive))
            .map(|(&id, _)| ChordId(id))
    }

    /// The first live peer strictly counter-clockwise from `key`.
    pub fn predecessor_of(&self, key: ChordId) -> Option<ChordId> {
        if self.settled {
            let keys = self.snapshot.keys();
            let rank = self.snapshot.successor_rank(key.0)?;
            return Some(ChordId(keys[rank.checked_sub(1).unwrap_or(keys.len() - 1)]));
        }
        if self.alive_count == 0 {
            return None;
        }
        self.peers
            .range(..key.0)
            .rev()
            .find(|(_, p)| p.alive)
            .or_else(|| self.peers.range(..).rev().find(|(_, p)| p.alive))
            .map(|(&id, _)| ChordId(id))
    }

    /// Every live peer once, clockwise from `key` (inclusive) all the way
    /// round. From `id + 1` that is the successor list a refresh gives
    /// `id`, unbounded: everybody else in ring order, then `id` itself.
    fn live_from(&self, key: ChordId) -> impl Iterator<Item = ChordId> + '_ {
        let onward = self.peers.range(key.0..);
        let all = onward.chain(self.peers.range(..key.0));
        all.filter(|(_, p)| p.alive).map(|(&id, _)| ChordId(id))
    }

    /// Successive live successors of the live peer `id`, up to `k`.
    fn true_successor_list(&self, id: ChordId, k: usize) -> Vec<ChordId> {
        self.live_from(ChordId(id.0.wrapping_add(1)))
            .take(k)
            .collect()
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// Add a peer with identifier `id` and build its routing state (a real
    /// node performs O(log N) lookups for this during join).
    ///
    /// The new peer's immediate neighbours learn about it right away (as
    /// Chord's join notification does); everyone else's fingers remain stale
    /// until [`ChordRing::stabilize`].
    ///
    /// # Panics
    /// If a live peer with this id already exists.
    pub fn join(&mut self, id: ChordId) {
        self.admit(id);
        self.refresh_peer(id);
        // Notify immediate neighbours.
        let pred = self.predecessor_of(id);
        let succ = self.successor_of(ChordId(id.0.wrapping_add(1)));
        if let Some(p) = pred {
            if p != id {
                self.refresh_successors_of(p);
            }
        }
        if let Some(s) = succ {
            if s != id {
                if let Some(state) = self.peers.get_mut(&s.0) {
                    state.predecessor = Lazy::Mat(Some(id));
                }
            }
        }
    }

    /// Membership-only join used during bulk construction: the peer is
    /// admitted but nobody's routing state is built or repaired. Until the
    /// next [`ChordRing::stabilize`] the peer's own views resolve against
    /// current ground truth on demand, so a stabilize must follow before
    /// any churn for the ring to behave as if every peer had joined
    /// individually.
    ///
    /// # Panics
    /// If a live peer with this id already exists.
    pub fn join_deferred(&mut self, id: ChordId) {
        self.admit(id);
    }

    fn admit(&mut self, id: ChordId) {
        let existing_alive = self.peers.get(&id.0).is_some_and(|p| p.alive);
        assert!(!existing_alive, "duplicate join of live peer {id}");
        self.peers.insert(
            id.0,
            PeerState {
                alive: true,
                predecessor: Lazy::Canon,
                successors: Lazy::Canon,
                fingers: Lazy::Canon,
            },
        );
        self.alive_count += 1;
        self.settled = false;
    }

    /// Graceful departure: the peer tells its neighbours before leaving, so
    /// their successor/predecessor state is repaired immediately. Remote
    /// finger tables still go stale.
    ///
    /// # Panics
    /// If `id` is not a live peer.
    pub fn leave(&mut self, id: ChordId) {
        self.mark_dead(id);
        let pred = self.predecessor_of(id);
        let succ = self.successor_of(id);
        if let Some(p) = pred {
            self.refresh_successors_of(p);
        }
        if let (Some(p), Some(s)) = (pred, succ) {
            if let Some(state) = self.peers.get_mut(&s.0) {
                state.predecessor = Lazy::Mat(Some(p));
            }
        }
    }

    /// Abrupt failure: the peer vanishes without notice. All references to
    /// it (fingers, successor lists) remain until discovered by routing
    /// timeouts or repaired by [`ChordRing::stabilize`].
    ///
    /// # Panics
    /// If `id` is not a live peer.
    pub fn fail(&mut self, id: ChordId) {
        self.mark_dead(id);
    }

    fn mark_dead(&mut self, id: ChordId) {
        let state = self
            .peers
            .get_mut(&id.0)
            .filter(|p| p.alive)
            .unwrap_or_else(|| panic!("departure of unknown/dead peer {id}"));
        state.alive = false;
        self.alive_count -= 1;
        self.settled = false;
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Rebuild one peer's fingers, successor list and predecessor from
    /// ground truth — the effect of that peer completing a full round of
    /// Chord's `stabilize` + `fix_fingers`.
    pub fn refresh_peer(&mut self, id: ChordId) {
        assert!(self.is_alive(id), "refresh of dead peer {id}");
        let successors = self.true_successor_list(id, self.cfg.successor_list_len);
        let predecessor = self.predecessor_of(id);
        let fingers: Vec<ChordId> = (0..ID_BITS)
            .map(|k| {
                self.successor_of(id.finger_start(k))
                    .expect("ring is non-empty")
            })
            .collect();
        let state = self.peers.get_mut(&id.0).expect("peer exists");
        state.successors = Lazy::Mat(successors);
        state.predecessor = Lazy::Mat(predecessor);
        state.fingers = Lazy::Mat(fingers);
    }

    fn refresh_successors_of(&mut self, id: ChordId) {
        if !self.is_alive(id) {
            return;
        }
        let successors = self.true_successor_list(id, self.cfg.successor_list_len);
        let state = self.peers.get_mut(&id.0).expect("peer exists");
        state.successors = Lazy::Mat(successors);
    }

    /// Run a full stabilization round: every live peer refreshes its state,
    /// and records of dead peers are garbage-collected (no stale pointers
    /// can remain afterwards).
    ///
    /// Post-stabilize every peer's state is a pure function of the sorted
    /// alive-key snapshot, so instead of materializing ~`ID_BITS + r` ids
    /// per peer this takes the snapshot once and flips every peer to
    /// [`Lazy::Canon`] — O(N) total, with views computed on demand.
    pub fn stabilize(&mut self) {
        self.peers.retain(|_, p| p.alive);
        self.snapshot = Snapshot::from_ascending(self.peers.keys().copied().collect());
        for p in self.peers.values_mut() {
            p.predecessor = Lazy::Canon;
            p.successors = Lazy::Canon;
            p.fingers = Lazy::Canon;
        }
        self.settled = true;
    }

    // ------------------------------------------------------------------
    // Lazy state resolution
    // ------------------------------------------------------------------

    /// Is the peer that an entry of somebody's routing state points at
    /// alive? While settled every such entry is a snapshot key, and those
    /// are exactly the live peers: nothing to probe.
    pub(crate) fn points_at_live(&self, e: Entry) -> bool {
        self.settled || self.is_alive(ChordId(e.key))
    }

    /// The view of the peer `at`, dead or alive, whose rank is searched
    /// for unless `at` brings it; `None` for a peer the ring has no record
    /// of. While settled the records are exactly the snapshot's keys, all
    /// alive and all `Canon`, so the rank is the whole view and `peers` is
    /// not read.
    pub(crate) fn hop(&self, at: Entry) -> Option<Hop<'_>> {
        let rank = || at.rank.or_else(|| self.snapshot.rank(at.key));
        let (rank, state) = if self.settled {
            (Some(rank()?), None)
        } else {
            let state = self.peers.get(&at.key)?;
            (rank(), Some(state))
        };
        Some(Hop {
            ring: self,
            id: ChordId(at.key),
            rank,
            state,
        })
    }

    /// Whether a route is known to end at the key's ground-truth owner
    /// without being walked: the ring is settled, and the hop budget covers
    /// the longest route exact fingers allow — `ID_BITS` forwarding hops,
    /// since each hop uses a lower finger than the one before.
    pub(crate) fn routes_are_exact(&self) -> bool {
        self.settled && self.cfg.max_route_hops >= ID_BITS
    }

    /// Snapshot one live peer's ring position.
    pub fn peer_view(&self, id: ChordId) -> Option<PeerView> {
        let hop = self.hop(Entry::unranked(id.0)).filter(Hop::is_alive)?;
        Some(PeerView {
            id,
            successor: ChordId(hop.successor(0).key),
            predecessor: hop.predecessor().unwrap_or(id),
        })
    }

    /// Forget that nothing has changed since the last stabilize: the same
    /// ring, read the long way — `peers` walked, liveness probed.
    #[cfg(test)]
    pub(crate) fn unsettle(&mut self) {
        self.settled = false;
    }

    /// Swap every record for a dead peer that knows nobody: whatever
    /// still answers afterwards never read `peers`.
    #[cfg(test)]
    pub(crate) fn poison_records(&mut self) {
        for p in self.peers.values_mut() {
            *p = PeerState {
                alive: false,
                predecessor: Lazy::Mat(None),
                successors: Lazy::Mat(Vec::new()),
                fingers: Lazy::Mat(Vec::new()),
            };
        }
    }

    /// Ring-consistency check for a quiesced ring (run [`ChordRing::stabilize`]
    /// first): every live peer's successor and predecessor pointers must
    /// agree with the sorted ring order, and following successor pointers
    /// from any peer must tour every live peer exactly once. Returns `None`
    /// when consistent, otherwise a description of the first violation —
    /// the oracle hook the model checker (`dgrid-check`) calls after churn
    /// has settled.
    pub fn consistency_violation(&self) -> Option<String> {
        let ids = self.alive_ids();
        if ids.len() <= 1 {
            return None;
        }
        let n = ids.len();
        for (i, &id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % n];
            let prev = ids[(i + n - 1) % n];
            let Some(v) = self.peer_view(id) else {
                return Some(format!("live peer {id} has no ring view"));
            };
            if v.successor != next {
                return Some(format!(
                    "{id}: successor {} disagrees with ring order {next}",
                    v.successor
                ));
            }
            if v.predecessor != prev {
                return Some(format!(
                    "{id}: predecessor {} disagrees with ring order {prev}",
                    v.predecessor
                ));
            }
        }
        // Successor pointers must form a single cycle covering the ring.
        let start = ids[0];
        let mut at = start;
        for step in 1..=n {
            at = match self.peer_view(at) {
                Some(v) => v.successor,
                None => return Some(format!("successor walk reaches dead peer {at}")),
            };
            if at == start {
                return if step == n {
                    None
                } else {
                    Some(format!("successor cycle closes after {step} of {n} peers"))
                };
            }
        }
        Some(format!("successor walk from {start} never closes"))
    }
}

/// Where one component of a peer's routing state is read from.
enum Source<'a, T> {
    /// Stored by a refresh of the peer's own.
    Mat(&'a T),
    /// Computed from the snapshot around the peer's rank in it.
    Canon(usize),
    /// A deferred joiner the snapshot does not know yet: ground truth, as
    /// an eager join would have stored.
    Truth,
}

/// One peer as a routing hop stands on it: the peer's believed (possibly
/// stale) predecessor, successor list and fingers, each resolved when asked
/// for. Entries read off the snapshot come with their rank, which the next
/// hop's view takes over instead of searching for it.
pub(crate) struct Hop<'a> {
    ring: &'a ChordRing,
    id: ChordId,
    /// The peer's rank in the snapshot, if it is there.
    rank: Option<usize>,
    /// The peer's record; `None` while the ring is settled, when every
    /// component is `Canon` whatever the record says.
    state: Option<&'a PeerState>,
}

impl<'a> Hop<'a> {
    pub(crate) fn id(&self) -> ChordId {
        self.id
    }

    /// The peer and its rank, as an entry pointing at it.
    pub(crate) fn entry(&self) -> Entry {
        Entry {
            key: self.id.0,
            rank: self.rank,
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.state.is_none_or(|s| s.alive)
    }

    /// The one place a [`Lazy`] component turns into where to read it.
    fn source<T>(&self, component: impl FnOnce(&'a PeerState) -> &'a Lazy<T>) -> Source<'a, T> {
        match (self.state.map(component), self.rank) {
            (Some(Lazy::Mat(v)), _) => Source::Mat(v),
            (_, Some(rank)) => Source::Canon(rank),
            (_, None) => Source::Truth,
        }
    }

    /// The snapshot entry `ahead` places clockwise of rank `rank`, for
    /// `ahead` at most the snapshot's length.
    fn canon_entry(&self, rank: usize, ahead: usize) -> Entry {
        let keys = self.ring.snapshot.keys();
        let i = rank + ahead;
        let i = if i < keys.len() { i } else { i - keys.len() };
        Entry {
            key: keys[i],
            rank: Some(i),
        }
    }

    /// The peer's believed predecessor.
    pub(crate) fn predecessor(&self) -> Option<ChordId> {
        match self.source(|s| &s.predecessor) {
            Source::Mat(p) => *p,
            Source::Canon(rank) => {
                let back = self.ring.snapshot.keys().len() - 1;
                Some(ChordId(self.canon_entry(rank, back).key))
            }
            Source::Truth => self.ring.predecessor_of(self.id),
        }
    }

    /// Length of the peer's believed successor list: the configured
    /// length, or on a smaller ring everybody else and then the peer
    /// itself. Never 0 for a live peer.
    pub(crate) fn successor_count(&self) -> usize {
        let r = self.ring.cfg.successor_list_len;
        match self.source(|s| &s.successors) {
            Source::Mat(v) => v.len(),
            Source::Canon(_) => r.min(self.ring.snapshot.keys().len()),
            Source::Truth => r.min(self.ring.alive_count),
        }
    }

    /// Entry `j < successor_count()` of the peer's believed successor
    /// list, nearest first.
    pub(crate) fn successor(&self, j: usize) -> Entry {
        match self.source(|s| &s.successors) {
            Source::Mat(v) => Entry::unranked(v[j].0),
            Source::Canon(rank) => self.canon_entry(rank, j + 1),
            // One walk per entry: deferred joiners are few and gone at
            // the next stabilize.
            Source::Truth => {
                let next = ChordId(self.id.0.wrapping_add(1));
                let s = self.ring.live_from(next).nth(j);
                Entry::unranked(s.expect("j is below the live count").0)
            }
        }
    }

    /// The peer's believed finger `k`: the first peer it knew at clockwise
    /// distance ≥ 2^k, or the peer itself when none was.
    pub(crate) fn finger(&self, k: u32) -> Entry {
        let start = self.id.finger_start(k);
        match self.source(|s| &s.fingers) {
            Source::Mat(v) => Entry::unranked(v[k as usize].0),
            Source::Canon(_) => {
                let rank = self.ring.snapshot.successor_rank(start.0);
                self.canon_entry(rank.expect("the peer is in the snapshot"), 0)
            }
            Source::Truth => {
                let owner = self.ring.successor_of(start);
                Entry::unranked(owner.expect("ring is non-empty").0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(ids: &[u64]) -> ChordRing {
        let mut r = ChordRing::default();
        for &i in ids {
            r.join(ChordId(i));
        }
        r
    }

    pub(super) fn hop(r: &ChordRing, id: ChordId) -> Hop<'_> {
        r.hop(Entry::unranked(id.0)).expect("known peer")
    }

    fn successors(r: &ChordRing, id: ChordId) -> Vec<ChordId> {
        let hop = hop(r, id);
        let list = (0..hop.successor_count()).map(|j| hop.successor(j));
        list.map(|e| ChordId(e.key)).collect()
    }

    pub(super) fn fingers(r: &ChordRing, id: ChordId) -> Vec<ChordId> {
        let hop = hop(r, id);
        (0..ID_BITS).map(|k| ChordId(hop.finger(k).key)).collect()
    }

    #[test]
    fn successor_ground_truth() {
        let r = ring_with(&[10, 20, 30]);
        assert_eq!(r.successor_of(ChordId(5)), Some(ChordId(10)));
        assert_eq!(r.successor_of(ChordId(10)), Some(ChordId(10)), "inclusive");
        assert_eq!(r.successor_of(ChordId(11)), Some(ChordId(20)));
        assert_eq!(r.successor_of(ChordId(31)), Some(ChordId(10)), "wraps");
        assert_eq!(
            r.predecessor_of(ChordId(10)),
            Some(ChordId(30)),
            "wraps back"
        );
        assert_eq!(r.predecessor_of(ChordId(25)), Some(ChordId(20)));
    }

    #[test]
    fn empty_and_single() {
        let mut r = ChordRing::default();
        assert!(r.is_empty());
        assert_eq!(r.successor_of(ChordId(1)), None);
        r.join(ChordId(42));
        assert_eq!(r.len(), 1);
        assert_eq!(r.successor_of(ChordId(7)), Some(ChordId(42)));
        let v = r.peer_view(ChordId(42)).unwrap();
        assert_eq!(
            v.successor,
            ChordId(42),
            "own successor on single-node ring"
        );
        assert_eq!(v.predecessor, ChordId(42));
    }

    #[test]
    fn join_updates_neighbours_immediately() {
        let mut r = ring_with(&[10, 30]);
        r.join(ChordId(20));
        let v10 = r.peer_view(ChordId(10)).unwrap();
        assert_eq!(v10.successor, ChordId(20), "predecessor learned of join");
        let v30 = r.peer_view(ChordId(30)).unwrap();
        assert_eq!(v30.predecessor, ChordId(20), "successor learned of join");
        let v20 = r.peer_view(ChordId(20)).unwrap();
        assert_eq!(v20.successor, ChordId(30));
        assert_eq!(v20.predecessor, ChordId(10));
    }

    #[test]
    fn graceful_leave_repairs_neighbours() {
        let mut r = ring_with(&[10, 20, 30]);
        r.leave(ChordId(20));
        assert_eq!(r.len(), 2);
        assert!(!r.is_alive(ChordId(20)));
        let v10 = r.peer_view(ChordId(10)).unwrap();
        assert_eq!(v10.successor, ChordId(30));
        let v30 = r.peer_view(ChordId(30)).unwrap();
        assert_eq!(v30.predecessor, ChordId(10));
    }

    #[test]
    fn abrupt_fail_leaves_stale_state_until_stabilize() {
        let mut r = ring_with(&[10, 20, 30]);
        r.fail(ChordId(20));
        // 10 still *believes* 20 is its successor (stale).
        let v10 = r.peer_view(ChordId(10)).unwrap();
        assert_eq!(
            v10.successor,
            ChordId(20),
            "stale successor after silent failure"
        );
        r.stabilize();
        let v10 = r.peer_view(ChordId(10)).unwrap();
        assert_eq!(v10.successor, ChordId(30), "repaired by stabilization");
        assert_eq!(r.successor_of(ChordId(15)), Some(ChordId(30)));
    }

    #[test]
    fn rejoin_after_failure_is_allowed() {
        let mut r = ring_with(&[10, 20]);
        r.fail(ChordId(20));
        r.join(ChordId(20));
        assert!(r.is_alive(ChordId(20)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn duplicate_join_panics() {
        let mut r = ring_with(&[10]);
        r.join(ChordId(10));
    }

    #[test]
    #[should_panic(expected = "departure of unknown")]
    fn failing_unknown_peer_panics() {
        let mut r = ring_with(&[10]);
        r.fail(ChordId(99));
    }

    #[test]
    fn successor_lists_have_configured_length() {
        let mut r = ring_with(&(0..20u64).map(|i| i * 100).collect::<Vec<_>>());
        r.stabilize();
        for id in r.alive_ids() {
            let succ = successors(&r, id);
            assert_eq!(succ.len(), r.config().successor_list_len);
            // Entries are the k nearest live successors in clockwise order.
            let mut prev = id;
            for &s in &succ {
                assert_eq!(r.successor_of(ChordId(prev.0.wrapping_add(1))), Some(s));
                prev = s;
            }
        }
    }

    #[test]
    fn canonical_views_match_materialized_refresh() {
        // After stabilize every component is Canon; an explicit refresh_peer
        // re-materializes the same peer from the same membership. The two
        // representations must resolve identically.
        let ids: Vec<u64> = (0..33u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut r = ring_with(&ids);
        r.stabilize();
        let mut mat = r.clone();
        for id in r.alive_ids() {
            mat.refresh_peer(id); // flips this peer to Mat
        }
        mat.unsettle(); // or its views would read the snapshot all the same
        for id in r.alive_ids() {
            assert_eq!(successors(&r, id), successors(&mat, id), "of {id}");
            assert_eq!(fingers(&r, id), fingers(&mat, id), "of {id}");
            let (canon, mat) = (hop(&r, id), hop(&mat, id));
            assert_eq!(canon.predecessor(), mat.predecessor(), "of {id}");
        }
    }

    #[test]
    fn canonical_views_stay_pinned_to_the_snapshot_under_churn() {
        let mut r = ring_with(&[10, 20, 30, 40]);
        r.stabilize();
        // Abrupt failure after stabilize: canonical views must still
        // reference the dead peer (stale, exactly like materialized state).
        r.fail(ChordId(20));
        let v10 = r.peer_view(ChordId(10)).unwrap();
        assert_eq!(v10.successor, ChordId(20), "stale canonical successor");
        assert_eq!(successors(&r, ChordId(10)).first(), Some(&ChordId(20)));
        r.stabilize();
        let v10 = r.peer_view(ChordId(10)).unwrap();
        assert_eq!(v10.successor, ChordId(30), "repaired by stabilization");
    }

    #[test]
    fn deferred_bulk_join_matches_eager_joins_after_stabilize() {
        let ids: Vec<u64> = (1..=40u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        let mut eager = ChordRing::default();
        for &i in &ids {
            eager.join(ChordId(i));
        }
        eager.stabilize();
        let mut lazy = ChordRing::default();
        for &i in &ids {
            lazy.join_deferred(ChordId(i));
        }
        lazy.stabilize();
        assert_eq!(eager.alive_ids(), lazy.alive_ids());
        for id in eager.alive_ids() {
            assert_eq!(eager.peer_view(id), lazy.peer_view(id), "view of {id}");
        }
        for probe in ids.iter().map(|&i| ChordId(i ^ 0x5555)) {
            for &from in ids.iter().take(7) {
                assert_eq!(
                    eager.lookup(ChordId(from), probe),
                    lazy.lookup(ChordId(from), probe),
                    "lookup({from:x}, {probe}) diverged"
                );
            }
        }
    }

    #[test]
    fn random_peer_is_alive() {
        let mut r = ring_with(&[1, 2, 3, 4, 5]);
        r.fail(ChordId(3));
        let mut rng = dgrid_sim::rng::rng_for(1, 1);
        for _ in 0..50 {
            let p = r.random_peer(&mut rng).unwrap();
            assert!(r.is_alive(p));
        }
    }

    #[test]
    fn stabilize_collects_dead_records() {
        let mut r = ring_with(&[10, 20, 30, 40]);
        r.fail(ChordId(20));
        r.fail(ChordId(40));
        r.stabilize();
        assert_eq!(r.alive_ids(), vec![ChordId(10), ChordId(30)]);
        assert_eq!(r.len(), 2);
    }
}

#[cfg(test)]
mod finger_tests {
    use super::tests::{fingers, hop};
    use super::*;
    use dgrid_sim::rng::{rng_for, streams};
    use rand::Rng;

    #[test]
    fn fingers_point_at_true_successors_after_stabilize() {
        let mut rng = rng_for(101, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < 96 {
            let id = ChordId(rng.gen());
            if !ring.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        for id in ring.alive_ids() {
            let fingers = fingers(&ring, id);
            for k in 0..ID_BITS {
                let start = id.finger_start(k);
                assert_eq!(
                    Some(fingers[k as usize]),
                    ring.successor_of(start),
                    "finger {k} of {id} must be successor({start})"
                );
            }
        }
    }

    #[test]
    fn finger_targets_make_exponential_progress() {
        // The top finger of every node must span at least a quarter of the
        // ring on average — the property that gives O(log N) routing.
        let mut rng = rng_for(103, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < 128 {
            let id = ChordId(rng.gen());
            if !ring.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        let mut total_span = 0u128;
        let ids = ring.alive_ids();
        for &id in &ids {
            let top = ChordId(hop(&ring, id).finger(ID_BITS - 1).key);
            total_span += u128::from(id.distance_to(top));
        }
        let mean_span = total_span / ids.len() as u128;
        assert!(
            mean_span > u128::from(u64::MAX / 4),
            "top fingers must reach across the ring (mean span {mean_span})"
        );
    }
}
