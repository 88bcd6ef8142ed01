//! Chord's routing state over the shared membership, and churn.

use dgrid_sim::overlay::{Entry, Lazy, Membership, Record};
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
/// Entries go stale under churn until the next stabilize,
/// which is exactly the window in which routing pays timeout penalties.
/// Each component is a [`Lazy`]: `Canon` when a full stabilize refreshed it
/// last — a pure function of the sorted alive-key snapshot taken then, so
/// it is *computed on demand* by a search of it instead of being stored —
/// or `Mat`, state materialized by an individual refresh since (join
/// notifications, graceful-leave repairs). A million-peer ring holds one
/// shared 8-byte-per-peer snapshot instead of ~72 materialized ids per
/// peer, and stabilization itself becomes O(N) flag resets.
/// A `Canon` component stays pinned to the snapshot of the last stabilize
/// even as membership changes afterwards — byte-identical staleness to the
/// materialized vectors it replaces.
#[derive(Clone, Debug, Default)]
pub struct ChordPeer {
    pub(crate) predecessor: Lazy<Option<ChordId>>,
    /// First `r` alive successors at last refresh, clockwise.
    pub(crate) successors: Lazy<Vec<ChordId>>,
    /// `fingers[k] = successor(self + 2^k)` at last refresh.
    pub(crate) fingers: Lazy<Vec<ChordId>>,
}

/// The Chord ring: the shared membership, each record holding the peer's
/// (possibly stale) local routing state. Reached through its
/// [`KeyRouter`](dgrid_sim::router::KeyRouter) impl.
///
/// A peer's state is stored only where it differs from what the last
/// [`stabilize`](dgrid_sim::router::KeyRouter::stabilize) implies
/// ([`Lazy::Mat`]); everything else is one search of the shared
/// snapshot, made when a route asks for it through the peer's view. In
/// particular no finger *table* is ever built for a routing hop:
/// [`lookup`](dgrid_sim::router::KeyRouter::lookup) resolves single
/// fingers, top candidate first, and stops at the first live one.
#[derive(Clone)]
pub struct ChordRing {
    cfg: ChordConfig,
    pub(crate) m: Membership<ChordPeer>,
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
            m: Membership::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Ground truth (what a fully stabilized ring would know)
    // ------------------------------------------------------------------

    /// The live owner of `key`: the first live peer clockwise from `key`
    /// (inclusive). `None` on an empty ring.
    pub(crate) fn successor_of(&self, key: ChordId) -> Option<ChordId> {
        let wrapped = || self.m.alive_in(..).next();
        let onward = self.m.alive_in(key.0..).next();
        onward.or_else(wrapped).map(ChordId)
    }

    /// The first live peer strictly counter-clockwise from `key`.
    pub(crate) fn predecessor_of(&self, key: ChordId) -> Option<ChordId> {
        let wrapped = || self.m.alive_in(..).next_back();
        let below = self.m.alive_in(..key.0).next_back();
        below.or_else(wrapped).map(ChordId)
    }

    /// Every live peer once, clockwise from `key` (inclusive) all the way
    /// round. From `id + 1` that is the successor list a refresh gives
    /// `id`, unbounded: everybody else in ring order, then `id` itself.
    fn live_from(&self, key: ChordId) -> impl Iterator<Item = ChordId> + '_ {
        let onward = self.m.alive_in(key.0..);
        onward.chain(self.m.alive_in(..key.0)).map(ChordId)
    }

    /// Successive live successors of the live peer `id`, up to `k`.
    fn true_successor_list(&self, id: ChordId, k: usize) -> Vec<ChordId> {
        self.live_from(ChordId(id.0.wrapping_add(1)))
            .take(k)
            .collect()
    }

    // ------------------------------------------------------------------
    // Churn and maintenance
    // ------------------------------------------------------------------

    /// Rebuild one peer's fingers, successor list and predecessor from
    /// ground truth — the effect of that peer completing a full round of
    /// Chord's `stabilize` + `fix_fingers`.
    pub(crate) fn refresh_peer(&mut self, id: ChordId) {
        assert!(self.m.is_alive(id.0), "refresh of dead peer {id}");
        let successors = self.true_successor_list(id, self.cfg.successor_list_len);
        let predecessor = self.predecessor_of(id);
        let fingers: Vec<ChordId> = (0..ID_BITS)
            .map(|k| {
                self.successor_of(id.finger_start(k))
                    .expect("ring is non-empty")
            })
            .collect();
        *self.m.state_mut(id.0) = ChordPeer {
            predecessor: Lazy::Mat(predecessor),
            successors: Lazy::Mat(successors),
            fingers: Lazy::Mat(fingers),
        };
    }

    /// Rebuild the successor list of `id`, if it is alive.
    pub(crate) fn refresh_successors_of(&mut self, id: ChordId) {
        if !self.m.is_alive(id.0) {
            return;
        }
        let successors = self.true_successor_list(id, self.cfg.successor_list_len);
        self.m.state_mut(id.0).successors = Lazy::Mat(successors);
    }

    // ------------------------------------------------------------------
    // Lazy state resolution
    // ------------------------------------------------------------------

    /// Is the peer that an entry of somebody's routing state points at
    /// alive? While settled every such entry is a snapshot key, and those
    /// are exactly the live peers: nothing to probe.
    pub(crate) fn points_at_live(&self, e: Entry) -> bool {
        self.m.settled() || self.m.is_alive(e.key)
    }

    /// The view of the peer `at`, dead or alive, whose rank is searched
    /// for unless `at` brings it; `None` for a peer the ring has no record
    /// of. While settled the records are exactly the snapshot's keys, all
    /// alive and all `Canon`, so the rank is the whole view and no record
    /// is read.
    pub(crate) fn hop(&self, at: Entry) -> Option<Hop<'_>> {
        let rank = || at.rank.or_else(|| self.m.snapshot().rank(at.key));
        let (rank, record) = if self.m.settled() {
            (Some(rank()?), None)
        } else {
            let record = self.m.record(at.key)?;
            (rank(), Some(record))
        };
        Some(Hop {
            ring: self,
            id: ChordId(at.key),
            rank,
            record,
        })
    }

    /// Whether a route is known to end at the key's ground-truth owner
    /// without being walked: the ring is settled, and the hop budget covers
    /// the longest route exact fingers allow — `ID_BITS` forwarding hops,
    /// since each hop uses a lower finger than the one before.
    pub(crate) fn routes_are_exact(&self) -> bool {
        self.m.settled() && self.cfg.max_route_hops >= ID_BITS
    }

    /// The live peer `id`'s believed `(successor, predecessor)`; each is
    /// the peer itself on a single-peer ring.
    pub(crate) fn peer_view(&self, id: ChordId) -> Option<(ChordId, ChordId)> {
        let hop = self.hop(Entry::unranked(id.0)).filter(Hop::is_alive)?;
        let successor = ChordId(hop.successor(0).key);
        Some((successor, hop.predecessor().unwrap_or(id)))
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
    record: Option<&'a Record<ChordPeer>>,
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
        self.record.is_none_or(Record::is_alive)
    }

    /// The one place a [`Lazy`] component turns into where to read it.
    fn source<T>(&self, component: impl FnOnce(&'a ChordPeer) -> &'a Lazy<T>) -> Source<'a, T> {
        match (self.record.map(|r| component(&r.state)), self.rank) {
            (Some(Lazy::Mat(v)), _) => Source::Mat(v),
            (_, Some(rank)) => Source::Canon(rank),
            (_, None) => Source::Truth,
        }
    }

    /// The snapshot entry `ahead` places clockwise of rank `rank`, for
    /// `ahead` at most the snapshot's length.
    fn canon_entry(&self, rank: usize, ahead: usize) -> Entry {
        let keys = self.ring.m.snapshot().keys();
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
                let back = self.ring.m.snapshot().keys().len() - 1;
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
            Source::Canon(_) => r.min(self.ring.m.snapshot().keys().len()),
            Source::Truth => r.min(self.ring.m.len()),
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
                let rank = self.ring.m.snapshot().successor_rank(start.0);
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
    use dgrid_sim::router::KeyRouter;

    fn ring_with(ids: &[u64]) -> ChordRing {
        let mut r = ChordRing::default();
        for &i in ids {
            r.join(i);
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

    /// The live peer's believed successor.
    fn successor(r: &ChordRing, id: u64) -> u64 {
        r.peer_view(ChordId(id)).expect("live peer").0 .0
    }

    /// The live peer's believed predecessor.
    fn predecessor(r: &ChordRing, id: u64) -> u64 {
        r.peer_view(ChordId(id)).expect("live peer").1 .0
    }

    fn live(r: &ChordRing) -> Vec<ChordId> {
        r.alive_keys().into_iter().map(ChordId).collect()
    }

    #[test]
    fn successor_ground_truth() {
        let r = ring_with(&[10, 20, 30]);
        assert_eq!(r.owner_of(5), Some(10));
        assert_eq!(r.owner_of(10), Some(10), "inclusive");
        assert_eq!(r.owner_of(11), Some(20));
        assert_eq!(r.owner_of(31), Some(10), "wraps");
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
        assert!(r.m.is_empty());
        assert_eq!(r.owner_of(1), None);
        r.join(42);
        assert_eq!(r.m.len(), 1);
        assert_eq!(r.owner_of(7), Some(42));
        assert_eq!(successor(&r, 42), 42, "own successor on single-node ring");
        assert_eq!(predecessor(&r, 42), 42);
    }

    #[test]
    fn join_updates_neighbours_immediately() {
        let mut r = ring_with(&[10, 30]);
        r.join(20);
        assert_eq!(successor(&r, 10), 20, "predecessor learned of join");
        assert_eq!(predecessor(&r, 30), 20, "successor learned of join");
        assert_eq!(successor(&r, 20), 30);
        assert_eq!(predecessor(&r, 20), 10);
    }

    #[test]
    fn graceful_leave_repairs_neighbours() {
        let mut r = ring_with(&[10, 20, 30]);
        r.leave(20);
        assert_eq!(r.m.len(), 2);
        assert!(!r.m.is_alive(20));
        assert_eq!(successor(&r, 10), 30);
        assert_eq!(predecessor(&r, 30), 10);
    }

    #[test]
    fn abrupt_fail_leaves_stale_state_until_stabilize() {
        let mut r = ring_with(&[10, 20, 30]);
        r.fail(20);
        // 10 still *believes* 20 is its successor (stale).
        assert_eq!(
            successor(&r, 10),
            20,
            "stale successor after silent failure"
        );
        r.stabilize();
        assert_eq!(successor(&r, 10), 30, "repaired by stabilization");
        assert_eq!(r.owner_of(15), Some(30));
    }

    #[test]
    fn rejoin_after_failure_is_allowed() {
        let mut r = ring_with(&[10, 20]);
        r.fail(20);
        r.join(20);
        assert!(r.m.is_alive(20));
        assert_eq!(r.m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn duplicate_join_panics() {
        let mut r = ring_with(&[10]);
        r.join(10);
    }

    #[test]
    #[should_panic(expected = "departure of unknown")]
    fn failing_unknown_peer_panics() {
        let mut r = ring_with(&[10]);
        r.fail(99);
    }

    #[test]
    fn successor_lists_have_configured_length() {
        let mut r = ring_with(&(0..20u64).map(|i| i * 100).collect::<Vec<_>>());
        r.stabilize();
        for id in live(&r) {
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
        for id in live(&r) {
            mat.refresh_peer(id); // flips this peer to Mat
        }
        mat.m.unsettle(); // or its views would read the snapshot all the same
        for id in live(&r) {
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
        r.fail(20);
        assert_eq!(successor(&r, 10), 20, "stale canonical successor");
        assert_eq!(successors(&r, ChordId(10)).first(), Some(&ChordId(20)));
        r.stabilize();
        assert_eq!(successor(&r, 10), 30, "repaired by stabilization");
    }

    #[test]
    fn deferred_bulk_join_matches_eager_joins_after_stabilize() {
        let ids: Vec<u64> = (1..=40u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        let mut eager = ChordRing::default();
        for &i in &ids {
            eager.join(i);
        }
        eager.stabilize();
        let mut lazy = ChordRing::default();
        lazy.bulk_join(&ids);
        lazy.stabilize();
        assert_eq!(eager.alive_keys(), lazy.alive_keys());
        for id in live(&eager) {
            assert_eq!(eager.peer_view(id), lazy.peer_view(id), "view of {id}");
        }
        for probe in ids.iter().map(|&i| i ^ 0x5555) {
            for &from in ids.iter().take(7) {
                assert_eq!(
                    eager.lookup(from, probe),
                    lazy.lookup(from, probe),
                    "lookup({from:x}, {probe:x}) diverged"
                );
            }
        }
    }

    #[test]
    fn a_record_is_the_size_the_ring_held_before_sharing_it() {
        // Three tags and the liveness flag: 72 B of value per B-tree entry.
        assert_eq!(std::mem::size_of::<Record<ChordPeer>>(), 72);
    }

    #[test]
    fn stabilize_collects_dead_records() {
        let mut r = ring_with(&[10, 20, 30, 40]);
        r.fail(20);
        r.fail(40);
        r.stabilize();
        assert_eq!(r.alive_keys(), vec![10, 30]);
        assert_eq!(r.m.len(), 2);
    }
}

#[cfg(test)]
mod finger_tests {
    use super::tests::{fingers, hop};
    use super::*;
    use dgrid_sim::rng::{rng_for, streams};
    use dgrid_sim::router::KeyRouter;
    use rand::Rng;

    #[test]
    fn fingers_point_at_true_successors_after_stabilize() {
        let mut rng = rng_for(101, streams::NODE_IDS);
        let mut ring = ChordRing::default();
        let mut count = 0;
        while count < 96 {
            let id: u64 = rng.gen();
            if !ring.m.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        for id in ring.alive_keys().into_iter().map(ChordId) {
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
            let id: u64 = rng.gen();
            if !ring.m.is_alive(id) {
                ring.join(id);
                count += 1;
            }
        }
        ring.stabilize();
        let mut total_span = 0u128;
        let ids: Vec<ChordId> = ring.alive_keys().into_iter().map(ChordId).collect();
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
