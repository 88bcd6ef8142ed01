//! Ring membership, per-peer routing state, and churn.

use std::collections::BTreeMap;

use dgrid_sim::prefix::Lazy;
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
/// binary search into the shared `canon` snapshot, made when a route asks
/// for it. In particular no finger *table* is ever built for a routing
/// hop: [`ChordRing::lookup`] resolves single fingers, top candidate
/// first, and stops at the first live one.
pub struct ChordRing {
    cfg: ChordConfig,
    peers: BTreeMap<u64, PeerState>,
    alive_count: usize,
    /// Sorted alive keys at the last [`ChordRing::stabilize`]: the snapshot
    /// every `Canon` component is computed from.
    canon: Vec<u64>,
    /// No membership change since the last [`ChordRing::stabilize`]: every
    /// peer's routing state equals ground truth, so a route from any live
    /// peer ends at `canon_successor(key)`. Set by `stabilize`, cleared by
    /// every join and departure.
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
            canon: Vec::new(),
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
        self.peers
            .iter()
            .filter(|(_, p)| p.alive)
            .map(|(&id, _)| ChordId(id))
            .collect()
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
            self.canon.get(rank).copied()
        } else {
            let mut alive = self.peers.iter().filter(|(_, p)| p.alive);
            alive.nth(rank).map(|(&id, _)| id)
        }
    }

    // ------------------------------------------------------------------
    // Ground truth (what a fully stabilized ring would know)
    // ------------------------------------------------------------------

    /// The live owner of `key`: the first live peer clockwise from `key`
    /// (inclusive). `None` on an empty ring.
    pub fn successor_of(&self, key: ChordId) -> Option<ChordId> {
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

    /// Successive live successors of `id` (starting after `id`), up to `k`.
    fn true_successor_list(&self, id: ChordId, k: usize) -> Vec<ChordId> {
        let mut out = Vec::with_capacity(k);
        let mut cur = id;
        for _ in 0..k.min(self.alive_count) {
            let next = match self.successor_of(ChordId(cur.0.wrapping_add(1))) {
                Some(n) => n,
                None => break,
            };
            out.push(next);
            if next == id {
                break; // wrapped all the way around
            }
            cur = next;
        }
        if out.is_empty() {
            out.push(id); // single-node ring: own successor
        }
        out
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
        self.canon = self.peers.keys().copied().collect();
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

    /// Position of `id` in the canonical snapshot, if it was alive at the
    /// last stabilize.
    fn canon_pos(&self, id: ChordId) -> Option<usize> {
        self.canon.binary_search(&id.0).ok()
    }

    /// First snapshot key at or clockwise after `key` — `successor_of`
    /// evaluated against the membership of the last stabilize.
    pub(crate) fn canon_successor(&self, key: u64) -> ChordId {
        debug_assert!(!self.canon.is_empty());
        let i = self.canon.partition_point(|&x| x < key);
        ChordId(self.canon[if i == self.canon.len() { 0 } else { i }])
    }

    /// The peer's believed predecessor (possibly stale).
    pub(crate) fn peer_predecessor(&self, id: ChordId) -> Option<ChordId> {
        match &self.peers.get(&id.0).expect("known peer").predecessor {
            Lazy::Mat(p) => *p,
            Lazy::Canon => match self.canon_pos(id) {
                Some(pos) => {
                    let n = self.canon.len();
                    Some(ChordId(self.canon[(pos + n - 1) % n]))
                }
                // Deferred join not yet stabilized: resolve from ground
                // truth, as an eager join would have.
                None => self.predecessor_of(id),
            },
        }
    }

    /// The peer's believed successor list (possibly stale), into `out`.
    pub(crate) fn peer_successors_into(&self, id: ChordId, out: &mut Vec<ChordId>) {
        out.clear();
        match &self.peers.get(&id.0).expect("known peer").successors {
            Lazy::Mat(v) => out.extend_from_slice(v),
            Lazy::Canon => match self.canon_pos(id) {
                Some(pos) => {
                    let n = self.canon.len();
                    for j in 1..=self.cfg.successor_list_len.min(n) {
                        let s = ChordId(self.canon[(pos + j) % n]);
                        out.push(s);
                        if s == id {
                            break; // wrapped all the way around
                        }
                    }
                }
                None => out.extend(self.true_successor_list(id, self.cfg.successor_list_len)),
            },
        }
    }

    /// The peer's believed finger `k` (possibly stale): the first peer it
    /// knew at clockwise distance ≥ 2^k, or the peer itself when none was.
    pub(crate) fn peer_finger(&self, id: ChordId, k: u32) -> ChordId {
        match &self.peers.get(&id.0).expect("known peer").fingers {
            Lazy::Mat(v) => v[k as usize],
            Lazy::Canon => match self.canon_pos(id) {
                Some(_) => self.canon_successor(id.finger_start(k).0),
                None => self
                    .successor_of(id.finger_start(k))
                    .expect("ring is non-empty"),
            },
        }
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
        let state = self.peers.get(&id.0).filter(|p| p.alive)?;
        let successor = match &state.successors {
            Lazy::Mat(v) => v.first().copied().unwrap_or(id),
            Lazy::Canon => match self.canon_pos(id) {
                Some(pos) => ChordId(self.canon[(pos + 1) % self.canon.len()]),
                None => self
                    .true_successor_list(id, 1)
                    .first()
                    .copied()
                    .unwrap_or(id),
            },
        };
        Some(PeerView {
            id,
            successor,
            predecessor: self.peer_predecessor(id).unwrap_or(id),
        })
    }

    pub(crate) fn state(&self, id: ChordId) -> Option<&PeerState> {
        self.peers.get(&id.0)
    }

    /// Ring-consistency check for a quiesced ring (run [`ChordRing::stabilize`]
    /// first): every live peer's successor and predecessor pointers must
    /// agree with the sorted ring order, and following successor pointers
    /// from any peer must tour every live peer exactly once. Returns `None`
    /// when consistent, otherwise a description of the first violation —
    /// the oracle hook the model checker (`dgrid-check`) calls after churn
    /// has settled.
    pub fn consistency_violation(&self) -> Option<String> {
        let mut ids = self.alive_ids();
        if ids.len() <= 1 {
            return None;
        }
        ids.sort();
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
        let mut succ = Vec::new();
        for id in r.alive_ids() {
            r.peer_successors_into(id, &mut succ);
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
        let (mut canon_s, mut mat_s) = (Vec::new(), Vec::new());
        let fingers = |r: &ChordRing, id| -> Vec<ChordId> {
            (0..ID_BITS).map(|k| r.peer_finger(id, k)).collect()
        };
        for id in r.alive_ids() {
            r.peer_successors_into(id, &mut canon_s);
            let canon_f = fingers(&r, id);
            let canon_p = r.peer_predecessor(id);
            let canon_v = r.peer_view(id);
            r.refresh_peer(id); // flips this peer to Mat
            r.peer_successors_into(id, &mut mat_s);
            assert_eq!(canon_s, mat_s, "successors of {id}");
            assert_eq!(canon_f, fingers(&r, id), "fingers of {id}");
            assert_eq!(canon_p, r.peer_predecessor(id), "predecessor of {id}");
            assert_eq!(canon_v, r.peer_view(id), "view of {id}");
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
        let mut succ = Vec::new();
        r.peer_successors_into(ChordId(10), &mut succ);
        assert_eq!(succ.first(), Some(&ChordId(20)));
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
            for k in 0..ID_BITS {
                let start = id.finger_start(k);
                assert_eq!(
                    Some(ring.peer_finger(id, k)),
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
            let top = ring.peer_finger(id, ID_BITS - 1);
            total_span += u128::from(id.distance_to(top));
        }
        let mean_span = total_span / ids.len() as u128;
        assert!(
            mean_span > u128::from(u64::MAX / 4),
            "top fingers must reach across the ring (mean span {mean_span})"
        );
    }
}
