//! Chord as a pluggable overlay substrate: the [`KeyRouter`] impl, whose
//! lookup is iterative greedy routing over (possibly stale) finger tables.
//!
//! Besides the route it reads a peer's believed successor list twice —
//! for the detour peers of [`KeyRouter::lookup_with_failover`], which is
//! the only failover Chord has, and for the random-walk step — and holds
//! two closed forms ([`KeyRouter::lookup_owner`],
//! [`KeyRouter::rn_tree_parents`]) that answer from the stabilize snapshot.

use dgrid_sim::overlay::{Entry, Lazy, Membership};
use dgrid_sim::router::{rn_tree_parents_of_successors, rn_tree_parents_via, KeyRouter, RouteCost};

use crate::id::ChordId;
use crate::ring::{ChordPeer, ChordRing, Hop};

/// The peer an entry points at.
fn id(e: Entry) -> ChordId {
    ChordId(e.key)
}

impl KeyRouter for ChordRing {
    const SUBSTRATE: &'static str = "chord";
    type Peer = ChordPeer;

    fn membership(&self) -> &Membership<Self::Peer> {
        &self.m
    }

    /// Builds the joiner's routing state (a real node performs O(log N)
    /// lookups for this during join). Its immediate neighbours learn of it
    /// right away, as Chord's join notification does; everyone else's
    /// fingers stay stale until [`KeyRouter::stabilize`].
    fn join(&mut self, key: u64) {
        let id = ChordId(key);
        self.m.admit(key, ChordPeer::default());
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
                self.m.state_mut(s.0).predecessor = Lazy::Mat(Some(id));
            }
        }
    }

    /// The peer tells its neighbours before leaving, so their successor
    /// and predecessor state is repaired at once. Remote finger tables
    /// still go stale.
    fn leave(&mut self, key: u64) {
        let id = ChordId(key);
        self.m.mark_dead(id.0);
        let pred = self.predecessor_of(id);
        let succ = self.successor_of(id);
        if let Some(p) = pred {
            self.refresh_successors_of(p);
        }
        if let (Some(p), Some(s)) = (pred, succ) {
            self.m.state_mut(s.0).predecessor = Lazy::Mat(Some(p));
        }
    }

    /// The peer vanishes without notice. Every reference to it (fingers,
    /// successor lists) remains until routing times out on it or
    /// [`KeyRouter::stabilize`] repairs it.
    fn fail(&mut self, key: u64) {
        self.m.mark_dead(key);
    }

    /// The first live peer clockwise from `key` (inclusive).
    fn owner_of(&self, key: u64) -> Option<u64> {
        self.successor_of(ChordId(key)).map(|id| id.0)
    }

    /// Iterative greedy routing over each intermediate peer's *local*
    /// finger table and successor list — exactly the information a real
    /// Chord node has, including stale entries after churn. `None` on a
    /// routing-state partition or past the hop limit, which in a
    /// deployment triggers retry-after-stabilization.
    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost> {
        let (from, key) = (ChordId(from), ChordId(key));
        // While settled the view is the snapshot rank alone, so finding it
        // is the liveness check.
        let mut at = self
            .hop(Entry::unranked(from.0))
            .filter(Hop::is_alive)
            .unwrap_or_else(|| panic!("lookup from dead peer {from}"));
        // While settled no probe below fails, so `timeouts` stays 0, and
        // every entry brings the rank the next hop's view starts from.
        let mut hops = 0u32;
        let mut timeouts = 0u32;
        let found = |owner: ChordId, hops, timeouts| {
            Some(RouteCost {
                owner: owner.0,
                hops,
                timeouts,
            })
        };

        loop {
            if hops > self.config().max_route_hops {
                return None;
            }
            let cur = at.id();
            // A peer whose own id equals the key owns it (successor is
            // inclusive of the key itself).
            if cur == key {
                return found(cur, hops, timeouts);
            }

            debug_assert!(at.is_alive(), "routing through dead peer");

            // Ownership check: a node owns (predecessor, self]. A stale
            // predecessor that has *died* only widens this interval towards
            // the true one, so the check stays safe under failures.
            if let Some(pred) = at.predecessor() {
                if key.in_open_closed(pred, cur) {
                    return found(cur, hops, timeouts);
                }
            }

            // First alive entry in the successor list, charging a timeout
            // for each dead entry we must probe first.
            let mut si = at.successor_count();
            let mut succ = None;
            for j in 0..si {
                let s = at.successor(j);
                if self.points_at_live(s) {
                    succ = Some(s);
                    break;
                }
                timeouts += 1;
            }
            let succ = succ?;

            if succ.key == cur.0 {
                // Single-node ring: we own everything.
                return found(cur, hops, timeouts);
            }
            if key.in_open_closed(cur, id(succ)) {
                // The key lies between us and our successor: succ owns it.
                return found(id(succ), hops + 1, timeouts);
            }

            // Closest preceding alive node: candidates strictly inside
            // (cur, key), tried from closest-to-key backwards, charging a
            // timeout per dead candidate probed.
            //
            // Both lists are ascending in clockwise distance from `cur` —
            // finger `k` targets the first peer at distance ≥ 2^k, the
            // successor list walks the ring in order — except for a
            // possible trailing run of `cur` itself (top fingers of a
            // sparse ring, a fully-wrapped successor list). The
            // closest-first scan is therefore a descending two-way merge:
            // the same candidate order the filter + sort + dedup spelling
            // yields, without a per-hop allocation and sort.
            //
            // Fingers are resolved one at a time, as the merge reaches
            // them. A finger `k` with 2^k ≥ d = dist(cur, key) lies at
            // distance ≥ d or has wrapped to `cur`; the open interval
            // rejects both without a probe, so the merge starts at the top
            // finger that can pass, k* = ⌊log2(d − 1)⌋, and a hop over
            // exact tables resolves one or two fingers instead of 64.
            let d = cur.distance_to(key);
            let mut fi = if d > 1 { (d - 1).ilog2() + 1 } else { 0 };
            // Finger `fi - 1` once resolved; `cur`, which no finger below
            // the trailing run equals, until then.
            let mut head = at.entry();
            while si > 0 && at.successor(si - 1).key == cur.0 {
                si -= 1;
            }
            let mut next = None;
            let mut last = cur.0; // sentinel: `cur` never passes the filter
            loop {
                while fi > 0 && head.key == cur.0 {
                    head = at.finger(fi - 1);
                    if head.key == cur.0 {
                        fi -= 1; // trailing run: this finger wrapped
                    }
                }
                let take_finger = match (fi, si) {
                    (0, 0) => break,
                    (0, _) => false,
                    (_, 0) => true,
                    _ => cur.distance_to(id(head)) >= cur.distance_to(id(at.successor(si - 1))),
                };
                let cand = if take_finger {
                    fi -= 1;
                    std::mem::replace(&mut head, at.entry())
                } else {
                    si -= 1;
                    at.successor(si)
                };
                if cand.key == last || !id(cand).in_open_open(cur, key) {
                    continue;
                }
                last = cand.key;
                if self.points_at_live(cand) {
                    next = Some(cand);
                    break;
                }
                timeouts += 1;
            }

            // The scan ends at `succ` if nothing closer is alive: it is in
            // the list, and since key ∉ (cur, succ] it lies strictly inside
            // (cur, key).
            let next = next.expect("the first alive successor is a candidate");
            debug_assert!(
                cur.distance_to(id(next)) < cur.distance_to(key),
                "routing must make clockwise progress"
            );
            at = self.hop(next).expect("hops visit known peers");
            hops += 1;
        }
    }

    /// Exact: once [`KeyRouter::stabilize`] has run and membership has not
    /// changed since (the ring is *settled*), every peer's tables equal
    /// ground truth and greedy routing from any live peer ends at the
    /// key's successor in the stabilize snapshot. Any other state walks
    /// the route.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        if self.routes_are_exact() {
            debug_assert!(self.m.is_alive(from));
            self.owner_of(key)
        } else {
            self.lookup(from, key).map(|r| r.owner)
        }
    }

    /// Exact while settled, when every parent lookup names the ground-truth
    /// owner, the successor of the parent key:
    /// [`rn_tree_parents_of_successors`]. Any other state looks each
    /// parent up.
    ///
    /// Chord keeps the default level probe: only that fallback and
    /// `RnTree::build_counting` (experiment `T-tree`, which routes every
    /// parent lookup to count its hops) ask for a level, and no engine
    /// path reaches either.
    fn rn_tree_parents(&self, keys: &[u64]) -> Vec<u32> {
        if !self.routes_are_exact() {
            return rn_tree_parents_via(self, keys, |from, key| {
                self.lookup_owner(from, key).expect("stable overlay routes")
            });
        }
        debug_assert!(keys == self.m.snapshot().keys(), "keys are the live set");
        rn_tree_parents_of_successors(keys)
    }

    /// Into an empty ring: one sort, landing settled with no record per
    /// peer. Into any other: deferred joins, which resolve against ground
    /// truth until the next stabilize.
    fn bulk_join(&mut self, keys: &[u64]) {
        self.m.bulk_join(keys, ChordPeer::default);
    }

    fn failover_peers(&self, from: u64) -> Vec<u64> {
        let Some(hop) = self.hop(Entry::unranked(from)) else {
            return Vec::new();
        };
        (0..hop.successor_count())
            .map(|j| hop.successor(j).key)
            .collect()
    }

    fn walk_step(&self, at: u64) -> Option<u64> {
        let hop = self.hop(Entry::unranked(at)).filter(Hop::is_alive)?;
        let next = hop.successor(0);
        (next.key != at && self.points_at_live(next)).then_some(next.key)
    }

    /// Every live peer refreshes its state, and records of dead peers are
    /// garbage-collected (no stale pointers can remain afterwards).
    ///
    /// Post-stabilize every peer's state is a pure function of the sorted
    /// alive-key snapshot, so instead of materializing ~`ID_BITS + r` ids
    /// per peer this takes the snapshot once and flips every peer to
    /// [`Lazy::Canon`] — O(N) total, with views computed on demand.
    fn stabilize(&mut self) {
        self.m.stabilize();
    }

    /// Ring consistency, meaningful once stabilized: every live peer's
    /// successor and predecessor pointers must agree with the sorted ring
    /// order, and following successor pointers from any peer must tour
    /// every live peer exactly once. The oracle hook the model checker
    /// (`dgrid-check`) calls after churn has settled.
    fn table_violation(&self) -> Option<String> {
        let ids: Vec<ChordId> = self.m.alive_in(..).map(ChordId).collect();
        if ids.len() <= 1 {
            return None;
        }
        let n = ids.len();
        for (i, &id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % n];
            let prev = ids[(i + n - 1) % n];
            let Some((successor, predecessor)) = self.peer_view(id) else {
                return Some(format!("live peer {id} has no ring view"));
            };
            if successor != next {
                return Some(format!(
                    "{id}: successor {successor} disagrees with ring order {next}"
                ));
            }
            if predecessor != prev {
                return Some(format!(
                    "{id}: predecessor {predecessor} disagrees with ring order {prev}"
                ));
            }
        }
        // Successor pointers must form a single cycle covering the ring.
        let start = ids[0];
        let mut at = start;
        for step in 1..=n {
            at = match self.peer_view(at) {
                Some((successor, _)) => successor,
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
    use crate::ring::{ChordConfig, ChordPeer};
    use dgrid_sim::overlay::Lazy;
    use dgrid_sim::rng::{rng_for, streams};
    use dgrid_sim::router::{KeyRouter, RouteCost};
    use rand::Rng;

    fn build_ring(n: usize, seed: u64) -> (ChordRing, Vec<u64>) {
        build_ring_with(ChordConfig::default(), n, seed)
    }

    fn build_ring_with(cfg: ChordConfig, n: usize, seed: u64) -> (ChordRing, Vec<u64>) {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut ring = ChordRing::new(cfg);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id: u64 = rng.gen();
            if !ring.is_alive(id) {
                ring.join(id);
                ids.push(id);
            }
        }
        ring.stabilize();
        (ring, ids)
    }

    #[test]
    fn lookup_agrees_with_ground_truth() {
        let (ring, ids) = build_ring(128, 1);
        let mut rng = rng_for(2, 0);
        for _ in 0..500 {
            let key: u64 = rng.gen();
            let from = ids[rng.gen_range(0..ids.len())];
            let res = ring.lookup(from, key).expect("lookup succeeds");
            assert_eq!(Some(res.owner), ring.owner_of(key));
            assert_eq!(res.timeouts, 0, "no timeouts on a stable ring");
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        for n in [64usize, 256, 1024] {
            let (ring, ids) = build_ring(n, 3);
            let mut rng = rng_for(4, n as u64);
            let mut total_hops = 0u64;
            let trials = 300;
            for _ in 0..trials {
                let key: u64 = rng.gen();
                let from = ids[rng.gen_range(0..ids.len())];
                total_hops += u64::from(ring.lookup(from, key).unwrap().hops);
            }
            let mean = total_hops as f64 / trials as f64;
            let log2n = (n as f64).log2();
            assert!(
                mean <= log2n,
                "n={n}: mean hops {mean:.2} should be ~log2(n)/2 ≲ {log2n:.1}"
            );
            assert!(mean >= log2n / 4.0, "n={n}: implausibly few hops {mean:.2}");
        }
    }

    #[test]
    fn lookup_from_owner_is_free_or_one_hop() {
        let (ring, _) = build_ring(64, 5);
        let mut rng = rng_for(6, 0);
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let owner = ring.owner_of(key).unwrap();
            let res = ring.lookup(owner, key).unwrap();
            assert_eq!(res.owner, owner);
            assert_eq!(res.hops, 0, "owner already holds the key");
        }
    }

    #[test]
    fn survives_unstabilized_failures_within_successor_list() {
        let (mut ring, ids) = build_ring(256, 7);
        // Kill 20% of peers abruptly, *without* stabilizing.
        let mut rng = rng_for(8, 0);
        let mut killed = 0;
        for &id in &ids {
            if killed < 51 && rng.gen_bool(0.2) {
                ring.fail(id);
                killed += 1;
            }
        }
        let alive = ring.alive_keys();
        let mut timeouts_total = 0u32;
        for _ in 0..300 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let res = ring
                .lookup(from, key)
                .expect("successor lists route around failures");
            assert!(ring.is_alive(res.owner), "owner must be alive");
            // The reached owner must be the true live successor of the key.
            assert_eq!(Some(res.owner), ring.owner_of(key));
            timeouts_total += res.timeouts;
        }
        // With 20% dead and stale tables, some timeouts must have occurred.
        assert!(timeouts_total > 0, "expected at least one timeout probe");
    }

    #[test]
    fn stabilization_eliminates_timeouts() {
        let (mut ring, ids) = build_ring(256, 9);
        let mut rng = rng_for(10, 0);
        for &id in ids.iter().take(50) {
            ring.fail(id);
        }
        ring.stabilize();
        let alive = ring.alive_keys();
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let res = ring.lookup(from, key).unwrap();
            assert_eq!(res.timeouts, 0);
            assert_eq!(Some(res.owner), ring.owner_of(key));
        }
    }

    #[test]
    fn tiny_rings() {
        let mut ring = ChordRing::new(ChordConfig::default());
        ring.join(100);
        let res = ring.lookup(100, 5).unwrap();
        assert_eq!(res.owner, 100);
        assert_eq!(res.hops, 0);

        ring.join(200);
        ring.stabilize();
        let res = ring.lookup(100, 150).unwrap();
        assert_eq!(res.owner, 200);
        assert!(res.hops <= 1);
        let res = ring.lookup(100, 250).unwrap();
        assert_eq!(res.owner, 100);
    }

    #[test]
    fn failover_is_free_on_first_try_success() {
        let (ring, ids) = build_ring(64, 13);
        let mut rng = rng_for(14, 0);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let from = ids[rng.gen_range(0..ids.len())];
            let plain = ring.lookup(from, key).unwrap();
            let (via, retries) = ring.lookup_with_failover(from, key, 3).unwrap();
            assert_eq!(via, plain, "successful lookups must be unchanged");
            assert_eq!(retries, 0);
        }
    }

    #[test]
    fn failover_detours_when_the_hop_budget_fails_a_route() {
        // max_route_hops = 0 forbids forwarding: any multi-hop route fails,
        // but a detour starting one peer closer can still succeed.
        let mut ring = ChordRing::new(ChordConfig {
            max_route_hops: 0,
            ..ChordConfig::default()
        });
        for id in [100u64, 200, 300] {
            ring.join(id);
        }
        ring.stabilize();
        assert_eq!(ring.lookup(100, 250), None, "needs 2 hops");
        let (l, retries) = ring
            .lookup_with_failover(100, 250, 3)
            .expect("detour via the successor reaches the owner");
        assert_eq!(l.owner, 300);
        assert!(retries >= 1, "the detour must be counted");
        assert!(l.hops >= 2, "detour handoffs are charged as hops");
    }

    /// FNV-1a over the `(owner, hops, timeouts)` words of a route stream.
    struct RouteHash(u64);

    impl RouteHash {
        fn new() -> Self {
            RouteHash(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }

        fn route(&mut self, l: Option<RouteCost>) {
            match l {
                Some(l) => {
                    self.word(l.owner);
                    self.word(u64::from(l.hops));
                    self.word(u64::from(l.timeouts));
                }
                None => self.word(u64::MAX),
            }
        }
    }

    /// `trials` seeded lookups from random live peers, hashed; also the
    /// timeout total, so a golden can show that dead entries were probed.
    fn hash_lookups(ring: &ChordRing, trials: usize, seed: u64) -> (u64, u64) {
        let alive = ring.alive_keys();
        let mut rng = rng_for(seed, 0);
        let mut h = RouteHash::new();
        let mut timeouts = 0u64;
        for _ in 0..trials {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let l = ring.lookup(from, key);
            timeouts += l.map_or(0, |l| u64::from(l.timeouts));
            h.route(l);
        }
        (h.0, timeouts)
    }

    /// The settled 4 096-peer ring of the route goldens after 400 abrupt
    /// failures and 200 joins (every fourth one deferred) with *no*
    /// stabilize: dead fingers and successors, `Mat` states beside `Canon`
    /// ones, and deferred joiners that resolve against ground truth.
    fn unsettled_ring(cfg: ChordConfig) -> ChordRing {
        let (mut ring, ids) = build_ring_with(cfg, 4096, 21);
        let mut rng = rng_for(22, 0);
        let mut failed = 0;
        while failed < 400 {
            let id = ids[rng.gen_range(0..ids.len())];
            if ring.is_alive(id) {
                ring.fail(id);
                failed += 1;
            }
        }
        let mut joined = 0;
        while joined < 200 {
            let id: u64 = rng.gen();
            if ring.hop(Entry::unranked(id)).is_some() {
                continue;
            }
            if joined % 4 == 3 {
                ring.bulk_join(&[id]);
            } else {
                ring.join(id);
            }
            joined += 1;
        }
        ring
    }

    // The four goldens below were recorded on the lookup that materialized
    // all 64 fingers of every hop; every route — owner, hops and timeouts —
    // is simulated behaviour and must not move when only the host-time
    // cost of a hop changes.

    #[test]
    fn settled_ring_routes_match_the_golden() {
        let (ring, _) = build_ring(4096, 21);
        assert_eq!(hash_lookups(&ring, 4000, 23), (0xa560_51e3_eb8c_97bb, 0));
    }

    #[test]
    fn unsettled_ring_routes_match_the_golden() {
        let ring = unsettled_ring(ChordConfig::default());
        assert_eq!(hash_lookups(&ring, 4000, 24), (0xc7fa_adc4_8b31_6405, 5990));
    }

    #[test]
    fn three_peer_ring_routes_match_the_golden() {
        // Every finger above the lowest few wraps to the asking peer.
        let mut ring = ChordRing::default();
        for id in [0x1000u64, 0x8000_0000_0000_0000, 0xF000_0000_0000_0000] {
            ring.join(id);
        }
        ring.stabilize();
        assert_eq!(hash_lookups(&ring, 2000, 25), (0x46cc_799b_a1b2_dbb7, 0));
    }

    #[test]
    fn unsettled_ring_failover_routes_match_the_golden() {
        // A hop budget below the mean route length fails many first
        // attempts, so detours through the (stale) successor list run.
        let ring = unsettled_ring(ChordConfig {
            max_route_hops: 6,
            ..ChordConfig::default()
        });
        let alive = ring.alive_keys();
        let mut rng = rng_for(26, 0);
        let mut h = RouteHash::new();
        let mut retries = 0u64;
        for _ in 0..4000 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let out = ring.lookup_with_failover(from, key, 2);
            h.route(out.map(|(l, _)| l));
            h.word(out.map_or(u64::MAX, |(_, r)| u64::from(r)));
            retries += out.map_or(0, |(_, r)| u64::from(r));
        }
        assert_eq!((h.0, retries), (0x91b7_7d8b_cfdd_366c, 325));
    }

    /// `walk_step`, `failover_peers` and `peer_view` of every 16th live
    /// peer, hashed: the reads of a peer's state that are not a route.
    fn hash_neighbour_reads(ring: &ChordRing) -> u64 {
        let mut h = RouteHash::new();
        for id in ring.alive_keys().into_iter().step_by(16) {
            h.word(ring.walk_step(id).unwrap_or(u64::MAX));
            let peers = ring.failover_peers(id);
            h.word(peers.len() as u64);
            for p in peers {
                h.word(p);
            }
            let (successor, predecessor) = ring.peer_view(ChordId(id)).expect("live peer");
            for w in [id, successor.0, predecessor.0] {
                h.word(w);
            }
        }
        h.0
    }

    // The goldens below were recorded on the lookup that searched `peers`
    // and the snapshot once per component of every hop: like the four
    // above they pin simulated behaviour, at the edges those do not reach.

    #[test]
    fn neighbour_reads_match_the_golden() {
        let (settled, _) = build_ring(4096, 21);
        assert_eq!(hash_neighbour_reads(&settled), 0x945b_e427_da3d_2f3e);
        let unsettled = unsettled_ring(ChordConfig::default());
        assert_eq!(hash_neighbour_reads(&unsettled), 0xc0ee_0919_0cd7_dc0e);
    }

    #[test]
    fn routes_under_other_configs_match_the_golden() {
        // A successor list of one entry (no fallback past a dead
        // successor, so some unsettled routes fail), a long one, and a hop
        // budget most routes exceed: `None` results are in the hashes.
        let cfg = |successor_list_len, max_route_hops| ChordConfig {
            successor_list_len,
            max_route_hops,
        };
        let goldens = [
            (
                cfg(1, 192),
                (0x6e3f_8931_521d_46cd, 0),
                (0xe9d5_0489_9f8b_c76a, 534),
            ),
            (
                cfg(16, 192),
                (0x4b5c_e134_af0f_db90, 0),
                (0x03c3_4423_1ce4_3c9f, 2638),
            ),
            (
                cfg(8, 3),
                (0xc423_b7c7_631c_d1b7, 0),
                (0x7be3_d4c0_56dc_b0b2, 91),
            ),
        ];
        for (c, settled, unsettled) in goldens {
            let (ring, _) = build_ring_with(c, 4096, 21);
            assert_eq!(hash_lookups(&ring, 2000, 27), settled, "settled {c:?}");
            let ring = unsettled_ring(c);
            assert_eq!(hash_lookups(&ring, 2000, 28), unsettled, "unsettled {c:?}");
        }
    }

    #[test]
    fn rings_no_longer_than_the_successor_list_match_the_golden() {
        // Two peers: each successor list wraps all the way round and ends
        // in the asking peer itself. Nine: the default list of eight is
        // exactly everybody else. Hashed settled, then again after an
        // abrupt failure and a join nobody has stabilized.
        fn hash_all(ring: &ChordRing, seed: u64) -> (u64, u64) {
            let routes = hash_lookups(ring, 2000, seed);
            let mut h = RouteHash::new();
            h.word(routes.0);
            for id in ring.alive_keys() {
                h.word(ring.walk_step(id).unwrap_or(u64::MAX));
                for p in ring.failover_peers(id) {
                    h.word(p);
                }
                let (_, predecessor) = ring.peer_view(ChordId(id)).expect("live peer");
                h.word(predecessor.0);
            }
            (h.0, routes.1)
        }
        let goldens = [
            (
                2usize,
                (0xfd80_cb71_9f19_3c22, 0),
                (0xb91b_c27a_fc97_a77b, 0),
            ),
            (9, (0x25dc_0d85_36be_98bf, 0), (0x793e_c8ed_c184_f5f0, 632)),
        ];
        for (n, settled, churned) in goldens {
            let (mut ring, ids) = build_ring(n, 29);
            assert_eq!(hash_all(&ring, 30), settled, "{n} peers, settled");
            ring.fail(ids[0]);
            ring.join(ids[0] ^ (1 << 62));
            assert_eq!(hash_all(&ring, 31), churned, "{n} peers, churned");
        }
    }

    #[test]
    fn lookup_for_own_id_returns_self() {
        let (ring, ids) = build_ring(32, 11);
        for &id in &ids {
            let res = ring.lookup(id, id).unwrap();
            assert_eq!(res.owner, id);
            assert_eq!(res.hops, 0);
        }
    }

    #[test]
    fn a_settled_hop_reads_no_peer_record() {
        // Every record's state swapped for one that knows nobody: any read
        // of a record would stall the route, empty a successor list or
        // index an empty finger table.
        let (ring, ids) = build_ring(512, 33);
        let mut poisoned = ring.clone();
        for &id in &ids {
            *poisoned.m.state_mut(id) = ChordPeer {
                predecessor: Lazy::Mat(None),
                successors: Lazy::Mat(Vec::new()),
                fingers: Lazy::Mat(Vec::new()),
            };
        }
        let mut walked = poisoned.clone();
        walked.m.unsettle();
        assert!(walked.failover_peers(ids[0]).is_empty(), "the poison took");
        let mut rng = rng_for(34, 0);
        for &from in &ids {
            let key: u64 = rng.gen();
            let lookup = poisoned.lookup(from, key);
            assert_eq!(lookup, ring.lookup(from, key));
            assert_eq!(poisoned.owner_of(key), ring.owner_of(key));
            let (key, from) = (ChordId(key), ChordId(from));
            assert_eq!(poisoned.predecessor_of(key), ring.predecessor_of(key));
            assert_eq!(poisoned.walk_step(from.0), ring.walk_step(from.0));
            assert_eq!(poisoned.failover_peers(from.0), ring.failover_peers(from.0));
            assert_eq!(poisoned.peer_view(from), ring.peer_view(from));
        }
    }

    mod properties {
        use super::*;
        use crate::id::ID_BITS;
        use proptest::prelude::*;
        use std::cmp::Reverse;

        /// Join a fresh id with or without building its state; or pick a
        /// live peer to leave, fail or refresh; or stabilize.
        #[derive(Clone, Debug)]
        enum Step {
            Join(u64),
            JoinDeferred(u64),
            Leave(usize),
            Fail(usize),
            Refresh(usize),
            Stabilize,
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                3 => crowded_id().prop_map(Step::Join),
                1 => crowded_id().prop_map(Step::JoinDeferred),
                2 => any::<usize>().prop_map(Step::Leave),
                2 => any::<usize>().prop_map(Step::Fail),
                1 => any::<usize>().prop_map(Step::Refresh),
                2 => Just(Step::Stabilize),
            ]
        }

        /// Ids that crowd both ends of the ring, so that intervals wrap
        /// and low fingers tell neighbours apart.
        fn crowded_id() -> impl Strategy<Value = u64> {
            prop_oneof![
                any::<u64>(),
                0u64..24,
                (0u64..24).prop_map(|x| u64::MAX - x),
                (0u64..4, 0u64..16).prop_map(|(hi, lo)| (hi << 62) | lo),
            ]
        }

        /// `lookup` spelled the slow way over the same hop views: every
        /// finger resolved, candidates filtered, sorted and deduplicated.
        fn reference_lookup(ring: &ChordRing, from: u64, key: u64) -> Option<RouteCost> {
            let key = ChordId(key);
            let (mut cur, mut hops, mut timeouts) = (ChordId(from), 0u32, 0u32);
            let found = |owner: ChordId, hops, timeouts| {
                Some(RouteCost {
                    owner: owner.0,
                    hops,
                    timeouts,
                })
            };
            loop {
                if hops > ring.config().max_route_hops {
                    return None;
                }
                let at = ring.hop(Entry::unranked(cur.0)).expect("known peer");
                let owns = |pred| key.in_open_closed(pred, cur);
                if cur == key || at.predecessor().is_some_and(owns) {
                    return found(cur, hops, timeouts);
                }
                let successors = (0..at.successor_count()).map(|j| id(at.successor(j)));
                let successors: Vec<ChordId> = successors.collect();
                let dead = successors.iter().take_while(|&&s| !ring.m.is_alive(s.0));
                timeouts += dead.count() as u32;
                let succ = *successors.iter().find(|&&s| ring.m.is_alive(s.0))?;
                if succ == cur {
                    return found(cur, hops, timeouts);
                }
                if key.in_open_closed(cur, succ) {
                    return found(succ, hops + 1, timeouts);
                }
                let fingers = (0..ID_BITS).map(|k| id(at.finger(k)));
                let mut candidates: Vec<ChordId> = fingers
                    .chain(successors)
                    .filter(|c| c.in_open_open(cur, key))
                    .collect();
                candidates.sort_by_key(|&c| Reverse(cur.distance_to(c)));
                candidates.dedup();
                let dead = candidates.iter().take_while(|&&c| !ring.m.is_alive(c.0));
                timeouts += dead.count() as u32;
                cur = *candidates.iter().find(|&&c| ring.m.is_alive(c.0))?;
                hops += 1;
            }
        }

        /// Everything the ring answers while settled equals what a clone
        /// that has forgotten it is settled answers by walking its records
        /// and probing liveness; and either way a route is the reference's.
        fn reads_agree(ring: &ChordRing, keys: &[u64]) -> Result<(), TestCaseError> {
            let mut walked = ring.clone();
            walked.m.unsettle();
            let live = walked.alive_keys();
            for rank in 0..=live.len() {
                prop_assert_eq!(ring.alive_key_at(rank), live.get(rank).copied());
            }
            let near = live
                .iter()
                .flat_map(|&k| [k, k.wrapping_add(1), k.wrapping_sub(1)]);
            let keys: Vec<u64> = near.chain([0]).chain(keys.iter().copied()).collect();
            for &key in &keys {
                prop_assert_eq!(ring.owner_of(key), walked.owner_of(key));
                let key = ChordId(key);
                prop_assert_eq!(ring.predecessor_of(key), walked.predecessor_of(key));
            }
            for &from in &live {
                prop_assert_eq!(ring.walk_step(from), walked.walk_step(from));
                prop_assert_eq!(ring.failover_peers(from), walked.failover_peers(from));
                let view = ring.peer_view(ChordId(from));
                prop_assert_eq!(view, walked.peer_view(ChordId(from)));
                for &key in &keys {
                    let routed = ring.lookup(from, key);
                    let walked = walked.lookup(from, key);
                    prop_assert_eq!(routed, walked, "{:x} from {:x}", key, from);
                }
            }
            // The slow spelling from a few origins only: it is slow.
            for &from in live.iter().take(3) {
                for &key in &keys {
                    let slow = reference_lookup(&walked, from, key);
                    let routed = ring.lookup(from, key);
                    prop_assert_eq!(routed, slow, "{:x} from {:x}", key, from);
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn settled_reads_equal_walked_reads_after_every_step(
                initial in proptest::collection::hash_set(crowded_id(), 1..40),
                successor_list_len in 1usize..=12,
                max_route_hops in 0u32..=192,
                steps in proptest::collection::vec(step(), 0..25),
                keys in proptest::collection::vec(any::<u64>(), 3),
            ) {
                let mut ring = ChordRing::new(ChordConfig { successor_list_len, max_route_hops });
                for id in initial {
                    ring.join(id);
                }
                reads_agree(&ring, &keys)?;
                for s in steps {
                    let live = ring.alive_keys();
                    let known = |id: u64| ring.hop(Entry::unranked(id)).is_some();
                    match s {
                        Step::Join(id) if !ring.is_alive(id) => ring.join(id),
                        Step::JoinDeferred(id) if !known(id) => ring.bulk_join(&[id]),
                        Step::Leave(i) if live.len() > 1 => ring.leave(live[i % live.len()]),
                        Step::Fail(i) if live.len() > 1 => ring.fail(live[i % live.len()]),
                        Step::Refresh(i) => ring.refresh_peer(ChordId(live[i % live.len()])),
                        Step::Stabilize => ring.stabilize(),
                        _ => {}
                    }
                    reads_agree(&ring, &keys)?;
                }
            }
        }
    }
}
