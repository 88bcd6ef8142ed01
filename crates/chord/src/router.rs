//! Chord as a pluggable overlay substrate: the [`KeyRouter`] impl.
//!
//! Everything delegates to the ring's existing public surface except the
//! two reads of a peer's believed successor list — the detour peers of
//! [`KeyRouter::lookup_with_failover`], which is the only failover Chord
//! has, and the random-walk step — and the two closed forms
//! ([`KeyRouter::lookup_owner`], [`KeyRouter::rn_tree_parents`]) that
//! answer from the stabilize snapshot.

use dgrid_sim::overlay::Entry;
use dgrid_sim::router::{rn_tree_parents_via, KeyRouter, RouteCost, NO_PARENT};

use crate::id::ChordId;
use crate::ring::{ChordRing, Hop};

impl KeyRouter for ChordRing {
    const SUBSTRATE: &'static str = "chord";

    fn key_of(raw: u64) -> u64 {
        ChordId::hash_of(raw).0
    }

    fn join(&mut self, key: u64) {
        ChordRing::join(self, ChordId(key));
    }

    fn leave(&mut self, key: u64) {
        ChordRing::leave(self, ChordId(key));
    }

    fn fail(&mut self, key: u64) {
        ChordRing::fail(self, ChordId(key));
    }

    fn is_alive(&self, key: u64) -> bool {
        self.m.is_alive(key)
    }

    fn len(&self) -> usize {
        self.m.len()
    }

    fn alive_keys(&self) -> Vec<u64> {
        self.m.alive_in(..).collect()
    }

    fn alive_key_at(&self, rank: usize) -> Option<u64> {
        self.m.alive_key_at(rank)
    }

    fn owner_of(&self, key: u64) -> Option<u64> {
        self.successor_of(ChordId(key)).map(|id| id.0)
    }

    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost> {
        ChordRing::lookup(self, ChordId(from), ChordId(key)).map(|l| RouteCost {
            owner: l.owner.0,
            hops: l.hops,
            timeouts: l.timeouts,
        })
    }

    /// Exact: once [`ChordRing::stabilize`] has run and membership has not
    /// changed since (the ring is *settled*), every peer's tables equal
    /// ground truth and greedy routing from any live peer ends at the
    /// key's successor in the stabilize snapshot. Any other state walks
    /// the route.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        if self.routes_are_exact() {
            debug_assert!(self.m.is_alive(from));
            self.owner_of(key)
        } else {
            KeyRouter::lookup(self, from, key).map(|r| r.owner)
        }
    }

    /// Exact while settled, when every parent lookup names the ground-truth
    /// owner. Rank 0 owns key 0 and is the root. Any other rank `r` owns
    /// `(key r - 1, key r]`, and prefix keys only grow with the prefix, so
    /// its level is the first prefix to exceed key `r - 1`: one bit past
    /// `lcp[r]`, the bits the two keys share. Its parent key therefore
    /// opens the `lcp[r]`-bit block that holds both, and the block's owner
    /// is its first member: the nearest earlier rank `s` with `lcp[s] <
    /// lcp[r]` (key `s - 1` lies outside the block), or rank 0. One pass
    /// over the keys with a stack of ranks whose `lcp` strictly increases,
    /// at most 64 deep. Any other state looks each parent up.
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
        let mut parent = Vec::with_capacity(keys.len());
        parent.extend(keys.first().map(|_| NO_PARENT));
        // (lcp, rank), lcp strictly increasing upwards.
        let mut open: Vec<(u32, u32)> = Vec::with_capacity(64);
        for (r, w) in (1u32..).zip(keys.windows(2)) {
            let lcp = (w[0] ^ w[1]).leading_zeros();
            while open.last().is_some_and(|&(l, _)| l >= lcp) {
                open.pop();
            }
            parent.push(open.last().map_or(0, |&(_, s)| s));
            open.push((lcp, r));
        }
        parent
    }

    /// In the caller's (hashed, hence random) order on purpose. Admitting
    /// the keys sorted is quicker — `matchmaker.bootstrap_s` 47 → 36 ms on
    /// `rntree-100k` — but ascending inserts split every B-tree node at
    /// its right edge and leave it half full for the life of the ring:
    /// `peak_rss_mb` 61.1 → 64.1 on the same run.
    fn bulk_join(&mut self, keys: &[u64]) {
        for &k in keys {
            self.join_deferred(ChordId(k));
        }
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

    fn stabilize(&mut self) {
        ChordRing::stabilize(self);
    }

    fn table_violation(&self) -> Option<String> {
        self.consistency_violation()
    }
}
