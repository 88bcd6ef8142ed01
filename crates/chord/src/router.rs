//! Chord as a pluggable overlay substrate: the [`KeyRouter`] impl.
//!
//! Everything delegates to the ring's existing public surface except the
//! two reads of a peer's believed successor list — the detour peers of
//! [`KeyRouter::lookup_with_failover`], which is the only failover Chord
//! has, and the random-walk step — and the two closed forms
//! ([`KeyRouter::lookup_owner`], [`KeyRouter::shortest_owned_prefix`]) that
//! answer from the stabilize snapshot and ground truth.

use dgrid_sim::prefix::Entry;
use dgrid_sim::router::{KeyRouter, RouteCost};

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
        ChordRing::is_alive(self, ChordId(key))
    }

    fn len(&self) -> usize {
        ChordRing::len(self)
    }

    fn alive_keys(&self) -> Vec<u64> {
        self.live_keys().collect()
    }

    fn alive_key_at(&self, rank: usize) -> Option<u64> {
        ChordRing::alive_key_at(self, rank)
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
            debug_assert!(ChordRing::is_alive(self, ChordId(from)));
            self.owner_of(key)
        } else {
            KeyRouter::lookup(self, from, key).map(|r| r.owner)
        }
    }

    /// Exact: a peer owns `(predecessor, key]`, and prefix keys only grow
    /// with the prefix, so the shortest prefix it owns is the first to
    /// exceed its predecessor — one bit past their common prefix. An
    /// interval that wraps through 0 (the lowest peer; a lone peer) holds
    /// the empty prefix.
    fn shortest_owned_prefix(&self, key: u64) -> u32 {
        debug_assert!(ChordRing::is_alive(self, ChordId(key)));
        let pred = self.predecessor_of(ChordId(key)).expect("live peer").0;
        if pred >= key {
            0
        } else {
            (pred ^ key).leading_zeros() + 1
        }
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
