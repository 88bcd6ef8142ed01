//! Chord as a pluggable overlay substrate: the [`KeyRouter`] impl.
//!
//! Everything delegates to the ring's existing public surface except the
//! successor list used for failover detours, which mirrors
//! [`ChordRing::lookup_with_failover`] exactly, and the two closed forms
//! ([`KeyRouter::lookup_owner`], [`KeyRouter::shortest_owned_prefix`]) that
//! answer from the stabilize snapshot and ground truth.

use dgrid_sim::router::{KeyRouter, RouteCost};

use crate::id::ChordId;
use crate::ring::ChordRing;

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
        self.alive_ids().into_iter().map(|id| id.0).collect()
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
            Some(self.canon_successor(key).0)
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

    fn bulk_join(&mut self, keys: &[u64]) {
        for &k in keys {
            self.join_deferred(ChordId(k));
        }
    }

    fn failover_peers(&self, from: u64) -> Vec<u64> {
        let id = ChordId(from);
        if self.state(id).is_none() {
            return Vec::new();
        }
        let mut succ = Vec::new();
        self.peer_successors_into(id, &mut succ);
        succ.into_iter().map(|id| id.0).collect()
    }

    fn walk_step(&self, at: u64) -> Option<u64> {
        let at = ChordId(at);
        let v = self.peer_view(at)?;
        (v.successor != at && ChordRing::is_alive(self, v.successor)).then_some(v.successor.0)
    }

    fn stabilize(&mut self) {
        ChordRing::stabilize(self);
    }

    fn table_violation(&self) -> Option<String> {
        self.consistency_violation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_failover_matches_the_inherent_failover() {
        use dgrid_sim::rng::rng_for;
        use rand::Rng;

        let mut ring = ChordRing::default();
        let mut rng = rng_for(31, 0);
        let mut ids = Vec::new();
        while ids.len() < 96 {
            let id = ChordId(rng.gen());
            if !ring.is_alive(id) {
                ring.join(id);
                ids.push(id);
            }
        }
        ring.stabilize();
        // Abrupt unstabilized failures so some routes need detours.
        for &id in ids.iter().take(24) {
            ring.fail(id);
        }
        let alive = ring.alive_ids();
        for _ in 0..300 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let inherent = ring.lookup_with_failover(from, ChordId(key), 2);
            let generic = KeyRouter::lookup_with_failover(&ring, from.0, key, 2);
            assert_eq!(
                inherent.map(|(l, r)| (l.owner.0, l.hops, l.timeouts, r)),
                generic.map(|(c, r)| (c.owner, c.hops, c.timeouts, r)),
                "generic KeyRouter failover must mirror Chord's native detours"
            );
        }
    }
}
