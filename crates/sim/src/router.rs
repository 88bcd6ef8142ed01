//! Substrate-agnostic key routing: the [`KeyRouter`] trait.
//!
//! The paper's RN-Tree needs only a DHT's `successor(k)` mapping and
//! O(log N) routing (Section 3.1), so the matchmaking layer should not care
//! *which* structured overlay provides them. `KeyRouter` captures exactly
//! that surface over a 64-bit key space: membership (`join`/`leave`/`fail`),
//! ground-truth ownership, cost-counted routing, detour failover, a
//! maintenance tick, and a routing-table debug check. Chord, Pastry, and
//! Tapestry implement it in their own crates; `dgrid-core` re-exports the
//! trait as its overlay abstraction and builds the generic RN-Tree
//! matchmaker on top.
//!
//! CAN is deliberately **not** a `KeyRouter`: it routes points in a
//! d-dimensional resource space rather than 64-bit keys, and its matchmaker
//! uses the geometry directly. Its failover does share the same detour
//! skeleton, via [`crate::failover::route_with_detours`].

use crate::failover::route_with_detours;

/// Cost-annotated result of routing to a key's owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteCost {
    /// Key of the node responsible for the routed key.
    pub owner: u64,
    /// Forwarding hops the query took.
    pub hops: u32,
    /// Timed-out probes of dead nodes along the way.
    pub timeouts: u32,
}

impl RouteCost {
    /// Hops as charged to the requester: forwarding plus timeout probes.
    pub fn charged_hops(self) -> u32 {
        self.hops + self.timeouts
    }
}

/// Keep the top `bits` bits of `key`, zeroing the rest: the rendezvous key
/// of a `bits`-bit prefix.
pub fn prefix_key(key: u64, bits: u32) -> u64 {
    match bits {
        0 => 0,
        64.. => key,
        b => key & (u64::MAX << (64 - b)),
    }
}

/// A structured overlay that can own and locate 64-bit keys.
///
/// Implementations must be deterministic: every method's result is a pure
/// function of the membership/maintenance history, never of hash-map
/// iteration order or real time. `alive_keys` must return ascending order
/// so callers can draw random peers reproducibly.
pub trait KeyRouter: Default {
    /// Substrate name used in matchmaker labels: "chord", "pastry", ...
    const SUBSTRATE: &'static str;

    /// Hash an arbitrary value onto the substrate's key space.
    fn key_of(raw: u64) -> u64;

    /// Add a live node under `key`. Must not already be present and alive.
    fn join(&mut self, key: u64);

    /// Bulk-admit `keys` during initial construction: membership only,
    /// nobody's routing state is built or repaired. The next
    /// [`KeyRouter::stabilize`] takes one sorted snapshot of the live keys
    /// that every node's state is then computed from on demand — the hook
    /// that lets a 10⁶-node overlay come up without building a routing
    /// table per node, at join or ever. Callers must stabilize before
    /// routing.
    ///
    /// The default simply joins each key in order; substrates override it
    /// with a membership-only insert. Either way, the state after the
    /// following `stabilize` is identical to having joined one by one.
    fn bulk_join(&mut self, keys: &[u64]) {
        for &k in keys {
            self.join(k);
        }
    }

    /// Graceful departure: the node repairs its neighborhood on the way out.
    fn leave(&mut self, key: u64);

    /// Abrupt failure: routing state stays stale until maintenance.
    fn fail(&mut self, key: u64);

    /// Whether `key` is a live member.
    fn is_alive(&self, key: u64) -> bool;

    /// Number of live members.
    fn len(&self) -> usize;

    /// Whether the overlay has no live members.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys, ascending.
    fn alive_keys(&self) -> Vec<u64>;

    /// The `rank`-th live key in ascending order, `None` past the end:
    /// `alive_keys().get(rank).copied()`, which is the default — how a
    /// caller draws one random live node without listing all of them.
    ///
    /// A substrate may override it where it keeps the live keys indexable;
    /// the result must equal the default's in every state.
    fn alive_key_at(&self, rank: usize) -> Option<u64> {
        self.alive_keys().get(rank).copied()
    }

    /// Ground-truth owner of `key` (no routing, no cost).
    fn owner_of(&self, key: u64) -> Option<u64>;

    /// Route from the live node `from` to the owner of `key`, counting
    /// forwarding hops and timeout probes. `None` when routing stalls.
    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost>;

    /// The owner a [`KeyRouter::lookup`] from the live node `from` would
    /// reach, for callers that do not charge the route:
    /// `lookup(from, key).map(|r| r.owner)`, which is the default.
    ///
    /// A substrate may override it where it can name that owner without
    /// walking the route; the result must equal the default's in every
    /// membership and maintenance state, stale ones included.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        self.lookup(from, key).map(|r| r.owner)
    }

    /// Length in bits of the shortest prefix of the live node `key` whose
    /// rendezvous key ([`prefix_key`]) the node itself owns — the RN-Tree's
    /// level rule, a computation local to the node. 0 for the owner of key
    /// 0, at most 64 since a node owns its own key.
    ///
    /// The default probes ground-truth ownership one level at a time. A
    /// substrate may override it with a closed form of its ownership rule;
    /// the result must equal the probe's for every live key.
    ///
    /// # Panics
    /// If `key` is not a live member.
    fn shortest_owned_prefix(&self, key: u64) -> u32 {
        (0..=64u32)
            .find(|&l| self.owner_of(prefix_key(key, l)) == Some(key))
            .expect("level 64 always owns the id itself")
    }

    /// Detour peers to try, in order, when a lookup from `from` fails.
    /// Entries may be stale or dead; [`KeyRouter::lookup_with_failover`]
    /// skips dead ones without consuming retries.
    fn failover_peers(&self, from: u64) -> Vec<u64>;

    /// One deterministic neighbor step away from `at` — the RN-Tree
    /// random-walk primitive. `None` when no live neighbor is available.
    fn walk_step(&self, at: u64) -> Option<u64>;

    /// One maintenance round (periodic stabilization).
    fn stabilize(&mut self);

    /// Debug check of the routing-table invariants; `None` when clean.
    fn table_violation(&self) -> Option<String>;

    /// [`KeyRouter::lookup`] with detour failover: on a stalled lookup,
    /// hand the query to up to `retries` live `failover_peers`, charging
    /// one extra hop per handoff. Returns the route and the retries spent.
    fn lookup_with_failover(&self, from: u64, key: u64, retries: u32) -> Option<(RouteCost, u32)> {
        // Resolved on the first detour only: most routes succeed outright.
        let mut peers = None;
        route_with_detours(
            retries,
            || self.lookup(from, key),
            |_| {
                peers
                    .get_or_insert_with(|| self.failover_peers(from).into_iter())
                    .find(|&s| s != from && self.is_alive(s))
            },
            |&peer| self.lookup(peer, key),
            |r, extra| r.hops += extra,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_key_masks_low_bits() {
        assert_eq!(prefix_key(0xFFFF_FFFF_FFFF_FFFF, 0), 0);
        assert_eq!(prefix_key(0xFFFF_FFFF_FFFF_FFFF, 64), u64::MAX);
        assert_eq!(prefix_key(0xFFFF_FFFF_FFFF_FFFF, 4), 0xF000_0000_0000_0000);
        assert_eq!(prefix_key(0x1234_5678_9ABC_DEF0, 16), 0x1234_0000_0000_0000);
    }
}
