//! Substrate-agnostic key routing: the [`KeyRouter`] trait.
//!
//! The paper's RN-Tree needs only a DHT's `successor(k)` mapping and
//! O(log N) routing (Section 3.1), so the matchmaking layer should not care
//! *which* structured overlay provides them. `KeyRouter` captures exactly
//! that surface over a 64-bit key space: membership (`join`/`leave`/`fail`),
//! ground-truth ownership, cost-counted routing, detour failover, a
//! maintenance tick, and a routing-table debug check. Chord, Pastry, and
//! Tapestry implement it in their own crates, as the only membership and
//! routing surface each exports; `dgrid-core` re-exports the trait as its
//! overlay abstraction and builds the generic RN-Tree matchmaker on top.
//! Each keeps its peers in one [`Membership`], which answers the trait's
//! liveness reads, so a substrate supplies its routing rule and little else.
//!
//! CAN is deliberately **not** a `KeyRouter`: it routes points in a
//! d-dimensional resource space rather than 64-bit keys, and its matchmaker
//! uses the geometry directly. Its failover does share the same detour
//! skeleton, via [`crate::failover::route_with_detours`].

use crate::failover::route_with_detours;
use crate::overlay::Membership;
use crate::rng::{splitmix64, unsplitmix64};

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

/// The root's entry in [`KeyRouter::rn_tree_parents`]: it has no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// The RN-Tree parent rank of every key of `keys` — the live keys of
/// `router`, ascending — with the parent lookup left to `owner_from(node,
/// key)`, which names the owner of the parent `key` as `node` finds it.
/// Each node but the root (the owner of key 0, [`NO_PARENT`]) takes its
/// level with [`KeyRouter::shortest_owned_prefix`], a local step, and looks
/// up the owner of the next-shorter prefix, which the level rule says is
/// not its own. [`KeyRouter::rn_tree_parents`] is this with
/// [`KeyRouter::lookup_owner`]; a caller that charges the route routes it
/// here itself.
///
/// # Panics
/// If `keys` is empty, or if a lookup names the asker itself or a key not
/// in `keys`.
pub fn rn_tree_parents_via<R: KeyRouter>(
    router: &R,
    keys: &[u64],
    mut owner_from: impl FnMut(u64, u64) -> u64,
) -> Vec<u32> {
    let rank_of = |key: u64| keys.binary_search(&key).ok().map(|r| r as u32);
    let root = router.owner_of(0).expect("non-empty overlay");
    let root = rank_of(root).expect("the root is a live node");
    let mut parent = vec![NO_PARENT; keys.len()];
    for (r, &key) in keys.iter().enumerate() {
        if r as u32 == root {
            continue;
        }
        let level = router.shortest_owned_prefix(key);
        debug_assert!(level > 0, "only the root owns key 0");
        let p = owner_from(key, prefix_key(key, level - 1));
        assert_ne!(p, key, "the parent lookup came back to the asker");
        parent[r] = rank_of(p).expect("the parent is a live node");
    }
    parent
}

/// The RN-Tree parent rank of every key of `keys`, ascending and non-empty,
/// in a membership where the owner of a key is its successor among `keys`
/// (the first key at or past it, wrapping to rank 0) — Chord's rule, and
/// Tapestry's for the prefix keys a parent lookup asks for.
///
/// Rank 0 owns key 0 and is the root. Any other rank `r` owns `(key r - 1,
/// key r]`, and prefix keys only grow with the prefix, so its level is the
/// first prefix to exceed key `r - 1`: one bit past `lcp[r]`, the bits the
/// two keys share. Its parent key therefore opens the `lcp[r]`-bit block
/// that holds both, and the block's owner is its first member: the nearest
/// earlier rank `s` with `lcp[s] < lcp[r]` (key `s - 1` lies outside the
/// block), or rank 0. One pass over the keys with a stack of ranks whose
/// `lcp` strictly increases, at most 64 deep. The stack holds one rank per
/// `lcp` value, so it is a 64-bit mask of the values it holds beside the
/// rank of each: popping every entry at or above `lcp[r]` is one mask, and
/// its top is the highest bit left, with no branch on how many entries go.
pub fn rn_tree_parents_of_successors(keys: &[u64]) -> Vec<u32> {
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend");
    let mut parent = Vec::with_capacity(keys.len());
    parent.extend(keys.first().map(|_| NO_PARENT));
    // Bit `l` of `open`: the stack holds a rank whose lcp is `l`, and
    // `rank_at[l + 1]` is that rank; `rank_at[0]` is rank 0, the parent
    // when the stack is empty. Distinct keys share at most 63 bits.
    let mut open = 0u64;
    let mut rank_at = [0u32; 65];
    for (r, w) in (1u32..).zip(keys.windows(2)) {
        let lcp = (w[0] ^ w[1]).leading_zeros();
        open &= (1u64 << lcp) - 1;
        parent.push(rank_at[(u64::BITS - open.leading_zeros()) as usize]);
        open |= 1 << lcp;
        rank_at[lcp as usize + 1] = r;
    }
    parent
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

    /// The routing state each peer's membership record carries.
    type Peer;

    /// The membership every substrate keeps its peers in: the one source of
    /// [`KeyRouter::is_alive`], [`KeyRouter::len`],
    /// [`KeyRouter::alive_keys`] and [`KeyRouter::alive_key_at`].
    fn membership(&self) -> &Membership<Self::Peer>;

    /// Hash an arbitrary value onto the substrate's key space: the
    /// [`splitmix64`] mix, on every substrate. It plays the paper's
    /// "computationally secure hash", and unlike a truncated SHA-1 it is
    /// collision-free by construction.
    ///
    /// It is a bijection on `u64`, and [`KeyRouter::raw_of`] inverts it, so
    /// a key names the one raw value it came from. The RN-Tree matchmaker
    /// relies on that: it hashes its grid node's id into each overlay key
    /// and reads it back with `raw_of` instead of keeping a key → node map.
    fn key_of(raw: u64) -> u64 {
        splitmix64(raw)
    }

    /// The raw value `key` is the [`KeyRouter::key_of`] of:
    /// `raw_of(key_of(r)) == r` for every `r`.
    fn raw_of(key: u64) -> u64 {
        unsplitmix64(key)
    }

    /// Add a live node under `key` and build its routing state.
    ///
    /// # Panics
    /// If `key` is already a live member.
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
    /// with a membership-only insert, which into an empty overlay is one
    /// sort taken as that snapshot at once
    /// ([`Membership::bulk_join`](crate::overlay::Membership::bulk_join)).
    /// Either way, the state after the following `stabilize` is identical
    /// to having joined one by one.
    fn bulk_join(&mut self, keys: &[u64]) {
        for &k in keys {
            self.join(k);
        }
    }

    /// Graceful departure: the node repairs its neighborhood on the way out.
    ///
    /// # Panics
    /// If `key` is not a live member.
    fn leave(&mut self, key: u64);

    /// Abrupt failure: routing state stays stale until maintenance.
    ///
    /// # Panics
    /// If `key` is not a live member.
    fn fail(&mut self, key: u64);

    /// Whether `key` is a live member.
    fn is_alive(&self, key: u64) -> bool {
        self.membership().is_alive(key)
    }

    /// Number of live members.
    fn len(&self) -> usize {
        self.membership().len()
    }

    /// Whether the overlay has no live members.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys, ascending.
    fn alive_keys(&self) -> Vec<u64> {
        self.membership().alive_keys()
    }

    /// The `rank`-th live key in ascending order, `None` past the end:
    /// `alive_keys().get(rank).copied()` — how a caller draws one random
    /// live node without listing all of them.
    fn alive_key_at(&self, rank: usize) -> Option<u64> {
        self.membership().alive_key_at(rank)
    }

    /// Ground-truth owner of `key` (no routing, no cost).
    fn owner_of(&self, key: u64) -> Option<u64>;

    /// Route from the live node `from` to the owner of `key`, counting
    /// forwarding hops and timeout probes. `None` when routing stalls.
    ///
    /// # Panics
    /// If `from` is not a live member.
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

    /// The RN-Tree parent of every live key as a rank into `keys`, which
    /// must be [`KeyRouter::alive_keys`]; [`NO_PARENT`] for the root, the
    /// owner of key 0. The default is the paper's construction, node by
    /// node: [`rn_tree_parents_via`] with [`KeyRouter::lookup_owner`].
    ///
    /// A substrate may override it with a closed form of its ownership
    /// rule; the result must equal the default's wherever the default
    /// does not panic.
    ///
    /// # Panics
    /// If `keys` is empty, or if a parent lookup stalls or names the asker
    /// itself; no stabilized substrate's lookups do either.
    fn rn_tree_parents(&self, keys: &[u64]) -> Vec<u32> {
        rn_tree_parents_via(self, keys, |from, key| {
            self.lookup_owner(from, key).expect("stable overlay routes")
        })
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
