//! Membership, per-node Pastry state (leaf sets + routing tables), churn,
//! and prefix routing.

use std::ops::Bound;

use dgrid_sim::overlay::{Entry, Lazy, Membership};
use dgrid_sim::prefix::{self, Table, Tables, DIGITS, RADIX};
use dgrid_sim::router::{prefix_key, rn_tree_parents_via, KeyRouter, RouteCost, NO_PARENT};
use serde::{Deserialize, Serialize};

/// Tunables for the Pastry substrate.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PastryConfig {
    /// Leaf-set half-width: this many numerically closest live nodes are
    /// tracked on each side (`L = 2 × leaf_half`).
    pub leaf_half: usize,
    /// Safety valve on routing.
    pub max_route_hops: u32,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig {
            leaf_half: 4,
            max_route_hops: 96,
        }
    }
}

/// A node's two leaf sets as last refreshed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LeafSets {
    /// Numerically closest live peers clockwise (ascending ids, wrapping).
    cw: Vec<u64>,
    /// Numerically closest live peers counter-clockwise.
    ccw: Vec<u64>,
}

/// A node's routing state: its table, and the leaf sets beside it.
#[derive(Clone, Debug, Default)]
pub struct PastryPeer {
    table: Lazy<Table>,
    leaves: Lazy<LeafSets>,
}

/// A row has no entry for its owner's own digit: deeper rows and the leaf
/// sets cover that range.
const TABLES: Tables = Tables { own_slots: false };

/// One node's leaf sets as the node believes them, read in place: a route
/// looks at up to `2 × leaf_half` leaves per hop and must not copy them.
#[derive(Clone, Copy)]
enum LeafView<'a> {
    /// The `width` neighbours on each side of `rank` in the snapshot.
    Canon {
        keys: &'a [u64],
        rank: usize,
        width: usize,
    },
    Mat(&'a LeafSets),
}

impl<'a> LeafView<'a> {
    fn len(self, clockwise: bool) -> usize {
        match self {
            LeafView::Canon { width, .. } => width,
            LeafView::Mat(l) if clockwise => l.cw.len(),
            LeafView::Mat(l) => l.ccw.len(),
        }
    }

    /// The `j`-th closest leaf on one side (`j < len`).
    fn get(self, clockwise: bool, j: usize) -> Entry {
        match self {
            LeafView::Canon { keys, rank, .. } => {
                // `j < width <= n - 1`, so one conditional wrap suffices.
                let n = keys.len();
                let i = if clockwise {
                    rank + 1 + j
                } else {
                    rank + n - 1 - j
                };
                let rank = if i >= n { i - n } else { i };
                Entry {
                    key: keys[rank],
                    rank: Some(rank),
                }
            }
            LeafView::Mat(l) => Entry {
                key: if clockwise { l.cw[j] } else { l.ccw[j] },
                rank: None,
            },
        }
    }

    /// One side, closest first.
    fn side(self, clockwise: bool) -> impl Iterator<Item = Entry> + 'a {
        (0..self.len(clockwise)).map(move |j| self.get(clockwise, j))
    }

    /// The far end of one side: the edge of the span the leaf set covers.
    fn last(self, clockwise: bool) -> Option<Entry> {
        let n = self.len(clockwise);
        (n > 0).then(|| self.get(clockwise, n - 1))
    }
}

/// The Pastry network: authoritative membership plus every node's (possibly
/// stale) local routing state. Reached through its [`KeyRouter`] impl.
///
/// A node's state is stored only where an individual refresh has
/// materialised it since the last [`KeyRouter::stabilize`]; everything
/// else is computed from the shared snapshot when a route asks for it: a
/// table slot is one indexed search, a leaf set is the node's snapshot
/// neighbours.
#[derive(Clone)]
pub struct PastryNetwork {
    cfg: PastryConfig,
    m: Membership<PastryPeer>,
}

impl Default for PastryNetwork {
    fn default() -> Self {
        Self::new(PastryConfig::default())
    }
}

impl PastryNetwork {
    /// An empty network.
    pub fn new(cfg: PastryConfig) -> Self {
        assert!(cfg.leaf_half >= 1);
        PastryNetwork {
            cfg,
            m: Membership::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Ground truth
    // ------------------------------------------------------------------

    /// Live ids clockwise from `from` (exclusive), once around.
    fn clockwise(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let above = (Bound::Excluded(from), Bound::Unbounded);
        let wrapped = self.m.alive_in(..from);
        self.m.alive_in(above).chain(wrapped)
    }

    /// Live ids counter-clockwise from `from` (exclusive), once around.
    fn counter_clockwise(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let above = (Bound::Excluded(from), Bound::Unbounded);
        let wrapped = self.m.alive_in(above).rev();
        self.m.alive_in(..from).rev().chain(wrapped)
    }

    /// The leaf sets a refresh of `id` yields: its `leaf_half` nearest
    /// live neighbours each way, fewer on a ring too small to fill them.
    fn true_leaves(&self, id: u64) -> LeafSets {
        let width = self.cfg.leaf_half.min(self.m.len().saturating_sub(1));
        LeafSets {
            cw: self.clockwise(id).take(width).collect(),
            ccw: self.counter_clockwise(id).take(width).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Churn and maintenance
    // ------------------------------------------------------------------

    /// The state of a peer admitted without telling anybody: empty leaf
    /// sets and an empty routing table, so a stabilize must follow before
    /// any routing.
    fn deferred() -> PastryPeer {
        PastryPeer {
            table: Lazy::Mat(Table::new()),
            leaves: Lazy::Mat(LeafSets::default()),
        }
    }

    /// Rebuild one node's leaf set and routing table from ground truth.
    fn refresh_node(&mut self, id: u64) {
        assert!(self.m.is_alive(id), "refresh of dead node {id:016x}");
        *self.m.state_mut(id) = PastryPeer {
            table: Lazy::Mat(TABLES.build(&self.m, id)),
            leaves: Lazy::Mat(self.true_leaves(id)),
        };
    }

    /// Rebuild the leaf sets, not the tables, of those of `ids` still alive.
    fn refresh_leaves_of_live(&mut self, ids: Vec<u64>) {
        for id in ids {
            if self.m.is_alive(id) {
                self.m.state_mut(id).leaves = Lazy::Mat(self.true_leaves(id));
            }
        }
    }

    // ------------------------------------------------------------------
    // Lazy state resolution
    // ------------------------------------------------------------------

    /// The leaf sets of the node `at` under the tag `leaves`.
    fn leaf_view<'a>(&'a self, at: Entry, leaves: &'a Lazy<LeafSets>) -> LeafView<'a> {
        match leaves {
            Lazy::Mat(l) => LeafView::Mat(l),
            Lazy::Canon => {
                let snapshot = self.m.snapshot();
                let keys = snapshot.keys();
                LeafView::Canon {
                    keys,
                    rank: at
                        .rank
                        .or_else(|| snapshot.rank(at.key))
                        .expect("a Canon node is in the snapshot"),
                    width: self.cfg.leaf_half.min(keys.len() - 1),
                }
            }
        }
    }

    /// The leaves the (live or dead) node `key` believes in, clockwise
    /// side first; empty for an unknown node.
    fn leaves_of(&self, key: u64) -> Vec<u64> {
        let Some(peer) = self.m.record(key) else {
            return Vec::new();
        };
        let view = self.leaf_view(Entry::unranked(key), &peer.state.leaves);
        let both = view.side(true).chain(view.side(false));
        both.map(|e| e.key).collect()
    }

    /// Whether a route is known to end at the key's ground-truth owner
    /// without being walked: nothing has changed since the last
    /// stabilize, so every table is complete and every leaf set exact,
    /// and the hop budget covers the longest such route. That is at most
    /// `DIGITS` table hops (each extends the prefix shared with the key),
    /// then — once no node shares a longer prefix — at most `DIGITS`
    /// fallback hops towards the key's ring neighbour (each fixes one more
    /// of *its* digits) with one change of side, and one leaf-set hop.
    fn routes_are_exact(&self) -> bool {
        self.m.settled() && self.cfg.max_route_hops >= 2 * DIGITS + 3
    }
}

/// Is `x` inside the circular closed span from `lo` to `hi` (travelling
/// clockwise from `lo` to `hi`)?
fn in_circular_span(lo: u64, hi: u64, x: u64) -> bool {
    if lo <= hi {
        (lo..=hi).contains(&x)
    } else {
        x >= lo || x <= hi
    }
}

/// Circular numeric distance between `a` and `b` (the shorter way round).
fn circular_distance(a: u64, b: u64) -> u64 {
    let d = a.wrapping_sub(b);
    d.min(d.wrapping_neg())
}

/// The RN-Tree level of the live node `key` whose ring neighbours are `cw`
/// and `ccw`: the shortest prefix whose rendezvous key it owns. On a ring,
/// the nodes nearer to a key than `key` is — if any are — include one of
/// its two ring neighbours, so it owns a rendezvous key iff it beats both.
fn owned_level(key: u64, cw: u64, ccw: u64) -> u32 {
    (0..=64)
        .find(|&bits| {
            let k = prefix_key(key, bits);
            closer_to(key, k, cw) && closer_to(key, k, ccw)
        })
        .expect("a node owns its own key")
}

/// Is `a` strictly numerically closer to `key` than `b` is? Exact ties
/// break towards the smaller identifier, making ownership total and
/// deterministic.
fn closer_to(a: u64, key: u64, b: u64) -> bool {
    let (da, db) = (circular_distance(a, key), circular_distance(b, key));
    da < db || (da == db && a < b)
}

impl KeyRouter for PastryNetwork {
    const SUBSTRATE: &'static str = "pastry";
    type Peer = PastryPeer;

    fn membership(&self) -> &Membership<Self::Peer> {
        &self.m
    }

    /// Builds the joiner's state (a real join routes to the closest node
    /// and copies state from the path). Immediate leaf neighbours learn of
    /// the arrival; everyone else is stale until [`KeyRouter::stabilize`].
    fn join(&mut self, key: u64) {
        self.m.admit(key, Self::deferred());
        self.refresh_node(key);
        // Pastry's join broadcast to the leaf set.
        self.refresh_leaves_of_live(self.leaves_of(key));
    }

    /// Into an empty network: one sort, landing settled with no record
    /// per node. Into any other: nodes with empty state, which a stabilize
    /// must follow.
    fn bulk_join(&mut self, keys: &[u64]) {
        self.m.bulk_join(keys, Self::deferred);
    }

    /// The node's leaf set is told, so their leaf sets repair at once;
    /// routing tables elsewhere go stale.
    fn leave(&mut self, key: u64) {
        let neighbourhood = self.leaves_of(key);
        self.m.mark_dead(key);
        self.refresh_leaves_of_live(neighbourhood);
    }

    /// Every reference remains until routing times out on it or
    /// stabilization repairs it.
    fn fail(&mut self, key: u64) {
        self.m.mark_dead(key);
    }

    /// The numerically closest live node (ties to the smaller id).
    fn owner_of(&self, key: u64) -> Option<u64> {
        // Candidates: the first live node at/above the key and the first
        // below (circularly).
        let at_or_above = self.m.alive_in(key..).next();
        let above = at_or_above.or_else(|| self.m.alive_in(..).next())?;
        let below = self.counter_clockwise(key).next().unwrap_or(above);
        Some(if closer_to(below, key, above) {
            below
        } else {
            above
        })
    }

    /// Pastry's routing algorithm over each hop's *local* (possibly stale)
    /// state.
    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost> {
        assert!(self.m.is_alive(from), "route from dead node {from:016x}");
        // While settled every node's state is `Canon` and every entry of
        // it alive, so the hops read the snapshot alone: no record is
        // looked up, and each hop hands its snapshot rank to the next.
        let settled = self.m.settled();
        let alive = |e: Entry| settled || self.m.is_alive(e.key);
        let mut at = Entry::unranked(from);
        let mut hops = 0u32;
        let mut timeouts = 0u32;
        let deliver = |at: Entry, hops, timeouts| {
            Some(RouteCost {
                owner: at.key,
                hops,
                timeouts,
            })
        };

        loop {
            if hops > self.cfg.max_route_hops {
                return None;
            }
            let cur = at.key;
            let (leaves, table) = if settled {
                (&Lazy::Canon, &Lazy::Canon)
            } else {
                let peer = &self.m.record(at.key).expect("hops visit known nodes").state;
                (&peer.leaves, &peer.table)
            };
            let leaves = self.leaf_view(at, leaves);
            let known_leaves = || leaves.side(false).chain(leaves.side(true));

            // Leaf-set delivery: if the key falls within the span of our
            // leaf set (or we have the whole network in it), hand to the
            // numerically closest live member.
            let span_lo = leaves.last(false).map_or(at.key, |e| e.key);
            let span_hi = leaves.last(true).map_or(at.key, |e| e.key);
            if in_circular_span(span_lo, span_hi, key) || self.m.len() <= 2 * self.cfg.leaf_half + 1
            {
                let mut best = at;
                for cand in known_leaves() {
                    if !alive(cand) {
                        timeouts += 1;
                    } else if closer_to(cand.key, key, best.key) {
                        best = cand;
                    }
                }
                if best.key == at.key {
                    return deliver(at, hops, timeouts);
                }
                // One final hop to the numerically closest leaf. It may
                // itself know an even closer node (stale sets); loop from
                // there rather than declaring ownership blindly.
                at = best;
                hops += 1;
                continue;
            }

            // Prefix routing: forward to the entry matching one more digit.
            let l = prefix::shared_prefix_digits(cur, key);
            debug_assert!(l < DIGITS, "equal ids handled by leaf delivery");
            let mut next = None;
            if let Some(n) = TABLES.slot(&self.m, at.key, table, l, prefix::digit(key, l)) {
                if alive(n) {
                    next = Some(n);
                } else {
                    timeouts += 1;
                }
            }
            // Rare case / fallback: any known node strictly closer to the
            // key with at-least-as-long a shared prefix. An entry of row
            // `r` shares exactly `r` digits with the key while `r < l`,
            // so only rows from `l` down can qualify, and none past the
            // last row the table can fill. `closer_to` is a strict total
            // order, so skipping empty slots cannot change the choice.
            if next.is_none() {
                let end = TABLES.rows(&self.m, at, table).end;
                let rows = (l..end).flat_map(|row| {
                    (0..RADIX as u8)
                        .filter_map(move |d| TABLES.slot(&self.m, at.key, table, row, d))
                });
                for cand in known_leaves().chain(rows) {
                    let id = cand.key;
                    if id != cur
                        && alive(cand)
                        && prefix::shared_prefix_digits(id, key) >= l
                        && closer_to(id, key, next.map_or(cur, |b: Entry| b.key))
                    {
                        next = Some(cand);
                    }
                }
            }
            match next {
                Some(n) => {
                    at = n;
                    hops += 1;
                }
                // No strictly closer node known: we are the closest we can
                // prove; deliver here.
                None => return deliver(at, hops, timeouts),
            }
        }
    }

    /// Exact while `routes_are_exact`: the route ends at
    /// the numerically closest live node. Any other state walks the route.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        if self.routes_are_exact() {
            debug_assert!(self.m.is_alive(from));
            self.owner_of(key)
        } else {
            self.lookup(from, key).map(|r| r.owner)
        }
    }

    /// Exact: [`owned_level`] between the node's two ring neighbours.
    fn shortest_owned_prefix(&self, key: u64) -> u32 {
        debug_assert!(self.m.is_alive(key));
        let (Some(cw), Some(ccw)) = (
            self.clockwise(key).next(),
            self.counter_clockwise(key).next(),
        ) else {
            return 0; // alone: owns every key
        };
        owned_level(key, cw, ccw)
    }

    /// Exact while `routes_are_exact`, when every parent lookup names the
    /// numerically closest live node: one pass over the ranks. Rank `r`'s
    /// level is [`owned_level`] between ranks `r ± 1`, and the owner of its
    /// parent key is the closer of that key's two neighbours in the
    /// snapshot, found through its radix index. Any other state looks each
    /// parent up.
    fn rn_tree_parents(&self, keys: &[u64]) -> Vec<u32> {
        if !self.routes_are_exact() {
            return rn_tree_parents_via(self, keys, |from, key| {
                self.lookup_owner(from, key).expect("stable overlay routes")
            });
        }
        let snapshot = self.m.snapshot();
        debug_assert!(keys == snapshot.keys(), "keys are the live set");
        let n = keys.len();
        assert!(n > 0, "non-empty overlay");
        (0..n)
            .map(|r| {
                let key = keys[r];
                let (cw, ccw) = (keys[(r + 1) % n], keys[(r + n - 1) % n]);
                // Alone, or the owner of key 0: the root.
                let level = if n == 1 { 0 } else { owned_level(key, cw, ccw) };
                if level == 0 {
                    return NO_PARENT;
                }
                let parent_key = prefix_key(key, level - 1);
                let above = snapshot.successor_rank(parent_key).expect("non-empty");
                let below = (above + n - 1) % n;
                let parent = if closer_to(keys[below], parent_key, keys[above]) {
                    below
                } else {
                    above
                };
                debug_assert_ne!(parent, r, "the parent lookup came back to the asker");
                parent as u32
            })
            .collect()
    }

    fn failover_peers(&self, from: u64) -> Vec<u64> {
        // Leaf-set members, clockwise then counter-clockwise — the peers a
        // Pastry node knows best. Deduped: tiny rings wrap, so the two
        // directions can list the same nodes.
        let mut out: Vec<u64> = Vec::with_capacity(2 * self.cfg.leaf_half);
        for id in self.leaves_of(from) {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    fn walk_step(&self, at: u64) -> Option<u64> {
        // The clockwise ring neighbor, like Chord's successor step: first
        // live clockwise leaf. While settled every leaf set is `Canon` and
        // every leaf alive, so that is the snapshot successor: one search
        // for the rank, no record, no liveness probe.
        if self.m.settled() {
            let rank = self.m.snapshot().rank(at)?;
            let leaves = self.leaf_view(
                Entry {
                    key: at,
                    rank: Some(rank),
                },
                &Lazy::Canon,
            );
            return leaves.side(true).next().map(|e| e.key);
        }
        let peer = self.m.record(at)?;
        let view = self.leaf_view(Entry::unranked(at), &peer.state.leaves);
        let mut leaves = view.side(true).map(|e| e.key);
        leaves.find(|&n| n != at && self.m.is_alive(n))
    }

    /// Every live node refreshes; dead records are garbage-collected.
    /// Afterwards every node's state is a function of the live set alone,
    /// so the set is kept once and no per-node state is built (O(N) in
    /// all).
    fn stabilize(&mut self) {
        self.m.stabilize();
    }

    /// Every live node's *effective* state — computed from the snapshot
    /// or materialised, whichever the node holds — against ground truth:
    /// its leaf sets must hold exactly its nearest live neighbors in each
    /// ring direction, and every routing-table entry must be a live node
    /// in the entry's prefix slot, with no slot left empty while a live
    /// candidate exists. Meaningful once stabilized.
    fn table_violation(&self) -> Option<String> {
        for id in self.m.alive_in(..) {
            let peer = &self.m.record(id).expect("live node").state;
            let held = self.leaf_view(Entry::unranked(id), &peer.leaves);
            let truth = self.true_leaves(id);
            for (clockwise, want) in [(true, &truth.cw), (false, &truth.ccw)] {
                let held: Vec<u64> = held.side(clockwise).map(|e| e.key).collect();
                if held != *want {
                    return Some(format!(
                        "{id:016x}: leaf[{}] = {held:x?}, ring neighbors are {want:x?}",
                        if clockwise { "cw" } else { "ccw" },
                    ));
                }
            }
        }
        TABLES.violation(&self.m, |p| &p.table, "table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_sim::rng::{rng_for, streams};
    use rand::Rng;

    fn network(n: usize, seed: u64) -> (PastryNetwork, Vec<u64>) {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut net = PastryNetwork::default();
        let mut ids = Vec::new();
        while ids.len() < n {
            let id: u64 = rng.gen();
            if !net.is_alive(id) {
                net.join(id);
                ids.push(id);
            }
        }
        net.stabilize();
        (net, ids)
    }

    #[test]
    fn ownership_is_numerically_closest() {
        let mut net = PastryNetwork::default();
        net.join(100);
        net.join(200);
        assert_eq!(net.owner_of(120), Some(100));
        assert_eq!(net.owner_of(180), Some(200));
        // Equidistant: ties to the smaller id.
        assert_eq!(net.owner_of(150), Some(100));
        // Wrap-around.
        assert_eq!(net.owner_of(u64::MAX - 5), Some(100));
    }

    #[test]
    fn circular_distance_wraps() {
        let (a, b) = (10, u64::MAX - 9);
        assert_eq!(circular_distance(a, b), 20);
        assert_eq!(circular_distance(b, a), 20);
        assert_eq!(circular_distance(a, a), 0);
    }

    #[test]
    fn closer_to_breaks_ties_deterministically() {
        // 10 and 20 are equidistant from 15: the smaller id wins.
        assert!(closer_to(10, 15, 20));
        assert!(!closer_to(20, 15, 10));
        assert!(closer_to(16, 15, 10));
    }

    #[test]
    fn route_agrees_with_ground_truth() {
        let (net, ids) = network(128, 1);
        let mut rng = rng_for(2, 0);
        for _ in 0..500 {
            let key: u64 = rng.gen();
            let from = ids[rng.gen_range(0..ids.len())];
            let res = net.lookup(from, key).expect("routes");
            assert_eq!(Some(res.owner), net.owner_of(key), "key {key}");
            assert_eq!(res.timeouts, 0, "no timeouts when stable");
        }
    }

    #[test]
    fn hops_scale_with_log16() {
        for n in [64usize, 256, 1024] {
            let (net, ids) = network(n, 3);
            let mut rng = rng_for(4, n as u64);
            let trials = 300;
            let mut total = 0u64;
            for _ in 0..trials {
                let key: u64 = rng.gen();
                let from = ids[rng.gen_range(0..ids.len())];
                total += u64::from(net.lookup(from, key).unwrap().hops);
            }
            let mean = total as f64 / trials as f64;
            let bound = (n as f64).log2() / 4.0 + 2.5; // log16 N + slack
            assert!(mean <= bound, "n={n}: {mean:.2} hops > {bound:.2}");
        }
    }

    #[test]
    fn single_and_tiny_networks() {
        let mut net = PastryNetwork::default();
        net.join(42);
        let res = net.lookup(42, 7).unwrap();
        assert_eq!(res.owner, 42);
        assert_eq!(res.hops, 0);

        net.join(1_000_000);
        net.stabilize();
        let res = net.lookup(42, 999_999).unwrap();
        assert_eq!(res.owner, 1_000_000);
    }

    #[test]
    fn survives_failures_within_leaf_width() {
        let (mut net, ids) = network(256, 5);
        let mut rng = rng_for(6, 0);
        // Kill 15% abruptly, no stabilization.
        let mut killed = 0;
        for &id in &ids {
            if killed < 38 && rng.gen_bool(0.15) {
                net.fail(id);
                killed += 1;
            }
        }
        let alive = net.alive_keys();
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.lookup(from, key).expect("routes around failures");
            assert!(net.is_alive(res.owner));
        }
    }

    #[test]
    fn stabilize_restores_exact_ownership_after_failures() {
        let (mut net, ids) = network(200, 7);
        for &id in ids.iter().take(60) {
            net.fail(id);
        }
        net.stabilize();
        let alive = net.alive_keys();
        let mut rng = rng_for(8, 0);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.lookup(from, key).unwrap();
            assert_eq!(Some(res.owner), net.owner_of(key));
            assert_eq!(res.timeouts, 0);
        }
    }

    #[test]
    fn an_empty_slot_falls_back_to_the_closest_known_node() {
        // No id starts with the key's digit 7, so neither 1000 nor 5000 has
        // a table entry for it, and the key lies outside both leaf spans:
        // each hop is the fallback to the closest node it knows, first 5000
        // (from 1000's table), then 5800 (from 5000's leaf set).
        let mut net = PastryNetwork::new(PastryConfig {
            leaf_half: 1,
            ..PastryConfig::default()
        });
        for top in [0x1000u64, 0x1100, 0x5000, 0x5800, 0x9000, 0xD000] {
            KeyRouter::join(&mut net, top << 48);
        }
        net.stabilize();
        let key = 0x7000 << 48;
        let route = net.lookup(0x1000 << 48, key).expect("routes");
        let want = RouteCost {
            owner: 0x5800 << 48,
            hops: 2,
            timeouts: 0,
        };
        assert_eq!(route, want);
        assert_eq!(KeyRouter::owner_of(&net, key), Some(want.owner));
    }

    #[test]
    fn graceful_leave_repairs_leaf_sets() {
        let (mut net, ids) = network(64, 9);
        let victim = ids[10];
        net.leave(victim);
        // Immediately after a graceful leave, keys the victim owned resolve
        // to its live neighbours without stabilization.
        let mut rng = rng_for(10, 0);
        for _ in 0..100 {
            let key = victim.wrapping_add(rng.gen_range(0..1000));
            let from = net.alive_keys()[0];
            let res = net.lookup(from, key).expect("routes");
            assert!(net.is_alive(res.owner));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn duplicate_join_panics() {
        let mut net = PastryNetwork::default();
        net.join(1);
        net.join(1);
    }

    #[test]
    fn deferred_bulk_join_matches_eager_joins_after_stabilize() {
        let mut rng = rng_for(21, streams::NODE_IDS);
        let keys: Vec<u64> = (0..48).map(|_| rng.gen()).collect();
        let mut eager = PastryNetwork::default();
        for &k in &keys {
            eager.join(k);
        }
        eager.stabilize();
        let mut lazy = PastryNetwork::default();
        KeyRouter::bulk_join(&mut lazy, &keys);
        lazy.stabilize();
        assert_eq!(eager.alive_keys(), lazy.alive_keys());
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let from = keys[rng.gen_range(0..keys.len())];
            assert_eq!(eager.lookup(from, key), lazy.lookup(from, key));
        }
        assert_eq!(lazy.table_violation(), None);
    }

    #[test]
    fn a_record_is_the_size_the_network_held_before_sharing_it() {
        // Two tags and the liveness flag: 80 B of value per B-tree entry.
        let record = std::mem::size_of::<dgrid_sim::overlay::Record<PastryPeer>>();
        assert_eq!(record, 80);
    }

    #[test]
    fn leaf_sets_have_configured_width() {
        let (net, _) = network(64, 11);
        for id in net.alive_keys() {
            let (leaves, _) = effective(&net, id);
            assert_eq!(leaves.cw.len(), net.config().leaf_half);
            assert_eq!(leaves.ccw.len(), net.config().leaf_half);
        }
    }

    // ------------------------------------------------------------------
    // The materialised-everywhere representation, as the reference
    // ------------------------------------------------------------------

    /// What this crate stored per node before the snapshot: two leaf
    /// vectors and a 16 × 16 table, each rebuilt by walking the live set.
    type Stored = (LeafSets, Table);

    fn next_cw(net: &PastryNetwork, from: u64) -> Option<u64> {
        let wrapped = || net.m.alive_in(..).next();
        let next = net.m.alive_in(from.wrapping_add(1)..).next();
        next.or_else(wrapped)
    }

    fn next_ccw(net: &PastryNetwork, from: u64) -> Option<u64> {
        let wrapped = || net.m.alive_in(..).next_back();
        net.m.alive_in(..from).next_back().or_else(wrapped)
    }

    fn true_leaves(net: &PastryNetwork, id: u64, clockwise: bool) -> Vec<u64> {
        let mut out = Vec::with_capacity(net.cfg.leaf_half);
        let mut cur = id;
        for _ in 0..net.cfg.leaf_half.min(net.len().saturating_sub(1)) {
            let next = if clockwise {
                next_cw(net, cur)
            } else {
                next_ccw(net, cur)
            };
            match next {
                Some(n) if n != id && !out.contains(&n) => {
                    out.push(n);
                    cur = n;
                }
                _ => break,
            }
        }
        out
    }

    fn true_leaf_sets(net: &PastryNetwork, id: u64) -> LeafSets {
        LeafSets {
            cw: true_leaves(net, id, true),
            ccw: true_leaves(net, id, false),
        }
    }

    fn true_table(net: &PastryNetwork, id: u64) -> Table {
        let mut table = vec![[None; 16]; DIGITS as usize];
        for row in 0..DIGITS {
            let own_digit = prefix::digit(id, row);
            for d in 0..16u8 {
                if d == own_digit {
                    continue; // handled by deeper rows / self
                }
                let (lo, hi) = prefix::slot_range(id, row, d);
                // First live node in the slot (deterministic choice; real
                // Pastry would pick by network proximity).
                table[row as usize][d as usize] = net.m.alive_in(lo..=hi).next();
            }
        }
        table
    }

    /// Every node's stored state, refreshed at the points the network
    /// refreshes a node's — from the network's own live set, which a
    /// refresh does not change.
    #[derive(Default)]
    struct Reference(std::collections::HashMap<u64, Stored>);

    impl Reference {
        fn refresh_node(&mut self, net: &PastryNetwork, id: u64) {
            let stored = (true_leaf_sets(net, id), true_table(net, id));
            self.0.insert(id, stored);
        }

        fn refresh_leaves_of_live(&mut self, net: &PastryNetwork, ids: Vec<u64>) {
            for n in ids.into_iter().filter(|&n| net.is_alive(n)) {
                self.0.get_mut(&n).expect("known node").0 = true_leaf_sets(net, n);
            }
        }

        fn leaves(&self, id: u64) -> Vec<u64> {
            let (l, _) = &self.0[&id];
            l.cw.iter().chain(&l.ccw).copied().collect()
        }

        fn join(&mut self, net: &mut PastryNetwork, id: u64) {
            net.join(id);
            self.refresh_node(net, id);
            self.refresh_leaves_of_live(net, self.leaves(id));
        }

        fn leave(&mut self, net: &mut PastryNetwork, id: u64) {
            net.leave(id);
            self.refresh_leaves_of_live(net, self.leaves(id));
        }

        fn stabilize(&mut self, net: &mut PastryNetwork) {
            net.stabilize();
            self.0.retain(|&id, _| net.is_alive(id));
            for id in net.alive_keys() {
                self.refresh_node(net, id);
            }
        }
    }

    /// One node's state read through the lazy accessors, in stored form.
    fn effective(net: &PastryNetwork, id: u64) -> Stored {
        let peer = &net.m.record(id).expect("known node").state;
        let view = net.leaf_view(Entry::unranked(id), &peer.leaves);
        let side = |clockwise| view.side(clockwise).map(|e| e.key).collect();
        let slot = |row, d| {
            TABLES
                .slot(&net.m, id, &peer.table, row, d as u8)
                .map(|e| e.key)
        };
        let table = (0..DIGITS).map(|row| std::array::from_fn(|d| slot(row, d)));
        (
            LeafSets {
                cw: side(true),
                ccw: side(false),
            },
            table.collect(),
        )
    }

    /// Pastry's route as first written, over each hop's stored-form state:
    /// the fallback scans every row from `l` to the last, empty or not.
    fn reference_route(net: &PastryNetwork, from: u64, key: u64) -> Option<RouteCost> {
        let (mut at, mut hops, mut timeouts) = (from, 0u32, 0u32);
        loop {
            if hops > net.cfg.max_route_hops {
                return None;
            }
            let (leaves, table) = effective(net, at);
            let known: Vec<u64> = leaves.ccw.iter().chain(&leaves.cw).copied().collect();
            let lo = *leaves.ccw.last().unwrap_or(&at);
            let hi = *leaves.cw.last().unwrap_or(&at);
            if in_circular_span(lo, hi, key) || net.len() <= 2 * net.cfg.leaf_half + 1 {
                let mut best = at;
                for &cand in &known {
                    if !net.is_alive(cand) {
                        timeouts += 1;
                    } else if closer_to(cand, key, best) {
                        best = cand;
                    }
                }
                if best == at {
                    return Some(RouteCost {
                        owner: at,
                        hops,
                        timeouts,
                    });
                }
                at = best;
                hops += 1;
                continue;
            }
            let l = prefix::shared_prefix_digits(at, key);
            let mut next = None;
            if let Some(n) = table[l as usize][usize::from(prefix::digit(key, l))] {
                if net.is_alive(n) {
                    next = Some(n);
                } else {
                    timeouts += 1;
                }
            }
            if next.is_none() {
                let rows = table[l as usize..].iter().flatten().flatten().copied();
                for cand in known.iter().copied().chain(rows) {
                    if cand != at
                        && net.is_alive(cand)
                        && prefix::shared_prefix_digits(cand, key) >= l
                        && closer_to(cand, key, next.unwrap_or(at))
                    {
                        next = Some(cand);
                    }
                }
            }
            match next {
                Some(n) => {
                    at = n;
                    hops += 1;
                }
                None => {
                    return Some(RouteCost {
                        owner: at,
                        hops,
                        timeouts,
                    })
                }
            }
        }
    }

    fn materialised_nodes(net: &PastryNetwork) -> usize {
        let mat =
            |p: &PastryPeer| matches!(p.table, Lazy::Mat(_)) || matches!(p.leaves, Lazy::Mat(_));
        net.m.records().filter(|(_, r)| mat(&r.state)).count()
    }

    #[test]
    fn only_individually_refreshed_nodes_hold_state() {
        let keys: Vec<u64> = (0..10_000u64).map(PastryNetwork::key_of).collect();
        let mut net = PastryNetwork::default();
        KeyRouter::bulk_join(&mut net, &keys);
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);

        // The joiner, and the leaf neighbours its arrival repaired.
        net.join(PastryNetwork::key_of(10_000));
        let held = materialised_nodes(&net);
        assert!((1..=1 + 2 * net.cfg.leaf_half).contains(&held), "{held}");

        net.fail(keys[17]);
        net.leave(keys[4242]);
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);
        assert_eq!(
            net.m.records().count(),
            0,
            "dead records collected, no other kept"
        );
        assert_eq!(net.len(), 9_999);
    }

    #[test]
    fn canonical_leaf_sets_stay_pinned_to_the_snapshot_under_churn() {
        let mut net = PastryNetwork::new(PastryConfig {
            leaf_half: 1,
            ..PastryConfig::default()
        });
        for id in [10, 20, 30, 40, 50, 60] {
            net.join(id);
        }
        net.stabilize();
        // Abrupt failure after stabilize: 10 has not noticed, and pays a
        // timeout for the probe.
        net.fail(20);
        assert_eq!(effective(&net, 10).0.cw, [20], "stale leaf");
        assert_eq!(net.walk_step(10), None, "its only clockwise leaf is dead");
        let res = net.lookup(10, 21).unwrap();
        assert_eq!((res.owner, res.timeouts), (10, 1));
        // An arrival it was not told of either (25's leaves are 30 and 10).
        net.join(25);
        assert_eq!(effective(&net, 40).0.ccw, [30]);
        assert_eq!(effective(&net, 30).0.ccw, [25], "told: repaired");
        net.stabilize();
        assert_eq!(effective(&net, 10).0.cw, [25]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Join a fresh id, or pick a live node and have it leave or fail,
        /// or stabilize.
        #[derive(Clone, Debug)]
        enum Step {
            Join(u64),
            Leave(usize),
            Fail(usize),
            Stabilize,
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                4 => any::<u64>().prop_map(Step::Join),
                2 => any::<usize>().prop_map(Step::Leave),
                2 => any::<usize>().prop_map(Step::Fail),
                1 => Just(Step::Stabilize),
            ]
        }

        /// Ids that crowd a few prefixes and both ends of the id space, so
        /// that slots are empty, deep rows matter and spans wrap.
        fn crowded_id() -> impl Strategy<Value = u64> {
            prop_oneof![
                any::<u64>(),
                0u64..48,
                (0u64..48).prop_map(|x| u64::MAX - x),
                (0u64..4, 0u64..32).prop_map(|(hi, lo)| (hi << 62) | lo),
                (any::<u8>(), 0u64..4).prop_map(|(hi, lo)| (u64::from(hi) << 56) | (lo << 52)),
            ]
        }

        fn views_match(net: &PastryNetwork, reference: &Reference) -> Result<(), TestCaseError> {
            let live = net.alive_keys();
            for &id in &live {
                let stored = &reference.0[&id];
                prop_assert_eq!(&effective(net, id), stored, "state of {:x}", id);
            }
            for &from in live.iter().take(6) {
                let owner = net.lookup(from, !from).expect("routes").owner;
                prop_assert!(
                    net.is_alive(owner),
                    "{:x} delivered to dead {:x}",
                    from,
                    owner
                );
            }
            Ok(())
        }

        /// Everything the network answers equals what a clone that has
        /// forgotten it is settled answers by walking the records and
        /// probing liveness: what `settled` short-cuts is ground truth.
        fn reads_agree(net: &PastryNetwork) -> Result<(), TestCaseError> {
            let mut walked = net.clone();
            walked.m.unsettle();
            let live = walked.alive_keys();
            prop_assert_eq!(net.alive_keys(), live.clone());
            for rank in 0..=live.len() {
                prop_assert_eq!(net.alive_key_at(rank), walked.alive_key_at(rank));
            }
            let near = live
                .iter()
                .flat_map(|&k| [k, k.wrapping_add(1), k.wrapping_sub(1)]);
            let keys: Vec<u64> = near.chain([0, u64::MAX]).collect();
            for &key in &keys {
                let owner = KeyRouter::owner_of(net, key);
                prop_assert_eq!(
                    owner,
                    KeyRouter::owner_of(&walked, key),
                    "owner of {:x}",
                    key
                );
                prop_assert_eq!(KeyRouter::is_alive(net, key), walked.m.is_alive(key));
            }
            for &from in &live {
                let level = net.shortest_owned_prefix(from);
                prop_assert_eq!(level, walked.shortest_owned_prefix(from));
                prop_assert_eq!(net.failover_peers(from), walked.failover_peers(from));
                prop_assert_eq!(net.walk_step(from), walked.walk_step(from));
            }
            for &from in live.iter().take(2) {
                for &key in keys.iter().step_by(2) {
                    prop_assert_eq!(net.lookup(from, key), walked.lookup(from, key));
                    let owner = net.lookup_owner(from, key);
                    prop_assert_eq!(
                        owner,
                        walked.lookup_owner(from, key),
                        "{:x} from {:x}",
                        key,
                        from
                    );
                }
            }
            Ok(())
        }

        /// Routes from random live nodes, to random keys and to keys near
        /// live ones, against [`reference_route`].
        fn routes_match_the_reference(
            net: &PastryNetwork,
            rng: &mut impl Rng,
        ) -> Result<(), TestCaseError> {
            let live = net.alive_keys();
            for _ in 0..24 {
                let from = live[rng.gen_range(0..live.len())];
                let noise = rng.gen::<u64>() >> rng.gen_range(8..64);
                let near = live[rng.gen_range(0..live.len())] ^ noise;
                for key in [rng.gen(), near] {
                    let want = reference_route(net, from, key);
                    prop_assert_eq!(net.lookup(from, key), want, "{:x} from {:x}", key, from);
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The fallback's row bound changes no route: on settled and
            /// churned networks of 16–5k peers every route equals the one
            /// that scans all rows from the shared prefix down.
            #[test]
            fn bounded_fallback_routes_like_the_full_row_scan(
                n in 16usize..5000,
                seed in any::<u64>(),
                leaf_half in 1usize..5,
                steps in proptest::collection::vec(step(), 0..30),
            ) {
                let mut rng = rng_for(seed, 0);
                // A quarter of the keys crowd one six-digit prefix, so deep
                // rows fill and the bound is not always the shallow one.
                let mut keys: Vec<u64> = (0..n)
                    .map(|i| {
                        let k: u64 = rng.gen();
                        if i % 4 == 0 { (0x005A_5A5A << 40) | (k >> 24) } else { k }
                    })
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let mut net = PastryNetwork::new(PastryConfig {
                    leaf_half,
                    ..PastryConfig::default()
                });
                KeyRouter::bulk_join(&mut net, &keys);
                net.stabilize();
                routes_match_the_reference(&net, &mut rng)?;
                for s in steps {
                    let live = net.alive_keys();
                    match s {
                        Step::Join(id) if !net.is_alive(id) => net.join(id),
                        Step::Leave(i) if live.len() > 1 => net.leave(live[i % live.len()]),
                        Step::Fail(i) if live.len() > 1 => net.fail(live[i % live.len()]),
                        Step::Stabilize => net.stabilize(),
                        _ => {}
                    }
                }
                routes_match_the_reference(&net, &mut rng)?;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After every step of a churn history, every live node's leaf
            /// sets and full table read through the lazy accessors equal
            /// the stored state of the reference, refreshed at the same
            /// points, and every read equals the walked one.
            #[test]
            fn lazy_views_equal_the_materialised_reference(
                initial in proptest::collection::hash_set(crowded_id(), 2..40),
                steps in proptest::collection::vec(step(), 0..25),
            ) {
                let mut net = PastryNetwork::default();
                let mut reference = Reference::default();
                for id in initial {
                    reference.join(&mut net, id);
                    views_match(&net, &reference)?;
                }
                for s in steps {
                    let live = net.alive_keys();
                    match s {
                        Step::Join(id) if !net.is_alive(id) => {
                            reference.join(&mut net, id);
                        }
                        Step::Leave(i) if live.len() > 1 => {
                            reference.leave(&mut net, live[i % live.len()]);
                        }
                        Step::Fail(i) if live.len() > 1 => net.fail(live[i % live.len()]),
                        Step::Stabilize => reference.stabilize(&mut net),
                        _ => {}
                    }
                    views_match(&net, &reference)?;
                    reads_agree(&net)?;
                }
            }

            /// The hop bound `routes_are_exact` relies on: on settled
            /// tables every route ends at the numerically closest node
            /// within `2 × DIGITS + 3` hops, however the ids crowd.
            #[test]
            fn settled_routes_are_exact_within_the_hop_bound(
                ids in proptest::collection::hash_set(crowded_id(), 1..120),
                keys in proptest::collection::vec(crowded_id(), 1..6),
                leaf_half in 1usize..5,
            ) {
                let mut net = PastryNetwork::new(PastryConfig {
                    leaf_half,
                    max_route_hops: 2 * DIGITS + 3,
                });
                let ids: Vec<u64> = ids.into_iter().collect();
                KeyRouter::bulk_join(&mut net, &ids);
                net.stabilize();
                prop_assert!(net.routes_are_exact());
                for key in keys.into_iter().chain(ids.iter().map(|id| id ^ 1)) {
                    let owner = net.owner_of(key);
                    for &from in &ids {
                        let routed = net.lookup(from, key);
                        prop_assert_eq!(routed.map(|r| r.owner), owner, "{:x} from {:x}", key, from);
                    }
                }
            }
        }
    }
}
