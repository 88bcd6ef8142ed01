//! Membership, per-node Pastry state (leaf sets + routing tables), churn,
//! and prefix routing.

use std::ops::Bound;

use dgrid_sim::prefix::{Entry, Lazy, Membership, RADIX};
use dgrid_sim::router::{prefix_key, KeyRouter, RouteCost};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::id::{PastryId, DIGITS};

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

/// Result of a successful route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// The numerically closest live node to the key.
    pub owner: PastryId,
    /// Forwarding hops taken.
    pub hops: u32,
    /// Dead entries probed along the way.
    pub timeouts: u32,
}

/// A node's two leaf sets as last refreshed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LeafSets {
    /// Numerically closest live peers clockwise (ascending ids, wrapping).
    cw: Vec<PastryId>,
    /// Numerically closest live peers counter-clockwise.
    ccw: Vec<PastryId>,
}

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
                key: if clockwise { l.cw[j].0 } else { l.ccw[j].0 },
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
/// stale) local routing state.
///
/// A node's state is stored only where an individual refresh has
/// materialised it since the last [`PastryNetwork::stabilize`]; everything
/// else is computed from the shared snapshot when a route asks for it: a
/// table slot is one binary search, a leaf set is the node's snapshot
/// neighbours.
pub struct PastryNetwork {
    cfg: PastryConfig,
    /// Per node: the routing table, and the leaf sets beside it.
    m: Membership<Lazy<LeafSets>>,
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
            // A row has no entry for its owner's own digit: deeper rows
            // and the leaf sets cover that range.
            m: Membership::new(false),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.cfg
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// True iff nobody is alive.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Is `id` a live member?
    pub fn is_alive(&self, id: PastryId) -> bool {
        self.m.is_alive(id.0)
    }

    /// Live ids, ascending.
    pub fn alive_ids(&self) -> Vec<PastryId> {
        self.m.alive_in(..).map(PastryId).collect()
    }

    /// A uniformly random live node.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<PastryId> {
        if self.is_empty() {
            return None;
        }
        let n = rng.gen_range(0..self.len());
        self.m.alive_key_at(n).map(PastryId)
    }

    // ------------------------------------------------------------------
    // Ground truth
    // ------------------------------------------------------------------

    /// Live ids clockwise from `from` (exclusive), once around.
    fn clockwise(&self, from: u64) -> impl Iterator<Item = PastryId> + '_ {
        let above = (Bound::Excluded(from), Bound::Unbounded);
        let wrapped = self.m.alive_in(..from);
        self.m.alive_in(above).chain(wrapped).map(PastryId)
    }

    /// Live ids counter-clockwise from `from` (exclusive), once around.
    fn counter_clockwise(&self, from: u64) -> impl Iterator<Item = PastryId> + '_ {
        let above = (Bound::Excluded(from), Bound::Unbounded);
        let wrapped = self.m.alive_in(above).rev();
        self.m.alive_in(..from).rev().chain(wrapped).map(PastryId)
    }

    /// The live owner of `key`: numerically closest (ties to smaller id).
    pub fn owner_of(&self, key: PastryId) -> Option<PastryId> {
        // Candidates: the first live node at/above the key and the first
        // below (circularly).
        let at_or_above = self.m.alive_in(key.0..).next().map(PastryId);
        let above = at_or_above.or_else(|| self.m.alive_in(..).next().map(PastryId))?;
        let below = self.counter_clockwise(key.0).next().unwrap_or(above);
        Some(if below.closer_to(key, above) {
            below
        } else {
            above
        })
    }

    /// The leaf sets a refresh of `id` yields: its `leaf_half` nearest
    /// live neighbours each way, fewer on a ring too small to fill them.
    fn true_leaves(&self, id: PastryId) -> LeafSets {
        let width = self.cfg.leaf_half.min(self.len().saturating_sub(1));
        LeafSets {
            cw: self.clockwise(id.0).take(width).collect(),
            ccw: self.counter_clockwise(id.0).take(width).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// Add a node and build its state (a real join routes to the closest
    /// node and copies state from the path). Immediate leaf neighbours
    /// learn of the arrival; everyone else is stale until
    /// [`PastryNetwork::stabilize`].
    ///
    /// # Panics
    /// If a live node with this id already exists.
    pub fn join(&mut self, id: PastryId) {
        self.join_deferred(id);
        self.refresh_node(id);
        // Pastry's join broadcast to the leaf set.
        self.refresh_leaves_of_live(self.leaves_of(id.0));
    }

    /// Membership-only join used during bulk construction: the node is
    /// admitted with empty leaf sets and an empty routing table, and
    /// nobody hears of it — a [`PastryNetwork::stabilize`] must follow
    /// before any routing. The post-stabilize state is identical to having
    /// joined one by one.
    ///
    /// # Panics
    /// If a live node with this id already exists.
    pub fn join_deferred(&mut self, id: PastryId) {
        self.m.admit(id.0, Lazy::Mat(LeafSets::default()));
    }

    /// Graceful departure: the node's leaf set is told, so their leaf sets
    /// repair immediately; routing tables elsewhere go stale.
    ///
    /// # Panics
    /// If `id` is not a live node.
    pub fn leave(&mut self, id: PastryId) {
        let neighbourhood = self.leaves_of(id.0);
        self.m.mark_dead(id.0);
        self.refresh_leaves_of_live(neighbourhood);
    }

    /// Abrupt failure: all references remain until discovered by routing
    /// timeouts or repaired by stabilization.
    ///
    /// # Panics
    /// If `id` is not a live node.
    pub fn fail(&mut self, id: PastryId) {
        self.m.mark_dead(id.0);
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Rebuild one node's leaf set and routing table from ground truth.
    pub fn refresh_node(&mut self, id: PastryId) {
        assert!(self.is_alive(id), "refresh of dead node {id}");
        *self.m.extra_mut(id.0) = Lazy::Mat(self.true_leaves(id));
        self.m.refresh_table(id.0);
    }

    /// Rebuild the leaf sets, not the tables, of those of `ids` still alive.
    fn refresh_leaves_of_live(&mut self, ids: Vec<PastryId>) {
        for id in ids {
            if self.is_alive(id) {
                *self.m.extra_mut(id.0) = Lazy::Mat(self.true_leaves(id));
            }
        }
    }

    /// Full stabilization: every live node refreshes; dead records are
    /// garbage-collected. Afterwards every node's state is a function of
    /// the live set alone, so the set is kept once and no per-node state
    /// is built (O(N) in all).
    pub fn stabilize(&mut self) {
        self.m.stabilize();
    }

    /// Routing-state invariant check, meaningful after [`stabilize`]:
    /// every live node's *effective* state — computed from the snapshot
    /// or materialised, whichever the node holds — is compared with ground
    /// truth. Its leaf sets must hold exactly its nearest live neighbors
    /// in each ring direction, and every routing-table entry must be a
    /// live node in the entry's prefix slot — with no slot left empty while
    /// a live candidate exists. Returns a description of the first
    /// violation, or `None` when the tables are sound.
    ///
    /// [`stabilize`]: PastryNetwork::stabilize
    pub fn table_violation(&self) -> Option<String> {
        for id in self.alive_ids() {
            let peer = self.m.peer(id.0).expect("live node");
            let held = self.leaf_view(Entry::unranked(id.0), &peer.extra);
            let truth = self.true_leaves(id);
            for (clockwise, want) in [(true, &truth.cw), (false, &truth.ccw)] {
                let held: Vec<PastryId> = held.side(clockwise).map(|e| PastryId(e.key)).collect();
                if held != *want {
                    return Some(format!(
                        "{id}: leaf[{}] = {held:?}, ring neighbors are {want:?}",
                        if clockwise { "cw" } else { "ccw" },
                    ));
                }
            }
        }
        self.m.table_violation("table")
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
    fn leaves_of(&self, key: u64) -> Vec<PastryId> {
        let Some(peer) = self.m.peer(key) else {
            return Vec::new();
        };
        let view = self.leaf_view(Entry::unranked(key), &peer.extra);
        let both = view.side(true).chain(view.side(false));
        both.map(|e| PastryId(e.key)).collect()
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

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Pastry's routing algorithm over each hop's *local* (possibly stale)
    /// state. Returns `None` if routing cannot complete.
    ///
    /// # Panics
    /// If `from` is not a live node.
    pub fn route(&self, from: PastryId, key: PastryId) -> Option<Route> {
        assert!(self.is_alive(from), "route from dead node {from}");
        // While settled every node's state is `Canon` and every entry of
        // it alive, so the hops read the snapshot alone: no record is
        // looked up, and each hop hands its snapshot rank to the next.
        let settled = self.m.settled();
        let alive = |e: Entry| settled || self.m.is_alive(e.key);
        let mut at = Entry::unranked(from.0);
        let mut hops = 0u32;
        let mut timeouts = 0u32;
        let deliver = |at: Entry, hops, timeouts| {
            Some(Route {
                owner: PastryId(at.key),
                hops,
                timeouts,
            })
        };

        loop {
            if hops > self.cfg.max_route_hops {
                return None;
            }
            let cur = PastryId(at.key);
            let (leaves, table) = if settled {
                (&Lazy::Canon, &Lazy::Canon)
            } else {
                let peer = self.m.peer(at.key).expect("hops visit known nodes");
                (&peer.extra, &peer.table)
            };
            let leaves = self.leaf_view(at, leaves);
            let known_leaves = || leaves.side(false).chain(leaves.side(true));

            // Leaf-set delivery: if the key falls within the span of our
            // leaf set (or we have the whole network in it), hand to the
            // numerically closest live member.
            let span_lo = leaves.last(false).map_or(at.key, |e| e.key);
            let span_hi = leaves.last(true).map_or(at.key, |e| e.key);
            if in_circular_span(span_lo, span_hi, key.0) || self.len() <= 2 * self.cfg.leaf_half + 1
            {
                let mut best = at;
                for cand in known_leaves() {
                    if !alive(cand) {
                        timeouts += 1;
                    } else if PastryId(cand.key).closer_to(key, PastryId(best.key)) {
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
            let l = cur.shared_prefix_digits(key);
            debug_assert!(l < DIGITS, "equal ids handled by leaf delivery");
            let mut next = None;
            if let Some(n) = self.m.slot(at.key, table, l, key.digit(l)) {
                if alive(n) {
                    next = Some(n);
                } else {
                    timeouts += 1;
                }
            }
            // Rare case / fallback: any known node strictly closer to the
            // key with at-least-as-long a shared prefix. An entry of row
            // `r` shares exactly `r` digits with the key while `r < l`,
            // so only rows from `l` down can qualify.
            if next.is_none() {
                let rows = (l..DIGITS).flat_map(|row| {
                    (0..RADIX as u8).filter_map(move |d| self.m.slot(at.key, table, row, d))
                });
                for cand in known_leaves().chain(rows) {
                    let id = PastryId(cand.key);
                    if id != cur
                        && alive(cand)
                        && id.shared_prefix_digits(key) >= l
                        && id.closer_to(key, next.map_or(cur, |b: Entry| PastryId(b.key)))
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

impl KeyRouter for PastryNetwork {
    const SUBSTRATE: &'static str = "pastry";

    fn key_of(raw: u64) -> u64 {
        PastryId::hash_of(raw).0
    }

    fn join(&mut self, key: u64) {
        PastryNetwork::join(self, PastryId(key));
    }

    fn bulk_join(&mut self, keys: &[u64]) {
        for &k in keys {
            self.join_deferred(PastryId(k));
        }
    }

    fn leave(&mut self, key: u64) {
        PastryNetwork::leave(self, PastryId(key));
    }

    fn fail(&mut self, key: u64) {
        PastryNetwork::fail(self, PastryId(key));
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
        PastryNetwork::owner_of(self, PastryId(key)).map(|id| id.0)
    }

    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost> {
        self.route(PastryId(from), PastryId(key))
            .map(|r| RouteCost {
                owner: r.owner.0,
                hops: r.hops,
                timeouts: r.timeouts,
            })
    }

    /// Exact while `routes_are_exact`: the route ends at
    /// the numerically closest live node. Any other state walks the route.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        if self.routes_are_exact() {
            debug_assert!(self.m.is_alive(from));
            KeyRouter::owner_of(self, key)
        } else {
            self.lookup(from, key).map(|r| r.owner)
        }
    }

    /// Exact: on a ring, the nodes nearer to a key than `key` is — if any
    /// are — include one of its two ring neighbours, so it owns a
    /// rendezvous key iff it beats both.
    fn shortest_owned_prefix(&self, key: u64) -> u32 {
        debug_assert!(self.m.is_alive(key));
        let id = PastryId(key);
        let (Some(cw), Some(ccw)) = (
            self.clockwise(key).next(),
            self.counter_clockwise(key).next(),
        ) else {
            return 0; // alone: owns every key
        };
        (0..=64)
            .find(|&bits| {
                let k = PastryId(prefix_key(key, bits));
                id.closer_to(k, cw) && id.closer_to(k, ccw)
            })
            .expect("a node owns its own key")
    }

    fn failover_peers(&self, from: u64) -> Vec<u64> {
        // Leaf-set members, clockwise then counter-clockwise — the peers a
        // Pastry node knows best. Deduped: tiny rings wrap, so the two
        // directions can list the same nodes.
        let mut out: Vec<u64> = Vec::with_capacity(2 * self.cfg.leaf_half);
        for id in self.leaves_of(from) {
            if !out.contains(&id.0) {
                out.push(id.0);
            }
        }
        out
    }

    fn walk_step(&self, at: u64) -> Option<u64> {
        // The clockwise ring neighbor, like Chord's successor step: first
        // live clockwise leaf.
        let peer = self.m.peer(at)?;
        let view = self.leaf_view(Entry::unranked(at), &peer.extra);
        let mut leaves = view.side(true).map(|e| e.key);
        leaves.find(|&n| n != at && self.m.is_alive(n))
    }

    fn stabilize(&mut self) {
        PastryNetwork::stabilize(self);
    }

    fn table_violation(&self) -> Option<String> {
        PastryNetwork::table_violation(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_sim::prefix::Table;
    use dgrid_sim::rng::{rng_for, streams};

    fn network(n: usize, seed: u64) -> (PastryNetwork, Vec<PastryId>) {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut net = PastryNetwork::default();
        let mut ids = Vec::new();
        while ids.len() < n {
            let id = PastryId(rng.gen());
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
        net.join(PastryId(100));
        net.join(PastryId(200));
        assert_eq!(net.owner_of(PastryId(120)), Some(PastryId(100)));
        assert_eq!(net.owner_of(PastryId(180)), Some(PastryId(200)));
        // Equidistant: ties to the smaller id.
        assert_eq!(net.owner_of(PastryId(150)), Some(PastryId(100)));
        // Wrap-around.
        assert_eq!(net.owner_of(PastryId(u64::MAX - 5)), Some(PastryId(100)));
    }

    #[test]
    fn route_agrees_with_ground_truth() {
        let (net, ids) = network(128, 1);
        let mut rng = rng_for(2, 0);
        for _ in 0..500 {
            let key = PastryId(rng.gen());
            let from = ids[rng.gen_range(0..ids.len())];
            let res = net.route(from, key).expect("routes");
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
                let key = PastryId(rng.gen());
                let from = ids[rng.gen_range(0..ids.len())];
                total += u64::from(net.route(from, key).unwrap().hops);
            }
            let mean = total as f64 / trials as f64;
            let bound = (n as f64).log2() / 4.0 + 2.5; // log16 N + slack
            assert!(mean <= bound, "n={n}: {mean:.2} hops > {bound:.2}");
        }
    }

    #[test]
    fn single_and_tiny_networks() {
        let mut net = PastryNetwork::default();
        net.join(PastryId(42));
        let res = net.route(PastryId(42), PastryId(7)).unwrap();
        assert_eq!(res.owner, PastryId(42));
        assert_eq!(res.hops, 0);

        net.join(PastryId(1_000_000));
        net.stabilize();
        let res = net.route(PastryId(42), PastryId(999_999)).unwrap();
        assert_eq!(res.owner, PastryId(1_000_000));
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
        let alive = net.alive_ids();
        for _ in 0..200 {
            let key = PastryId(rng.gen());
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.route(from, key).expect("routes around failures");
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
        let alive = net.alive_ids();
        let mut rng = rng_for(8, 0);
        for _ in 0..200 {
            let key = PastryId(rng.gen());
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.route(from, key).unwrap();
            assert_eq!(Some(res.owner), net.owner_of(key));
            assert_eq!(res.timeouts, 0);
        }
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
            let key = PastryId(victim.0.wrapping_add(rng.gen_range(0..1000)));
            let from = net.alive_ids()[0];
            let res = net.route(from, key).expect("routes");
            assert!(net.is_alive(res.owner));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn duplicate_join_panics() {
        let mut net = PastryNetwork::default();
        net.join(PastryId(1));
        net.join(PastryId(1));
    }

    #[test]
    fn deferred_bulk_join_matches_eager_joins_after_stabilize() {
        let mut rng = rng_for(21, streams::NODE_IDS);
        let keys: Vec<u64> = (0..48).map(|_| rng.gen()).collect();
        let mut eager = PastryNetwork::default();
        for &k in &keys {
            eager.join(PastryId(k));
        }
        eager.stabilize();
        let mut lazy = PastryNetwork::default();
        KeyRouter::bulk_join(&mut lazy, &keys);
        lazy.stabilize();
        assert_eq!(eager.alive_ids(), lazy.alive_ids());
        for _ in 0..200 {
            let key = PastryId(rng.gen());
            let from = PastryId(keys[rng.gen_range(0..keys.len())]);
            assert_eq!(eager.route(from, key), lazy.route(from, key));
        }
        assert_eq!(lazy.table_violation(), None);
    }

    #[test]
    fn leaf_sets_have_configured_width() {
        let (net, _) = network(64, 11);
        for id in net.alive_ids() {
            let (leaves, _) = effective(&net, id.0);
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

    fn next_cw(net: &PastryNetwork, from: u64) -> Option<PastryId> {
        let wrapped = || net.m.alive_in(..).next();
        let next = net.m.alive_in(from.wrapping_add(1)..).next();
        next.or_else(wrapped).map(PastryId)
    }

    fn next_ccw(net: &PastryNetwork, from: u64) -> Option<PastryId> {
        let wrapped = || net.m.alive_in(..).next_back();
        net.m
            .alive_in(..from)
            .next_back()
            .or_else(wrapped)
            .map(PastryId)
    }

    fn true_leaves(net: &PastryNetwork, id: PastryId, clockwise: bool) -> Vec<PastryId> {
        let mut out = Vec::with_capacity(net.cfg.leaf_half);
        let mut cur = id.0;
        for _ in 0..net.cfg.leaf_half.min(net.len().saturating_sub(1)) {
            let next = if clockwise {
                next_cw(net, cur)
            } else {
                next_ccw(net, cur)
            };
            match next {
                Some(n) if n != id && !out.contains(&n) => {
                    out.push(n);
                    cur = n.0;
                }
                _ => break,
            }
        }
        out
    }

    fn true_leaf_sets(net: &PastryNetwork, id: PastryId) -> LeafSets {
        LeafSets {
            cw: true_leaves(net, id, true),
            ccw: true_leaves(net, id, false),
        }
    }

    fn true_table(net: &PastryNetwork, id: PastryId) -> Table {
        let mut table = vec![[None; 16]; DIGITS as usize];
        for row in 0..DIGITS {
            let own_digit = id.digit(row);
            for d in 0..16u8 {
                if d == own_digit {
                    continue; // handled by deeper rows / self
                }
                let (lo, hi) = id.slot_range(row, d);
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
    struct Reference(std::collections::BTreeMap<u64, Stored>);

    impl Reference {
        fn refresh_node(&mut self, net: &PastryNetwork, id: PastryId) {
            let stored = (true_leaf_sets(net, id), true_table(net, id));
            self.0.insert(id.0, stored);
        }

        fn refresh_leaves_of_live(&mut self, net: &PastryNetwork, ids: Vec<PastryId>) {
            for n in ids.into_iter().filter(|&n| net.is_alive(n)) {
                self.0.get_mut(&n.0).expect("known node").0 = true_leaf_sets(net, n);
            }
        }

        fn leaves(&self, id: PastryId) -> Vec<PastryId> {
            let (l, _) = &self.0[&id.0];
            l.cw.iter().chain(&l.ccw).copied().collect()
        }

        fn join(&mut self, net: &mut PastryNetwork, id: PastryId) {
            net.join(id);
            self.refresh_node(net, id);
            self.refresh_leaves_of_live(net, self.leaves(id));
        }

        fn leave(&mut self, net: &mut PastryNetwork, id: PastryId) {
            net.leave(id);
            self.refresh_leaves_of_live(net, self.leaves(id));
        }

        fn stabilize(&mut self, net: &mut PastryNetwork) {
            net.stabilize();
            self.0.retain(|&id, _| net.is_alive(PastryId(id)));
            for id in net.alive_ids() {
                self.refresh_node(net, id);
            }
        }
    }

    /// One node's state read through the lazy accessors, in stored form.
    fn effective(net: &PastryNetwork, id: u64) -> Stored {
        let peer = net.m.peer(id).expect("known node");
        let view = net.leaf_view(Entry::unranked(id), &peer.extra);
        let side = |clockwise| view.side(clockwise).map(|e| PastryId(e.key)).collect();
        let slot = |row, d| net.m.slot(id, &peer.table, row, d as u8).map(|e| e.key);
        let table = (0..DIGITS).map(|row| std::array::from_fn(|d| slot(row, d)));
        (
            LeafSets {
                cw: side(true),
                ccw: side(false),
            },
            table.collect(),
        )
    }

    fn materialised_nodes(net: &PastryNetwork) -> usize {
        let mat = |p: &dgrid_sim::prefix::Peer<Lazy<LeafSets>>| {
            matches!(p.table, Lazy::Mat(_)) || matches!(p.extra, Lazy::Mat(_))
        };
        net.m.peers().filter(|(_, p)| mat(p)).count()
    }

    #[test]
    fn only_individually_refreshed_nodes_hold_state() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| PastryId::hash_of(i).0).collect();
        let mut net = PastryNetwork::default();
        KeyRouter::bulk_join(&mut net, &keys);
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);

        // The joiner, and the leaf neighbours its arrival repaired.
        net.join(PastryId::hash_of(10_000));
        let held = materialised_nodes(&net);
        assert!((1..=1 + 2 * net.cfg.leaf_half).contains(&held), "{held}");

        net.fail(PastryId(keys[17]));
        net.leave(PastryId(keys[4242]));
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);
        assert_eq!(net.m.peers().count(), net.len(), "dead records collected");
        assert_eq!(net.len(), 9_999);
    }

    #[test]
    fn canonical_leaf_sets_stay_pinned_to_the_snapshot_under_churn() {
        let mut net = PastryNetwork::new(PastryConfig {
            leaf_half: 1,
            ..PastryConfig::default()
        });
        for id in [10, 20, 30, 40, 50, 60] {
            net.join(PastryId(id));
        }
        net.stabilize();
        // Abrupt failure after stabilize: 10 has not noticed, and pays a
        // timeout for the probe.
        net.fail(PastryId(20));
        assert_eq!(effective(&net, 10).0.cw, [PastryId(20)], "stale leaf");
        assert_eq!(net.walk_step(10), None, "its only clockwise leaf is dead");
        let res = net.route(PastryId(10), PastryId(21)).unwrap();
        assert_eq!((res.owner, res.timeouts), (PastryId(10), 1));
        // An arrival it was not told of either (25's leaves are 30 and 10).
        net.join(PastryId(25));
        assert_eq!(effective(&net, 40).0.ccw, [PastryId(30)]);
        assert_eq!(effective(&net, 30).0.ccw, [PastryId(25)], "told: repaired");
        net.stabilize();
        assert_eq!(effective(&net, 10).0.cw, [PastryId(25)]);
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
            let live = net.alive_ids();
            for &id in &live {
                let stored = &reference.0[&id.0];
                prop_assert_eq!(&effective(net, id.0), stored, "state of {}", id);
            }
            // What `settled` short-cuts must still be ground truth.
            for rank in 0..=live.len() {
                let at = net.m.alive_key_at(rank).map(PastryId);
                prop_assert_eq!(at, live.get(rank).copied());
            }
            for &from in live.iter().take(6) {
                let owner = net.route(from, PastryId(!from.0)).expect("routes").owner;
                prop_assert!(net.is_alive(owner), "{} delivered to dead {}", from, owner);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After every step of a churn history, every live node's leaf
            /// sets and full table read through the lazy accessors equal
            /// the stored state of the reference, refreshed at the same
            /// points.
            #[test]
            fn lazy_views_equal_the_materialised_reference(
                initial in proptest::collection::hash_set(crowded_id(), 2..40),
                steps in proptest::collection::vec(step(), 0..25),
            ) {
                let mut net = PastryNetwork::default();
                let mut reference = Reference::default();
                for id in initial {
                    reference.join(&mut net, PastryId(id));
                    views_match(&net, &reference)?;
                }
                for s in steps {
                    let live = net.alive_ids();
                    match s {
                        Step::Join(id) if !net.is_alive(PastryId(id)) => {
                            reference.join(&mut net, PastryId(id));
                        }
                        Step::Leave(i) if live.len() > 1 => {
                            reference.leave(&mut net, live[i % live.len()]);
                        }
                        Step::Fail(i) if live.len() > 1 => net.fail(live[i % live.len()]),
                        Step::Stabilize => reference.stabilize(&mut net),
                        _ => {}
                    }
                    views_match(&net, &reference)?;
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
                    let owner = net.owner_of(PastryId(key));
                    for &from in &ids {
                        let routed = net.route(PastryId(from), PastryId(key));
                        prop_assert_eq!(routed.map(|r| r.owner), owner, "{:x} from {:x}", key, from);
                    }
                }
            }
        }
    }
}
