//! Tapestry identifiers, neighbor maps, surrogate routing, and churn.

use std::fmt;

use dgrid_sim::prefix::{self, Lazy, Membership, DIGITS as LEVELS, DIGIT_BITS, RADIX};
use dgrid_sim::rng::splitmix64;
use dgrid_sim::router::{KeyRouter, RouteCost};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A position in Tapestry's identifier space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TapestryId(pub u64);

impl TapestryId {
    /// Hash an arbitrary value onto the id space.
    pub fn hash_of(x: u64) -> TapestryId {
        TapestryId(splitmix64(x))
    }

    /// The `i`-th digit, most significant first.
    pub fn digit(self, i: u32) -> u8 {
        prefix::digit(self.0, i)
    }

    /// The id range `[lo, hi]` of all ids whose first `level` digits equal
    /// `self`'s and whose digit at `level` is `d`.
    fn slot_range(self, level: u32, d: u8) -> (u64, u64) {
        prefix::slot_range(self.0, level, d)
    }
}

impl fmt::Debug for TapestryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TapestryId({:016x})", self.0)
    }
}

impl fmt::Display for TapestryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Tunables.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TapestryConfig {
    /// Safety valve on routing (levels × surrogate retries is bounded, but
    /// stale maps under churn can add probes).
    pub max_route_hops: u32,
}

impl Default for TapestryConfig {
    fn default() -> Self {
        TapestryConfig { max_route_hops: 64 }
    }
}

/// Result of a successful route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// The key's root node (Tapestry's owner).
    pub owner: TapestryId,
    /// Forwarding hops taken.
    pub hops: u32,
    /// Dead entries probed.
    pub timeouts: u32,
}

/// The Tapestry network: authoritative membership plus every node's
/// (possibly stale) neighbor maps.
///
/// `maps[level][digit]` of a node is a node sharing its first `level`
/// digits whose next digit is `digit`, as of the node's last refresh. Maps
/// are stored only where an individual refresh has materialised them since
/// the last [`TapestryNetwork::stabilize`]; any other entry is one binary
/// search into the shared snapshot, made when a route asks for it.
pub struct TapestryNetwork {
    cfg: TapestryConfig,
    /// A level keeps an entry for its owner's own digit too: the surrogate
    /// scan reads it.
    m: Membership<()>,
}

impl Default for TapestryNetwork {
    fn default() -> Self {
        Self::new(TapestryConfig::default())
    }
}

impl TapestryNetwork {
    /// An empty network.
    pub fn new(cfg: TapestryConfig) -> Self {
        TapestryNetwork {
            cfg,
            m: Membership::new(true),
        }
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
    pub fn is_alive(&self, id: TapestryId) -> bool {
        self.m.is_alive(id.0)
    }

    /// Live ids, ascending.
    pub fn alive_ids(&self) -> Vec<TapestryId> {
        self.m.alive_in(..).map(TapestryId).collect()
    }

    /// A uniformly random live node.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<TapestryId> {
        if self.is_empty() {
            return None;
        }
        let n = rng.gen_range(0..self.len());
        self.m.alive_key_at(n).map(TapestryId)
    }

    /// Ground truth: the unique root of `key` under surrogate routing.
    ///
    /// Descend digit by digit; at each level take the key's digit if any
    /// live node exists under it, otherwise the next digit (wrapping) that
    /// has one — Tapestry's deterministic surrogate rule.
    pub fn root_of(&self, key: TapestryId) -> Option<TapestryId> {
        if self.is_empty() {
            return None;
        }
        let mut prefix_carrier = key; // carries the resolved digits so far
        for level in 0..LEVELS {
            let want = key.digit(level);
            // Some slot is live while anyone is: the carrier's prefix is.
            let (lo, hi) = (0..RADIX as u8)
                .map(|k| prefix_carrier.slot_range(level, (want + k) % 16))
                .find(|&(lo, hi)| self.m.first_alive_in(lo, hi).is_some())?;
            // Fix this digit in the carrier and continue.
            let shift = 64 - DIGIT_BITS * (level + 1);
            let kept_mask = u64::MAX << shift;
            prefix_carrier = TapestryId((lo & kept_mask) | (prefix_carrier.0 & !kept_mask));
            // Early exit: if the chosen slot holds exactly one live node it
            // is the root.
            let mut inside = self.m.alive_in(lo..=hi);
            let first = inside.next();
            if inside.next().is_none() {
                return first.map(TapestryId);
            }
        }
        Some(prefix_carrier)
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// Add a node and build its neighbor maps; nodes sharing prefixes learn
    /// of it lazily (stale until stabilize).
    ///
    /// # Panics
    /// If a live node with this id already exists.
    pub fn join(&mut self, id: TapestryId) {
        self.join_deferred(id);
        self.refresh_node(id);
    }

    /// Membership-only join used during bulk construction: the node is
    /// admitted with empty neighbor maps — a [`TapestryNetwork::stabilize`]
    /// must follow before any routing. The post-stabilize state is
    /// identical to having joined one by one.
    ///
    /// # Panics
    /// If a live node with this id already exists.
    pub fn join_deferred(&mut self, id: TapestryId) {
        self.m.admit(id.0, ());
    }

    /// Graceful departure: the node's immediate prefix neighbourhood is
    /// refreshed right away.
    ///
    /// # Panics
    /// If `id` is not a live node.
    pub fn leave(&mut self, id: TapestryId) {
        self.m.mark_dead(id.0);
        // Refresh the nodes most likely to hold references: those sharing
        // long prefixes (the deepest slot siblings).
        let slots = (0..LEVELS)
            .rev()
            .flat_map(|level| (0..RADIX as u8).map(move |d| id.slot_range(level, d)));
        let neighbourhood: Vec<u64> = slots
            .filter_map(|(lo, hi)| self.m.first_alive_in(lo, hi))
            .take(RADIX)
            .collect();
        for n in neighbourhood {
            self.m.refresh_table(n);
        }
    }

    /// Abrupt failure: references remain until probed or stabilized away.
    ///
    /// # Panics
    /// If `id` is not a live node.
    pub fn fail(&mut self, id: TapestryId) {
        self.m.mark_dead(id.0);
    }

    /// Rebuild one node's neighbor maps from ground truth.
    pub fn refresh_node(&mut self, id: TapestryId) {
        self.m.refresh_table(id.0);
    }

    /// Full stabilization: everyone refreshes, dead records are collected.
    /// Afterwards every node's maps are a function of the live set alone,
    /// so the set is kept once and no map is built (O(N) in all).
    pub fn stabilize(&mut self) {
        self.m.stabilize();
    }

    /// Neighbor-map invariant check, meaningful after [`stabilize`]: every
    /// entry in every live node's *effective* maps — computed from the
    /// snapshot or materialised, whichever the node holds — is a live node
    /// inside the entry's prefix slot, and no slot is empty while a live
    /// candidate exists. Returns a description of the first violation, or
    /// `None` when the maps are sound.
    ///
    /// [`stabilize`]: TapestryNetwork::stabilize
    pub fn table_violation(&self) -> Option<String> {
        self.m.table_violation("maps")
    }

    /// Whether a route is known to end at the key's root without being
    /// walked: nothing has changed since the last stabilize, so every map
    /// is complete, and the hop budget covers one hop per level.
    fn routes_are_exact(&self) -> bool {
        self.m.settled() && self.cfg.max_route_hops >= LEVELS
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Surrogate routing from `from` towards `key`'s root, over each hop's
    /// local (possibly stale) neighbor maps.
    ///
    /// # Panics
    /// If `from` is not a live node.
    pub fn route(&self, from: TapestryId, key: TapestryId) -> Option<Route> {
        assert!(self.is_alive(from), "route from dead node {from}");
        // While settled every node's maps are `Canon` and every entry of
        // them alive: the hops read the snapshot alone.
        let settled = self.m.settled();
        let mut cur = from.0;
        let mut hops = 0u32;
        let mut timeouts = 0u32;

        let keys = self.m.snapshot().keys();
        // `cur` is the only snapshot key under the prefix resolved so far.
        let mut sole = false;
        let mut level = 0u32;
        while level < LEVELS {
            if hops + timeouts > self.cfg.max_route_hops {
                return None;
            }
            let maps = if settled {
                &Lazy::Canon
            } else {
                &self.m.peer(cur).expect("hops visit known nodes").table
            };
            if sole && matches!(maps, Lazy::Canon) {
                // Every deeper level of such maps holds `cur` under its own
                // digit and nothing else: the scans would end here.
                break;
            }
            let want = key.digit(level);
            let mut advanced = false;
            for k in 0..RADIX as u8 {
                let d = (want + k) % 16;
                let Some(n) = self.m.slot(cur, maps, level, d) else {
                    continue;
                };
                if settled || self.m.is_alive(n.key) {
                    let (_, hi) = prefix::slot_range(cur, level, d);
                    sole = n
                        .rank
                        .is_some_and(|r| keys.get(r + 1).is_none_or(|&next| next > hi));
                    if n.key != cur {
                        cur = n.key;
                        hops += 1;
                    }
                    level += 1;
                    advanced = true;
                    break;
                }
                timeouts += 1; // dead entry probed
            }
            if !advanced {
                // Entire row empty (stale maps after mass failure): we are
                // the best node we can prove; deliver here.
                break;
            }
        }
        Some(Route {
            owner: TapestryId(cur),
            hops,
            timeouts,
        })
    }

    /// The entries of the (live or dead) node `from`, level-major.
    fn entries(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let maps = self.m.peer(from).map(|p| &p.table);
        maps.into_iter().flat_map(move |maps| {
            let slots = (0..LEVELS).flat_map(|level| (0..RADIX as u8).map(move |d| (level, d)));
            slots.filter_map(move |(level, d)| self.m.slot(from, maps, level, d).map(|e| e.key))
        })
    }
}

impl KeyRouter for TapestryNetwork {
    const SUBSTRATE: &'static str = "tapestry";

    fn key_of(raw: u64) -> u64 {
        TapestryId::hash_of(raw).0
    }

    fn join(&mut self, key: u64) {
        TapestryNetwork::join(self, TapestryId(key));
    }

    fn bulk_join(&mut self, keys: &[u64]) {
        for &k in keys {
            self.join_deferred(TapestryId(k));
        }
    }

    fn leave(&mut self, key: u64) {
        TapestryNetwork::leave(self, TapestryId(key));
    }

    fn fail(&mut self, key: u64) {
        TapestryNetwork::fail(self, TapestryId(key));
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
        self.root_of(TapestryId(key)).map(|id| id.0)
    }

    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost> {
        self.route(TapestryId(from), TapestryId(key))
            .map(|r| RouteCost {
                owner: r.owner.0,
                hops: r.hops,
                timeouts: r.timeouts,
            })
    }

    /// Exact while `routes_are_exact`: an entry for
    /// `(prefix, digit)` is a function of the prefix alone, so the route
    /// makes the surrogate choices of [`TapestryNetwork::root_of`] level
    /// by level. Any other state walks the route.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        if self.routes_are_exact() {
            debug_assert!(self.m.is_alive(from));
            self.owner_of(key)
        } else {
            self.lookup(from, key).map(|r| r.owner)
        }
    }

    fn failover_peers(&self, from: u64) -> Vec<u64> {
        // Neighbor-map entries in level-major order — the closest-known
        // peers first — deduped since one node can fill several slots.
        let mut out: Vec<u64> = Vec::new();
        for entry in self.entries(from) {
            if entry != from && !out.contains(&entry) {
                out.push(entry);
            }
        }
        out
    }

    fn walk_step(&self, at: u64) -> Option<u64> {
        // First live neighbor-map entry: Tapestry has no ring successor, so
        // the walk follows the closest known distinct neighbor.
        self.entries(at).find(|&n| n != at && self.m.is_alive(n))
    }

    fn stabilize(&mut self) {
        TapestryNetwork::stabilize(self);
    }

    fn table_violation(&self) -> Option<String> {
        TapestryNetwork::table_violation(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_sim::prefix::Table;
    use dgrid_sim::rng::{rng_for, streams};

    fn network(n: usize, seed: u64) -> (TapestryNetwork, Vec<TapestryId>) {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut net = TapestryNetwork::default();
        let mut ids = Vec::new();
        while ids.len() < n {
            let id = TapestryId(rng.gen());
            if !net.is_alive(id) {
                net.join(id);
                ids.push(id);
            }
        }
        net.stabilize();
        (net, ids)
    }

    #[test]
    fn root_is_unique_and_live() {
        let (net, _) = network(64, 1);
        let mut rng = rng_for(2, 0);
        for _ in 0..200 {
            let key = TapestryId(rng.gen());
            let root = net.root_of(key).unwrap();
            assert!(net.is_alive(root));
        }
    }

    #[test]
    fn key_owned_by_exact_match_if_present() {
        let mut net = TapestryNetwork::default();
        let id = TapestryId(0xDEAD_BEEF_0000_0001);
        net.join(id);
        net.join(TapestryId(0x1111_0000_0000_0000));
        net.stabilize();
        assert_eq!(net.root_of(id), Some(id));
    }

    #[test]
    fn routing_converges_to_the_root_from_anywhere() {
        let (net, ids) = network(128, 3);
        let mut rng = rng_for(4, 0);
        for _ in 0..100 {
            let key = TapestryId(rng.gen());
            let root = net.root_of(key).unwrap();
            for &from in ids.iter().step_by(17) {
                let res = net.route(from, key).expect("routes");
                assert_eq!(res.owner, root, "from {from}, key {key}");
                assert_eq!(res.timeouts, 0);
            }
        }
    }

    #[test]
    fn hops_bounded_by_levels_and_usually_logarithmic() {
        let (net, ids) = network(1024, 5);
        let mut rng = rng_for(6, 0);
        let mut total = 0u64;
        let trials = 300;
        for _ in 0..trials {
            let key = TapestryId(rng.gen());
            let from = ids[rng.gen_range(0..ids.len())];
            let res = net.route(from, key).unwrap();
            assert!(res.hops <= LEVELS);
            total += u64::from(res.hops);
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean <= (1024f64).log2() / 4.0 + 2.5,
            "mean hops {mean:.2} above log16(N) + slack"
        );
    }

    #[test]
    fn single_node_owns_everything() {
        let mut net = TapestryNetwork::default();
        let id = TapestryId(42);
        net.join(id);
        assert_eq!(net.root_of(TapestryId(u64::MAX)), Some(id));
        let res = net.route(id, TapestryId(7)).unwrap();
        assert_eq!(res.owner, id);
        assert_eq!(res.hops, 0);
    }

    #[test]
    fn failures_reroute_to_live_nodes() {
        let (mut net, ids) = network(256, 7);
        for &id in ids.iter().take(60) {
            net.fail(id);
        }
        // Without stabilization: still delivers to a live node.
        let alive = net.alive_ids();
        let mut rng = rng_for(8, 0);
        for _ in 0..100 {
            let key = TapestryId(rng.gen());
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.route(from, key).expect("routes around failures");
            assert!(net.is_alive(res.owner));
        }
        // After stabilization: exact root again.
        net.stabilize();
        for _ in 0..100 {
            let key = TapestryId(rng.gen());
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.route(from, key).unwrap();
            assert_eq!(Some(res.owner), net.root_of(key));
            assert_eq!(res.timeouts, 0);
        }
    }

    #[test]
    fn graceful_leave_repairs_neighbourhood() {
        let (mut net, ids) = network(64, 9);
        let victim = ids[5];
        net.leave(victim);
        let mut rng = rng_for(10, 0);
        for _ in 0..50 {
            let key = TapestryId(victim.0 ^ rng.gen_range(0..1_000_000));
            let from = net.alive_ids()[0];
            let res = net.route(from, key).expect("routes");
            assert!(net.is_alive(res.owner));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn duplicate_join_panics() {
        let mut net = TapestryNetwork::default();
        net.join(TapestryId(1));
        net.join(TapestryId(1));
    }

    #[test]
    fn deferred_bulk_join_matches_eager_joins_after_stabilize() {
        let mut rng = rng_for(23, streams::NODE_IDS);
        let keys: Vec<u64> = (0..48).map(|_| rng.gen()).collect();
        let mut eager = TapestryNetwork::default();
        for &k in &keys {
            eager.join(TapestryId(k));
        }
        eager.stabilize();
        let mut lazy = TapestryNetwork::default();
        KeyRouter::bulk_join(&mut lazy, &keys);
        lazy.stabilize();
        assert_eq!(eager.alive_ids(), lazy.alive_ids());
        for _ in 0..200 {
            let key = TapestryId(rng.gen());
            let from = TapestryId(keys[rng.gen_range(0..keys.len())]);
            assert_eq!(eager.route(from, key), lazy.route(from, key));
        }
        assert_eq!(lazy.table_violation(), None);
    }

    #[test]
    fn surrogate_digit_wraps() {
        // Only nodes with top digit 0x2 exist; a key with top digit 0xF
        // must wrap around to 0x2.
        let mut net = TapestryNetwork::default();
        let a = TapestryId(0x2000_0000_0000_0000);
        let b = TapestryId(0x2FFF_0000_0000_0000);
        net.join(a);
        net.join(b);
        net.stabilize();
        let root = net.root_of(TapestryId(0xF000_0000_0000_0000)).unwrap();
        assert!(root == a || root == b);
        let via_route = net.route(a, TapestryId(0xF000_0000_0000_0000)).unwrap();
        assert_eq!(via_route.owner, root);
    }

    // ------------------------------------------------------------------
    // The materialised-everywhere representation, as the reference
    // ------------------------------------------------------------------

    /// Every node's 16 × 16 maps stored, as this crate kept them before the
    /// snapshot, refreshed at the points the network refreshes a node's —
    /// from the network's own live set, which a refresh does not change.
    #[derive(Default)]
    struct Reference(std::collections::BTreeMap<u64, Table>);

    impl Reference {
        fn refresh_node(&mut self, net: &TapestryNetwork, id: TapestryId) {
            let mut maps = vec![[None; 16]; LEVELS as usize];
            for level in 0..LEVELS {
                for d in 0..16u8 {
                    let (lo, hi) = id.slot_range(level, d);
                    maps[level as usize][d as usize] = net.m.alive_in(lo..=hi).next();
                }
            }
            self.0.insert(id.0, maps);
        }

        fn join(&mut self, net: &mut TapestryNetwork, id: TapestryId) {
            net.join(id);
            self.refresh_node(net, id);
        }

        fn leave(&mut self, net: &mut TapestryNetwork, id: TapestryId) {
            net.leave(id);
            let mut neighbourhood: Vec<u64> = Vec::with_capacity(16);
            'outer: for level in (0..LEVELS).rev() {
                for d in 0..16u8 {
                    let (lo, hi) = id.slot_range(level, d);
                    if let Some(n) = net.m.alive_in(lo..=hi).next() {
                        neighbourhood.push(n);
                        if neighbourhood.len() >= 16 {
                            break 'outer;
                        }
                    }
                }
            }
            for n in neighbourhood {
                self.refresh_node(net, TapestryId(n));
            }
        }

        fn stabilize(&mut self, net: &mut TapestryNetwork) {
            net.stabilize();
            self.0.retain(|&id, _| net.is_alive(TapestryId(id)));
            for id in net.alive_ids() {
                self.refresh_node(net, id);
            }
        }
    }

    /// One node's maps read through the lazy accessor, in stored form.
    fn effective(net: &TapestryNetwork, id: u64) -> Table {
        let maps = &net.m.peer(id).expect("known node").table;
        let slot = |level, d| net.m.slot(id, maps, level, d as u8).map(|e| e.key);
        let rows = (0..LEVELS).map(|level| std::array::from_fn(|d| slot(level, d)));
        rows.collect()
    }

    fn materialised_nodes(net: &TapestryNetwork) -> usize {
        let held = |p: &prefix::Peer<()>| matches!(p.table, Lazy::Mat(_));
        net.m.peers().filter(|(_, p)| held(p)).count()
    }

    #[test]
    fn only_individually_refreshed_nodes_hold_maps() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| TapestryId::hash_of(i).0).collect();
        let mut net = TapestryNetwork::default();
        KeyRouter::bulk_join(&mut net, &keys);
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);

        net.join(TapestryId::hash_of(10_000));
        assert_eq!(materialised_nodes(&net), 1, "the joiner alone");
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);

        net.leave(TapestryId(keys[4242]));
        let held = materialised_nodes(&net);
        assert!(
            (1..=16).contains(&held),
            "{held} nodes in the leaver's neighbourhood"
        );

        net.fail(TapestryId(keys[17]));
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);
        assert_eq!(net.m.peers().count(), net.len(), "dead records collected");
        assert_eq!(net.len(), 9_999);
    }

    #[test]
    fn canonical_maps_stay_pinned_to_the_snapshot_under_churn() {
        let [a, b, c] = [0x1000u64 << 48, 0x9000 << 48, 0x9800 << 48];
        let mut net = TapestryNetwork::default();
        net.join(TapestryId(a));
        net.join(TapestryId(b));
        net.stabilize();
        // Abrupt failure after stabilize: `a` still points at `b`, and a
        // route pays a timeout to find out.
        net.fail(TapestryId(b));
        assert_eq!(effective(&net, a)[0][9], Some(b), "stale entry");
        let res = net.route(TapestryId(a), TapestryId(b)).unwrap();
        assert_eq!((res.owner, res.timeouts), (TapestryId(a), 1));
        // An arrival it has not heard of either.
        net.join(TapestryId(c));
        assert_eq!(effective(&net, a)[0][9], Some(b));
        assert_eq!(effective(&net, c)[0][1], Some(a), "the joiner looked");
        net.stabilize();
        assert_eq!(effective(&net, a)[0][9], Some(c));
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

        /// Ids that crowd a few prefixes, so that deep levels matter.
        fn crowded_id() -> impl Strategy<Value = u64> {
            prop_oneof![
                any::<u64>(),
                (0u64..4, 0u64..32).prop_map(|(hi, lo)| (hi << 62) | lo),
                (any::<u8>(), 0u64..4).prop_map(|(hi, lo)| (u64::from(hi) << 56) | (lo << 52)),
            ]
        }

        fn views_match(net: &TapestryNetwork, reference: &Reference) -> Result<(), TestCaseError> {
            let live = net.alive_ids();
            for &id in &live {
                prop_assert_eq!(&effective(net, id.0), &reference.0[&id.0], "maps of {}", id);
            }
            // What `settled` short-cuts must still be ground truth.
            for rank in 0..=live.len() {
                let at = net.m.alive_key_at(rank).map(TapestryId);
                prop_assert_eq!(at, live.get(rank).copied());
            }
            for &from in live.iter().take(6) {
                let owner = net.route(from, TapestryId(!from.0)).expect("routes").owner;
                prop_assert!(net.is_alive(owner), "{} delivered to dead {}", from, owner);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After every step of a churn history, every live node's full
            /// maps read through the lazy accessor equal the stored maps of
            /// the reference, refreshed at the same points.
            #[test]
            fn lazy_maps_equal_the_materialised_reference(
                initial in proptest::collection::hash_set(crowded_id(), 2..40),
                steps in proptest::collection::vec(step(), 0..25),
            ) {
                let mut net = TapestryNetwork::default();
                let mut reference = Reference::default();
                for id in initial {
                    reference.join(&mut net, TapestryId(id));
                    views_match(&net, &reference)?;
                }
                for s in steps {
                    let live = net.alive_ids();
                    match s {
                        Step::Join(id) if !net.is_alive(TapestryId(id)) => {
                            reference.join(&mut net, TapestryId(id));
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
        }
    }
}
