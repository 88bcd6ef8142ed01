//! Tapestry's neighbor maps, surrogate routing, and churn.

use dgrid_sim::overlay::{Lazy, Membership};
use dgrid_sim::prefix::{self, Table, Tables, DIGITS as LEVELS, DIGIT_BITS, RADIX};
use dgrid_sim::router::{rn_tree_parents_of_successors, rn_tree_parents_via, KeyRouter, RouteCost};
use serde::{Deserialize, Serialize};

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

/// The Tapestry network: authoritative membership plus every node's
/// (possibly stale) neighbor maps. Reached through its [`KeyRouter`] impl.
///
/// `maps[level][digit]` of a node is a node sharing its first `level`
/// digits whose next digit is `digit`, as of the node's last refresh. Maps
/// are stored only where an individual refresh has materialised them since
/// the last [`KeyRouter::stabilize`]; any other entry is one indexed
/// search of the shared snapshot, made when a route asks for it.
#[derive(Clone)]
pub struct TapestryNetwork {
    cfg: TapestryConfig,
    /// Per node: its neighbor maps.
    m: Membership<Lazy<Table>>,
}

/// A level keeps an entry for its owner's own digit too: the surrogate scan
/// reads it.
const TABLES: Tables = Tables { own_slots: true };

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
            m: Membership::default(),
        }
    }

    /// The maps of a node admitted without telling anybody: empty, so a
    /// stabilize must follow before any routing.
    fn deferred() -> Lazy<Table> {
        Lazy::Mat(Table::new())
    }

    /// Rebuild one node's neighbor maps from ground truth.
    fn refresh_node(&mut self, id: u64) {
        *self.m.state_mut(id) = Lazy::Mat(TABLES.build(&self.m, id));
    }

    /// Whether a route is known to end at the key's root without being
    /// walked: nothing has changed since the last stabilize, so every map
    /// is complete, and the hop budget covers one hop per level.
    fn routes_are_exact(&self) -> bool {
        self.m.settled() && self.cfg.max_route_hops >= LEVELS
    }

    /// The entries of the (live or dead) node `from`, level-major.
    fn entries(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let maps = self.m.record(from).map(|r| &r.state);
        maps.into_iter().flat_map(move |maps| {
            let slots = (0..LEVELS).flat_map(|level| (0..RADIX as u8).map(move |d| (level, d)));
            slots.filter_map(move |(level, d)| {
                TABLES.slot(&self.m, from, maps, level, d).map(|e| e.key)
            })
        })
    }
}

impl KeyRouter for TapestryNetwork {
    const SUBSTRATE: &'static str = "tapestry";
    type Peer = Lazy<Table>;

    fn membership(&self) -> &Membership<Self::Peer> {
        &self.m
    }

    /// Builds the joiner's neighbor maps; nodes sharing prefixes learn of
    /// it lazily (stale until stabilize).
    fn join(&mut self, key: u64) {
        self.m.admit(key, Self::deferred());
        self.refresh_node(key);
    }

    /// Into an empty network: one sort, landing settled with no record
    /// per node. Into any other: nodes with empty maps, which a stabilize
    /// must follow.
    fn bulk_join(&mut self, keys: &[u64]) {
        self.m.bulk_join(keys, Self::deferred);
    }

    /// The node's immediate prefix neighbourhood is refreshed right away.
    fn leave(&mut self, key: u64) {
        self.m.mark_dead(key);
        // Refresh the nodes most likely to hold references: those sharing
        // long prefixes (the deepest slot siblings).
        let slots = (0..LEVELS)
            .rev()
            .flat_map(|level| (0..RADIX as u8).map(move |d| prefix::slot_range(key, level, d)));
        let neighbourhood: Vec<u64> = slots
            .filter_map(|(lo, hi)| self.m.alive_in(lo..=hi).next())
            .take(RADIX)
            .collect();
        for n in neighbourhood {
            self.refresh_node(n);
        }
    }

    /// References remain until probed or stabilized away.
    fn fail(&mut self, key: u64) {
        self.m.mark_dead(key);
    }

    /// The unique root of `key` under surrogate routing: descend digit by
    /// digit, at each level taking the key's digit if any live node exists
    /// under it, otherwise the next digit (wrapping) that has one —
    /// Tapestry's deterministic surrogate rule.
    fn owner_of(&self, key: u64) -> Option<u64> {
        if self.m.is_empty() {
            return None;
        }
        let mut prefix_carrier = key; // carries the resolved digits so far
        for level in 0..LEVELS {
            let want = prefix::digit(key, level);
            // Some slot is live while anyone is: the carrier's prefix is.
            let (lo, hi) = (0..RADIX as u8)
                .map(|k| prefix::slot_range(prefix_carrier, level, (want + k) % 16))
                .find(|&(lo, hi)| self.m.alive_in(lo..=hi).next().is_some())?;
            // Fix this digit in the carrier and continue.
            let shift = 64 - DIGIT_BITS * (level + 1);
            let kept_mask = u64::MAX << shift;
            prefix_carrier = (lo & kept_mask) | (prefix_carrier & !kept_mask);
            // Early exit: if the chosen slot holds exactly one live node it
            // is the root.
            let mut inside = self.m.alive_in(lo..=hi);
            let first = inside.next();
            if inside.next().is_none() {
                return first;
            }
        }
        Some(prefix_carrier)
    }

    /// Surrogate routing from `from` towards `key`'s root, over each hop's
    /// local (possibly stale) neighbor maps.
    fn lookup(&self, from: u64, key: u64) -> Option<RouteCost> {
        assert!(self.m.is_alive(from), "route from dead node {from:016x}");
        // While settled every node's maps are `Canon` and every entry of
        // them alive: the hops read the snapshot alone.
        let settled = self.m.settled();
        let mut cur = from;
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
                &self.m.record(cur).expect("hops visit known nodes").state
            };
            if sole && matches!(maps, Lazy::Canon) {
                // Every deeper level of such maps holds `cur` under its own
                // digit and nothing else: the scans would end here.
                break;
            }
            let want = prefix::digit(key, level);
            let mut advanced = false;
            for k in 0..RADIX as u8 {
                let d = (want + k) % 16;
                let Some(n) = TABLES.slot(&self.m, cur, maps, level, d) else {
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
        Some(RouteCost {
            owner: cur,
            hops,
            timeouts,
        })
    }

    /// Exact while `routes_are_exact`: an entry for `(prefix, digit)` is a
    /// function of the prefix alone, so the route makes the surrogate
    /// choices of [`KeyRouter::owner_of`] level by level. Any other state
    /// walks the route.
    fn lookup_owner(&self, from: u64, key: u64) -> Option<u64> {
        if self.routes_are_exact() {
            debug_assert!(self.m.is_alive(from));
            self.owner_of(key)
        } else {
            self.lookup(from, key).map(|r| r.owner)
        }
    }

    /// Exact while `routes_are_exact`, when every parent lookup names the
    /// surrogate root. A parent key is a prefix of its asker followed by
    /// zeros, and the asker lives under that prefix, so at each level the
    /// surrogate rule finds a live digit at or past the wanted one without
    /// wrapping and takes the smallest: the root is the smallest live key
    /// under the prefix, which is the parent key's successor. The parents
    /// are then Chord's, [`rn_tree_parents_of_successors`]. Any other state
    /// looks each parent up.
    fn rn_tree_parents(&self, keys: &[u64]) -> Vec<u32> {
        if !self.routes_are_exact() {
            return rn_tree_parents_via(self, keys, |from, key| {
                self.lookup_owner(from, key).expect("stable overlay routes")
            });
        }
        debug_assert!(keys == self.m.snapshot().keys(), "keys are the live set");
        rn_tree_parents_of_successors(keys)
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

    /// Everyone refreshes, dead records are collected. Afterwards every
    /// node's maps are a function of the live set alone, so the set is
    /// kept once and no map is built (O(N) in all).
    fn stabilize(&mut self) {
        self.m.stabilize();
    }

    /// Every entry in every live node's *effective* maps — computed from
    /// the snapshot or materialised, whichever the node holds — is a live
    /// node inside the entry's prefix slot, and no slot is empty while a
    /// live candidate exists. Meaningful once stabilized.
    fn table_violation(&self) -> Option<String> {
        TABLES.violation(&self.m, |maps| maps, "maps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrid_sim::rng::{rng_for, streams};
    use rand::Rng;

    fn network(n: usize, seed: u64) -> (TapestryNetwork, Vec<u64>) {
        let mut rng = rng_for(seed, streams::NODE_IDS);
        let mut net = TapestryNetwork::default();
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
    fn root_is_unique_and_live() {
        let (net, _) = network(64, 1);
        let mut rng = rng_for(2, 0);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let root = net.owner_of(key).unwrap();
            assert!(net.is_alive(root));
        }
    }

    #[test]
    fn key_owned_by_exact_match_if_present() {
        let mut net = TapestryNetwork::default();
        let id = 0xDEAD_BEEF_0000_0001;
        net.join(id);
        net.join(0x1111_0000_0000_0000);
        net.stabilize();
        assert_eq!(net.owner_of(id), Some(id));
    }

    #[test]
    fn routing_converges_to_the_root_from_anywhere() {
        let (net, ids) = network(128, 3);
        let mut rng = rng_for(4, 0);
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let root = net.owner_of(key).unwrap();
            for &from in ids.iter().step_by(17) {
                let res = net.lookup(from, key).expect("routes");
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
            let key: u64 = rng.gen();
            let from = ids[rng.gen_range(0..ids.len())];
            let res = net.lookup(from, key).unwrap();
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
        let id = 42;
        net.join(id);
        assert_eq!(net.owner_of(u64::MAX), Some(id));
        let res = net.lookup(id, 7).unwrap();
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
        let alive = net.alive_keys();
        let mut rng = rng_for(8, 0);
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.lookup(from, key).expect("routes around failures");
            assert!(net.is_alive(res.owner));
        }
        // After stabilization: exact root again.
        net.stabilize();
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let from = alive[rng.gen_range(0..alive.len())];
            let res = net.lookup(from, key).unwrap();
            assert_eq!(Some(res.owner), net.owner_of(key));
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
            let key = victim ^ rng.gen_range(0..1_000_000);
            let from = net.alive_keys()[0];
            let res = net.lookup(from, key).expect("routes");
            assert!(net.is_alive(res.owner));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn duplicate_join_panics() {
        let mut net = TapestryNetwork::default();
        net.join(1);
        net.join(1);
    }

    #[test]
    fn deferred_bulk_join_matches_eager_joins_after_stabilize() {
        let mut rng = rng_for(23, streams::NODE_IDS);
        let keys: Vec<u64> = (0..48).map(|_| rng.gen()).collect();
        let mut eager = TapestryNetwork::default();
        for &k in &keys {
            eager.join(k);
        }
        eager.stabilize();
        let mut lazy = TapestryNetwork::default();
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
    fn surrogate_digit_wraps() {
        // Only nodes with top digit 0x2 exist; a key with top digit 0xF
        // must wrap around to 0x2.
        let mut net = TapestryNetwork::default();
        let a = 0x2000_0000_0000_0000;
        let b = 0x2FFF_0000_0000_0000;
        net.join(a);
        net.join(b);
        net.stabilize();
        let root = net.owner_of(0xF000_0000_0000_0000).unwrap();
        assert!(root == a || root == b);
        let via_route = net.lookup(a, 0xF000_0000_0000_0000).unwrap();
        assert_eq!(via_route.owner, root);
    }

    // ------------------------------------------------------------------
    // The materialised-everywhere representation, as the reference
    // ------------------------------------------------------------------

    /// Every node's 16 × 16 maps stored, as this crate kept them before the
    /// snapshot, refreshed at the points the network refreshes a node's —
    /// from the network's own live set, which a refresh does not change.
    #[derive(Default)]
    struct Reference(std::collections::HashMap<u64, Table>);

    impl Reference {
        fn refresh_node(&mut self, net: &TapestryNetwork, id: u64) {
            let mut maps = vec![[None; 16]; LEVELS as usize];
            for level in 0..LEVELS {
                for d in 0..16u8 {
                    let (lo, hi) = prefix::slot_range(id, level, d);
                    maps[level as usize][d as usize] = net.m.alive_in(lo..=hi).next();
                }
            }
            self.0.insert(id, maps);
        }

        fn join(&mut self, net: &mut TapestryNetwork, id: u64) {
            net.join(id);
            self.refresh_node(net, id);
        }

        fn leave(&mut self, net: &mut TapestryNetwork, id: u64) {
            net.leave(id);
            let mut neighbourhood: Vec<u64> = Vec::with_capacity(16);
            'outer: for level in (0..LEVELS).rev() {
                for d in 0..16u8 {
                    let (lo, hi) = prefix::slot_range(id, level, d);
                    if let Some(n) = net.m.alive_in(lo..=hi).next() {
                        neighbourhood.push(n);
                        if neighbourhood.len() >= 16 {
                            break 'outer;
                        }
                    }
                }
            }
            for n in neighbourhood {
                self.refresh_node(net, n);
            }
        }

        fn stabilize(&mut self, net: &mut TapestryNetwork) {
            net.stabilize();
            self.0.retain(|&id, _| net.is_alive(id));
            for id in net.alive_keys() {
                self.refresh_node(net, id);
            }
        }
    }

    /// One node's maps read through the lazy accessor, in stored form.
    fn effective(net: &TapestryNetwork, id: u64) -> Table {
        let maps = &net.m.record(id).expect("known node").state;
        let slot = |level, d| TABLES.slot(&net.m, id, maps, level, d as u8).map(|e| e.key);
        let rows = (0..LEVELS).map(|level| std::array::from_fn(|d| slot(level, d)));
        rows.collect()
    }

    fn materialised_nodes(net: &TapestryNetwork) -> usize {
        let held = |maps: &Lazy<Table>| matches!(maps, Lazy::Mat(_));
        net.m.records().filter(|(_, r)| held(&r.state)).count()
    }

    #[test]
    fn a_record_is_the_size_the_network_held_before_sharing_it() {
        // One tag and the liveness flag: 32 B of value per B-tree entry.
        let record = std::mem::size_of::<dgrid_sim::overlay::Record<Lazy<Table>>>();
        assert_eq!(record, 32);
    }

    #[test]
    fn only_individually_refreshed_nodes_hold_maps() {
        let keys: Vec<u64> = (0..10_000u64).map(TapestryNetwork::key_of).collect();
        let mut net = TapestryNetwork::default();
        KeyRouter::bulk_join(&mut net, &keys);
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);

        net.join(TapestryNetwork::key_of(10_000));
        assert_eq!(materialised_nodes(&net), 1, "the joiner alone");
        net.stabilize();
        assert_eq!(materialised_nodes(&net), 0);

        net.leave(keys[4242]);
        let held = materialised_nodes(&net);
        assert!(
            (1..=16).contains(&held),
            "{held} nodes in the leaver's neighbourhood"
        );

        net.fail(keys[17]);
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
    fn canonical_maps_stay_pinned_to_the_snapshot_under_churn() {
        let [a, b, c] = [0x1000u64 << 48, 0x9000 << 48, 0x9800 << 48];
        let mut net = TapestryNetwork::default();
        net.join(a);
        net.join(b);
        net.stabilize();
        // Abrupt failure after stabilize: `a` still points at `b`, and a
        // route pays a timeout to find out.
        net.fail(b);
        assert_eq!(effective(&net, a)[0][9], Some(b), "stale entry");
        let res = net.lookup(a, b).unwrap();
        assert_eq!((res.owner, res.timeouts), (a, 1));
        // An arrival it has not heard of either.
        net.join(c);
        assert_eq!(effective(&net, a)[0][9], Some(b));
        assert_eq!(effective(&net, c)[0][1], Some(a), "the joiner looked");
        // A route from the joiner reads its stored maps, which never held
        // `b`: no timeout.
        let res = net.lookup(c, b).unwrap();
        assert_eq!((res.owner, res.hops, res.timeouts), (c, 0, 0));
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
            let live = net.alive_keys();
            for &id in &live {
                prop_assert_eq!(&effective(net, id), &reference.0[&id], "maps of {:x}", id);
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
        fn reads_agree(net: &TapestryNetwork) -> Result<(), TestCaseError> {
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
                let root = net.owner_of(key);
                prop_assert_eq!(root, walked.owner_of(key), "root of {:x}", key);
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After every step of a churn history, every live node's full
            /// maps read through the lazy accessor equal the stored maps of
            /// the reference, refreshed at the same points, and every read
            /// equals the walked one.
            #[test]
            fn lazy_maps_equal_the_materialised_reference(
                initial in proptest::collection::hash_set(crowded_id(), 2..40),
                steps in proptest::collection::vec(step(), 0..25),
            ) {
                let mut net = TapestryNetwork::default();
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
        }
    }
}
