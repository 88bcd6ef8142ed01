//! Route and ground-truth goldens for the three `KeyRouter` substrates.
//!
//! Pastry's and Tapestry's route constants were recorded on the
//! representation that materialised a 16 × 16 table (and, for Pastry, two
//! leaf vectors) per peer and rebuilt every one of them in `stabilize`;
//! Chord's, and every ground-truth constant, on the commit before the three
//! substrates came to share one membership type. Every route — start, key,
//! owner, hops and timeouts — and every ground-truth read is simulated
//! behaviour: it must not move when only the host-side representation of
//! the membership or of a peer's routing state changes, on settled tables
//! or stale ones. One harness over [`KeyRouter`], one set of constants per
//! substrate.

use dgrid_chord::{ChordConfig, ChordRing};
use dgrid_pastry::{PastryConfig, PastryNetwork};
use dgrid_sim::rng::rng_for;
use dgrid_sim::router::KeyRouter;
use dgrid_tapestry::{TapestryConfig, TapestryNetwork};
use rand::Rng;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn opt(&mut self, w: Option<u64>) {
        // Keys are 64-bit hashes; `None` takes a second word to stay apart.
        match w {
            Some(w) => self.word(w),
            None => {
                self.word(u64::MAX);
                self.word(0);
            }
        }
    }
}

/// What one state of one network routes like: the hash of every route,
/// then the hop and timeout totals that show which kind of work they did.
type Routes = (u64, u64, u64);

/// `trials` seeded `(from, key)` lookups from random live nodes; and the
/// hash of the ground-truth reads of the same state: `owner_of` and
/// `lookup_owner` of every trial, `alive_key_at` at a spread of ranks (one
/// past the end included) and `shortest_owned_prefix` of every 16th live
/// key.
fn hash_routes<R: KeyRouter>(net: &R, trials: usize, seed: u64) -> (Routes, u64) {
    let alive = net.alive_keys();
    let mut rng = rng_for(seed, 0);
    let mut h = Fnv::new();
    let mut truth = Fnv::new();
    let (mut hops, mut timeouts) = (0u64, 0u64);
    for _ in 0..trials {
        let key: u64 = rng.gen();
        let from = alive[rng.gen_range(0..alive.len())];
        truth.opt(net.owner_of(key));
        truth.opt(net.lookup_owner(from, key));
        h.word(from);
        h.word(key);
        match net.lookup(from, key) {
            Some(r) => {
                h.word(r.owner);
                h.word(u64::from(r.hops));
                h.word(u64::from(r.timeouts));
                hops += u64::from(r.hops);
                timeouts += u64::from(r.timeouts);
            }
            None => h.word(u64::MAX),
        }
    }
    let ranks = (0..=alive.len()).step_by(61).chain([alive.len()]);
    for rank in ranks {
        truth.opt(net.alive_key_at(rank));
    }
    for &k in alive.iter().step_by(16) {
        truth.word(u64::from(net.shortest_owned_prefix(k)));
    }
    ((h.0, hops, timeouts), truth.0)
}

/// The rest of the routing surface the RN-Tree matchmaker uses, on stale
/// state: detour lookups, the detour list itself and the random-walk step,
/// from `trials` random live nodes. Returns the hash, how many first
/// attempts stalled (so the detour list was walked) and the retries spent
/// by the lookups a detour rescued.
fn hash_detours<R: KeyRouter>(net: &R, trials: usize, seed: u64) -> (u64, u64, u64) {
    let alive = net.alive_keys();
    let mut rng = rng_for(seed, 1);
    let mut h = Fnv::new();
    let (mut stalled, mut retries) = (0u64, 0u64);
    for _ in 0..trials {
        let key: u64 = rng.gen();
        let from = alive[rng.gen_range(0..alive.len())];
        stalled += u64::from(net.lookup(from, key).is_none());
        match net.lookup_with_failover(from, key, 2) {
            Some((r, spent)) => {
                h.word(r.owner);
                h.word(u64::from(r.hops));
                h.word(u64::from(r.timeouts));
                h.word(u64::from(spent));
                retries += u64::from(spent);
            }
            None => h.word(u64::MAX),
        }
        let peers = net.failover_peers(from);
        h.word(peers.len() as u64);
        for p in peers {
            h.word(p);
        }
        h.opt(net.walk_step(from));
    }
    (h.0, stalled, retries)
}

/// 4 096 seeded keys, bulk-joined into `make()` and stabilized.
fn settled<R: KeyRouter>(make: fn() -> R) -> (R, Vec<u64>) {
    let mut rng = rng_for(41, 0);
    let mut keys: Vec<u64> = Vec::new();
    while keys.len() < 4096 {
        let k: u64 = rng.gen();
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let mut net = make();
    net.bulk_join(&keys);
    net.stabilize();
    (net, keys)
}

/// The settled network after 400 abrupt failures and no maintenance: one
/// table entry in ten points at a dead node.
fn after_failures<R: KeyRouter>(make: fn() -> R) -> R {
    let (mut net, keys) = settled(make);
    let mut rng = rng_for(42, 0);
    let mut failed = 0;
    while failed < 400 {
        let k = keys[rng.gen_range(0..keys.len())];
        if net.is_alive(k) {
            net.fail(k);
            failed += 1;
        }
    }
    net
}

/// The settled network after 200 joins interleaved with 200 graceful
/// leaves (old members and fresh joiners alike, one key rejoining after it
/// left) and no maintenance: individually refreshed peers beside peers
/// whose state still dates from the last stabilize.
fn after_joins_and_leaves<R: KeyRouter>(make: fn() -> R) -> R {
    let (mut net, mut keys) = settled(make);
    let mut rng = rng_for(43, 0);
    let mut rejoin = None;
    for i in 0..200 {
        let fresh = match rejoin.take() {
            Some(k) => k,
            None => loop {
                let k: u64 = rng.gen();
                if !keys.contains(&k) {
                    break k;
                }
            },
        };
        net.join(fresh);
        keys.push(fresh);
        let leaver = loop {
            let k = keys[rng.gen_range(0..keys.len())];
            if net.is_alive(k) {
                break k;
            }
        };
        net.leave(leaver);
        if i == 100 {
            rejoin = Some(leaver);
        }
    }
    net
}

/// Every first digit distinct: most table slots are empty and the leaf
/// sets wrap the whole ring.
fn three_peers<R: KeyRouter>() -> R {
    let mut net = R::default();
    for k in [0x1000u64, 0x8000_0000_0000_0000, 0xF000_0000_0000_0000] {
        net.join(k);
    }
    net.stabilize();
    net
}

/// What [`golden`] records of one substrate.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// The five states routed: settled, failed, churned, churned then
    /// stabilized, three peers.
    routes: [Routes; 5],
    /// The ground-truth reads of the same five states.
    truth: [u64; 5],
    /// The detour surface on the two stale ones.
    detours: [(u64, u64, u64); 2],
}

/// The five states, routed and read; then the detour surface on the two
/// stale ones, built by `tight` with a hop budget below the mean route
/// length so that first attempts fail and detours run.
fn golden<R: KeyRouter>(tight: fn() -> R) -> Golden {
    let detours = [
        hash_detours(&after_failures(tight), 1500, 51),
        hash_detours(&after_joins_and_leaves(tight), 1500, 52),
    ];
    let failed = after_failures(R::default);
    let mut churned = after_joins_and_leaves(R::default);
    let routes_churned = hash_routes(&churned, 4000, 46);
    churned.stabilize();
    assert_eq!(churned.table_violation(), None);
    let states = [
        hash_routes(&settled(R::default).0, 4000, 44),
        hash_routes(&failed, 4000, 45),
        routes_churned,
        hash_routes(&churned, 4000, 47),
        hash_routes(&three_peers::<R>(), 2000, 48),
    ];
    Golden {
        routes: states.map(|(routes, _)| routes),
        truth: states.map(|(_, truth)| truth),
        detours,
    }
}

#[test]
fn chord_routes_match_the_goldens() {
    let g = golden(|| {
        ChordRing::new(ChordConfig {
            max_route_hops: 3,
            ..ChordConfig::default()
        })
    });
    assert_eq!(
        g.routes,
        [
            (0xc535_b062_3779_3a58, 25220, 0),
            (0x5747_9ef1_d6fa_ca48, 26488, 6341),
            (0xdb7f_e4fd_91dd_ed09, 25801, 1196),
            (0x6512_a384_a162_b347, 25079, 0),
            (0xd2dc_2729_8950_cbc8, 1993, 0),
        ]
    );
    assert_eq!(
        g.truth,
        [
            0x1c32_cb9e_37f8_1cf7,
            0x8f04_a223_64fa_346f,
            0x4df7_43bd_fe07_a278,
            0x9bba_1ae2_ad12_89bc,
            0x6f74_0d00_0bb3_b5ed,
        ]
    );
    assert_eq!(
        g.detours,
        [
            (0x3c06_943f_e958_00af, 1353, 57),
            (0x60f0_f8b8_694e_2d0a, 1333, 63),
        ]
    );
}

#[test]
fn pastry_routes_match_the_goldens() {
    let g = golden(|| {
        PastryNetwork::new(PastryConfig {
            max_route_hops: 3,
            ..PastryConfig::default()
        })
    });
    assert_eq!(
        g.routes,
        [
            (0x756b_16c3_5dc1_bb2e, 12043, 0),
            (0xc923_3345_7334_968f, 13600, 7608),
            (0x62ea_9de9_b2d4_7280, 13739, 2631),
            (0x34a3_5e70_7bbb_6dff, 11995, 0),
            (0x7ba6_f442_caf2_74bd, 1330, 0),
        ]
    );
    assert_eq!(
        g.truth,
        [
            0xf4bd_5c7c_0451_eb6d,
            0xb85a_2258_0809_a6e5,
            0x458b_93df_417e_843b,
            0x365d_f0f7_fdb0_0e97,
            0xc693_0207_6f5e_b02d,
        ]
    );
    // Leaf-set neighbours are as far from the key as the asker, so a detour
    // seldom rescues a lookup the hop budget stalled.
    assert_eq!(
        g.detours,
        [
            (0x666a_38ef_bacf_3155, 534, 0),
            (0xf4e9_ea92_267b_8650, 526, 21),
        ]
    );
}

/// 30 000 seeded keys, bulk-joined into a default Pastry overlay and
/// stabilized: the size of the benchmark's Pastry grid, at which the
/// closest-known-node fallback carries real weight. On this state it fires
/// on 2 500 of the 12 000 routes below (20.8 %, counted with a temporary
/// counter on the commit that pinned them), so the rows it scans are pinned
/// as well as the slot a hop reads first. The random-walk step of every
/// 8th live key is pinned beside them.
#[test]
fn a_large_settled_pastry_overlay_routes_like_the_golden() {
    let mut rng = rng_for(49, 0);
    let mut keys: Vec<u64> = (0..30_000).map(|_| rng.gen()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut net = PastryNetwork::default();
    net.bulk_join(&keys);
    net.stabilize();
    let (routes, truth) = hash_routes(&net, 12_000, 50);
    let mut walks = Fnv::new();
    for &k in net.alive_keys().iter().step_by(8) {
        walks.opt(net.walk_step(k));
    }
    assert_eq!(
        (routes, truth, walks.0),
        (
            (0x2225_4514_b1a1_352a, 44709, 0),
            0xf7de_ee2a_a61f_9097,
            0x59d0_0047_26f2_e58a
        )
    );
}

#[test]
fn tapestry_routes_match_the_goldens() {
    let g = golden(|| TapestryNetwork::new(TapestryConfig { max_route_hops: 3 }));
    assert_eq!(
        g.routes,
        [
            (0x0745_76f9_2020_055c, 11913, 0),
            (0x4b0b_b578_4bc6_2cf1, 11694, 1445),
            (0x0a1f_3949_a0bd_9b06, 11884, 792),
            (0xfd1d_9bc6_5336_ef1f, 11819, 0),
            (0x21a9_bba4_71c3_8045, 1326, 0),
        ]
    );
    assert_eq!(
        g.truth,
        [
            0x7ac7_7462_0933_236f,
            0x7831_4560_d62d_7768,
            0xd5d1_58c6_b8d9_963e,
            0x46d3_23ee_0d84_8a10,
            0xbbaf_540d_9137_a46d,
        ]
    );
    assert_eq!(
        g.detours,
        [
            (0xc0db_490c_b24e_0dac, 495, 69),
            (0xac38_237f_4a46_6105, 349, 166),
        ]
    );
}
