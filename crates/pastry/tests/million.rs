//! The top rung of the scale ladder for Pastry: a 10⁶-peer network,
//! bulk-joined and stabilized as the matchmaker brings one up.
//! `#[ignore]`d for its size; CI runs it in release.

use dgrid_pastry::PastryNetwork;
use dgrid_sim::rng::rng_for;
use dgrid_sim::router::KeyRouter;
use rand::Rng;

/// The numerically closest of `sorted` to `key` round the ring, ties to
/// the smaller key: Pastry's owner, found without the overlay.
fn closest(sorted: &[u64], key: u64) -> u64 {
    let i = sorted.partition_point(|&k| k < key);
    let above = sorted[i % sorted.len()];
    let below = sorted[(i + sorted.len() - 1) % sorted.len()];
    let distance = |a: u64| {
        let d = a.wrapping_sub(key);
        d.min(d.wrapping_neg())
    };
    let (da, db) = (distance(above), distance(below));
    if db < da || (db == da && below < above) {
        below
    } else {
        above
    }
}

#[test]
#[ignore = "holds a 10^6-peer network; run with --release -- --ignored million"]
fn million_peer_network_routes_every_key_to_its_owner() {
    const PEERS: u64 = 1_000_000;
    const LOOKUPS: usize = 100_000;
    // Recorded on the lookup that searched the stabilize snapshot with one
    // binary search per table slot: hops are simulated behaviour.
    const HOP_TOTAL: u64 = 487_536;

    let keys: Vec<u64> = (0..PEERS).map(PastryNetwork::key_of).collect();
    let mut net = PastryNetwork::default();
    net.bulk_join(&keys);
    net.stabilize();
    assert_eq!(net.len(), keys.len());

    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut rng = rng_for(43, 0);
    let mut hops = 0u64;
    for _ in 0..LOOKUPS {
        let from = keys[rng.gen_range(0..keys.len())];
        let key: u64 = rng.gen();
        let l = net
            .lookup(from, key)
            .expect("a settled network routes every key");
        let owner = closest(&sorted, key);
        assert_eq!(l.owner, owner, "owner of {key:016x} from {from:016x}");
        assert_eq!(l.timeouts, 0, "nobody is dead");
        hops += u64::from(l.hops);
    }
    assert_eq!(hops, HOP_TOTAL, "hop total over {LOOKUPS} lookups");
}
