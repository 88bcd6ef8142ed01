//! The top rung of the scale ladder, which the benchmark does not yet time:
//! a 10⁶-peer ring, bulk-joined and stabilized as the matchmaker brings one
//! up. `#[ignore]`d for its size; CI runs it in release.

use dgrid_chord::ChordRing;
use dgrid_sim::rng::rng_for;
use dgrid_sim::router::KeyRouter;
use rand::Rng;

#[test]
#[ignore = "holds a 10^6-peer ring; run with --release -- --ignored million"]
fn million_peer_ring_routes_every_key_to_its_owner() {
    const PEERS: u64 = 1_000_000;
    const LOOKUPS: usize = 100_000;
    // Recorded on the lookup that searched `peers` and the snapshot once
    // per component of every hop: hops are simulated behaviour.
    const HOP_TOTAL: u64 = 1_025_726;

    let keys: Vec<u64> = (0..PEERS).map(ChordRing::key_of).collect();
    let mut ring = ChordRing::default();
    ring.bulk_join(&keys);
    ring.stabilize();
    assert_eq!(ring.len(), keys.len());

    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut rng = rng_for(41, 0);
    let mut hops = 0u64;
    for _ in 0..LOOKUPS {
        let from = keys[rng.gen_range(0..keys.len())];
        let key: u64 = rng.gen();
        let l = ring
            .lookup(from, key)
            .expect("a settled ring routes every key");
        let owner = sorted[sorted.partition_point(|&k| k < key) % sorted.len()];
        assert_eq!(l.owner, owner, "owner of {key:016x} from {from:016x}");
        assert_eq!(l.timeouts, 0, "nobody is dead");
        hops += u64::from(l.hops);
    }
    assert_eq!(hops, HOP_TOTAL, "hop total over {LOOKUPS} lookups");
}
