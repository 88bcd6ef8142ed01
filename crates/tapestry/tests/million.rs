//! The top rung of the scale ladder for Tapestry: a 10⁶-peer network,
//! bulk-joined and stabilized as the matchmaker brings one up.
//! `#[ignore]`d for its size; CI runs it in release.

use dgrid_sim::rng::rng_for;
use dgrid_sim::router::KeyRouter;
use dgrid_tapestry::TapestryNetwork;
use rand::Rng;

#[test]
#[ignore = "holds a 10^6-peer network; run with --release -- --ignored million"]
fn million_peer_network_routes_every_key_to_its_root() {
    const PEERS: u64 = 1_000_000;
    const LOOKUPS: usize = 100_000;
    // Recorded on the lookup that searched the stabilize snapshot with one
    // binary search per map slot: hops are simulated behaviour.
    const HOP_TOTAL: u64 = 483_771;

    let keys: Vec<u64> = (0..PEERS).map(TapestryNetwork::key_of).collect();
    let mut net = TapestryNetwork::default();
    net.bulk_join(&keys);
    net.stabilize();
    assert_eq!(net.len(), keys.len());

    let mut rng = rng_for(47, 0);
    let mut hops = 0u64;
    for _ in 0..LOOKUPS {
        let from = keys[rng.gen_range(0..keys.len())];
        let key: u64 = rng.gen();
        let l = net
            .lookup(from, key)
            .expect("a settled network routes every key");
        let owner = net.owner_of(key).expect("a non-empty network");
        assert_eq!(l.owner, owner, "root of {key:016x} from {from:016x}");
        assert_eq!(l.timeouts, 0, "nobody is dead");
        hops += u64::from(l.hops);
    }
    assert_eq!(hops, HOP_TOTAL, "hop total over {LOOKUPS} lookups");
}
