//! # dgrid-chord — a Chord distributed hash table
//!
//! The paper's Rendezvous Node Tree matchmaker is "built on top of an
//! underlying Chord DHT" (Section 3.1), and the whole system architecture
//! assumes a DHT that maps GUIDs to live nodes with O(log N) routing
//! (Section 2). This crate is that substrate, implemented from scratch after
//! Stoica et al. (SIGCOMM'01):
//!
//! * a 64-bit identifier ring ([`ChordId`]) with the usual half-open ring
//!   interval arithmetic;
//! * per-node **finger tables** (finger *i* of node *n* points at
//!   `successor(n + 2^i)`) and **successor lists** for fault tolerance;
//! * iterative greedy [`lookup`](ChordRing::lookup) that walks real,
//!   possibly *stale* finger tables hop by hop — hop counts and dead-peer
//!   timeouts are first-class results, because matchmaking cost in overlay
//!   hops is one of the paper's reported metrics;
//! * membership churn: [`join`](ChordRing::join), graceful
//!   [`leave`](ChordRing::leave), abrupt [`fail`](ChordRing::fail), and
//!   [`stabilize`](ChordRing::stabilize) to model the outcome of Chord's
//!   periodic stabilization protocol.
//!
//! The implementation is *structural*: node state (fingers, successor lists,
//! predecessors) is held in one [`ChordRing`] value and messages are not
//! materialized — instead every routing step is counted, which is exactly
//! the fidelity the paper's event-driven simulation uses. State a peer
//! refreshed by itself is stored; state implied by the last `stabilize` is
//! one binary search into a shared sorted snapshot, made for the single
//! finger or successor a routing hop asks about.
//!
//! ```
//! use dgrid_chord::{ChordId, ChordRing};
//!
//! let mut ring = ChordRing::default();
//! for i in 0..64u64 {
//!     ring.join(ChordId::hash_of(i));
//! }
//! let key = ChordId::hash_of(0xDEAD_BEEF);
//! let owner = ring.successor_of(key).unwrap();
//! let from = ring.random_peer(&mut rand::thread_rng()).unwrap();
//! let res = ring.lookup(from, key).unwrap();
//! assert_eq!(res.owner, owner);
//! assert!(res.hops <= 2 * 6 + 2, "O(log N) routing");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id;
mod ring;
mod router;
mod routing;

pub use id::ChordId;
pub use ring::{ChordConfig, ChordRing, PeerView};
pub use routing::Lookup;
