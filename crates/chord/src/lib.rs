//! # dgrid-chord — a Chord distributed hash table
//!
//! The paper's Rendezvous Node Tree matchmaker is "built on top of an
//! underlying Chord DHT" (Section 3.1), and the whole system architecture
//! assumes a DHT that maps GUIDs to live nodes with O(log N) routing
//! (Section 2). This crate is that substrate, implemented from scratch after
//! Stoica et al. (SIGCOMM'01):
//!
//! * a 64-bit identifier ring with the usual half-open ring interval
//!   arithmetic;
//! * per-node **finger tables** (finger *i* of node *n* points at
//!   `successor(n + 2^i)`) and **successor lists** for fault tolerance;
//! * iterative greedy [`lookup`] that walks real, possibly *stale* finger
//!   tables hop by hop — hop counts and dead-peer timeouts are first-class
//!   results, because matchmaking cost in overlay hops is one of the
//!   paper's reported metrics;
//! * membership churn: [`join`], graceful [`leave`], abrupt [`fail`], and
//!   [`stabilize`] to model the outcome of Chord's periodic stabilization
//!   protocol.
//!
//! [`ChordRing`] is reached only through its [`KeyRouter`] impl, the
//! surface every substrate shares.
//!
//! [`KeyRouter`]: dgrid_sim::router::KeyRouter
//! [`lookup`]: dgrid_sim::router::KeyRouter::lookup
//! [`join`]: dgrid_sim::router::KeyRouter::join
//! [`leave`]: dgrid_sim::router::KeyRouter::leave
//! [`fail`]: dgrid_sim::router::KeyRouter::fail
//! [`stabilize`]: dgrid_sim::router::KeyRouter::stabilize
//!
//! The implementation is *structural*: node state (fingers, successor lists,
//! predecessors) is held in one [`ChordRing`] value, as the records of the
//! membership type Chord shares with Pastry and Tapestry
//! (`dgrid_sim::overlay`), and messages are not materialized — instead
//! every routing step is counted, which is exactly the fidelity the
//! paper's event-driven simulation uses. State a peer refreshed by itself
//! is stored; state implied by the last `stabilize` is one search of a
//! shared sorted, radix-indexed snapshot, made for the single finger or
//! successor a routing hop asks about.
//!
//! ```
//! use dgrid_chord::ChordRing;
//! use dgrid_sim::router::KeyRouter;
//!
//! let mut ring = ChordRing::default();
//! for i in 0..64u64 {
//!     ring.join(ChordRing::key_of(i));
//! }
//! ring.stabilize();
//! let key = ChordRing::key_of(0xDEAD_BEEF);
//! let from = ring.alive_key_at(17).unwrap();
//! let res = ring.lookup(from, key).unwrap();
//! assert_eq!(Some(res.owner), ring.owner_of(key));
//! assert!(res.hops <= 2 * 6 + 2, "O(log N) routing");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id;
mod ring;
mod routing;

pub use ring::{ChordConfig, ChordRing};
