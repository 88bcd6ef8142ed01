//! # dgrid-tapestry — a Tapestry DHT
//!
//! The last of the four DHTs the paper's Section 2 cites as its assumed
//! substrate ("[17, 18, 19, 21]" — CAN, Pastry, Chord, **Tapestry**),
//! implemented from scratch after Zhao et al. (JSAC'04):
//!
//! * 64-bit identifiers read as 16 hexadecimal digits;
//! * each node keeps **neighbor maps**: one row per prefix level, one entry
//!   per digit, each entry a node sharing the row's prefix with that next
//!   digit — *kept*, not stored: what a full [`stabilize`] leaves a node
//!   with is a function of the sorted live ids alone, so the network's
//!   membership (`dgrid_sim::overlay`) holds that one snapshot, and an
//!   entry (`dgrid_sim::prefix`) is one indexed search of it, made when a
//!   route asks for it. Only maps refreshed individually since — a
//!   joiner's, a graceful leaver's prefix neighbourhood — are materialised,
//!   until the next stabilize. A computed entry stays pinned
//!   to the snapshot while membership moves on, so it goes stale exactly
//!   as a stored one would;
//! * routing resolves a key digit by digit; when the exact next digit has
//!   no node, **surrogate routing** deterministically substitutes the next
//!   existing digit (wrapping), so every key has exactly one *root* node —
//!   Tapestry's ownership rule;
//! * because an entry for `(prefix, digit)` is a function of the prefix
//!   alone (not of the node holding the row), routing from *any* start
//!   converges to the same root — asserted in the tests and property tests;
//! * churn mirrors the other substrates: `join`, graceful `leave`, abrupt
//!   `fail` with stale maps and timeout-charged probes until [`stabilize`].
//!
//! [`TapestryNetwork`] is reached only through its [`KeyRouter`] impl, the
//! surface every substrate shares.
//!
//! [`KeyRouter`]: dgrid_sim::router::KeyRouter
//! [`stabilize`]: dgrid_sim::router::KeyRouter::stabilize
//!
//! ```
//! use dgrid_sim::router::KeyRouter;
//! use dgrid_tapestry::TapestryNetwork;
//!
//! let mut net = TapestryNetwork::default();
//! for i in 0..64u64 {
//!     net.join(TapestryNetwork::key_of(i));
//! }
//! net.stabilize(); // neighbor maps are soft state, refreshed periodically
//! let key = TapestryNetwork::key_of(0xCAFE);
//! let root = net.owner_of(key).unwrap();
//! for from in net.alive_keys().into_iter().take(8) {
//!     assert_eq!(net.lookup(from, key).unwrap().owner, root);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use network::{TapestryConfig, TapestryNetwork};
