//! # dgrid-pastry — a Pastry DHT
//!
//! Section 2 of the paper assumes "an underlying Distributed Hash Table
//! (DHT) infrastructure [17, 18, 19, 21]" — citing CAN, **Pastry**, Chord
//! and Tapestry — and builds its job-GUID → owner-node mapping on that
//! layer. The desktop grid is DHT-agnostic by design; this crate implements
//! the Pastry option (Rowstron & Druschel, Middleware'01) from scratch so
//! the claim can be demonstrated rather than assumed:
//!
//! * 64-bit identifiers read as 16 hexadecimal **digits** (`b = 4`);
//! * each node keeps a **leaf set** (the `L/2` numerically closest live
//!   nodes on each side) and a **routing table** with one row per shared
//!   prefix length and one entry per next digit — *kept*, not stored: what
//!   a full [`stabilize`](PastryNetwork::stabilize) leaves a node with is a
//!   function of the sorted live ids alone, so the network holds that one
//!   snapshot (`dgrid_sim::prefix`) and computes a table slot (one binary
//!   search) or a leaf set (the node's snapshot neighbours) when a route
//!   asks for it. Only state refreshed individually since — a joiner's, the
//!   leaf sets its neighbours repair on a join or a graceful leave — is
//!   materialised, until the next stabilize. A computed view stays pinned
//!   to the snapshot while membership moves on, so it goes stale exactly
//!   as a stored one would;
//! * [`route`](PastryNetwork::route) implements Pastry's algorithm: deliver
//!   within the leaf-set range, otherwise forward to the routing-table
//!   entry matching one more digit, falling back to any known node that is
//!   strictly closer to the key — O(log₁₆ N) hops;
//! * keys are owned by the **numerically closest** live node (circular,
//!   ties to the smaller id);
//! * membership churn mirrors the Chord crate: `join`, graceful `leave`,
//!   abrupt `fail` (stale state until [`stabilize`](PastryNetwork::stabilize)),
//!   with timeouts charged when routing probes dead entries.
//!
//! ```
//! use dgrid_pastry::{PastryId, PastryNetwork};
//!
//! let mut net = PastryNetwork::default();
//! for i in 0..64u64 {
//!     net.join(PastryId::hash_of(i));
//! }
//! let key = PastryId::hash_of(0xFEED);
//! let owner = net.owner_of(key).unwrap();
//! let from = net.alive_ids()[0];
//! let res = net.route(from, key).unwrap();
//! assert_eq!(res.owner, owner);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id;
mod network;

pub use id::{PastryId, DIGITS, DIGIT_BITS};
pub use network::{PastryConfig, PastryNetwork, Route};
