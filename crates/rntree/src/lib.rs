//! # dgrid-rntree — the Rendezvous Node Tree
//!
//! Section 3.1 of the paper describes a matchmaking structure "built on top
//! of an underlying Chord DHT" — but nothing in the construction is
//! Chord-specific, so this crate builds it over any
//! [`KeyRouter`](dgrid_sim::router::KeyRouter) substrate (Chord, Pastry,
//! Tapestry). In the tree, every participating node is a vertex of a
//! tree; each node picks its parent **using only local information**; the
//! tree's expected height is **O(log N)** because node GUIDs are uniformly
//! distributed; subtree *maximal resource* information is aggregated up the
//! tree and used to **prune** the candidate search, which proceeds through
//! the owner's subtree first and climbs to ancestors only when needed,
//! continuing until at least `k` capable nodes are found (*extended
//! search*).
//!
//! The construction details live in a UMD technical report that is not part
//! of the paper; this crate uses a *prefix-rendezvous* construction that
//! satisfies every property the paper states (see `DESIGN.md`):
//!
//! * node `x`'s **level** is the shortest bit-prefix `ℓ` of `x` whose
//!   truncation `trunc(x, ℓ)` is still **owned by `x`** in the overlay — a
//!   purely **local** computation
//!   ([`KeyRouter::shortest_owned_prefix`](dgrid_sim::router::KeyRouter::shortest_owned_prefix));
//! * `x`'s **parent** is the overlay owner of `trunc(x, ℓ − 1)` — found with
//!   a single DHT lookup
//!   ([`KeyRouter::lookup_owner`](dgrid_sim::router::KeyRouter::lookup_owner);
//!   [`RnTree::build_counting`] routes it and reports the hops);
//! * the node owning key `0` is the unique **root**; under Chord's interval
//!   ownership parent ids strictly decrease along every chain, so the
//!   structure is always a tree (for other ownership rules a cheap repair
//!   pass restores acyclicity);
//! * with uniform random GUIDs each parent step roughly halves the candidate
//!   prefix region, giving expected height `O(log N)` (asserted empirically
//!   in the tests and reproduced as experiment `T-tree`).
//!
//! [`RnTreeIndex`] adds the hierarchical aggregation (per-subtree maximum
//! capability vector, OS presence mask, node count) and the pruned,
//! extended candidate [`search`](RnTreeIndex::find_candidates).
//!
//! Both are snapshots, rebuilt whole when membership changes. A rebuild is
//! array work: nodes are addressed by their rank in one ascending id
//! vector, parents, CSR child lists, capabilities and aggregates are flat
//! vectors indexed by rank, aggregation is a single children-before-parents
//! sweep, and a search turns the owner's id into a rank once and stays in
//! rank space. At 100 000 nodes on a settled Chord ring that is tens of
//! milliseconds, which is why there is no incremental patching.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod search;
mod tree;

pub use aggregate::SubtreeInfo;
pub use search::SearchResult;
pub use tree::{RnTree, RnTreeIndex};
