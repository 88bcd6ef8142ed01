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
//!   [`RnTree::build_counting`] routes it and reports the hops). The
//!   substrate names every node's parent at once, and may do it in closed
//!   form;
//! * the node owning key `0` is the unique **root**; under Chord's interval
//!   ownership parent ids strictly decrease along every chain, so the
//!   structure is always a tree (Pastry's and Tapestry's ownership carry no
//!   such order, and the build asserts that their parents form a tree);
//! * with uniform random GUIDs each parent step roughly halves the candidate
//!   prefix region, giving expected height `O(log N)` (asserted empirically
//!   in the tests and reproduced as experiment `T-tree`).
//!
//! [`RnTreeIndex`] adds the hierarchical aggregation (per-subtree maximum
//! capability vector, OS presence mask, node count) and the pruned,
//! extended candidate [`search`](RnTreeIndex::find_candidates).
//!
//! Both are snapshots of one membership, and the index is refreshed in
//! place when membership changes ([`RnTreeIndex::refresh`]; a first build
//! is a refresh of the empty index). A refresh is array work: nodes are
//! addressed by their rank in one ascending id vector, parents, CSR child
//! lists, capabilities and aggregates are flat vectors indexed by rank and
//! kept from one refresh to the next, survivors keep their capabilities,
//! aggregation is a single children-before-parents sweep, and a search
//! turns the owner's id into a rank once and stays in rank space — or,
//! through [`RnTreeIndex::find_candidate_ranks`], starts from a rank its
//! caller already holds and answers in ranks, so a caller with its own
//! per-rank columns never searches the ids. On a settled Chord ring the
//! parents come from one sweep of the sorted ids as well
//! ([`KeyRouter::rn_tree_parents`](dgrid_sim::router::KeyRouter::rn_tree_parents)),
//! and every parent's rank precedes its child's, so the sweep needs no
//! depth-first order. Every parent pointer is read again at each refresh,
//! as every node would refresh its own; only the buffers and the
//! survivors' capabilities carry over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod search;
mod tree;

pub use aggregate::SubtreeInfo;
pub use search::SearchResult;
pub use tree::{RnTree, RnTreeIndex};
