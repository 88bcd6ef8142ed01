//! Golden-stream proof for the load-aware run-node selection follow-up:
//! extending `find_run_node` with a placement-policy-aware candidate probe
//! must leave every `hash`-placement stream byte-for-byte unchanged. The
//! `placement` rows of the registry in `common/golden.rs` were recorded
//! from the tree *before* the extension landed; only a change that
//! deliberately alters the hash-placement stream may re-pin them. RN-Tree
//! variants are the ones whose `find_run_node` honors the placement knob;
//! Central is the overlay-free control.

mod common;

use common::golden::{self, capture, leased_forty};
use common::pin::Pin;
use dgrid::core::{PlacementPolicy, StreamFormat};
use dgrid::harness::Algorithm;

#[test]
fn hash_placement_streams_match_pinned_pre_extension_hashes() {
    golden::check(&["placement"]);
}

/// Load-aware placement must actually *diverge* from hash placement on the
/// overlay-backed variants — otherwise the knob silently stopped reaching
/// the run-node path and the golden above proves nothing.
#[test]
fn load_aware_placement_diverges_from_hash_on_rn_tree() {
    let aware = capture(
        leased_forty(Algorithm::RnTree, PlacementPolicy::LoadAware),
        StreamFormat::Jsonl,
    );
    assert_ne!(
        Pin::of(&aware.bytes).hash,
        golden::row("placement/rn-tree", StreamFormat::Jsonl)
            .pin
            .hash,
        "load-aware placement must change the RN-Tree run-node stream"
    );
}
