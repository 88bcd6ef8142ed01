//! Ring identifiers and modular interval arithmetic.
//!
//! Chord identifiers live on a ring of size 2^64. All ownership and routing
//! decisions reduce to the half-open ring interval test `x ∈ (a, b]` with
//! the standard Chord convention that the interval with `a == b` denotes the
//! *entire* ring (so a single node owns every key).

use std::fmt;

/// The number of bits in a Chord identifier (and finger-table entries).
pub(crate) const ID_BITS: u32 = 64;

/// A position on the Chord identifier ring.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ChordId(pub(crate) u64);

impl ChordId {
    /// The identifier `self + 2^k` (mod 2^64): the start of finger `k`.
    pub(crate) fn finger_start(self, k: u32) -> ChordId {
        debug_assert!(k < ID_BITS);
        ChordId(self.0.wrapping_add(1u64 << k))
    }

    /// Clockwise distance from `self` to `other` on the ring.
    pub(crate) fn distance_to(self, other: ChordId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Ring interval test `self ∈ (a, b]`.
    ///
    /// When `a == b` the interval is the whole ring (every id is inside),
    /// matching Chord's single-node convention.
    pub(crate) fn in_open_closed(self, a: ChordId, b: ChordId) -> bool {
        if a == b {
            true
        } else {
            // x ∈ (a, b] ⟺ dist(a, x) ≤ dist(a, b) and x ≠ a
            self != a && a.distance_to(self) <= a.distance_to(b)
        }
    }

    /// Ring interval test `self ∈ (a, b)`.
    ///
    /// When `a == b` the interval is the whole ring minus `a` itself.
    pub(crate) fn in_open_open(self, a: ChordId, b: ChordId) -> bool {
        if a == b {
            self != a
        } else {
            self != a && self != b && a.distance_to(self) < a.distance_to(b)
        }
    }
}

impl fmt::Debug for ChordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChordId({:016x})", self.0)
    }
}

impl fmt::Display for ChordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use dgrid_sim::router::KeyRouter;

    use super::*;

    const A: ChordId = ChordId(10);
    const B: ChordId = ChordId(20);

    #[test]
    fn open_closed_basic() {
        assert!(ChordId(15).in_open_closed(A, B));
        assert!(ChordId(20).in_open_closed(A, B), "right end inclusive");
        assert!(!ChordId(10).in_open_closed(A, B), "left end exclusive");
        assert!(!ChordId(25).in_open_closed(A, B));
        assert!(!ChordId(5).in_open_closed(A, B));
    }

    #[test]
    fn open_closed_wraps() {
        // Interval (20, 10] wraps through 0.
        assert!(ChordId(25).in_open_closed(B, A));
        assert!(ChordId(u64::MAX).in_open_closed(B, A));
        assert!(ChordId(0).in_open_closed(B, A));
        assert!(ChordId(10).in_open_closed(B, A));
        assert!(!ChordId(20).in_open_closed(B, A));
        assert!(!ChordId(15).in_open_closed(B, A));
    }

    #[test]
    fn degenerate_interval_is_full_ring() {
        assert!(ChordId(999).in_open_closed(A, A));
        assert!(
            ChordId(10).in_open_closed(A, A),
            "x == a == b is the closed end"
        );
        assert!(
            !ChordId(10).in_open_open(A, A),
            "open-open excludes a itself"
        );
        assert!(ChordId(11).in_open_open(A, A));
    }

    #[test]
    fn open_open_excludes_both_ends() {
        assert!(ChordId(15).in_open_open(A, B));
        assert!(!ChordId(10).in_open_open(A, B));
        assert!(!ChordId(20).in_open_open(A, B));
        assert!(ChordId(5).in_open_open(B, A), "wrapping open-open");
    }

    #[test]
    fn finger_starts_wrap() {
        let n = ChordId(u64::MAX);
        assert_eq!(n.finger_start(0), ChordId(0));
        assert_eq!(ChordId(0).finger_start(63), ChordId(1 << 63));
    }

    #[test]
    fn distance_is_clockwise() {
        assert_eq!(A.distance_to(B), 10);
        assert_eq!(B.distance_to(A), u64::MAX - 9);
        assert_eq!(A.distance_to(A), 0);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let hash = <crate::ChordRing as KeyRouter>::key_of;
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(1), hash(2));
        // Sequential inputs should land far apart on the ring.
        let spread: Vec<u64> = (0..8).map(hash).collect();
        let mut sorted = spread.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `x ∈ (a, b]` partitions correctly: for a ≠ b, every x is in exactly
            /// one of (a, b] and (b, a].
            #[test]
            fn open_closed_partitions_ring(a: u64, b: u64, x: u64) {
                prop_assume!(a != b);
                let (a, b, x) = (ChordId(a), ChordId(b), ChordId(x));
                let in_ab = x.in_open_closed(a, b);
                let in_ba = x.in_open_closed(b, a);
                if x == a || x == b {
                    // Each endpoint is in exactly the interval it closes.
                    prop_assert_eq!(in_ab, x == b);
                    prop_assert_eq!(in_ba, x == a);
                } else {
                    prop_assert!(in_ab ^ in_ba, "x must be in exactly one half");
                }
            }

            /// Open-open is open-closed minus the right endpoint.
            #[test]
            fn open_open_relates_to_open_closed(a: u64, b: u64, x: u64) {
                let (a, b, x) = (ChordId(a), ChordId(b), ChordId(x));
                let oo = x.in_open_open(a, b);
                let oc = x.in_open_closed(a, b);
                if x == b {
                    prop_assert!(!oo);
                } else {
                    prop_assert_eq!(oo, oc);
                }
            }
        }
    }
}
