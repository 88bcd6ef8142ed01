//! Pastry identifiers: 64 bits read as 16 hexadecimal digits.

use std::fmt;

use dgrid_sim::prefix;
pub use dgrid_sim::prefix::{DIGITS, DIGIT_BITS};
use dgrid_sim::rng::splitmix64;
use serde::{Deserialize, Serialize};

/// A position in Pastry's circular identifier space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PastryId(pub u64);

impl PastryId {
    /// Hash an arbitrary value onto the id space (SplitMix64, bijective).
    pub fn hash_of(x: u64) -> PastryId {
        PastryId(splitmix64(x))
    }

    /// The `i`-th digit, counted from the most significant (`i < DIGITS`).
    pub fn digit(self, i: u32) -> u8 {
        prefix::digit(self.0, i)
    }

    /// Number of leading digits shared with `other` (0..=DIGITS).
    pub fn shared_prefix_digits(self, other: PastryId) -> u32 {
        prefix::shared_prefix_digits(self.0, other.0)
    }

    /// Circular numeric distance to `other` (the shorter way around).
    pub fn circular_distance(self, other: PastryId) -> u64 {
        let d = self.0.wrapping_sub(other.0);
        d.min(d.wrapping_neg())
    }

    /// Is `self` strictly numerically closer to `key` than `other` is?
    /// Exact ties break towards the smaller identifier, making ownership
    /// total and deterministic.
    pub fn closer_to(self, key: PastryId, other: PastryId) -> bool {
        let a = self.circular_distance(key);
        let b = other.circular_distance(key);
        a < b || (a == b && self.0 < other.0)
    }

    /// The inclusive `(lo, hi)` range of ids whose first `prefix_len`
    /// digits equal `self`'s and whose next digit is `d`: one routing-table
    /// slot.
    pub fn slot_range(self, prefix_len: u32, d: u8) -> (u64, u64) {
        prefix::slot_range(self.0, prefix_len, d)
    }
}

impl fmt::Debug for PastryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PastryId({:016x})", self.0)
    }
}

impl fmt::Display for PastryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_distance_wraps() {
        let a = PastryId(10);
        let b = PastryId(u64::MAX - 9);
        assert_eq!(a.circular_distance(b), 20);
        assert_eq!(b.circular_distance(a), 20);
        assert_eq!(a.circular_distance(a), 0);
    }

    #[test]
    fn closer_to_breaks_ties_deterministically() {
        // 10 and 20 are equidistant from 15: the smaller id wins.
        let key = PastryId(15);
        assert!(PastryId(10).closer_to(key, PastryId(20)));
        assert!(!PastryId(20).closer_to(key, PastryId(10)));
        assert!(PastryId(16).closer_to(key, PastryId(10)));
    }
}
