//! Prefix routing tables, what Pastry and Tapestry share beyond the
//! membership.
//!
//! Both read a 64-bit key as 16 hexadecimal digits and keep, per peer, a
//! table with one row per shared-prefix length and one slot per next digit;
//! a slot holds the first live key of the id range the prefix and digit
//! span. Right after a full `stabilize` every such table is a pure
//! function of the sorted set of live keys, so none is stored: each peer's
//! table is a [`Lazy`] tag in the shared [`Membership`] — `Canon`, resolved
//! by one indexed search of the snapshot when a route asks for a slot, or
//! `Mat`, a table materialised by an individual refresh since.
//!
//! This module holds the digit arithmetic, the table layout ([`Tables`]),
//! the slot a route reads and the rows a table can fill, the ground-truth
//! build and the debug check. Who owns a key and how a route walks the
//! tables stay in the two crates.

use std::ops::Range;

use crate::overlay::{Entry, Lazy, Membership};

/// Bits per digit (`b` in the Pastry paper; 4 ⇒ hexadecimal digits).
pub const DIGIT_BITS: u32 = 4;
/// Digits per key (= table rows).
pub const DIGITS: u32 = 64 / DIGIT_BITS;
/// Slots per table row.
pub const RADIX: usize = 1 << DIGIT_BITS;

/// The `i`-th digit of `key`, most significant first (`i < DIGITS`).
pub fn digit(key: u64, i: u32) -> u8 {
    debug_assert!(i < DIGITS);
    ((key >> (64 - DIGIT_BITS * (i + 1))) & 0xF) as u8
}

/// Number of leading digits `a` and `b` share (`0..=DIGITS`).
pub fn shared_prefix_digits(a: u64, b: u64) -> u32 {
    match a ^ b {
        0 => DIGITS,
        x => x.leading_zeros() / DIGIT_BITS,
    }
}

/// The inclusive range `(lo, hi)` of keys whose first `row` digits equal
/// `key`'s and whose digit `row` is `d`: one table slot.
pub fn slot_range(key: u64, row: u32, d: u8) -> (u64, u64) {
    debug_assert!(row < DIGITS);
    debug_assert!(usize::from(d) < RADIX);
    let shift = 64 - DIGIT_BITS * (row + 1);
    let kept = if row == 0 {
        0
    } else {
        key & (u64::MAX << (64 - DIGIT_BITS * row))
    };
    let lo = kept | (u64::from(d) << shift);
    (lo, lo | ((1u64 << shift) - 1))
}

/// A materialised table: row `r`, for keys sharing `r` digits with its
/// owner, holds one key per next digit. Empty until the first refresh of a
/// deferred joiner.
pub type Table = Vec<[Option<u64>; RADIX]>;

/// The layout of one substrate's tables. The one way Pastry's and
/// Tapestry's differ is whether a row also has an entry for its owner's own
/// digit (Tapestry: the surrogate scan reads it) or leaves that slot empty
/// (Pastry: deeper rows and the leaf set cover it).
#[derive(Clone, Copy, Debug)]
pub struct Tables {
    /// Whether a row keeps a slot for its owner's own digit.
    pub own_slots: bool,
}

impl Tables {
    /// Does the table of `key` keep a slot for `(row, d)`?
    fn keeps_slot(self, key: u64, row: u32, d: u8) -> bool {
        self.own_slots || d != digit(key, row)
    }

    /// The table a refresh of the live peer `key` builds from ground truth:
    /// in each slot it keeps, the first live key of the slot's range (a
    /// real overlay would pick by network proximity).
    pub fn build<X>(self, m: &Membership<X>, key: u64) -> Table {
        assert!(m.is_alive(key), "refresh of dead node {key:016x}");
        let mut table = vec![[None; RADIX]; DIGITS as usize];
        for (row, slots) in (0..DIGITS).zip(&mut table) {
            for (d, slot) in (0..RADIX as u8).zip(slots) {
                if self.keeps_slot(key, row, d) {
                    let (lo, hi) = slot_range(key, row, d);
                    *slot = m.alive_in(lo..=hi).next();
                }
            }
        }
        table
    }

    /// What `table`, the table of peer `key`, holds at `(row, d)`: the
    /// stored entry, or for a `Canon` table the first snapshot key of the
    /// slot's range.
    pub fn slot<X>(
        self,
        m: &Membership<X>,
        key: u64,
        table: &Lazy<Table>,
        row: u32,
        d: u8,
    ) -> Option<Entry> {
        match table {
            Lazy::Mat(t) => t.get(row as usize)?[usize::from(d)].map(Entry::unranked),
            Lazy::Canon if self.keeps_slot(key, row, d) => {
                let (lo, hi) = slot_range(key, row, d);
                let snapshot = m.snapshot();
                let rank = snapshot.first_in(lo, hi)?;
                Some(Entry {
                    key: snapshot.keys()[rank],
                    rank: Some(rank),
                })
            }
            Lazy::Canon => None,
        }
    }

    /// The rows of `table`, the table of peer `at`, that can hold an entry.
    /// A `Mat` table reads all of them by indexing. A `Canon` table of a
    /// layout without own slots has none deeper than the longest prefix `at`
    /// shares with its snapshot neighbours (ranks ±1): the keys sharing `r`
    /// digits with `at` form one interval around it, so a key in row `r`
    /// puts the neighbour on its side in that interval too. A snapshot of one
    /// key has no rows at all.
    pub fn rows<X>(self, m: &Membership<X>, at: Entry, table: &Lazy<Table>) -> Range<u32> {
        match table {
            Lazy::Canon if !self.own_slots => {
                let snapshot = m.snapshot();
                let keys = snapshot.keys();
                let rank = at.rank.or_else(|| snapshot.rank(at.key));
                let rank = rank.expect("a Canon peer is in the snapshot");
                let near = [rank.checked_sub(1), Some(rank + 1)];
                let near = near.into_iter().flatten().filter_map(|r| keys.get(r));
                let end = near.map(|&k| shared_prefix_digits(at.key, k) + 1).max();
                0..end.unwrap_or(0)
            }
            _ => 0..DIGITS,
        }
    }

    /// Check every live peer's *effective* table — computed for a `Canon`
    /// peer, stored for a `Mat` one; `table` picks it out of the peer's
    /// state — against ground truth: each entry a live node inside its
    /// slot, no slot empty while a live candidate exists. `noun` names the
    /// table in the message.
    pub fn violation<X>(
        self,
        m: &Membership<X>,
        table: impl Fn(&X) -> &Lazy<Table>,
        noun: &str,
    ) -> Option<String> {
        for key in m.alive_in(..) {
            let r = m.record(key).expect("a live peer has a record");
            for row in 0..DIGITS {
                for d in (0..RADIX as u8).filter(|&d| self.keeps_slot(key, row, d)) {
                    let at = format_args!("{key:016x}: {noun}[{row}][{d}]");
                    let (lo, hi) = slot_range(key, row, d);
                    match self.slot(m, key, table(&r.state), row, d) {
                        Some(e) if !m.is_alive(e.key) => {
                            return Some(format!("{at} holds dead node {:016x}", e.key));
                        }
                        Some(e) if !(lo..=hi).contains(&e.key) => {
                            return Some(format!("{at} holds {:016x}, outside its slot", e.key));
                        }
                        None if m.alive_in(lo..=hi).next().is_some() => {
                            return Some(format!("{at} empty but the slot has live nodes"));
                        }
                        _ => {}
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_read_most_significant_first() {
        let key = 0x1234_5678_9ABC_DEF0;
        assert_eq!(digit(key, 0), 0x1);
        assert_eq!(digit(key, 1), 0x2);
        assert_eq!(digit(key, 7), 0x8);
        assert_eq!(digit(key, 15), 0x0);
    }

    #[test]
    fn shared_prefix() {
        let a = 0x1234_5678_9ABC_DEF0;
        assert_eq!(shared_prefix_digits(a, a), DIGITS);
        assert_eq!(shared_prefix_digits(a, 0x1234_5678_9ABC_DEF1), 15);
        assert_eq!(shared_prefix_digits(a, 0x1235_0000_0000_0000), 3);
        assert_eq!(shared_prefix_digits(a, 0xF000_0000_0000_0000), 0);
    }

    #[test]
    fn slot_ranges_partition_by_digit() {
        let key = 0xABCD_0000_0000_0000;
        // Row 0: the 16 top-level digit slots tile the whole space.
        let mut covered: u128 = 0;
        for d in 0..16u8 {
            let (lo, hi) = slot_range(key, 0, d);
            covered += u128::from(hi - lo) + 1;
            assert_eq!(lo >> 60, u64::from(d));
        }
        assert_eq!(covered, 1u128 << 64);

        // Row 2 keeps the first two digits.
        assert_eq!(
            slot_range(key, 2, 0x7),
            (0xAB70_0000_0000_0000, 0xAB7F_FFFF_FFFF_FFFF)
        );

        // Deepest row is a single key.
        let (lo, hi) = slot_range(key, DIGITS - 1, 0x3);
        assert_eq!((lo, hi), (0xABCD_0000_0000_0003, 0xABCD_0000_0000_0003));
    }

    #[test]
    fn canon_rows_end_at_the_last_row_with_an_entry() {
        use rand::Rng;
        const TABLES: Tables = Tables { own_slots: false };
        let mut rng = crate::rng::rng_for(3, 0);
        for n in [1usize, 2, 3, 17, 300] {
            let mut m: Membership<()> = Membership::default();
            // Half the keys crowd one 8-digit prefix, so deep rows fill.
            while m.len() < n {
                let k: u64 = rng.gen();
                let k = if m.len().is_multiple_of(2) {
                    k
                } else {
                    0xABCD_EF01 << 32 | k >> 32
                };
                if !m.is_alive(k) {
                    m.admit(k, ());
                }
            }
            m.stabilize();
            for (rank, &key) in m.snapshot().keys().iter().enumerate() {
                let canon = &Lazy::Canon;
                let filled =
                    |row| (0..RADIX as u8).any(|d| TABLES.slot(&m, key, canon, row, d).is_some());
                let rows = TABLES.rows(&m, Entry::unranked(key), canon);
                assert_eq!(
                    rows,
                    TABLES.rows(
                        &m,
                        Entry {
                            key,
                            rank: Some(rank)
                        },
                        canon
                    )
                );
                assert_eq!(rows.start, 0);
                assert!(
                    rows.end == 0 || filled(rows.end - 1),
                    "{key:016x}: bound not tight"
                );
                assert!(
                    (rows.end..DIGITS).all(|row| !filled(row)),
                    "{key:016x}: entry past the bound"
                );
                assert_eq!(n == 1, rows.is_empty());
            }
            assert_eq!(
                TABLES.rows(&m, Entry::unranked(0), &Lazy::Mat(Table::new())),
                0..DIGITS
            );
        }
    }

    #[test]
    fn canon_slots_stay_pinned_to_the_snapshot() {
        const TABLES: Tables = Tables { own_slots: true };
        let mut m: Membership<Lazy<Table>> = Membership::default();
        for k in [0x1000u64 << 48, 0x1800 << 48, 0x9000 << 48] {
            m.admit(k, Lazy::Mat(Table::new()));
        }
        m.stabilize();
        let a = 0x1000u64 << 48;
        assert!(matches!(m.record(a).unwrap().state, Lazy::Canon));
        let seen = |m: &Membership<_>| TABLES.slot(m, a, &Lazy::Canon, 0, 9).map(|e| e.key);
        assert_eq!(seen(&m), Some(0x9000 << 48));
        let violation = |m: &Membership<_>| TABLES.violation(m, |t| t, "table");

        // A departure and an arrival the peer has not heard of.
        m.mark_dead(0x9000 << 48);
        m.admit(0x9800 << 48, Lazy::Mat(Table::new()));
        assert_eq!(seen(&m), Some(0x9000 << 48), "stale, like a stored entry");
        assert!(violation(&m).is_some());

        m.stabilize();
        assert_eq!(seen(&m), Some(0x9800 << 48));
        assert_eq!(violation(&m), None);
    }
}
