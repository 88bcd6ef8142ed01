//! Prefix routing state over one shared stabilize snapshot.
//!
//! Pastry and Tapestry both read a 64-bit key as 16 hexadecimal digits and
//! keep, per peer, a table with one row per shared-prefix length and one
//! slot per next digit; a slot holds the first live key of the id range the
//! prefix and digit span. Right after a full `stabilize` every such table is
//! a pure function of the sorted set of live keys, so none is stored: the
//! overlay keeps that set once (the [`Snapshot`]) and each peer carries a
//! [`Lazy`] tag — `Canon`, resolved by one binary search when a route asks
//! for a slot, or `Mat`, a table materialised by an individual refresh
//! since. A `Canon` view stays pinned to the snapshot while membership
//! moves underneath it, which is exactly how a stored table goes stale.
//!
//! [`Membership`] is what the two substrates share: the live set, the
//! snapshot, the tags, the tables and their debug check. What differs —
//! who owns a key and how a route walks the tables — stays in their crates.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

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

/// One lazily materialised component of a peer's routing state.
///
/// `Canon`: last refreshed by a full stabilize, hence a pure function of
/// the sorted live-key snapshot taken then and *computed on demand* from
/// it. `Mat`: materialised by an individual refresh since (a join, a
/// graceful leave's neighbourhood repair).
#[derive(Clone, Debug, Default)]
pub enum Lazy<T> {
    /// Computed from the snapshot when asked for.
    #[default]
    Canon,
    /// Stored.
    Mat(T),
}

/// The sorted keys alive at the last stabilize.
#[derive(Clone, Debug, Default)]
pub struct Snapshot(Vec<u64>);

impl Snapshot {
    /// The snapshot of `keys`, which must be strictly ascending.
    pub fn from_ascending(keys: Vec<u64>) -> Snapshot {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        Snapshot(keys)
    }

    /// The keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.0
    }

    /// Position of `key`, if it was alive at the stabilize.
    pub fn rank(&self, key: u64) -> Option<usize> {
        self.0.binary_search(&key).ok()
    }

    /// Rank of the first key in `lo..=hi`, if there is one.
    pub fn first_in(&self, lo: u64, hi: u64) -> Option<usize> {
        let i = self.0.partition_point(|&x| x < lo);
        (self.0.get(i)? <= &hi).then_some(i)
    }

    /// Rank of the first key at or clockwise after `key` on the ring the
    /// keys lie on, wrapping past the highest to rank 0; `None` when empty.
    pub fn successor_rank(&self, key: u64) -> Option<usize> {
        let i = self.0.partition_point(|&x| x < key);
        if i < self.0.len() {
            Some(i)
        } else {
            (i > 0).then_some(0)
        }
    }
}

/// A materialised table: row `r`, for keys sharing `r` digits with its
/// owner, holds one key per next digit. Empty until the first refresh of a
/// deferred joiner.
pub type Table = Vec<[Option<u64>; RADIX]>;

/// A table entry as a route sees it: the key, and its snapshot rank where
/// resolving the slot produced one (so the next hop need not search again).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The peer the slot points at.
    pub key: u64,
    /// Its rank in the snapshot, known when the slot was `Canon`.
    pub rank: Option<usize>,
}

impl Entry {
    /// A peer named by key alone, its snapshot rank not (yet) known.
    pub fn unranked(key: u64) -> Entry {
        Entry { key, rank: None }
    }
}

/// One member record. Dead records linger until the next stabilize, as the
/// stale references to them do.
#[derive(Clone, Debug)]
pub struct Peer<X> {
    alive: bool,
    /// The peer's routing table.
    pub table: Lazy<Table>,
    /// Substrate-specific state beside the table (Pastry's leaf sets).
    pub extra: X,
}

/// Membership and tables of a prefix-routing overlay: the authoritative
/// live set, plus every peer's (possibly stale) table in [`Lazy`] form.
///
/// Invariant: a `Canon` component belongs to a key of the snapshot. A peer
/// admitted since the last stabilize starts with `Mat` state — empty for a
/// deferred join, ground truth for a full one — and `stabilize` is the only
/// way back to `Canon`.
#[derive(Clone, Debug)]
pub struct Membership<X> {
    /// Whether a row also has an entry for its owner's own digit (Tapestry:
    /// the surrogate scan reads it) or leaves that slot empty (Pastry:
    /// deeper rows and the leaf set cover it).
    own_slots: bool,
    peers: BTreeMap<u64, Peer<X>>,
    alive_count: usize,
    snapshot: Snapshot,
    /// No membership change since the last stabilize: every peer is
    /// `Canon`, the snapshot *is* the live set, and every entry is alive.
    settled: bool,
}

impl<X> Membership<X> {
    /// An empty overlay whose tables follow the `own_slots` rule.
    pub fn new(own_slots: bool) -> Self {
        Membership {
            own_slots,
            peers: BTreeMap::new(),
            alive_count: 0,
            snapshot: Snapshot::default(),
            settled: false,
        }
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// True iff nobody is alive.
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// Is `key` a live member?
    pub fn is_alive(&self, key: u64) -> bool {
        self.peers.get(&key).is_some_and(|p| p.alive)
    }

    /// Live keys within `range`, ascending.
    pub fn alive_in(
        &self,
        range: impl RangeBounds<u64>,
    ) -> impl DoubleEndedIterator<Item = u64> + '_ {
        self.peers
            .range(range)
            .filter(|(_, p)| p.alive)
            .map(|(&k, _)| k)
    }

    /// The `rank`-th live key in ascending order: one index into the
    /// snapshot while settled, a walk of the live set otherwise.
    pub fn alive_key_at(&self, rank: usize) -> Option<u64> {
        if self.settled {
            self.snapshot.0.get(rank).copied()
        } else {
            self.alive_in(..).nth(rank)
        }
    }

    /// No membership change since the last stabilize.
    pub fn settled(&self) -> bool {
        self.settled
    }

    /// The keys alive at the last stabilize.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The record of `key`, dead or alive.
    pub fn peer(&self, key: u64) -> Option<&Peer<X>> {
        self.peers.get(&key)
    }

    /// Every record, dead or alive, ascending.
    pub fn peers(&self) -> impl Iterator<Item = (u64, &Peer<X>)> {
        self.peers.iter().map(|(&k, p)| (k, p))
    }

    /// The substrate's own state of the live peer `key`, for a refresh.
    pub fn extra_mut(&mut self, key: u64) -> &mut X {
        &mut self.peers.get_mut(&key).expect("known node").extra
    }

    /// Admit `key` with an empty table and `extra` beside it.
    ///
    /// # Panics
    /// If a live node with this key already exists.
    pub fn admit(&mut self, key: u64, extra: X) {
        assert!(
            !self.is_alive(key),
            "duplicate join of live node {key:016x}"
        );
        let peer = Peer {
            alive: true,
            table: Lazy::Mat(Table::new()),
            extra,
        };
        self.peers.insert(key, peer);
        self.alive_count += 1;
        self.settled = false;
    }

    /// Mark `key` dead; its record and every reference to it stay.
    ///
    /// # Panics
    /// If `key` is not a live node.
    pub fn mark_dead(&mut self, key: u64) {
        let p = self
            .peers
            .get_mut(&key)
            .filter(|p| p.alive)
            .unwrap_or_else(|| panic!("departure of unknown/dead node {key:016x}"));
        p.alive = false;
        self.alive_count -= 1;
        self.settled = false;
    }

    /// Ground truth for one slot: the first live key in `lo..=hi` (a real
    /// overlay would pick by network proximity).
    pub fn first_alive_in(&self, lo: u64, hi: u64) -> Option<u64> {
        self.alive_in(lo..=hi).next()
    }

    /// Does the table of `key` keep a slot for `(row, d)`?
    fn keeps_slot(&self, key: u64, row: u32, d: u8) -> bool {
        self.own_slots || d != digit(key, row)
    }

    /// Rebuild the table of the live peer `key` from ground truth.
    pub fn refresh_table(&mut self, key: u64) {
        assert!(self.is_alive(key), "refresh of dead node {key:016x}");
        let mut table = vec![[None; RADIX]; DIGITS as usize];
        for (row, slots) in (0..DIGITS).zip(&mut table) {
            for (d, slot) in (0..RADIX as u8).zip(slots) {
                if self.keeps_slot(key, row, d) {
                    let (lo, hi) = slot_range(key, row, d);
                    *slot = self.first_alive_in(lo, hi);
                }
            }
        }
        self.peers.get_mut(&key).expect("known node").table = Lazy::Mat(table);
    }

    /// What `table`, the table of peer `key`, holds at `(row, d)`: the
    /// stored entry, or for a `Canon` table the first snapshot key of the
    /// slot's range.
    pub fn slot(&self, key: u64, table: &Lazy<Table>, row: u32, d: u8) -> Option<Entry> {
        match table {
            Lazy::Mat(t) => t.get(row as usize)?[usize::from(d)].map(Entry::unranked),
            Lazy::Canon if self.keeps_slot(key, row, d) => {
                let (lo, hi) = slot_range(key, row, d);
                let rank = self.snapshot.first_in(lo, hi)?;
                Some(Entry {
                    key: self.snapshot.0[rank],
                    rank: Some(rank),
                })
            }
            Lazy::Canon => None,
        }
    }

    /// A full stabilization round: dead records are collected, the live
    /// set becomes the snapshot and every peer's state is `Canon` again —
    /// O(N), nothing allocated per peer.
    pub fn stabilize(&mut self)
    where
        X: Default,
    {
        self.peers.retain(|_, p| p.alive);
        self.snapshot = Snapshot::from_ascending(self.peers.keys().copied().collect());
        for p in self.peers.values_mut() {
            p.table = Lazy::Canon;
            p.extra = X::default();
        }
        self.settled = true;
    }

    /// Check every live peer's *effective* table — computed for a `Canon`
    /// peer, stored for a `Mat` one — against ground truth: each entry a
    /// live node inside its slot, no slot empty while a live candidate
    /// exists. `noun` names the table in the message.
    pub fn table_violation(&self, noun: &str) -> Option<String> {
        for (key, p) in self.peers().filter(|(_, p)| p.alive) {
            for row in 0..DIGITS {
                for d in (0..RADIX as u8).filter(|&d| self.keeps_slot(key, row, d)) {
                    let at = format_args!("{key:016x}: {noun}[{row}][{d}]");
                    let (lo, hi) = slot_range(key, row, d);
                    match self.slot(key, &p.table, row, d) {
                        Some(e) if !self.is_alive(e.key) => {
                            return Some(format!("{at} holds dead node {:016x}", e.key));
                        }
                        Some(e) if !(lo..=hi).contains(&e.key) => {
                            return Some(format!("{at} holds {:016x}, outside its slot", e.key));
                        }
                        None if self.first_alive_in(lo, hi).is_some() => {
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
    fn snapshot_queries() {
        let s = Snapshot::from_ascending(vec![10, 20, 30]);
        assert_eq!(s.keys(), [10, 20, 30]);
        assert_eq!(s.rank(20), Some(1));
        assert_eq!(s.rank(25), None);
        assert_eq!(s.first_in(11, 19), None);
        assert_eq!(s.first_in(11, 20), Some(1));
        assert_eq!(s.first_in(0, u64::MAX), Some(0));
        assert_eq!(s.first_in(31, u64::MAX), None);
        assert_eq!(s.successor_rank(0), Some(0));
        assert_eq!(s.successor_rank(20), Some(1), "inclusive");
        assert_eq!(s.successor_rank(21), Some(2));
        assert_eq!(s.successor_rank(31), Some(0), "wraps");
        assert_eq!(Snapshot::default().successor_rank(5), None);
    }

    #[test]
    fn canon_slots_stay_pinned_to_the_snapshot() {
        let mut m: Membership<()> = Membership::new(true);
        for k in [0x1000u64 << 48, 0x1800 << 48, 0x9000 << 48] {
            m.admit(k, ());
        }
        m.stabilize();
        let a = 0x1000u64 << 48;
        let canon = &m.peer(a).unwrap().table;
        assert!(matches!(canon, Lazy::Canon));
        let seen = |m: &Membership<()>| m.slot(a, &Lazy::Canon, 0, 9).map(|e| e.key);
        assert_eq!(seen(&m), Some(0x9000 << 48));

        // A departure and an arrival the peer has not heard of.
        m.mark_dead(0x9000 << 48);
        m.admit(0x9800 << 48, ());
        assert_eq!(seen(&m), Some(0x9000 << 48), "stale, like a stored entry");
        assert!(m.table_violation("table").is_some());

        m.stabilize();
        assert_eq!(seen(&m), Some(0x9800 << 48));
        assert_eq!(m.table_violation("table"), None);
        assert!(m.peer(0x9000 << 48).is_none(), "dead record collected");
    }
}
