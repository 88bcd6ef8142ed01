//! The membership of a key-based overlay, one type under every substrate.
//!
//! Chord, Pastry and Tapestry differ in their routing rule, not in how they
//! hold their members. [`Membership`] keeps the sorted live keys of the
//! last stabilize (the [`Snapshot`]) and, beside it, one record — alive or
//! dead, and *all* of the peer's routing state `X` — for each peer whose
//! state differs from what the snapshot says: admitted since, dead since,
//! or refreshed since. Every other peer is a snapshot key, alive, with its
//! state `X::default()`: each component a [`Lazy`] tag `Canon`, resolved
//! against the snapshot when a route asks for it. `Mat` is a component
//! materialised by an individual refresh. A `Canon` view stays pinned to
//! the snapshot while membership moves underneath it, which is exactly how
//! a stored view goes stale. A stabilize folds every record into a new
//! snapshot and keeps none, so a stabilized overlay of any size is one key
//! array and its index; so is one that [`Membership::bulk_join`] brought
//! up from empty, which lands settled.
//!
//! The snapshot is radix-indexed: the top ⌈log₂ N⌉ bits of a key name a
//! bucket of about one key, so a rank or range-end search is one index
//! read and a search of that bucket instead of a binary search of all N.
//!
//! While nothing has changed since the stabilize (the overlay is
//! *settled*), the snapshot *is* the live set, so every ground-truth read
//! ([`Membership::is_alive`], [`Membership::alive_in`],
//! [`Membership::alive_key_at`]) answers from it alone. Otherwise a read
//! merges the snapshot with the records.

use std::collections::{btree_map, BTreeMap};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use rand::Rng;

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

/// The sorted keys alive at the last stabilize, radix-indexed.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Shared with every reader that takes the live set while it is
    /// settled ([`Membership::shared_alive_keys`]).
    keys: Arc<[u64]>,
    /// `starts[p]` is the rank of the first key whose bucket is `p` or
    /// later; one entry per bucket, then `keys.len()`.
    starts: Vec<u32>,
    /// A key's bucket is its top `64 - shift` bits: ⌈log₂ N⌉ of them, so
    /// there are fewer than 2N buckets and about one key in each. 64 (one
    /// bucket) for N ≤ 1.
    shift: u32,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::new(Vec::new())
    }
}

impl Snapshot {
    /// Index `keys`, which must be strictly ascending.
    fn new(keys: Vec<u64>) -> Snapshot {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend");
        assert!(u32::try_from(keys.len()).is_ok(), "more than 2^32 keys");
        let bits = keys.len().next_power_of_two().trailing_zeros();
        let shift = 64 - bits;
        let buckets = 1usize << bits;
        // Count each bucket's keys one slot up, then sum the counts: no
        // branch on where the gaps fall, which random keys mispredict.
        let mut starts = vec![0u32; buckets + 1];
        for &k in &keys {
            starts[bucket(k, shift) + 1] += 1;
        }
        let mut sum = 0;
        for s in &mut starts {
            sum += *s;
            *s = sum;
        }
        Snapshot {
            keys: keys.into(),
            starts,
            shift,
        }
    }

    /// The keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The ranks of the keys that share `key`'s bucket; every key before
    /// the first is below `key`, every key from the last on above it.
    fn bucket_of(&self, key: u64) -> (usize, usize) {
        let p = bucket(key, self.shift);
        (self.starts[p] as usize, self.starts[p + 1] as usize)
    }

    /// Rank of the first key at or above `key`; `len` when none is.
    fn at_or_above(&self, key: u64) -> usize {
        let (lo, hi) = self.bucket_of(key);
        lo + self.keys[lo..hi].partition_point(|&x| x < key)
    }

    /// Rank of the first key above `key`; `len` when none is.
    fn above(&self, key: u64) -> usize {
        let (lo, hi) = self.bucket_of(key);
        lo + self.keys[lo..hi].partition_point(|&x| x <= key)
    }

    /// Position of `key`, if it was alive at the stabilize.
    pub fn rank(&self, key: u64) -> Option<usize> {
        let i = self.at_or_above(key);
        (self.keys.get(i) == Some(&key)).then_some(i)
    }

    /// Rank of the first key in `lo..=hi`, if there is one.
    pub fn first_in(&self, lo: u64, hi: u64) -> Option<usize> {
        let i = self.at_or_above(lo);
        (self.keys.get(i)? <= &hi).then_some(i)
    }

    /// Rank of the first key at or clockwise after `key` on the ring the
    /// keys lie on, wrapping past the highest to rank 0; `None` when empty.
    pub fn successor_rank(&self, key: u64) -> Option<usize> {
        let i = self.at_or_above(key);
        if i < self.keys.len() {
            Some(i)
        } else {
            (i > 0).then_some(0)
        }
    }

    /// The keys within `range`: one bucket search per bounded end.
    ///
    /// # Panics
    /// If the range starts past its end, as a B-tree range does.
    fn slice(&self, range: (Bound<u64>, Bound<u64>)) -> &[u64] {
        let from = match range.0 {
            Bound::Included(k) => self.at_or_above(k),
            Bound::Excluded(k) => self.above(k),
            Bound::Unbounded => 0,
        };
        let to = match range.1 {
            Bound::Included(k) => self.above(k),
            Bound::Excluded(k) => self.at_or_above(k),
            Bound::Unbounded => self.keys.len(),
        };
        &self.keys[from..to]
    }
}

/// The bucket of `key`: its top `64 - shift` bits.
fn bucket(key: u64, shift: u32) -> usize {
    key.checked_shr(shift).unwrap_or(0) as usize
}

/// A routing-table entry as a route sees it: the key, and its snapshot rank
/// where resolving the entry produced one (so the next hop need not search
/// again).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The peer the entry points at.
    pub key: u64,
    /// Its rank in the snapshot, known when the entry was `Canon`.
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
pub struct Record<X> {
    alive: bool,
    /// All of the peer's routing state.
    pub state: X,
}

impl<X> Record<X> {
    /// Is the peer alive?
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// The members of an overlay: the authoritative live set, plus every
/// peer's (possibly stale) routing state `X`.
///
/// Invariants: a key without a record is a live snapshot key whose state
/// is `X::default()`, which is all `Canon`; a `Canon` component of `X`
/// belongs to a key of the snapshot. `stabilize` drops every record.
#[derive(Clone, Debug)]
pub struct Membership<X> {
    /// The peers whose state differs from the snapshot's: admitted, dead
    /// or refreshed since the last stabilize.
    records: BTreeMap<u64, Record<X>>,
    alive_count: usize,
    snapshot: Snapshot,
    /// The record of every snapshot key without one of its own: alive,
    /// state `X::default()`.
    canon: Record<X>,
    /// No membership change since the last stabilize: every peer's routing
    /// state equals what the snapshot implies, and the snapshot *is* the
    /// live set. Set by `stabilize` and by a `bulk_join` into an empty
    /// overlay, cleared by every other admission and every departure.
    settled: bool,
}

impl<X: Default> Default for Membership<X> {
    fn default() -> Self {
        Membership {
            records: BTreeMap::new(),
            alive_count: 0,
            snapshot: Snapshot::default(),
            canon: Record::default_alive(),
            settled: false,
        }
    }
}

impl<X> Membership<X> {
    /// Number of live members.
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// True iff nobody is alive.
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// Whether the records need reading: while settled they hold nothing a
    /// ground-truth read needs, since no membership change made them.
    fn exceptions(&self) -> Option<&BTreeMap<u64, Record<X>>> {
        (!self.settled && !self.records.is_empty()).then_some(&self.records)
    }

    /// Is `key` a live member? One snapshot search while settled, a record
    /// probe first otherwise.
    pub fn is_alive(&self, key: u64) -> bool {
        match self.exceptions().and_then(|r| r.get(&key)) {
            Some(r) => r.alive,
            None => self.snapshot.rank(key).is_some(),
        }
    }

    /// Live keys within `range`, ascending: a slice of the snapshot while
    /// settled, merged with the records otherwise.
    ///
    /// # Panics
    /// If the range starts past its end, as a B-tree range does.
    pub fn alive_in(
        &self,
        range: impl RangeBounds<u64>,
    ) -> impl DoubleEndedIterator<Item = u64> + '_ {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        AliveIn {
            keys: self.snapshot.slice(range),
            records: self.exceptions().map(|r| r.range(range)),
            front: None,
            back: None,
        }
    }

    /// Every live key, ascending: a copy of the snapshot while settled.
    pub fn alive_keys(&self) -> Vec<u64> {
        match self.exceptions() {
            None => self.snapshot.keys.to_vec(),
            Some(_) => self.alive_in(..).collect(),
        }
    }

    /// [`Self::alive_keys`] as one shared buffer: the snapshot's own while
    /// settled, so a reader that keeps the live set costs no copy of it.
    pub fn shared_alive_keys(&self) -> Arc<[u64]> {
        match self.exceptions() {
            None => Arc::clone(&self.snapshot.keys),
            Some(_) => self.alive_in(..).collect(),
        }
    }

    /// The `rank`-th live key in ascending order: one index into the
    /// snapshot while settled, a walk otherwise.
    pub fn alive_key_at(&self, rank: usize) -> Option<u64> {
        if self.exceptions().is_none() {
            self.snapshot.keys.get(rank).copied()
        } else {
            self.alive_in(..).nth(rank)
        }
    }

    /// A uniformly random live key: one draw, then [`Self::alive_key_at`].
    pub fn random_key<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        if self.alive_count == 0 {
            return None;
        }
        self.alive_key_at(rng.gen_range(0..self.alive_count))
    }

    /// No membership change since the last stabilize.
    pub fn settled(&self) -> bool {
        self.settled
    }

    /// Forget that nothing has changed since the last stabilize: the same
    /// overlay, read the long way — records merged, liveness probed. Every
    /// answer stays the same, only the reads that produce it change; tests
    /// compare the two.
    pub fn unsettle(&mut self) {
        self.settled = false;
    }

    /// The keys alive at the last stabilize.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The record of `key`, dead or alive: its own, or for a snapshot key
    /// without one the shared record of a live, all-`Canon` peer.
    pub fn record(&self, key: u64) -> Option<&Record<X>> {
        match self.records.get(&key) {
            Some(r) => Some(r),
            None => self.snapshot.rank(key).map(|_| &self.canon),
        }
    }

    /// Every stored record, dead or alive, ascending: the peers whose state
    /// differs from the snapshot's. None after a stabilize.
    pub fn records(&self) -> impl Iterator<Item = (u64, &Record<X>)> {
        self.records.iter().map(|(&k, r)| (k, r))
    }

    /// The routing state of the known peer `key`, for a refresh. A
    /// snapshot key without a record gets one, holding `X::default()`.
    ///
    /// # Panics
    /// If the overlay has no record of `key`.
    pub fn state_mut(&mut self, key: u64) -> &mut X
    where
        X: Default,
    {
        let known = self.snapshot.rank(key).is_some();
        match self.records.entry(key) {
            btree_map::Entry::Occupied(r) => &mut r.into_mut().state,
            btree_map::Entry::Vacant(slot) if known => {
                &mut slot.insert(Record::default_alive()).state
            }
            btree_map::Entry::Vacant(_) => panic!("no record of {key:016x}"),
        }
    }

    /// Admit `key` with the routing state `state`.
    ///
    /// # Panics
    /// If a live member with this key already exists.
    pub fn admit(&mut self, key: u64, state: X) {
        assert!(
            !self.is_alive(key),
            "duplicate join of live node {key:016x}"
        );
        self.records.insert(key, Record { alive: true, state });
        self.alive_count += 1;
        self.settled = false;
    }

    /// Admit `keys` during initial construction. Into an empty overlay that
    /// is one sort: the keys become the snapshot and the overlay lands
    /// settled, every peer `Canon` and no record kept. That answers as the
    /// stabilize which must follow a bulk join before routing would, and,
    /// until any other change, as deferred joiners resolving against ground
    /// truth would. Into any other overlay each key is admitted in order
    /// with the state `deferred()` builds.
    ///
    /// # Panics
    /// If a key is already a live member, or is given twice.
    pub fn bulk_join(&mut self, keys: &[u64], mut deferred: impl FnMut() -> X) {
        if self.alive_count > 0 || !self.records.is_empty() {
            for &key in keys {
                self.admit(key, deferred());
            }
            return;
        }
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            panic!("duplicate join of live node {:016x}", w[0]);
        }
        self.alive_count = keys.len();
        self.snapshot = Snapshot::new(keys);
        self.settled = true;
    }

    /// Mark `key` dead; its record and every reference to it stay.
    ///
    /// # Panics
    /// If `key` is not a live member.
    pub fn mark_dead(&mut self, key: u64)
    where
        X: Default,
    {
        if !self.is_alive(key) {
            panic!("departure of unknown/dead node {key:016x}");
        }
        self.records
            .entry(key)
            .or_insert_with(Record::default_alive)
            .alive = false;
        self.alive_count -= 1;
        self.settled = false;
    }

    /// A full stabilization round: the live set becomes the snapshot and
    /// every record is dropped — dead ones collected, every peer's state
    /// `X::default()` again. O(N) unless settled, when the snapshot already
    /// is the live set.
    pub fn stabilize(&mut self) {
        if !self.settled {
            // The snapshot's runs between records copied whole; a record
            // replaces its own key, if the snapshot has it, and stays only
            // if alive.
            let old = &self.snapshot.keys;
            let mut keys = Vec::with_capacity(self.alive_count);
            let mut from = 0;
            for (&k, r) in &self.records {
                let at = self.snapshot.at_or_above(k);
                keys.extend_from_slice(&old[from..at]);
                from = if old.get(at) == Some(&k) { at + 1 } else { at };
                if r.alive {
                    keys.push(k);
                }
            }
            keys.extend_from_slice(&old[from..]);
            self.snapshot = Snapshot::new(keys);
        }
        self.records.clear();
        self.settled = true;
    }
}

impl<X: Default> Record<X> {
    /// A live peer in its post-stabilize state.
    fn default_alive() -> Record<X> {
        Record {
            alive: true,
            state: X::default(),
        }
    }
}

/// The live keys of a range: the snapshot's keys, less those a record marks
/// dead, with those admitted since merged in. Each end holds back at most
/// one record it has taken off the B-tree range and not yet merged; when
/// the range runs dry, an end takes over the record the other holds.
struct AliveIn<'a, X> {
    keys: &'a [u64],
    records: Option<btree_map::Range<'a, u64, Record<X>>>,
    front: Option<(u64, bool)>,
    back: Option<(u64, bool)>,
}

impl<X> Iterator for AliveIn<'_, X> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.front.is_none() {
                let taken = self.records.as_mut().and_then(Iterator::next);
                self.front = taken
                    .map(|(&k, r)| (k, r.alive))
                    .or_else(|| self.back.take());
            }
            match (self.keys.first(), self.front) {
                (None, None) => return None,
                (Some(&k), Some((r, alive))) if r <= k => {
                    self.front = None;
                    if r == k {
                        self.keys = &self.keys[1..];
                    }
                    if alive {
                        return Some(r);
                    }
                }
                (Some(&k), _) => {
                    self.keys = &self.keys[1..];
                    return Some(k);
                }
                (None, Some((r, alive))) => {
                    self.front = None;
                    if alive {
                        return Some(r);
                    }
                }
            }
        }
    }
}

impl<X> DoubleEndedIterator for AliveIn<'_, X> {
    fn next_back(&mut self) -> Option<u64> {
        loop {
            if self.back.is_none() {
                let taken = self
                    .records
                    .as_mut()
                    .and_then(DoubleEndedIterator::next_back);
                self.back = taken
                    .map(|(&k, r)| (k, r.alive))
                    .or_else(|| self.front.take());
            }
            let last = self.keys.len().checked_sub(1);
            match (last.map(|i| self.keys[i]), self.back) {
                (None, None) => return None,
                (Some(k), Some((r, alive))) if r >= k => {
                    self.back = None;
                    if r == k {
                        self.keys = &self.keys[..self.keys.len() - 1];
                    }
                    if alive {
                        return Some(r);
                    }
                }
                (Some(k), _) => {
                    self.keys = &self.keys[..self.keys.len() - 1];
                    return Some(k);
                }
                (None, Some((r, alive))) => {
                    self.back = None;
                    if alive {
                        return Some(r);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use Bound::{Excluded, Included, Unbounded};

    #[test]
    fn snapshot_queries() {
        let s = Snapshot::new(vec![10, 20, 30]);
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
    fn the_index_has_about_one_key_per_bucket() {
        for n in [0usize, 1, 2, 3, 4, 5, 1000, 1024, 1025] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i << 40).collect();
            let s = Snapshot::new(keys);
            let buckets = s.starts.len() - 1;
            assert!(
                buckets >= n && buckets < 2 * n.max(1),
                "{n} keys, {buckets} buckets"
            );
            assert_eq!(s.starts.last().copied(), Some(n as u32));
        }
    }

    /// Every bound a range end can take at `k`.
    fn bounds(k: u64) -> [Bound<u64>; 3] {
        [Included(k), Excluded(k), Unbounded]
    }

    /// The rank range of `range` in `keys` by plain `partition_point`;
    /// `None` for a range that starts past its end.
    fn plain_slice(keys: &[u64], range: (Bound<u64>, Bound<u64>)) -> Option<(usize, usize)> {
        let from = match range.0 {
            Included(k) => keys.partition_point(|&x| x < k),
            Excluded(k) => keys.partition_point(|&x| x <= k),
            Unbounded => 0,
        };
        let to = match range.1 {
            Included(k) => keys.partition_point(|&x| x <= k),
            Excluded(k) => keys.partition_point(|&x| x < k),
            Unbounded => keys.len(),
        };
        (from <= to).then_some((from, to))
    }

    /// Is `range` one a B-tree accepts?
    fn valid(range: (Bound<u64>, Bound<u64>)) -> bool {
        match range {
            (Included(a) | Excluded(a), Included(b) | Excluded(b)) if a > b => false,
            (Excluded(a), Excluded(b)) => a != b,
            _ => true,
        }
    }

    /// Every key of `keys`, its neighbours, both ends of the key space and
    /// `extra`.
    fn probes(keys: &[u64], extra: &[u64]) -> Vec<u64> {
        let near = keys
            .iter()
            .flat_map(|&k| [k, k.wrapping_add(1), k.wrapping_sub(1)]);
        let mut probes: Vec<u64> = near
            .chain([0, 1, u64::MAX])
            .chain(extra.iter().copied())
            .collect();
        probes.sort_unstable();
        probes.dedup();
        probes
    }

    fn indexed_reads_equal_plain_reads(keys: &[u64], extra: &[u64]) -> Result<(), TestCaseError> {
        let s = Snapshot::new(keys.to_vec());
        let probes = probes(keys, extra);
        for &k in &probes {
            prop_assert_eq!(s.rank(k), keys.binary_search(&k).ok());
            let at = keys.partition_point(|&x| x < k);
            let successor = if at < keys.len() {
                Some(at)
            } else {
                (at > 0).then_some(0)
            };
            prop_assert_eq!(s.successor_rank(k), successor);
        }
        // Every pair of probes, every pair of bounds at them.
        for &lo in &probes {
            for &hi in &probes {
                let first = keys.partition_point(|&x| x < lo);
                let first = (keys.get(first).is_some_and(|&x| x <= hi)).then_some(first);
                prop_assert_eq!(s.first_in(lo, hi), first, "{:x}..={:x}", lo, hi);
                for start in bounds(lo) {
                    for end in bounds(hi) {
                        if let Some((from, to)) = plain_slice(keys, (start, end)) {
                            prop_assert_eq!(s.slice((start, end)), &keys[from..to]);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Key sets the index finds hard: none, one, many in one bucket, and
    /// the ends of the key space.
    fn key_set() -> impl Strategy<Value = Vec<u64>> {
        let prefix = any::<u64>();
        let spread = proptest::collection::vec(any::<u64>(), 0..40);
        let low = proptest::collection::vec(any::<u16>(), 0..40);
        let crowded = (prefix, low).prop_map(|(p, low)| {
            low.into_iter()
                .map(|l| (p & !0xFFFF) | u64::from(l))
                .collect()
        });
        let ends = proptest::collection::vec(0u64..6, 0..6)
            .prop_map(|v| v.into_iter().flat_map(|i| [i, u64::MAX - i]).collect());
        prop_oneof![
            spread,
            crowded,
            ends,
            any::<u64>().prop_map(|k| vec![k]),
            Just(Vec::new()),
        ]
        .prop_map(|mut keys: Vec<u64>| {
            keys.sort_unstable();
            keys.dedup();
            keys
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The radix-indexed searches against plain `partition_point`
        /// over the whole sorted array.
        #[test]
        fn indexed_snapshot_reads_equal_partition_points(
            keys in key_set(),
            extra in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            indexed_reads_equal_plain_reads(&keys, &extra)?;
        }
    }

    #[test]
    fn indexed_snapshot_reads_on_the_named_key_sets() {
        let one_bucket: Vec<u64> = (0..300).map(|i| 0xABCD_EF01_2345_0000 | i).collect();
        let sets: [&[u64]; 6] = [&[], &[7], &[0], &[u64::MAX], &[0, u64::MAX], &one_bucket];
        for keys in sets {
            indexed_reads_equal_plain_reads(keys, &[]).expect("indexed reads equal plain ones");
        }
    }

    #[test]
    fn settled_reads_equal_walked_reads() {
        let mut m: Membership<()> = Membership::default();
        for k in [10, 20, 30, 40] {
            m.admit(k, ());
        }
        m.mark_dead(40);
        m.stabilize();
        let mut walked = m.clone();
        walked.unsettle();
        let ends = [0, 10, 15, 20, 25, 30, 35, u64::MAX];
        let pairs = ends.into_iter().flat_map(|lo| ends.map(|hi| (lo, hi)));
        for (lo, hi) in pairs.filter(|(lo, hi)| lo <= hi) {
            for range in bounds(lo)
                .into_iter()
                .flat_map(|s| bounds(hi).map(|e| (s, e)))
                .filter(|&r| valid(r))
            {
                let settled: Vec<u64> = m.alive_in(range).collect();
                assert_eq!(settled, walked.alive_in(range).collect::<Vec<_>>());
                let back: Vec<u64> = m.alive_in(range).rev().collect();
                assert_eq!(back, walked.alive_in(range).rev().collect::<Vec<_>>());
            }
        }
        for rank in 0..5 {
            assert_eq!(m.alive_key_at(rank), walked.alive_key_at(rank));
        }
        let mut rng = crate::rng::rng_for(1, 1);
        let mut again = rng.clone();
        for _ in 0..20 {
            let key = m.random_key(&mut rng);
            assert_eq!(key, walked.random_key(&mut again));
            assert!(key.is_some_and(|k| m.is_alive(k)));
        }
        assert_eq!(
            m.records().count(),
            0,
            "a stabilized membership holds no records"
        );
    }

    #[test]
    fn bulk_join_into_an_empty_overlay_lands_settled_without_records() {
        let mut m: Membership<u32> = Membership::default();
        m.bulk_join(&[30, 10, 20], || 7);
        assert!(m.settled());
        assert_eq!(m.records().count(), 0);
        assert_eq!(m.snapshot().keys(), [10, 20, 30]);
        assert_eq!(
            m.record(20).map(|r| (r.is_alive(), r.state)),
            Some((true, 0))
        );
        // Into a populated overlay the keys are admitted, deferred.
        m.bulk_join(&[15], || 7);
        assert!(!m.settled());
        assert_eq!(
            m.record(15).map(|r| (r.is_alive(), r.state)),
            Some((true, 7))
        );
        m.stabilize();
        assert_eq!(m.records().count(), 0);
        assert_eq!(m.alive_in(..).collect::<Vec<_>>(), [10, 15, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "duplicate join")]
    fn bulk_join_refuses_a_key_given_twice() {
        let mut m: Membership<()> = Membership::default();
        m.bulk_join(&[5, 9, 5], || ());
    }

    /// The membership as it was before records were kept only for
    /// exceptions: one record per peer, dead or alive, until a stabilize.
    #[derive(Default)]
    struct Reference {
        records: BTreeMap<u64, (bool, u32)>,
    }

    impl Reference {
        fn alive(&self) -> Vec<u64> {
            let alive = self.records.iter().filter(|(_, r)| r.0);
            alive.map(|(&k, _)| k).collect()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Admit(u64),
        MarkDead(usize),
        StateMut(usize, u32),
        BulkJoin(Vec<u64>),
        Stabilize,
        Unsettle,
    }

    /// Keys from a small set, so that peers die, come back and are
    /// bulk-joined again; the ends of the key space among them.
    fn model_key() -> impl Strategy<Value = u64> {
        prop_oneof![
            8 => (0u64..24).prop_map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            1 => Just(u64::MAX),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => model_key().prop_map(Op::Admit),
            3 => any::<usize>().prop_map(Op::MarkDead),
            2 => (any::<usize>(), 1u32..100).prop_map(|(i, v)| Op::StateMut(i, v)),
            2 => proptest::collection::vec(model_key(), 0..6).prop_map(Op::BulkJoin),
            2 => Just(Op::Stabilize),
            1 => Just(Op::Unsettle),
        ]
    }

    /// Every read of `m` against the reference: liveness and record of
    /// every key, every range from both ends and from both at once, every
    /// rank.
    fn reads_agree(m: &Membership<u32>, reference: &Reference) -> Result<(), TestCaseError> {
        let alive = reference.alive();
        prop_assert_eq!(m.len(), alive.len());
        prop_assert_eq!(m.is_empty(), alive.is_empty());
        let known: Vec<u64> = reference.records.keys().copied().collect();
        let probes = probes(&known, &[0x8000_0000_0000_0000]);
        for &k in &probes {
            prop_assert_eq!(
                m.is_alive(k),
                reference.records.get(&k).is_some_and(|r| r.0)
            );
            let record = m.record(k).map(|r| (r.is_alive(), r.state));
            prop_assert_eq!(
                record,
                reference.records.get(&k).copied(),
                "record of {:x}",
                k
            );
        }
        for rank in 0..=alive.len() {
            prop_assert_eq!(m.alive_key_at(rank), alive.get(rank).copied());
        }
        let ends: Vec<u64> = probes
            .iter()
            .copied()
            .step_by(4)
            .chain([u64::MAX])
            .collect();
        for &lo in &ends {
            for &hi in ends.iter().filter(|&&hi| hi >= lo) {
                for start in bounds(lo) {
                    for range in bounds(hi)
                        .map(|end| (start, end))
                        .into_iter()
                        .filter(|&r| valid(r))
                    {
                        let want: VecDeque<u64> = alive
                            .iter()
                            .copied()
                            .filter(|k| range.contains(k))
                            .collect();
                        let got: Vec<u64> = m.alive_in(range).collect();
                        prop_assert_eq!(&got, &Vec::from(want.clone()));
                        let back: Vec<u64> = m.alive_in(range).rev().collect();
                        let want_back: Vec<u64> = want.iter().rev().copied().collect();
                        prop_assert_eq!(back, want_back);
                        // Both ends at once, in a pattern the range picks.
                        let (mut want, mut both) = (want, m.alive_in(range));
                        for turn in 0.. {
                            let from_back = (lo ^ hi).rotate_left(turn) & 1 == 1;
                            let (got, expected) = if from_back {
                                (both.next_back(), want.pop_back())
                            } else {
                                (both.next(), want.pop_front())
                            };
                            prop_assert_eq!(got, expected, "turn {} of {:?}", turn, range);
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random admissions, departures, refreshes, bulk joins and
        /// stabilizes, against one record per peer; every read agrees
        /// after every step, settled or walked, and a stabilize leaves no
        /// record behind.
        #[test]
        fn membership_reads_equal_the_one_record_per_peer_model(
            ops in proptest::collection::vec(op(), 0..40),
        ) {
            let mut m: Membership<u32> = Membership::default();
            let mut reference = Reference::default();
            for op in ops {
                match op {
                    Op::Admit(k) if !m.is_alive(k) => {
                        m.admit(k, 3);
                        reference.records.insert(k, (true, 3));
                    }
                    Op::Admit(_) => {}
                    Op::MarkDead(i) => {
                        let alive = reference.alive();
                        if let Some(&k) = alive.get(i % alive.len().max(1)) {
                            m.mark_dead(k);
                            reference.records.get_mut(&k).expect("live").0 = false;
                        }
                    }
                    Op::StateMut(i, v) => {
                        let known: Vec<u64> = reference.records.keys().copied().collect();
                        if let Some(&k) = known.get(i % known.len().max(1)) {
                            *m.state_mut(k) = v;
                            reference.records.get_mut(&k).expect("known").1 = v;
                        }
                    }
                    Op::BulkJoin(mut keys) => {
                        keys.sort_unstable();
                        keys.dedup();
                        keys.retain(|&k| !m.is_alive(k));
                        // A bulk join into nothing lands settled, every
                        // peer in its post-stabilize state.
                        let state = if reference.records.is_empty() { 0 } else { 7 };
                        m.bulk_join(&keys, || 7);
                        for k in keys {
                            reference.records.insert(k, (true, state));
                        }
                    }
                    Op::Stabilize => {
                        m.stabilize();
                        reference.records.retain(|_, r| r.0);
                        reference.records.values_mut().for_each(|r| r.1 = 0);
                        prop_assert_eq!(m.records().count(), 0, "a stabilized membership holds no records");
                        prop_assert_eq!(m.snapshot().keys(), &reference.alive()[..]);
                    }
                    Op::Unsettle => m.unsettle(),
                }
                reads_agree(&m, &reference)?;
                let mut walked = m.clone();
                walked.unsettle();
                reads_agree(&walked, &reference)?;
            }
        }
    }
}
