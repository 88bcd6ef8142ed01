//! The membership of a key-based overlay, one type under every substrate.
//!
//! Chord, Pastry and Tapestry differ in their routing rule, not in how they
//! hold their members. [`Membership`] keeps, per key, one record — alive or
//! dead, and *all* of the peer's routing state `X` — plus the sorted live
//! keys of the last stabilize (the [`Snapshot`]). Right after a full
//! `stabilize` every peer's state is a pure function of that snapshot, so
//! none is stored: each component is a [`Lazy`] tag — `Canon`, resolved
//! against the snapshot when a route asks for it, or `Mat`, materialised by
//! an individual refresh since. A `Canon` view stays pinned to the snapshot
//! while membership moves underneath it, which is exactly how a stored view
//! goes stale.
//!
//! While nothing has changed since the stabilize (the overlay is
//! *settled*), the snapshot *is* the live set, so every ground-truth read
//! ([`Membership::alive_in`], [`Membership::alive_key_at`]) answers from it
//! instead of walking the records.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

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

/// The sorted keys alive at the last stabilize.
#[derive(Clone, Debug, Default)]
pub struct Snapshot(Vec<u64>);

impl Snapshot {
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

    /// The keys within `range`: one `partition_point` per bounded end.
    fn slice(&self, range: (Bound<u64>, Bound<u64>)) -> &[u64] {
        let below = |end: Bound<u64>| match end {
            Bound::Included(k) => self.0.partition_point(|&x| x < k),
            Bound::Excluded(k) => self.0.partition_point(|&x| x <= k),
            Bound::Unbounded => 0,
        };
        let upto = match range.1 {
            Bound::Included(k) => self.0.partition_point(|&x| x <= k),
            Bound::Excluded(k) => self.0.partition_point(|&x| x < k),
            Bound::Unbounded => self.0.len(),
        };
        &self.0[below(range.0)..upto]
    }
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
/// Invariant: a `Canon` component of `X` belongs to a key of the snapshot.
/// `stabilize` resets every record to `X::default()`, which is all `Canon`.
#[derive(Clone, Debug, Default)]
pub struct Membership<X> {
    records: BTreeMap<u64, Record<X>>,
    alive_count: usize,
    snapshot: Snapshot,
    /// No membership change since the last stabilize: every peer's routing
    /// state equals what the snapshot implies, and the snapshot *is* the
    /// live set. Set by `stabilize`, cleared by every admission and
    /// departure.
    settled: bool,
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

    /// Is `key` a live member?
    pub fn is_alive(&self, key: u64) -> bool {
        self.records.get(&key).is_some_and(|r| r.alive)
    }

    /// Live keys within `range`, ascending: a slice of the snapshot while
    /// settled, a walk of the records otherwise.
    pub fn alive_in(
        &self,
        range: impl RangeBounds<u64>,
    ) -> impl DoubleEndedIterator<Item = u64> + '_ {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        let (keys, records) = if self.settled {
            (self.snapshot.slice(range), None)
        } else {
            (&[][..], Some(self.records.range(range)))
        };
        let walked = records.into_iter().flatten();
        let walked = walked.filter(|(_, r)| r.alive).map(|(&k, _)| k);
        keys.iter().copied().chain(walked)
    }

    /// The `rank`-th live key in ascending order: one index into the
    /// snapshot while settled, a walk of the records otherwise.
    pub fn alive_key_at(&self, rank: usize) -> Option<u64> {
        if self.settled {
            self.snapshot.0.get(rank).copied()
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
    /// overlay, read the long way — records walked, liveness probed. Every
    /// answer stays the same, only the reads that produce it change; tests
    /// compare the two.
    pub fn unsettle(&mut self) {
        self.settled = false;
    }

    /// The keys alive at the last stabilize.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The record of `key`, dead or alive.
    pub fn record(&self, key: u64) -> Option<&Record<X>> {
        self.records.get(&key)
    }

    /// Every record, dead or alive, ascending.
    pub fn records(&self) -> impl Iterator<Item = (u64, &Record<X>)> {
        self.records.iter().map(|(&k, r)| (k, r))
    }

    /// The routing state of the known peer `key`, for a refresh.
    ///
    /// # Panics
    /// If the overlay has no record of `key`.
    pub fn state_mut(&mut self, key: u64) -> &mut X {
        match self.records.get_mut(&key) {
            Some(r) => &mut r.state,
            None => panic!("no record of {key:016x}"),
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

    /// Mark `key` dead; its record and every reference to it stay.
    ///
    /// # Panics
    /// If `key` is not a live member.
    pub fn mark_dead(&mut self, key: u64) {
        let r = self
            .records
            .get_mut(&key)
            .filter(|r| r.alive)
            .unwrap_or_else(|| panic!("departure of unknown/dead node {key:016x}"));
        r.alive = false;
        self.alive_count -= 1;
        self.settled = false;
    }

    /// A full stabilization round: dead records are collected, the live
    /// set becomes the snapshot and every peer's state is `X::default()`
    /// again — O(N), nothing allocated per peer.
    pub fn stabilize(&mut self)
    where
        X: Default,
    {
        self.records.retain(|_, r| r.alive);
        self.snapshot = Snapshot(self.records.keys().copied().collect());
        for r in self.records.values_mut() {
            r.state = X::default();
        }
        self.settled = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_queries() {
        let s = Snapshot(vec![10, 20, 30]);
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
    fn settled_reads_equal_walked_reads() {
        use Bound::{Excluded, Included, Unbounded};
        let mut m: Membership<()> = Membership::default();
        for k in [10, 20, 30, 40] {
            m.admit(k, ());
        }
        m.mark_dead(40);
        m.stabilize();
        let mut walked = m.clone();
        walked.unsettle();
        let bounds = |k| [Included(k), Excluded(k), Unbounded];
        let ends = [0, 10, 15, 20, 25, 30, 35, u64::MAX];
        let pairs = ends.into_iter().flat_map(|lo| ends.map(|hi| (lo, hi)));
        for (lo, hi) in pairs.filter(|(lo, hi)| lo <= hi) {
            for range in bounds(lo)
                .into_iter()
                .flat_map(|s| bounds(hi).map(|e| (s, e)))
            {
                if range == (Excluded(lo), Excluded(lo)) {
                    continue; // a range the B-tree refuses
                }
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
        assert_eq!(m.records().count(), 3, "dead record collected");
    }
}
