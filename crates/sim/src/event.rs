//! Stable, deterministic event queue.
//!
//! The queue orders events by `(time, sequence number)`, so events scheduled
//! for the same simulated instant are delivered in FIFO order. This stability
//! is what makes a whole simulation a pure function of its seed.
//!
//! Internally this is a *monotone radix heap* (Ahuja, Mehlhorn, Orlin and
//! Tarjan 1990) keyed on the event time in nanoseconds. Nothing is ever
//! scheduled behind the clock, so every pending time is at least
//! [`EventQueue::now`]. The events at exactly `now` wait in a FIFO in seq
//! order; any other goes into bucket `b`, where bit `b` is the highest bit
//! in which its time differs from `now`. The buckets' time ranges are
//! disjoint and ascend with `b`, so the lowest non-empty bucket holds the
//! next instant. When the FIFO runs dry, `pop` empties that bucket: the
//! clock moves to its earliest time, and each of its events moves to the
//! FIFO or to a strictly lower bucket. An event therefore moves at most 64
//! times, however the pending times are spread: a steady population of
//! far-future node lifetimes costs nothing until the clock comes near it.
//! `pop` returns the global minimum under the total `(time, seq)` order, so
//! the pop sequence is exactly the one a binary heap on `(time, seq)`
//! produces; `tests/queue_proptests.rs` checks this against one.
//!
//! **Reserved seqs.** A simulation knows its whole arrival stream before the
//! first event fires, but holding every submission in the queue would keep
//! each one in memory from the start. Instead the caller sets a block of
//! seqs aside with [`EventQueue::reserve_seqs`] and hands each entry over
//! later, when the run reaches it, with [`EventQueue::file`]. It carries its
//! reserved seq, so it pops exactly where it would have, had it been
//! scheduled when that seq was reserved — provided it is filed before
//! anything later than it pops. The engine files its arrivals one ahead of
//! the run this way, and keeps one lease expiry per leased job in the
//! queue: an expiry that finds its lease renewed files the latest armed one
//! under the seq reserved when it was armed.
//!
//! **Memory follows the pending events.** A bucket the clock empties gives
//! its buffer back to the allocator unless the buffer is small
//! ([`KEPT_CAPACITY`] entries or fewer), and so does the FIFO of a past
//! instant; the queue therefore holds about what is pending, not the sum of
//! every buffer's high-water mark. A small buffer is kept because the low
//! buckets empty and refill at almost every pop.

use std::collections::VecDeque;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// The most entries a buffer the clock empties may keep room for; a larger
/// one is freed.
const KEPT_CAPACITY: usize = 256;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A discrete-event priority queue with a built-in virtual clock.
///
/// Popping an event advances [`EventQueue::now`] to that event's timestamp;
/// scheduling into the past is a logic error and panics.
pub struct EventQueue<E> {
    /// The pending entries at exactly `now`, in ascending seq.
    current: VecDeque<Entry<E>>,
    /// `buckets[b]` holds the pending entries whose `at ^ now` has its
    /// highest set bit at `b`.
    buckets: [Vec<Entry<E>>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The clock and the number of pending events, not the events themselves.
impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("len", &self.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            current: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.current.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.occupied == 0
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than [`EventQueue::now`] — the simulation cannot
    /// rewrite history.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push(Entry { at, seq, event });
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Set the next `n` seqs aside for entries handed over later through
    /// [`EventQueue::file`], and return the first of them. Events scheduled
    /// afterwards get later seqs, so at equal times every reserved entry
    /// pops before them.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Hand over `event` at `at` under `seq`, one set aside by
    /// [`EventQueue::reserve_seqs`]. It pops exactly where it would have,
    /// had it been scheduled when `seq` was reserved, as long as it is filed
    /// before any later entry pops.
    ///
    /// # Panics
    /// If `at` is earlier than [`EventQueue::now`], like `schedule`.
    pub fn file(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        self.push(Entry { at, seq, event });
    }

    /// The monotone contract: nothing is pushed behind the clock, so every
    /// entry has a bucket relative to it.
    fn push(&mut self, e: Entry<E>) {
        assert!(
            e.at >= self.now,
            "scheduling into the past: at={:?} < now={:?}",
            e.at,
            self.now
        );
        match e.at.as_nanos() ^ self.now.as_nanos() {
            // Only a reserved seq can be lower than the back's.
            0 if self.current.back().is_some_and(|b| b.seq > e.seq) => {
                let pos = self.current.partition_point(|x| x.seq < e.seq);
                self.current.insert(pos, e);
            }
            0 => self.current.push_back(e),
            diff => {
                let b = diff.ilog2();
                self.buckets[b as usize].push(e);
                self.occupied |= 1 << b;
            }
        }
    }

    /// The lowest non-empty bucket and its earliest time: the next instant
    /// once the current one is empty.
    fn lowest(&self) -> Option<(usize, SimTime)> {
        let b = (self.occupied != 0).then(|| self.occupied.trailing_zeros() as usize)?;
        let at = self.buckets[b].iter().map(|e| e.at).min()?;
        Some((b, at))
    }

    /// Advance the clock to `at`, the earliest time in bucket `b`, the
    /// lowest non-empty one, while no entry is pending at `now`. Each of
    /// the bucket's entries moves to the FIFO, or to a lower bucket: it
    /// agrees with `at` on every bit above `b`. The other buckets hold
    /// what they held, since `at` agrees with the old clock above `b`.
    fn advance(&mut self, b: usize, at: SimTime) {
        debug_assert!(self.current.is_empty());
        if self.current.capacity() > KEPT_CAPACITY {
            self.current = VecDeque::new();
        }
        self.now = at;
        self.occupied &= !(1 << b);
        let mut taken = std::mem::take(&mut self.buckets[b]);
        for e in taken.drain(..) {
            match e.at.as_nanos() ^ at.as_nanos() {
                0 => self.current.push_back(e),
                diff => {
                    let lower = diff.ilog2();
                    self.buckets[lower as usize].push(e);
                    self.occupied |= 1 << lower;
                }
            }
        }
        if taken.capacity() <= KEPT_CAPACITY {
            self.buckets[b] = taken;
        }
        self.current
            .make_contiguous()
            .sort_unstable_by_key(|e| e.seq);
    }

    /// Remove and return the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            let (b, at) = self.lowest()?;
            self.advance(b, at);
        }
        let e = self.current.pop_front()?;
        Some((e.at, e.event))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.current.front() {
            Some(e) => Some(e.at),
            None => self.lowest().map(|(_, at)| at),
        }
    }

    /// Remove and return every pending event strictly before `until`,
    /// sorted by the same total `(time, seq)` order `pop` follows — the
    /// batch is exactly the sequence that many repeated `pop` calls would
    /// have produced, with each event's sequence number alongside.
    ///
    /// This is the conservative-window primitive: the caller processes the
    /// whole batch at one barrier, so the clock advances only to the
    /// *first* drained timestamp (the window's opening event). Follow-up
    /// work scheduled while merging the batch targets times at or after
    /// the event that caused it — all `>=` that first timestamp — and
    /// anything landing before `until` is picked up by the next
    /// `drain_window` call at the same horizon (the fixpoint round).
    ///
    /// Returns an empty batch (and leaves the queue untouched) when no
    /// pending event precedes `until`.
    pub fn drain_window(&mut self, until: SimTime) -> Vec<(SimTime, u64, E)> {
        if until <= self.now {
            return Vec::new();
        }
        if self.current.is_empty() {
            match self.lowest() {
                Some((b, at)) if at < until => self.advance(b, at),
                _ => return Vec::new(),
            }
        }
        let mut drained: Vec<Entry<E>> = self.current.drain(..).collect();
        // Bucket `b` starts at `now` with bit `b` set and every lower bit
        // clear; the buckets are visited in ascending order of that start.
        let now = self.now.as_nanos();
        let mut occupied = self.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros();
            occupied &= occupied - 1;
            let start = (now & !(u64::MAX >> (63 - b))) | 1 << b;
            if start >= until.as_nanos() {
                break;
            }
            let bucket = &mut self.buckets[b as usize];
            let mut pos = 0;
            while pos < bucket.len() {
                if bucket[pos].at < until {
                    drained.push(bucket.swap_remove(pos));
                } else {
                    pos += 1;
                }
            }
            if bucket.is_empty() {
                self.occupied &= !(1 << b);
                if bucket.capacity() > KEPT_CAPACITY {
                    *bucket = Vec::new();
                }
            }
        }
        drained.sort_unstable_by_key(|e| (e.at, e.seq));
        drained
            .into_iter()
            .map(|e| (e.at, e.seq, e.event))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(5), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        // schedule_in is relative to the advanced clock.
        q.schedule_in(SimDuration::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(6)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(format!("{q:?}"), "EventQueue { now: t=0.000000s, len: 2 }");
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        // Events scheduled at the already-current instant pop before later ones
        // and in insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 0);
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, 0);
        q.schedule(q.now(), 1);
        q.schedule(q.now(), 2);
        q.schedule(SimTime::from_secs(2), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn far_future_event_pops_after_the_near_one() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "near");
        q.schedule(SimTime::from_secs(1_000_000_000), "far");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1_000_000_000)));
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.now(), SimTime::from_secs(1_000_000_000));
        assert!(q.pop().is_none());
    }

    #[test]
    fn shuffled_times_pop_in_order() {
        let mut q = EventQueue::new();
        let n = 10_000u64;
        for i in 0..n {
            // Deterministic shuffle of distinct timestamps.
            let t = (i * 7919) % n;
            q.schedule(SimTime::from_millis(t * 13), t);
        }
        let mut last = None;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            assert!(last.is_none_or(|prev| prev <= at));
            last = Some(at);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn ties_stay_fifo_across_many_instants() {
        let mut q = EventQueue::new();
        for i in 0..2_000u64 {
            q.schedule(SimTime::from_secs(5 + i / 100), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn drain_window_matches_repeated_pops() {
        let mk = || {
            let mut q = EventQueue::new();
            for i in 0..500u64 {
                let t = (i * 7919) % 500;
                q.schedule(SimTime::from_millis(t * 3), i);
            }
            q
        };
        let mut a = mk();
        let mut b = mk();
        let until = SimTime::from_millis(700);
        let batch = a.drain_window(until);
        let mut want = Vec::new();
        while b.peek_time().is_some_and(|t| t < until) {
            let (at, e) = b.pop().unwrap();
            want.push((at, e));
        }
        assert_eq!(
            batch.iter().map(|&(at, _, e)| (at, e)).collect::<Vec<_>>(),
            want
        );
        // The clock sits at the window's first event, and the remainder
        // pops identically from both queues.
        assert_eq!(a.now(), batch.first().map(|&(at, _, _)| at).unwrap());
        loop {
            let x = a.pop();
            assert_eq!(x, b.pop());
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn drain_window_empty_cases() {
        let mut q = EventQueue::new();
        assert!(q.drain_window(SimTime::from_secs(10)).is_empty());
        q.schedule(SimTime::from_secs(5), ());
        // Horizon at or before the clock drains nothing.
        assert!(q.drain_window(SimTime::ZERO).is_empty());
        // Horizon before the earliest event drains nothing and keeps it.
        assert!(q.drain_window(SimTime::from_secs(5)).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::ZERO);
        let batch = q.drain_window(SimTime::from_nanos(SimTime::from_secs(5).as_nanos() + 1));
        assert_eq!(batch.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_window_allows_merge_phase_schedules_at_event_times() {
        // After draining [t0, until), scheduling follow-ups at each drained
        // event's own timestamp must be legal (the barrier's merge phase
        // does exactly this), and a second drain at the same horizon picks
        // them up — the fixpoint round.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 0);
        q.schedule(SimTime::from_secs(2), 1);
        q.schedule(SimTime::from_secs(9), 2);
        let until = SimTime::from_secs(3);
        let batch = q.drain_window(until);
        assert_eq!(batch.len(), 2);
        for &(at, _, e) in &batch {
            q.schedule(at, e + 10);
        }
        let round2 = q.drain_window(until);
        assert_eq!(
            round2.iter().map(|&(at, _, e)| (at, e)).collect::<Vec<_>>(),
            vec![(SimTime::from_secs(1), 10), (SimTime::from_secs(2), 11)]
        );
        assert!(q.drain_window(until).is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs(9), 2)));
    }

    #[test]
    fn drain_window_far_horizon_takes_every_bucket() {
        // A horizon beyond every pending event still returns the exact
        // (time, seq) order.
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.schedule(SimTime::from_secs((i * 37) % 100), i);
        }
        q.schedule(SimTime::from_secs(1_000_000_000), 999);
        let batch = q.drain_window(SimTime::from_secs(2_000_000_000));
        assert_eq!(batch.len(), 201);
        assert!(batch
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(q.is_empty());
    }

    /// File `batch` under seqs reserved for it, in order; its entries'
    /// payloads are their positions in the batch.
    fn file_all(q: &mut EventQueue<usize>, batch: &[u64]) {
        let first = q.reserve_seqs(batch.len() as u64);
        for (i, &t) in batch.iter().enumerate() {
            q.file(SimTime::from_secs(t), first + i as u64, i);
        }
    }

    #[test]
    fn an_ascending_stream_filed_one_ahead_holds_one_entry() {
        // 10⁵ arrivals, three to a millisecond, each filed when the one
        // before it pops: the queue never holds more than one.
        let mut q = EventQueue::new();
        let n = 100_000u64;
        let at = |i: u64| SimTime::from_millis(i / 3);
        let first = q.reserve_seqs(n);
        q.file(at(0), first, 0);
        for want in 0..n {
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((at(want), want)));
            if want + 1 < n {
                q.file(at(want + 1), first + want + 1, want + 1);
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn filed_entries_pop_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 100);
        file_all(&mut q, &[5, 3, 5, 7, 1, 7]);
        assert_eq!(q.len(), 7);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Ties go by seq: the scheduled 100 took its seq before the batch
        // reserved those of 0 and 2.
        assert_eq!(order, vec![4, 1, 100, 0, 2, 3, 5]);
    }

    #[test]
    fn a_filed_entry_keeps_its_reserved_place_among_equal_times() {
        // Two seqs set aside, then an event scheduled at the same time; the
        // reserved entries are filed later, the second one first.
        let mut q = EventQueue::new();
        let first = q.reserve_seqs(2);
        let t = SimTime::from_secs(5);
        q.schedule(t, "scheduled");
        q.file(t, first + 1, "second");
        q.file(t, first, "first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "second", "scheduled"]);
    }

    #[test]
    fn an_entry_filed_at_the_current_instant_keeps_its_reserved_place() {
        // The clock stands at 5 s with two events still due there; a
        // reserved seq filed at 5 s goes between them.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "a");
        let reserved = q.reserve_seqs(1);
        q.schedule(SimTime::from_secs(5), "b");
        q.schedule(SimTime::from_secs(5), "c");
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "a")));
        q.file(SimTime::from_secs(5), reserved, "filed");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["filed", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn filing_into_the_past_panics() {
        let mut q = EventQueue::new();
        let first = q.reserve_seqs(1);
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.file(SimTime::from_secs(1), first, ());
    }

    #[test]
    fn far_apart_filed_and_scheduled_entries_pop_in_time_order() {
        // A filed entry and a scheduled one, far apart, in either order.
        for (scheduled, filed) in [(500_000, 1_000_000), (2_000_000, 1_000_000)] {
            let mut q = EventQueue::new();
            let seq = q.reserve_seqs(1);
            q.file(SimTime::from_secs(filed), seq, "filed");
            q.schedule(SimTime::from_secs(scheduled), "scheduled");
            let first = if scheduled < filed {
                "scheduled"
            } else {
                "filed"
            };
            let earlier = SimTime::from_secs(scheduled.min(filed));
            assert_eq!(q.peek_time(), Some(earlier));
            assert_eq!(q.pop().map(|(_, e)| e), Some(first));
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop().map(|(at, _)| at),
                Some(SimTime::from_secs(scheduled.max(filed)))
            );
        }
    }

    #[test]
    fn drain_window_takes_filed_entries_in_seq_order() {
        let mut q = EventQueue::new();
        file_all(&mut q, &[0, 0, 1, 4]);
        q.schedule(SimTime::ZERO, 4);
        q.schedule(SimTime::from_secs(2), 5);
        let batch = q.drain_window(SimTime::from_secs(3));
        assert_eq!(
            batch
                .iter()
                .map(|&(_, seq, e)| (seq, e))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 1), (4, 4), (2, 2), (5, 5)]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 3)));
    }

    /// Room the buckets keep, in entries.
    fn bucket_capacity<E>(q: &EventQueue<E>) -> usize {
        q.buckets.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn a_drained_burst_gives_its_buffers_back() {
        // 10⁴ events at one far instant, then 10⁴ spread over a second:
        // once both have popped, no buffer keeps room for them.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_secs(1_000), i);
            q.schedule(SimTime::from_nanos(i * 100_000), i);
        }
        q.schedule(SimTime::from_secs(2_000), 0);
        while q.len() > 1 {
            q.pop();
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(2_000), 0)));
        assert!(q.current.capacity() <= KEPT_CAPACITY);
        assert!(bucket_capacity(&q) <= 64 * KEPT_CAPACITY);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Under bursts of schedules at offsets from a nanosecond to days,
        /// interleaved with runs of pops, the room the buckets keep after
        /// every pop is at most twice what they hold, plus what a kept
        /// small buffer may hold in each: a bucket's buffer is either kept
        /// small when the clock empties it or grown by pushes since.
        #[test]
        fn kept_bucket_room_follows_the_pending_events(
            ops in proptest::collection::vec((0u32..2_000, 0u32..48, 0u32..3_000), 1..40),
        ) {
            let mut q = EventQueue::new();
            let mut next = 0u64;
            for (burst, spread, pops) in ops {
                for i in 0..u64::from(burst) {
                    let offset = next.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (63 - spread);
                    next += 1;
                    q.schedule(q.now() + SimDuration::from_nanos(offset), i);
                }
                for _ in 0..pops {
                    if q.pop().is_none() {
                        break;
                    }
                    let pending = q.len() - q.current.len();
                    proptest::prop_assert!(
                        bucket_capacity(&q) <= 2 * pending + 64 * KEPT_CAPACITY,
                        "{} entries of room for {} pending",
                        bucket_capacity(&q),
                        pending
                    );
                }
            }
        }
    }

    #[test]
    fn one_crowded_instant_stays_fifo() {
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_secs(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..1_000).collect::<Vec<_>>());
    }
}
