//! Stable, deterministic event queue.
//!
//! The queue orders events by `(time, sequence number)`, so events scheduled
//! for the same simulated instant are delivered in FIFO order. This stability
//! is what makes a whole simulation a pure function of its seed.
//!
//! Internally this is a *calendar queue* (Brown 1988): pending events are
//! hashed into `nbuckets` power-of-two-width time buckets ("days") and the
//! dequeue cursor walks days in order, so the common near-future schedule
//! pattern of a discrete-event simulation pays O(1) amortized per operation
//! instead of the binary heap's O(log n). Two properties are load-bearing:
//!
//! * **Byte-identity.** `pop` always returns the global minimum under the
//!   total `(time, seq)` order — the selection scans candidate entries and
//!   compares the full key, so the pop sequence is exactly the one the old
//!   `BinaryHeap` implementation produced, regardless of bucket layout,
//!   resize history, or insertion order. `tests/queue_proptests.rs` checks
//!   this differentially against a reference heap.
//! * **Graceful sparse degradation.** When the next event is far in the
//!   future (low event density), the cursor would have to walk many empty
//!   days; after one fruitless lap over the calendar the queue falls back to
//!   a direct O(n) search for the minimum and jumps the cursor there, so a
//!   sparse queue costs a linear scan per pop instead of an unbounded walk.
//!
//! Beside the calendar sits an append-only **sorted run**. A simulation
//! knows its whole arrival stream before the first event fires, but
//! bucketing 10⁵ submissions would grow the calendar to 2¹⁸ buckets, each
//! its own heap vector, only to shrink it again as they drain; holding them
//! all in the queue would also keep every one in memory from the start.
//! Instead the caller sets a block of seqs aside for its arrivals with
//! [`EventQueue::reserve_seqs`] and hands each one over later, when the
//! run reaches it, with [`EventQueue::stage`]: an entry no earlier than the
//! run's tail joins the run, any other goes into the calendar, and either
//! way it carries its reserved seq. `schedule` itself only ever fills the
//! calendar. Every read compares the run head with the calendar minimum on
//! the full `(time, seq)` key, so an entry pops exactly where it would
//! have, had it been scheduled when its seq was reserved — provided it is
//! staged before anything later than it pops. Ties cannot move either:
//! the run is sorted by `(time, seq)` because appends only grow the key,
//! and the engine reserves its submissions' seqs before any other event
//! exists, so at equal times a submission's lower seq puts it first in
//! both structures.
//!
//! Reserved seqs also serve lease expiries, through
//! [`EventQueue::file`], which takes a reserved seq into the calendar. The
//! engine reserves one seq each time it arms a lease's expiry, where it
//! used to schedule an event, so every later seq is what it was; but it
//! keeps only one expiry per leased job in the queue. An expiry that
//! finds its lease renewed files the latest armed one under the seq
//! reserved for it, which therefore pops at exactly the `(time, seq)` it
//! would have had if scheduled when armed. A renewal no longer leaves an
//! event behind that does nothing when it pops.

use std::collections::VecDeque;
use std::fmt;

use crate::time::{SimDuration, SimTime};

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// Smallest calendar size; also the resize hysteresis floor.
const MIN_BUCKETS: usize = 16;
/// Largest calendar size (2^20 buckets ≈ 8 MiB of headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Widest permitted bucket (2^40 ns ≈ 18.3 simulated minutes).
const MAX_SHIFT: u32 = 40;
/// Initial bucket width of 2^30 ns ≈ 1.07 s — the natural spacing of
/// heartbeat/maintenance traffic this queue mostly carries.
const INITIAL_SHIFT: u32 = 30;
/// How many head-of-queue events a resize samples to pick the bucket
/// width. Sizing from the head instead of the full span keeps a backlog
/// of far-future stragglers — e.g. 10⁴ node-failure times drawn from a
/// long-tailed MTTF — from stretching every bucket to the cap and
/// cramming the whole active near-term schedule into one giant bucket
/// that every pop would then re-scan.
const WIDTH_SAMPLE: usize = 64;

/// A discrete-event priority queue with a built-in virtual clock.
///
/// Popping an event advances [`EventQueue::now`] to that event's timestamp;
/// scheduling into the past is a logic error and panics.
pub struct EventQueue<E> {
    /// `buckets[day & (nbuckets - 1)]` holds every pending event whose
    /// `at >> bucket_shift` is congruent to that index; a bucket can mix
    /// events from different calendar "years".
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width is `1 << bucket_shift` nanoseconds.
    bucket_shift: u32,
    /// First day the dequeue scan considers. Invariant: no pending event
    /// lives on an earlier day (`at >> bucket_shift >= cursor_day`).
    cursor_day: u64,
    /// Entries in the calendar; the run counts its own.
    len: usize,
    /// Entries handed to [`EventQueue::stage`] in `(at, seq)` order,
    /// delivered from the front.
    run: VecDeque<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The queue's shape, not its events: where the pending entries live.
impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("run", &self.run.len())
            .field("calendar", &self.len)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            bucket_shift: INITIAL_SHIFT,
            cursor_day: 0,
            len: 0,
            run: VecDeque::new(),
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
        self.len + self.run.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.run.is_empty()
    }

    /// `(bucket count, calendar entries)`.
    #[cfg(test)]
    fn calendar_shape(&self) -> (usize, usize) {
        (self.buckets.len(), self.len)
    }

    fn day_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.bucket_shift
    }

    fn bucket_of(&self, day: u64) -> usize {
        (day as usize) & (self.buckets.len() - 1)
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than [`EventQueue::now`] — the simulation cannot
    /// rewrite history.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} < now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.push_calendar(Entry { at, seq, event });
    }

    /// File `e` under its day, growing the calendar when it runs full.
    #[inline(always)]
    fn push_calendar(&mut self, e: Entry<E>) {
        let day = self.day_of(e.at);
        debug_assert!(day >= self.cursor_day);
        let idx = self.bucket_of(day);
        self.buckets[idx].push(e);
        self.len += 1;
        // The cap keeps a huge backlog from rebuilding on every push once
        // the calendar can no longer grow.
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Set the next `n` seqs aside for entries handed over later through
    /// [`EventQueue::stage`], and return the first of them. Events
    /// scheduled afterwards get later seqs, so at equal times every reserved
    /// entry pops before them.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Hand over `event` at `at` under `seq`, one set aside by
    /// [`EventQueue::reserve_seqs`]. It pops exactly where it would have,
    /// had it been scheduled when `seq` was reserved, as long as it is
    /// staged before any later entry pops. It joins the sorted run when no
    /// earlier than the run's tail on `(time, seq)`, so staging a
    /// nondecreasing stream never touches the calendar; any other entry goes
    /// into the calendar.
    ///
    /// # Panics
    /// If `at` is earlier than [`EventQueue::now`], like `schedule`.
    pub fn stage(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} < now={:?}",
            self.now
        );
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        if self
            .run
            .back()
            .is_none_or(|tail| (tail.at, tail.seq) < (at, seq))
        {
            self.run.push_back(Entry { at, seq, event });
        } else {
            self.push_calendar(Entry { at, seq, event });
        }
    }

    /// Hand over `event` at `at` under `seq`, one set aside by
    /// [`EventQueue::reserve_seqs`], straight into the calendar. Like an
    /// entry [`EventQueue::stage`] takes, it pops exactly where it would
    /// have, had it been scheduled when `seq` was reserved, as long as it
    /// is filed before any later entry pops; unlike one, it never joins the
    /// sorted run, which stays the arrival stream's.
    ///
    /// # Panics
    /// If `at` is earlier than [`EventQueue::now`], like `schedule`.
    pub fn file(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} < now={:?}",
            self.now
        );
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        self.push_calendar(Entry { at, seq, event });
    }

    /// Locate the next entry to deliver: `(bucket index, position in bucket)`.
    ///
    /// Walks one calendar lap of days starting at `cursor_day`; each visited
    /// day selects the minimum `(at, seq)` among that day's entries, which is
    /// the *global* minimum because no pending entry lives on an earlier day.
    /// If a whole lap comes up empty (sparse far-future events), falls back
    /// to a direct scan of every bucket for the global minimum.
    // Forced inline: with a third caller (`locate_before_run`) the compiler
    // keeps this a call, which cost the `pop` + `schedule` hold loop 3–4 ns
    // per op at 1k and 100k pending.
    #[inline(always)]
    fn locate_min(&self) -> Option<(u64, usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        for offset in 0..nbuckets {
            let day = self.cursor_day + offset;
            let idx = self.bucket_of(day);
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (pos, e) in self.buckets[idx].iter().enumerate() {
                if self.day_of(e.at) == day
                    && best.is_none_or(|(at, seq, _)| (e.at, e.seq) < (at, seq))
                {
                    best = Some((e.at, e.seq, pos));
                }
            }
            if let Some((_, _, pos)) = best {
                return Some((day, idx, pos));
            }
        }
        // Sparse fallback: one lap found nothing, so every pending event is
        // at least a full calendar year past the cursor. Direct-search the
        // global minimum and jump there.
        let mut best: Option<(SimTime, u64, usize, usize)> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            for (pos, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(at, seq, _, _)| (e.at, e.seq) < (at, seq)) {
                    best = Some((e.at, e.seq, idx, pos));
                }
            }
        }
        best.map(|(at, _, idx, pos)| (self.day_of(at), idx, pos))
    }

    /// The calendar entry to deliver before the run head, if there is one,
    /// located like [`EventQueue::locate_min`] does.
    ///
    /// The day walk stops at the head's day, since an entry on a later day
    /// is later than the head; without that bound a calendar holding only
    /// far-off events would send every run pop into the sparse fallback.
    /// Only when the head lies more than a lap past the cursor can the walk
    /// end empty-handed short of it, and then the full search decides.
    fn locate_before_run(&self, head: &Entry<E>) -> Option<(u64, usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let head_day = self.day_of(head.at);
        let last_day = head_day.min(self.cursor_day + self.buckets.len() as u64 - 1);
        let precedes = |e: &Entry<E>| (e.at, e.seq) < (head.at, head.seq);
        for day in self.cursor_day..=last_day {
            let idx = self.bucket_of(day);
            let first = self.buckets[idx]
                .iter()
                .enumerate()
                .filter(|(_, e)| self.day_of(e.at) == day)
                .min_by_key(|(_, e)| (e.at, e.seq));
            if let Some((pos, e)) = first {
                return precedes(e).then_some((day, idx, pos));
            }
        }
        if last_day == head_day {
            return None;
        }
        self.locate_min()
            .filter(|&(_, idx, pos)| precedes(&self.buckets[idx][pos]))
    }

    /// Remove and return the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.run.is_empty() {
            return self.pop_beside_run();
        }
        let (day, idx, pos) = self.locate_min()?;
        Some(self.take_from_calendar(day, idx, pos))
    }

    /// `pop` while the run is non-empty: the calendar entry that precedes
    /// the run head, or else the head itself. The head is then the global
    /// minimum, so the cursor may jump to its day. Out of line, so that
    /// with an empty run `pop` compiles to the calendar's code alone.
    #[inline(never)]
    fn pop_beside_run(&mut self) -> Option<(SimTime, E)> {
        let head = self.run.front()?;
        if let Some((day, idx, pos)) = self.locate_before_run(head) {
            return Some(self.take_from_calendar(day, idx, pos));
        }
        let e = self.run.pop_front()?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.cursor_day = self.day_of(e.at);
        Some((e.at, e.event))
    }

    /// Remove the calendar entry at `(day, idx, pos)`, the next to deliver.
    #[inline(always)]
    fn take_from_calendar(&mut self, day: u64, idx: usize, pos: usize) -> (SimTime, E) {
        let e = self.buckets[idx].swap_remove(pos);
        self.len -= 1;
        self.cursor_day = day;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        (e.at, e.event)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let loc = match self.run.front() {
            None => self.locate_min(),
            Some(head) => match self.locate_before_run(head) {
                None => return Some(head.at),
                loc => loc,
            },
        };
        loc.map(|(_, idx, pos)| self.buckets[idx][pos].at)
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
        if self.is_empty() || until <= self.now {
            return Vec::new();
        }
        let last_day = self.day_of(SimTime::from_nanos(until.as_nanos() - 1));
        let mut drained: Vec<Entry<E>> = Vec::new();
        if last_day - self.cursor_day + 1 >= self.buckets.len() as u64 {
            // The window spans at least one full calendar lap: every bucket
            // can hold eligible entries, so scan them all.
            for bucket in &mut self.buckets {
                let mut pos = 0;
                while pos < bucket.len() {
                    if bucket[pos].at < until {
                        drained.push(bucket.swap_remove(pos));
                    } else {
                        pos += 1;
                    }
                }
            }
        } else {
            // Narrow window: only the buckets of days `cursor_day..=last_day`
            // can hold eligible entries (no pending event lives on an earlier
            // day), and the range is shorter than a lap so each bucket is
            // visited at most once.
            for day in self.cursor_day..=last_day {
                let idx = self.bucket_of(day);
                let mut pos = 0;
                while pos < self.buckets[idx].len() {
                    if self.buckets[idx][pos].at < until {
                        let e = self.buckets[idx].swap_remove(pos);
                        drained.push(e);
                    } else {
                        pos += 1;
                    }
                }
            }
        }
        self.len -= drained.len();
        // The run is sorted, so its entries before `until` are a prefix.
        let from_run = self.run.partition_point(|e| e.at < until);
        drained.extend(self.run.drain(..from_run));
        drained.sort_unstable_by_key(|e| (e.at, e.seq));
        if let Some(first) = drained.first() {
            debug_assert!(first.at >= self.now);
            self.now = first.at;
            self.cursor_day = self.day_of(first.at);
        }
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        drained
            .into_iter()
            .map(|e| (e.at, e.seq, e.event))
            .collect()
    }

    /// Drop all pending events (the clock is left unchanged).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.run = VecDeque::new();
    }

    /// Rebuild the calendar: pick a bucket count proportional to the live
    /// event count and a power-of-two bucket width near the mean spacing
    /// of the nearest [`WIDTH_SAMPLE`] events, then redistribute.
    /// Deterministic — the choice depends only on the pending set — though
    /// correctness never depends on layout.
    fn resize(&mut self) {
        let target = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        let shift = if entries.len() < 2 {
            INITIAL_SHIFT
        } else {
            // Mean inter-event spacing over the nearest WIDTH_SAMPLE
            // events, rounded down to a power of two.
            let k = WIDTH_SAMPLE.min(entries.len());
            let mut times: Vec<u64> = entries.iter().map(|e| e.at.as_nanos()).collect();
            let (head, kth, _) = times.select_nth_unstable(k - 1);
            let lo = head.iter().copied().min().unwrap_or(*kth);
            let hi = *kth;
            if hi <= lo {
                INITIAL_SHIFT
            } else {
                let spacing = (hi - lo) / k as u64;
                spacing.max(1).ilog2().min(MAX_SHIFT)
            }
        };
        self.bucket_shift = shift;
        self.cursor_day = self.now.as_nanos() >> shift;
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
        }
        for e in entries {
            let idx = self.bucket_of(self.day_of(e.at));
            self.buckets[idx].push(e);
        }
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
    fn clear_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
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
    fn far_future_event_is_found_by_sparse_fallback() {
        // One event many calendar years past the cursor: the lap scan fails
        // and the direct search must find it (and jump the cursor there).
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
    fn grow_resize_preserves_order() {
        // Push well past the grow threshold (2 × nbuckets) with a spread of
        // timestamps, forcing at least one rebuild mid-stream.
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
    fn shrink_resize_keeps_fifo_ties() {
        // Grow the calendar, drain to trigger shrink resizes, and verify the
        // same-timestamp FIFO tie-break survives every rebuild.
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
    fn drain_window_far_horizon_spans_whole_calendar() {
        // A horizon beyond every pending event takes the full-scan path and
        // still returns the exact (time, seq) order.
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

    /// Stage `batch` under seqs reserved for it, in order; its entries'
    /// payloads are their positions in the batch.
    fn stage_all(q: &mut EventQueue<usize>, batch: &[u64]) {
        let first = q.reserve_seqs(batch.len() as u64);
        for (i, &t) in batch.iter().enumerate() {
            q.stage(SimTime::from_secs(t), first + i as u64, i);
        }
    }

    #[test]
    fn an_ascending_stream_staged_one_ahead_leaves_the_calendar_at_its_floor() {
        // 10⁵ arrivals, three to a millisecond, each staged when the one
        // before it pops: the run never holds more than one, and delivering
        // them never grows the calendar.
        let mut q = EventQueue::new();
        let n = 100_000u64;
        let at = |i: u64| SimTime::from_millis(i / 3);
        let first = q.reserve_seqs(n);
        q.stage(at(0), first, 0);
        for want in 0..n {
            assert!(format!("{q:?}").contains("run: 1,"));
            assert_eq!(q.pop(), Some((at(want), want)));
            if want + 1 < n {
                q.stage(at(want + 1), first + want + 1, want + 1);
            }
            assert_eq!(q.calendar_shape(), (MIN_BUCKETS, 0));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn staging_sends_steps_back_to_the_calendar() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 100);
        stage_all(&mut q, &[5, 3, 5, 7, 1, 7]);
        // 3 and 1 step back from the run's tail; 5, 5, 7, 7 join the run.
        assert_eq!(q.calendar_shape(), (MIN_BUCKETS, 3));
        assert_eq!(q.len(), 7);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Ties go by seq across both structures: the calendar's 100 was
        // scheduled before the run's 0 and 2.
        assert_eq!(order, vec![4, 1, 100, 0, 2, 3, 5]);
    }

    #[test]
    fn a_staged_entry_keeps_its_reserved_place_among_equal_times() {
        // Two seqs set aside, then an event scheduled at the same time; the
        // reserved entries are staged later, the second one first.
        let mut q = EventQueue::new();
        let first = q.reserve_seqs(2);
        let t = SimTime::from_secs(5);
        q.schedule(t, "scheduled");
        q.stage(t, first + 1, "second");
        q.stage(t, first, "first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "second", "scheduled"]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn staging_into_the_past_panics() {
        let mut q = EventQueue::new();
        let first = q.reserve_seqs(1);
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.stage(SimTime::from_secs(1), first, ());
    }

    #[test]
    fn run_head_more_than_a_lap_out_is_settled_by_the_full_search() {
        // Both the run head and the calendar entry lie far beyond one lap
        // of the cursor, in either order.
        for (cal, run) in [(500_000, 1_000_000), (2_000_000, 1_000_000)] {
            let mut q = EventQueue::new();
            let seq = q.reserve_seqs(1);
            q.stage(SimTime::from_secs(run), seq, "run");
            q.schedule(SimTime::from_secs(cal), "cal");
            let first = if cal < run { "cal" } else { "run" };
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(cal.min(run))));
            assert_eq!(q.pop().map(|(_, e)| e), Some(first));
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop().map(|(at, _)| at),
                Some(SimTime::from_secs(cal.max(run)))
            );
        }
    }

    #[test]
    fn drain_window_takes_the_run_prefix_in_seq_order() {
        let mut q = EventQueue::new();
        stage_all(&mut q, &[0, 0, 1, 4]);
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

    #[test]
    fn all_one_epoch_stays_fifo_through_resizes() {
        // Every event on the same calendar day: selection degrades to a
        // bucket scan but the (at, seq) order must be exact.
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_secs(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..1_000).collect::<Vec<_>>());
    }
}
