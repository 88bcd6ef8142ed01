//! Differential property battery for the calendar event queue.
//!
//! The queue's contract is *byte-identity*: for any interleaving of
//! schedules and pops, the pop sequence must be exactly what a reference
//! `(time, seq)`-ordered binary heap produces — same times, same FIFO
//! tie-breaks among equal timestamps, same clock trajectory. These tests
//! drive both implementations with arbitrary operation sequences, including
//! the calendar's resize edge cases: thousands of events on one calendar
//! day (all-one-epoch) and sparse events flung far into the future (the
//! direct-search fallback path). Batches handed to `schedule_sorted` are
//! held to the same reference fed one `schedule` call per entry, which
//! covers the sorted run beside the calendar: entries that join it, entries
//! that step back into the calendar, and ties between the two.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dgrid_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// The pre-calendar implementation, kept verbatim as the ground truth:
/// a max-heap on `Reverse((at, seq))` with the same clock semantics.
struct ReferenceQueue<E> {
    heap: BinaryHeap<(Reverse<(SimTime, u64)>, E)>,
    seq: u64,
    now: SimTime,
}

impl<E: Ord> ReferenceQueue<E> {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push((Reverse((at, seq)), event));
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|(Reverse((at, _)), e)| {
            self.now = at;
            (at, e)
        })
    }

    /// Reference semantics for `drain_window`: repeated sequential pops of
    /// everything before `until`, except the clock advances only to the
    /// *first* drained timestamp (the window's opening event), matching the
    /// calendar's conservative-window contract.
    fn drain_window(&mut self, until: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        let start = self.now;
        while self
            .heap
            .peek()
            .is_some_and(|(Reverse((at, _)), _)| *at < until)
        {
            let (at, e) = self.pop().unwrap();
            out.push((at, e));
        }
        self.now = out.first().map_or(start, |&(at, _)| at);
        out
    }
}

/// One step of an interleaved workload: schedule an event `offset_nanos`
/// past the current clock, pop `pops` events, drain a window, or hand a
/// batch to `schedule_sorted`.
#[derive(Clone, Debug)]
enum Op {
    Schedule {
        offset_nanos: u64,
    },
    Pop {
        pops: u8,
    },
    DrainWindow {
        horizon_nanos: u64,
    },
    /// Offsets past the clock. The reference queue takes them as plain
    /// `schedule` calls, one after another.
    ScheduleSorted {
        offsets_nanos: Vec<u64>,
    },
}

/// A batch of offsets that mostly ascends, with ties (zero steps) and
/// now and then a step back below the previous entry.
fn arb_batch(max_offset: u64, max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    let max_step = (max_offset / 8).max(1);
    let step = prop_oneof![1 => Just(0u64), 3 => 0..max_step];
    // One step in eight goes back.
    proptest::collection::vec((step, 0u8..8), 0..max_len).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(step, dir)| {
                if dir == 0 {
                    t.saturating_sub(step)
                } else {
                    t = t.saturating_add(step);
                    t
                }
            })
            .collect()
    })
}

/// Every op kind interleaved: batches land before and after pops and
/// drains have moved the clock, and beside events `schedule` put there.
fn arb_op_with_batches(max_offset: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..max_offset).prop_map(|offset_nanos| Op::Schedule { offset_nanos }),
        2 => (1u8..4).prop_map(|pops| Op::Pop { pops }),
        1 => (0u64..max_offset.saturating_mul(2).max(1))
            .prop_map(|horizon_nanos| Op::DrainWindow { horizon_nanos }),
        1 => arb_batch(max_offset, 24).prop_map(|offsets_nanos| Op::ScheduleSorted { offsets_nanos }),
    ]
}

fn arb_op(max_offset: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..max_offset).prop_map(|offset_nanos| Op::Schedule { offset_nanos }),
        1 => (1u8..4).prop_map(|pops| Op::Pop { pops }),
    ]
}

/// Like [`arb_op`] but with conservative-window batch drains interleaved:
/// horizons drawn past the current clock so windows of every width — empty,
/// one-event, spanning multiple calendar days, and beyond the whole pending
/// set — all occur.
fn arb_op_with_drains(max_offset: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..max_offset).prop_map(|offset_nanos| Op::Schedule { offset_nanos }),
        1 => (1u8..4).prop_map(|pops| Op::Pop { pops }),
        2 => (0u64..max_offset.saturating_mul(2).max(1))
            .prop_map(|horizon_nanos| Op::DrainWindow { horizon_nanos }),
    ]
}

/// Run the same op sequence through both queues and demand identical
/// observable behavior at every step.
fn run_differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cal = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    let mut payload = 0u64;
    for op in ops {
        match *op {
            Op::ScheduleSorted { ref offsets_nanos } => {
                let now = cal.now().as_nanos();
                let batch: Vec<(SimTime, u64)> = offsets_nanos
                    .iter()
                    .zip(payload..)
                    .map(|(&offset, p)| (SimTime::from_nanos(now + offset), p))
                    .collect();
                payload += batch.len() as u64;
                for &(at, p) in &batch {
                    reference.schedule(at, p);
                }
                cal.schedule_sorted(batch);
            }
            Op::Schedule { offset_nanos } => {
                let at = SimTime::from_nanos(cal.now().as_nanos() + offset_nanos);
                cal.schedule(at, payload);
                reference.schedule(at, payload);
                payload += 1;
            }
            Op::Pop { pops } => {
                for _ in 0..pops {
                    let got = cal.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got, want, "pop diverged from reference heap");
                    prop_assert_eq!(cal.now(), reference.now, "clock diverged");
                }
            }
            Op::DrainWindow { horizon_nanos } => {
                let until = SimTime::from_nanos(cal.now().as_nanos().saturating_add(horizon_nanos));
                let got: Vec<_> = cal
                    .drain_window(until)
                    .into_iter()
                    .map(|(at, _, e)| (at, e))
                    .collect();
                let want = reference.drain_window(until);
                prop_assert_eq!(got, want, "drain_window diverged from repeated pops");
                prop_assert_eq!(cal.now(), reference.now, "clock diverged after drain");
            }
        }
        prop_assert_eq!(cal.len(), reference.heap.len());
        prop_assert_eq!(
            cal.peek_time(),
            reference.heap.peek().map(|(Reverse((at, _)), _)| *at)
        );
    }
    // Drain: the full remaining pop order must match too.
    loop {
        let got = cal.pop();
        let want = reference.pop();
        prop_assert_eq!(got, want, "drain diverged from reference heap");
        if got.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleaved push/pop sequences with near-future offsets —
    /// the simulation's common case, crossing grow and shrink thresholds.
    #[test]
    fn interleaved_ops_match_reference(
        ops in proptest::collection::vec(arb_op(5_000_000_000), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// Heavy same-timestamp pressure: offsets drawn from {0, 1} nanoseconds
    /// pile many events onto identical instants, so every pop exercises the
    /// FIFO tie-break.
    #[test]
    fn same_timestamp_fifo_matches_reference(
        ops in proptest::collection::vec(arb_op(2), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// All-one-epoch resize edge case: hundreds of events land on a single
    /// calendar day, then interleaved pops shrink the calendar back down.
    #[test]
    fn all_one_epoch_matches_reference(
        times in proptest::collection::vec(Just(0u64), 64..512),
        extra in proptest::collection::vec(0u64..1_000, 0..64),
    ) {
        let mut ops: Vec<Op> = times
            .iter()
            .chain(extra.iter())
            .map(|&offset_nanos| Op::Schedule { offset_nanos })
            .collect();
        ops.push(Op::Pop { pops: 3 });
        ops.extend(std::iter::repeat_n(Op::Pop { pops: 3 }, 250));
        run_differential(&ops)?;
    }

    /// Sparse far-future events: offsets up to thousands of simulated years
    /// force the one-lap scan to fail and the direct-search fallback (with
    /// its cursor jump) to take over, across repeated resizes.
    #[test]
    fn sparse_far_future_matches_reference(
        ops in proptest::collection::vec(arb_op(u64::MAX / 4096), 1..200),
    ) {
        run_differential(&ops)?;
    }

    /// Mixed density: a cluster of near events plus a handful of far-future
    /// stragglers, popped dry — the cursor must jump forward over the gap
    /// and still respect (time, seq) order on the far side.
    #[test]
    fn near_cluster_with_far_stragglers_matches_reference(
        near in proptest::collection::vec(0u64..1_000_000, 1..100),
        far in proptest::collection::vec(1u64 << 50..1u64 << 60, 1..8),
    ) {
        let ops: Vec<Op> = near
            .iter()
            .chain(far.iter())
            .map(|&offset_nanos| Op::Schedule { offset_nanos })
            .collect();
        run_differential(&ops)?;
    }

    /// Conservative-window batch drains interleaved with schedules and
    /// single pops: every drained batch must equal the sequence repeated
    /// sequential pops before the horizon would produce, with the clock at
    /// the window's first event afterwards.
    #[test]
    fn drain_window_matches_repeated_pops_interleaved(
        ops in proptest::collection::vec(arb_op_with_drains(5_000_000_000), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// Same-instant pressure under drains: horizons of 0–2 ns mean windows
    /// frequently split FIFO runs of identical timestamps, which must land
    /// on the correct side of the horizon in the correct order.
    #[test]
    fn drain_window_same_timestamp_fifo(
        ops in proptest::collection::vec(arb_op_with_drains(2), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// Sparse far-future drains: huge horizons sweep most of a sparse
    /// calendar in one batch (the full-scan path) across repeated resizes.
    #[test]
    fn drain_window_sparse_far_future(
        ops in proptest::collection::vec(arb_op_with_drains(u64::MAX / 4096), 1..200),
    ) {
        run_differential(&ops)?;
    }

    /// `schedule_sorted` against plain `schedule` calls, interleaved with
    /// every other op: the same seqs, pops, drained windows, `len` and
    /// `peek_time` at every step, whether an entry joined the sorted run or
    /// stepped back into the calendar.
    #[test]
    fn schedule_sorted_matches_one_by_one_schedules(
        ops in proptest::collection::vec(arb_op_with_batches(5_000_000_000), 1..300),
    ) {
        run_differential(&ops)?;
    }

    /// The engine's shape: one long arrival batch first, then the run
    /// creates its own events around it. Offsets of 0–2 ns make the
    /// run-versus-calendar comparison a tie on time almost every time.
    #[test]
    fn schedule_sorted_same_timestamp_ties_go_by_seq(
        first in arb_batch(2, 300),
        ops in proptest::collection::vec(arb_op_with_batches(2), 1..300),
    ) {
        let mut all = vec![Op::ScheduleSorted { offsets_nanos: first }];
        all.extend(ops);
        run_differential(&all)?;
    }

    /// Sparse far-future batches: run heads more than a calendar lap past
    /// the cursor, settled against the calendar by the full search.
    #[test]
    fn schedule_sorted_sparse_far_future(
        ops in proptest::collection::vec(arb_op_with_batches(u64::MAX / 4096), 1..200),
    ) {
        run_differential(&ops)?;
    }
}
