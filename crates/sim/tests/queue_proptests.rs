//! Differential property battery for the event queue.
//!
//! The queue's contract is *byte-identity*: for any interleaving of
//! schedules and pops, the pop sequence must be exactly what a reference
//! `(time, seq)`-ordered binary heap produces — same times, same FIFO
//! tie-breaks among equal timestamps, same clock trajectory. These tests
//! drive both implementations with arbitrary operation sequences, including
//! hundreds of events at one instant, events flung far into the future, and
//! a steady population of far-off node lifetimes under near-term traffic,
//! the shape a churned simulation gives the queue. Arrival batches whose
//! seqs are reserved up front and whose entries are filed later, the way
//! the engine pulls its submissions, are held to the same reference fed one
//! `schedule` call per entry at reservation: entries filed one ahead of the
//! run, entries that step back below an earlier one, and ties with
//! scheduled events.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

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

/// One step of an interleaved workload: schedule one event `offset_nanos`
/// past the current clock or a block of them, pop `pops` events, drain a
/// window, or reserve seqs for an arrival batch.
#[derive(Clone, Debug)]
enum Op {
    Schedule {
        offset_nanos: u64,
    },
    /// One `Schedule` per offset, with the per-op `len` and `peek_time`
    /// checks made once at the end, so that a block of 10⁴ stays cheap.
    ScheduleAll {
        offsets_nanos: Vec<u64>,
    },
    Pop {
        pops: u8,
    },
    DrainWindow {
        horizon_nanos: u64,
    },
    /// Offsets past the clock of a batch whose seqs are reserved now. The
    /// reference queue takes them as plain `schedule` calls, one after
    /// another; the queue under test is handed them through [`Arrivals`].
    Reserve {
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
        1 => arb_batch(max_offset, 24).prop_map(|offsets_nanos| Op::Reserve { offsets_nanos }),
    ]
}

/// The population a churned simulation holds: first a steady block of
/// 10³–10⁴ node "lifetimes" spread over 10⁴–10⁸ s, then near-term traffic
/// a nanosecond to a second ahead — schedules, pops, drains and reserved
/// batches filed among them.
fn arb_lifetimes_under_traffic() -> impl Strategy<Value = Vec<Op>> {
    const NANOS_PER_SEC: u64 = 1_000_000_000;
    let spread = 10_000 * NANOS_PER_SEC..=100_000_000 * NANOS_PER_SEC;
    let lifetimes = proptest::collection::vec(0..=u32::MAX as u64, 1_000..10_000);
    let traffic = proptest::collection::vec(arb_op_with_batches(NANOS_PER_SEC), 1..400);
    (spread, lifetimes, traffic).prop_map(|(spread, lifetimes, traffic)| {
        let offsets_nanos = lifetimes
            .into_iter()
            .map(|f| ((u128::from(spread) * u128::from(f)) >> 32) as u64)
            .collect();
        let mut ops = vec![Op::ScheduleAll { offsets_nanos }];
        ops.extend(traffic);
        ops
    })
}

fn arb_op(max_offset: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..max_offset).prop_map(|offset_nanos| Op::Schedule { offset_nanos }),
        1 => (1u8..4).prop_map(|pops| Op::Pop { pops }),
    ]
}

/// Like [`arb_op`] but with conservative-window batch drains interleaved:
/// horizons drawn past the current clock so windows of every width — empty,
/// one-event, spanning many buckets, and beyond the whole pending set — all
/// occur.
fn arb_op_with_drains(max_offset: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..max_offset).prop_map(|offset_nanos| Op::Schedule { offset_nanos }),
        1 => (1u8..4).prop_map(|pops| Op::Pop { pops }),
        2 => (0u64..max_offset.saturating_mul(2).max(1))
            .prop_map(|horizon_nanos| Op::DrainWindow { horizon_nanos }),
    ]
}

/// One reserved batch's entries no earlier than every entry before them in
/// the batch, in batch order, as `(time, seq, payload)`, and how many of
/// its staged (filed) ones are still in the queue.
#[derive(Default)]
struct Batch {
    fifo: VecDeque<(SimTime, u64, u64)>,
    staged: usize,
}

/// The harness's stand-in for the engine's arrival stream, once per
/// reserved batch: the entries not yet staged, kept the way the engine
/// keeps its submissions.
#[derive(Default)]
struct Arrivals {
    batches: Vec<Batch>,
    /// The batch of each staged, undelivered entry, by payload.
    in_queue: HashMap<u64, usize>,
}

impl Arrivals {
    /// Reserve seqs for `batch`, stage at once every entry that steps back
    /// below an earlier one, and queue the rest for staging.
    fn reserve(&mut self, queue: &mut EventQueue<u64>, batch: &[(SimTime, u64)]) {
        let first = queue.reserve_seqs(batch.len() as u64);
        let mut fifo = VecDeque::new();
        let mut tail = SimTime::ZERO;
        for (seq, &(at, p)) in (first..).zip(batch) {
            if at < tail {
                queue.file(at, seq, p);
            } else {
                tail = at;
                fifo.push_back((at, seq, p));
            }
        }
        self.batches.push(Batch { fifo, staged: 0 });
        self.stage(queue, self.batches.len() - 1, None);
    }

    /// Stage `b`'s entries before `until`, and its next one if none of it
    /// is in the queue. With no `until` this is the engine's sequential
    /// loop, which stages an arrival when the one before it is delivered;
    /// with one it is the sharded loop before a window drain.
    fn stage(&mut self, queue: &mut EventQueue<u64>, b: usize, until: Option<SimTime>) {
        let batch = &mut self.batches[b];
        while let Some(&(at, seq, p)) = batch.fifo.front() {
            if batch.staged > 0 && until.is_none_or(|end| at >= end) {
                break;
            }
            batch.fifo.pop_front();
            batch.staged += 1;
            self.in_queue.insert(p, b);
            queue.file(at, seq, p);
        }
    }

    fn stage_before(&mut self, queue: &mut EventQueue<u64>, until: SimTime) {
        for b in 0..self.batches.len() {
            self.stage(queue, b, Some(until));
        }
    }

    fn delivered(&mut self, queue: &mut EventQueue<u64>, p: u64) {
        if let Some(b) = self.in_queue.remove(&p) {
            self.batches[b].staged -= 1;
            self.stage(queue, b, None);
        }
    }

    fn unstaged(&self) -> usize {
        self.batches.iter().map(|b| b.fifo.len()).sum()
    }
}

/// Run the same op sequence through both queues and demand identical
/// observable behavior at every step.
fn run_differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    let mut arrivals = Arrivals::default();
    let mut payload = 0u64;
    for op in ops {
        match *op {
            Op::Reserve { ref offsets_nanos } => {
                let now = queue.now().as_nanos();
                let batch: Vec<(SimTime, u64)> = offsets_nanos
                    .iter()
                    .zip(payload..)
                    .map(|(&offset, p)| (SimTime::from_nanos(now + offset), p))
                    .collect();
                payload += batch.len() as u64;
                for &(at, p) in &batch {
                    reference.schedule(at, p);
                }
                arrivals.reserve(&mut queue, &batch);
            }
            Op::Schedule { offset_nanos } => {
                let at = SimTime::from_nanos(queue.now().as_nanos() + offset_nanos);
                queue.schedule(at, payload);
                reference.schedule(at, payload);
                payload += 1;
            }
            Op::ScheduleAll { ref offsets_nanos } => {
                for &offset_nanos in offsets_nanos {
                    let at = SimTime::from_nanos(queue.now().as_nanos() + offset_nanos);
                    queue.schedule(at, payload);
                    reference.schedule(at, payload);
                    payload += 1;
                }
            }
            Op::Pop { pops } => {
                for _ in 0..pops {
                    let got = queue.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got, want, "pop diverged from reference heap");
                    prop_assert_eq!(queue.now(), reference.now, "clock diverged");
                    if let Some((_, p)) = got {
                        arrivals.delivered(&mut queue, p);
                    }
                }
            }
            Op::DrainWindow { horizon_nanos } => {
                let until =
                    SimTime::from_nanos(queue.now().as_nanos().saturating_add(horizon_nanos));
                arrivals.stage_before(&mut queue, until);
                let got: Vec<_> = queue
                    .drain_window(until)
                    .into_iter()
                    .map(|(at, _, e)| (at, e))
                    .collect();
                for &(_, p) in &got {
                    arrivals.delivered(&mut queue, p);
                }
                let want = reference.drain_window(until);
                prop_assert_eq!(got, want, "drain_window diverged from repeated pops");
                prop_assert_eq!(queue.now(), reference.now, "clock diverged after drain");
            }
        }
        prop_assert_eq!(queue.len() + arrivals.unstaged(), reference.heap.len());
        prop_assert_eq!(
            queue.peek_time(),
            reference.heap.peek().map(|(Reverse((at, _)), _)| *at)
        );
    }
    // Drain: the full remaining pop order must match too.
    loop {
        let got = queue.pop();
        let want = reference.pop();
        prop_assert_eq!(got, want, "drain diverged from reference heap");
        let Some((_, p)) = got else { break };
        arrivals.delivered(&mut queue, p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleaved push/pop sequences with near-future offsets —
    /// the simulation's common case.
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

    /// One crowded instant: hundreds of events at the same time, with a
    /// few just after it, popped out in seq order.
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
    /// differ from the clock in the top bits, so an entry moves down many
    /// buckets before it pops.
    #[test]
    fn sparse_far_future_matches_reference(
        ops in proptest::collection::vec(arb_op(u64::MAX / 4096), 1..200),
    ) {
        run_differential(&ops)?;
    }

    /// Mixed density: a cluster of near events plus a handful of far-future
    /// stragglers, popped dry — the clock must jump forward over the gap
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

    /// Ties spread over a few instants: offsets of 0–15 ns put several
    /// times into each low bucket, so a drain takes part of a bucket and
    /// leaves equal-time entries behind out of seq order, which the pop
    /// that reaches them must restore.
    #[test]
    fn drain_window_ties_across_a_few_instants(
        ops in proptest::collection::vec(arb_op_with_drains(16), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// Sparse far-future drains: huge horizons sweep most of a sparse
    /// pending set, spread over many buckets, in one batch.
    #[test]
    fn drain_window_sparse_far_future(
        ops in proptest::collection::vec(arb_op_with_drains(u64::MAX / 4096), 1..200),
    ) {
        run_differential(&ops)?;
    }

    /// Reserved batches filed as the run reaches them, against plain
    /// `schedule` calls at reservation, interleaved with every other op:
    /// the same seqs, pops, drained windows, `len` and `peek_time` at every
    /// step, whether an entry was filed one ahead of the run or stepped
    /// back below an earlier one.
    #[test]
    fn filed_batches_match_one_by_one_schedules(
        ops in proptest::collection::vec(arb_op_with_batches(5_000_000_000), 1..300),
    ) {
        run_differential(&ops)?;
    }

    /// The engine's shape: one long arrival batch reserved first, then the
    /// run creates its own events around it. Offsets of 0–2 ns make a
    /// filed entry tie on time with a scheduled one almost every time.
    #[test]
    fn filed_same_timestamp_ties_go_by_seq(
        first in arb_batch(2, 300),
        ops in proptest::collection::vec(arb_op_with_batches(2), 1..300),
    ) {
        let mut all = vec![Op::Reserve { offsets_nanos: first }];
        all.extend(ops);
        run_differential(&all)?;
    }

    /// Reserved batches over a few instants: a step-back entry, filed at
    /// once, and a later-filed entry one ahead of the run often share a
    /// time, and the one with the lower seq is filed second.
    #[test]
    fn filed_ties_across_a_few_instants(
        ops in proptest::collection::vec(arb_op_with_batches(16), 1..300),
    ) {
        run_differential(&ops)?;
    }

    /// Sparse far-future batches: filed entries thousands of simulated
    /// years apart, beside scheduled ones as far out.
    #[test]
    fn filed_sparse_far_future(
        ops in proptest::collection::vec(arb_op_with_batches(u64::MAX / 4096), 1..200),
    ) {
        run_differential(&ops)?;
    }

    /// Far-off lifetimes under near-term traffic, popped dry at the end:
    /// the traffic and the filed batches pop in `(time, seq)` order beside
    /// a population that never moves until the clock comes near it.
    #[test]
    fn lifetimes_under_near_term_traffic_match_reference(ops in arb_lifetimes_under_traffic()) {
        run_differential(&ops)?;
    }
}
