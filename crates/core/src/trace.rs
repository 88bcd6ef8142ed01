//! Lifecycle tracing.
//!
//! An [`Observer`] receives every externally meaningful transition of the
//! Figure-1 lifecycle as it happens in virtual time. Observers power
//! debugging, Gantt-style visualization, and the ordering assertions in the
//! test suite, without the engine paying anything when tracing is off (the
//! default observer is a no-op and the calls inline away).
//!
//! Beyond in-memory collection ([`VecObserver`]) the stream can be exported
//! as JSON Lines ([`JsonlObserver`]) — one event per line with its virtual
//! timestamp in integer nanoseconds, so a fixed seed replays a byte-identical
//! file — or as the compact [`binary`] frame format
//! ([`BinaryObserver`](binary::BinaryObserver), `dgrid events convert`), and
//! assembled into per-job phase spans
//! ([`SpanAssembler`](crate::SpanAssembler)) that decompose Figure 2's wait
//! time into routing, matchmaking, dispatch, and recovery segments.

pub mod binary;

use std::io::Write;

use dgrid_resources::JobId;
use dgrid_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::job::OwnerRef;
use crate::node::GridNodeId;

/// One lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A client submitted (or resubmitted) a job.
    Submitted {
        /// The job.
        job: JobId,
        /// How many resubmissions preceded this one.
        resubmits: u32,
    },
    /// The overlay assigned an owner (Figure 1, step 2).
    OwnerAssigned {
        /// The job.
        job: JobId,
        /// The owner (peer or server).
        owner: OwnerRef,
    },
    /// Matchmaking chose a run node (Figure 1, step 3).
    Matched {
        /// The job.
        job: JobId,
        /// The chosen run node.
        run_node: GridNodeId,
        /// Overlay hops the search cost.
        hops: u32,
    },
    /// The job began executing.
    Started {
        /// The job.
        job: JobId,
        /// Where it runs.
        run_node: GridNodeId,
    },
    /// Execution finished; results return to the client (Figure 1, step 6).
    ///
    /// Emitted when the run node finishes executing; the result transfer
    /// (direct or by-reference through the DHT) is still in flight and
    /// lands at `results_at`, which therefore equals the job's turnaround
    /// instant. Keeping the event at completion time preserves the
    /// nondecreasing emission order; keeping `results_at` in the payload
    /// lets span assembly account for the result-return phase exactly.
    Completed {
        /// The job.
        job: JobId,
        /// When the results reach the client (`>=` the event time).
        results_at: SimTime,
    },
    /// The job permanently failed.
    Failed {
        /// The job.
        job: JobId,
    },
    /// A node departed (failure or graceful leave).
    NodeDown {
        /// The node.
        node: GridNodeId,
        /// Whether the departure was announced.
        graceful: bool,
    },
    /// A node (re)joined.
    NodeUp {
        /// The node.
        node: GridNodeId,
    },
    /// The owner detected a run-node failure and is rematching.
    RunRecovery {
        /// The affected job.
        job: JobId,
    },
    /// The run node replaced a failed owner.
    OwnerRecovery {
        /// The affected job.
        job: JobId,
    },
    /// The owner's lease on a job ran out (no renewal within ttl + grace).
    LeaseExpired {
        /// The affected job.
        job: JobId,
    },
    /// An expired lease was granted to a freshly placed owner.
    LeaseTransferred {
        /// The affected job.
        job: JobId,
        /// The new owner peer.
        owner: GridNodeId,
    },
}

/// Receives lifecycle events in virtual-time order.
pub trait Observer {
    /// Called once per event, in nondecreasing `at` order.
    fn on_event(&mut self, at: SimTime, event: TraceEvent);

    /// How many stream bytes this observer has written so far, if it is a
    /// stream writer. Lets the engine report `stream_bytes_written` without
    /// owning the observer.
    fn bytes_written(&self) -> Option<u64> {
        None
    }
}

/// The default no-op observer.
#[derive(Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline]
    fn on_event(&mut self, _at: SimTime, _event: TraceEvent) {}
}

/// Collects every event into a vector (tests, offline analysis).
#[derive(Default)]
pub struct VecObserver {
    /// The recorded `(time, event)` pairs, in emission order.
    pub events: Vec<(SimTime, TraceEvent)>,
}

impl Observer for VecObserver {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.events.push((at, event));
    }
}

impl VecObserver {
    /// All events concerning one job, in order.
    pub fn for_job(&self, job: JobId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|(_, e)| e.job() == Some(job))
            .map(|(_, e)| e)
            .collect()
    }
}

/// One exported line of the JSONL event stream: a virtual timestamp in
/// integer nanoseconds plus the event, exactly as [`JsonlObserver`] writes
/// it and `dgrid report` reads it back.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Virtual emission time, nanoseconds since simulation start.
    pub t_ns: u64,
    /// The lifecycle event.
    pub event: TraceEvent,
}

/// Streams every event as one JSON line (`{"t_ns":...,"event":...}`) with
/// its virtual timestamp. The same seed produces a byte-identical stream,
/// which the CI determinism job asserts with a plain `diff`.
///
/// Lines are rendered by [`write_event_line`] into a scratch buffer that is
/// reused across events, so the per-event cost is one formatted line plus
/// one `write_all` — no `Value` tree or fresh `String` per event (the
/// vendored `serde_json::to_writer` builds both).
pub struct JsonlObserver<W: Write> {
    sink: W,
    scratch: String,
    bytes: u64,
}

impl<W: Write> JsonlObserver<W> {
    /// Stream events into `sink`. Wrap files in a `BufWriter` — the
    /// observer writes one line per event.
    pub fn new(sink: W) -> Self {
        JsonlObserver {
            sink,
            scratch: String::with_capacity(96),
            bytes: 0,
        }
    }

    /// Flush and return the sink.
    pub fn into_inner(mut self) -> W {
        self.sink.flush().expect("flush event stream");
        self.sink
    }
}

impl<W: Write> Observer for JsonlObserver<W> {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.scratch.clear();
        write_event_line(&mut self.scratch, at.as_nanos(), &event);
        self.sink
            .write_all(self.scratch.as_bytes())
            .expect("write event stream");
        self.bytes += self.scratch.len() as u64;
    }

    fn bytes_written(&self) -> Option<u64> {
        Some(self.bytes)
    }
}

/// Render one event as its JSONL line (including the trailing newline) into
/// `buf`, byte-for-byte what `serde_json::to_string(&EventRecord)` produces
/// (asserted by a test below) but without allocating per event. Every field
/// is an integer, boolean, or bare variant name, so no string escaping is
/// needed; the line is literal slices and decimal digits pushed onto the
/// buffer, with no `core::fmt` machinery on the per-event path.
pub fn write_event_line(buf: &mut String, t_ns: u64, event: &TraceEvent) {
    /// `lit`, then `n` in decimal.
    fn field(buf: &mut String, lit: &str, mut n: u64) {
        buf.push_str(lit);
        let mut digits = [0u8; 20]; // u64::MAX has 20
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        buf.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }
    field(buf, "{\"t_ns\":", t_ns);
    match *event {
        TraceEvent::Submitted { job, resubmits } => {
            field(buf, ",\"event\":{\"Submitted\":{\"job\":", job.0);
            field(buf, ",\"resubmits\":", u64::from(resubmits));
        }
        TraceEvent::OwnerAssigned { job, owner } => {
            field(buf, ",\"event\":{\"OwnerAssigned\":{\"job\":", job.0);
            match owner {
                OwnerRef::Server => buf.push_str(",\"owner\":\"Server\""),
                OwnerRef::Peer(p) => {
                    field(buf, ",\"owner\":{\"Peer\":", u64::from(p.0));
                    buf.push('}');
                }
            }
        }
        TraceEvent::Matched {
            job,
            run_node,
            hops,
        } => {
            field(buf, ",\"event\":{\"Matched\":{\"job\":", job.0);
            field(buf, ",\"run_node\":", u64::from(run_node.0));
            field(buf, ",\"hops\":", u64::from(hops));
        }
        TraceEvent::Started { job, run_node } => {
            field(buf, ",\"event\":{\"Started\":{\"job\":", job.0);
            field(buf, ",\"run_node\":", u64::from(run_node.0));
        }
        TraceEvent::Completed { job, results_at } => {
            field(buf, ",\"event\":{\"Completed\":{\"job\":", job.0);
            field(buf, ",\"results_at\":", results_at.as_nanos());
        }
        TraceEvent::Failed { job } => field(buf, ",\"event\":{\"Failed\":{\"job\":", job.0),
        TraceEvent::NodeDown { node, graceful } => {
            field(
                buf,
                ",\"event\":{\"NodeDown\":{\"node\":",
                u64::from(node.0),
            );
            buf.push_str(if graceful {
                ",\"graceful\":true"
            } else {
                ",\"graceful\":false"
            });
        }
        TraceEvent::NodeUp { node } => {
            field(buf, ",\"event\":{\"NodeUp\":{\"node\":", u64::from(node.0));
        }
        TraceEvent::RunRecovery { job } => {
            field(buf, ",\"event\":{\"RunRecovery\":{\"job\":", job.0);
        }
        TraceEvent::OwnerRecovery { job } => {
            field(buf, ",\"event\":{\"OwnerRecovery\":{\"job\":", job.0);
        }
        TraceEvent::LeaseExpired { job } => {
            field(buf, ",\"event\":{\"LeaseExpired\":{\"job\":", job.0);
        }
        TraceEvent::LeaseTransferred { job, owner } => {
            field(buf, ",\"event\":{\"LeaseTransferred\":{\"job\":", job.0);
            field(buf, ",\"owner\":", u64::from(owner.0));
        }
    }
    buf.push_str("}}}\n");
}

/// Parse one JSONL line written by [`JsonlObserver`]. Empty lines yield
/// `None`; any malformed or truncated line returns a typed
/// [`StreamError`](binary::StreamError) — never a panic, which the fuzz
/// proptests assert over arbitrary input.
///
/// A line in exactly the shape [`write_event_line`] emits is read by
/// [`parse_canonical_line`]; every other line — reordered keys, whitespace,
/// hand edits, garbage — goes through `serde_json`, which therefore still
/// decides what is accepted and words every error.
pub fn parse_jsonl_line(line: &str) -> Result<Option<EventRecord>, binary::StreamError> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if let Some(record) = parse_canonical_line(line) {
        return Ok(Some(record));
    }
    serde_json::from_str(line)
        .map(Some)
        .map_err(|e| binary::StreamError::Json { msg: e.to_string() })
}

/// The unread rest of a line being matched against the canonical shape.
struct Canonical<'a>(&'a [u8]);

impl Canonical<'_> {
    /// Consume exactly `lit`.
    fn eat(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit.as_bytes())?;
        Some(())
    }

    /// Consume a plain decimal integer as the writer prints one: digits
    /// only, no leading zero, within `u64`.
    fn u64(&mut self) -> Option<u64> {
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if len == 0 || (len > 1 && digits[0] == b'0') {
            return None;
        }
        let mut n = 0u64;
        for &d in digits {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.0 = rest;
        Some(n)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn job(&mut self) -> Option<JobId> {
        self.eat("job\":")?;
        self.u64().map(JobId)
    }

    fn node(&mut self, key: &str) -> Option<GridNodeId> {
        self.eat(key)?;
        self.u32().map(GridNodeId)
    }
}

/// Read a line that is byte for byte what [`write_event_line`] writes for
/// some record (without the newline): fixed key order, no whitespace,
/// canonical integers, the whole line consumed. `None` on the slightest
/// deviation — which says nothing about validity, only that the general
/// parser must look at the line.
fn parse_canonical_line(line: &str) -> Option<EventRecord> {
    let mut c = Canonical(line.as_bytes());
    c.eat("{\"t_ns\":")?;
    let t_ns = c.u64()?;
    c.eat(",\"event\":{\"")?;
    let name_len = c.0.iter().position(|&b| b == b'"')?;
    let (name, rest) = c.0.split_at(name_len);
    c.0 = rest;
    c.eat("\":{\"")?;
    let event = match name {
        b"Submitted" => {
            let job = c.job()?;
            c.eat(",\"resubmits\":")?;
            let resubmits = c.u32()?;
            TraceEvent::Submitted { job, resubmits }
        }
        b"OwnerAssigned" => {
            let job = c.job()?;
            c.eat(",\"owner\":")?;
            let owner = if c.eat("\"Server\"").is_some() {
                OwnerRef::Server
            } else {
                let peer = c.node("{\"Peer\":")?;
                c.eat("}")?;
                OwnerRef::Peer(peer)
            };
            TraceEvent::OwnerAssigned { job, owner }
        }
        b"Matched" => {
            let job = c.job()?;
            let run_node = c.node(",\"run_node\":")?;
            c.eat(",\"hops\":")?;
            let hops = c.u32()?;
            TraceEvent::Matched {
                job,
                run_node,
                hops,
            }
        }
        b"Started" => {
            let job = c.job()?;
            let run_node = c.node(",\"run_node\":")?;
            TraceEvent::Started { job, run_node }
        }
        b"Completed" => {
            let job = c.job()?;
            c.eat(",\"results_at\":")?;
            let results_at = SimTime::from_nanos(c.u64()?);
            TraceEvent::Completed { job, results_at }
        }
        b"Failed" => TraceEvent::Failed { job: c.job()? },
        b"NodeDown" => {
            let node = c.node("node\":")?;
            c.eat(",\"graceful\":")?;
            let graceful = if c.eat("true").is_some() {
                true
            } else {
                c.eat("false")?;
                false
            };
            TraceEvent::NodeDown { node, graceful }
        }
        b"NodeUp" => TraceEvent::NodeUp {
            node: c.node("node\":")?,
        },
        b"RunRecovery" => TraceEvent::RunRecovery { job: c.job()? },
        b"OwnerRecovery" => TraceEvent::OwnerRecovery { job: c.job()? },
        b"LeaseExpired" => TraceEvent::LeaseExpired { job: c.job()? },
        b"LeaseTransferred" => {
            let job = c.job()?;
            let owner = c.node(",\"owner\":")?;
            TraceEvent::LeaseTransferred { job, owner }
        }
        _ => return None,
    };
    c.eat("}}}")?;
    c.0.is_empty().then_some(EventRecord { t_ns, event })
}

/// The twelve lifecycle event shapes, as a dense index for per-kind
/// counters (windowed rates, watch dashboards).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// [`TraceEvent::Submitted`].
    Submitted,
    /// [`TraceEvent::OwnerAssigned`].
    OwnerAssigned,
    /// [`TraceEvent::Matched`].
    Matched,
    /// [`TraceEvent::Started`].
    Started,
    /// [`TraceEvent::Completed`].
    Completed,
    /// [`TraceEvent::Failed`].
    Failed,
    /// [`TraceEvent::NodeDown`].
    NodeDown,
    /// [`TraceEvent::NodeUp`].
    NodeUp,
    /// [`TraceEvent::RunRecovery`].
    RunRecovery,
    /// [`TraceEvent::OwnerRecovery`].
    OwnerRecovery,
    /// [`TraceEvent::LeaseExpired`].
    LeaseExpired,
    /// [`TraceEvent::LeaseTransferred`].
    LeaseTransferred,
}

impl EventKind {
    /// Every kind, in [`EventKind::index`] order.
    pub const ALL: [EventKind; 12] = [
        EventKind::Submitted,
        EventKind::OwnerAssigned,
        EventKind::Matched,
        EventKind::Started,
        EventKind::Completed,
        EventKind::Failed,
        EventKind::NodeDown,
        EventKind::NodeUp,
        EventKind::RunRecovery,
        EventKind::OwnerRecovery,
        EventKind::LeaseExpired,
        EventKind::LeaseTransferred,
    ];

    /// Dense index into per-kind counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Display label (matches the JSONL variant spelling).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Submitted => "Submitted",
            EventKind::OwnerAssigned => "OwnerAssigned",
            EventKind::Matched => "Matched",
            EventKind::Started => "Started",
            EventKind::Completed => "Completed",
            EventKind::Failed => "Failed",
            EventKind::NodeDown => "NodeDown",
            EventKind::NodeUp => "NodeUp",
            EventKind::RunRecovery => "RunRecovery",
            EventKind::OwnerRecovery => "OwnerRecovery",
            EventKind::LeaseExpired => "LeaseExpired",
            EventKind::LeaseTransferred => "LeaseTransferred",
        }
    }
}

impl TraceEvent {
    /// This event's [`EventKind`].
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::Submitted { .. } => EventKind::Submitted,
            TraceEvent::OwnerAssigned { .. } => EventKind::OwnerAssigned,
            TraceEvent::Matched { .. } => EventKind::Matched,
            TraceEvent::Started { .. } => EventKind::Started,
            TraceEvent::Completed { .. } => EventKind::Completed,
            TraceEvent::Failed { .. } => EventKind::Failed,
            TraceEvent::NodeDown { .. } => EventKind::NodeDown,
            TraceEvent::NodeUp { .. } => EventKind::NodeUp,
            TraceEvent::RunRecovery { .. } => EventKind::RunRecovery,
            TraceEvent::OwnerRecovery { .. } => EventKind::OwnerRecovery,
            TraceEvent::LeaseExpired { .. } => EventKind::LeaseExpired,
            TraceEvent::LeaseTransferred { .. } => EventKind::LeaseTransferred,
        }
    }

    /// The job this event concerns, if it is job-scoped.
    pub fn job(&self) -> Option<JobId> {
        match *self {
            TraceEvent::Submitted { job, .. }
            | TraceEvent::OwnerAssigned { job, .. }
            | TraceEvent::Matched { job, .. }
            | TraceEvent::Started { job, .. }
            | TraceEvent::Completed { job, .. }
            | TraceEvent::Failed { job }
            | TraceEvent::RunRecovery { job }
            | TraceEvent::OwnerRecovery { job }
            | TraceEvent::LeaseExpired { job }
            | TraceEvent::LeaseTransferred { job, .. } => Some(job),
            TraceEvent::NodeDown { .. } | TraceEvent::NodeUp { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec_observer_filters_by_job() {
        let mut o = VecObserver::default();
        o.on_event(
            SimTime::ZERO,
            TraceEvent::Submitted {
                job: JobId(1),
                resubmits: 0,
            },
        );
        o.on_event(
            SimTime::from_secs(1),
            TraceEvent::Submitted {
                job: JobId(2),
                resubmits: 0,
            },
        );
        o.on_event(
            SimTime::from_secs(2),
            TraceEvent::Completed {
                job: JobId(1),
                results_at: SimTime::from_secs(2),
            },
        );
        o.on_event(
            SimTime::from_secs(3),
            TraceEvent::NodeDown {
                node: GridNodeId(0),
                graceful: false,
            },
        );
        assert_eq!(o.for_job(JobId(1)).len(), 2);
        assert_eq!(o.for_job(JobId(2)).len(), 1);
        assert_eq!(o.events.len(), 4);
    }

    /// One case per variant, covering both `OwnerRef` shapes, both
    /// booleans, and the extremes of every integer width.
    fn every_variant() -> Vec<(u64, TraceEvent)> {
        vec![
            (
                0,
                TraceEvent::Submitted {
                    job: JobId(1),
                    resubmits: 0,
                },
            ),
            (
                u64::MAX,
                TraceEvent::Submitted {
                    job: JobId(u64::MAX),
                    resubmits: u32::MAX,
                },
            ),
            (
                1_000_000_000,
                TraceEvent::OwnerAssigned {
                    job: JobId(0),
                    owner: OwnerRef::Server,
                },
            ),
            (
                2_500_000_000,
                TraceEvent::OwnerAssigned {
                    job: JobId(3),
                    owner: OwnerRef::Peer(GridNodeId(42)),
                },
            ),
            (
                3,
                TraceEvent::OwnerAssigned {
                    job: JobId(u64::MAX),
                    owner: OwnerRef::Peer(GridNodeId(u32::MAX)),
                },
            ),
            (
                3,
                TraceEvent::Matched {
                    job: JobId(4),
                    run_node: GridNodeId(7),
                    hops: 5,
                },
            ),
            (
                10,
                TraceEvent::Matched {
                    job: JobId(u64::MAX),
                    run_node: GridNodeId(u32::MAX),
                    hops: u32::MAX,
                },
            ),
            (
                4,
                TraceEvent::Started {
                    job: JobId(5),
                    run_node: GridNodeId(0),
                },
            ),
            (
                5,
                TraceEvent::Completed {
                    job: JobId(6),
                    results_at: SimTime::from_secs(9),
                },
            ),
            (
                100,
                TraceEvent::Completed {
                    job: JobId(60),
                    results_at: SimTime::from_nanos(u64::MAX),
                },
            ),
            (6, TraceEvent::Failed { job: JobId(7) }),
            (
                7,
                TraceEvent::NodeDown {
                    node: GridNodeId(8),
                    graceful: true,
                },
            ),
            (
                8,
                TraceEvent::NodeDown {
                    node: GridNodeId(u32::MAX),
                    graceful: false,
                },
            ),
            (
                9,
                TraceEvent::NodeUp {
                    node: GridNodeId(10),
                },
            ),
            (10, TraceEvent::RunRecovery { job: JobId(11) }),
            (11, TraceEvent::OwnerRecovery { job: JobId(12) }),
            (12, TraceEvent::LeaseExpired { job: JobId(13) }),
            (
                13,
                TraceEvent::LeaseTransferred {
                    job: JobId(14),
                    owner: GridNodeId(15),
                },
            ),
        ]
    }

    /// The manual line renderer must stay byte-for-byte compatible with the
    /// serde derive output (`dgrid report` and the repro artifacts parse
    /// lines back through serde).
    #[test]
    fn manual_serializer_matches_serde_for_every_variant() {
        let mut buf = String::new();
        for (t_ns, event) in every_variant() {
            buf.clear();
            write_event_line(&mut buf, t_ns, &event);
            let via_serde =
                serde_json::to_string(&EventRecord { t_ns, event }).expect("serde serializes");
            assert_eq!(buf, format!("{via_serde}\n"), "mismatch for {event:?}");
            // And it must round-trip through the line parser.
            let parsed = parse_jsonl_line(&buf).expect("parses").expect("non-empty");
            assert_eq!(parsed, EventRecord { t_ns, event });
        }
    }

    /// What `parse_jsonl_line` returned before the canonical-line parser
    /// existed, and must still return for every line.
    fn via_serde_alone(line: &str) -> Result<Option<EventRecord>, binary::StreamError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        serde_json::from_str(line)
            .map(Some)
            .map_err(|e| binary::StreamError::Json { msg: e.to_string() })
    }

    /// The canonical-line parser itself — not the general parser behind it
    /// — reads every shape the writer emits.
    #[test]
    fn canonical_parser_accepts_every_written_variant() {
        let mut buf = String::new();
        for (t_ns, event) in every_variant() {
            buf.clear();
            write_event_line(&mut buf, t_ns, &event);
            let line = buf.trim_end();
            let record = EventRecord { t_ns, event };
            assert_eq!(parse_canonical_line(line), Some(record), "{line}");
            assert_eq!(via_serde_alone(line), Ok(Some(record)), "{line}");
        }
    }

    /// Byte ranges of the integers in a canonical line (each follows a `:`).
    fn integer_spans(line: &str) -> Vec<std::ops::Range<usize>> {
        let bytes = line.as_bytes();
        let mut spans = Vec::new();
        let mut i = 1;
        while i < bytes.len() {
            if bytes[i].is_ascii_digit() && bytes[i - 1] == b':' {
                let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                spans.push(i..i + len);
                i += len;
            } else {
                i += 1;
            }
        }
        spans
    }

    /// Non-canonical spellings of the line: each is either another way to
    /// write a record or an error, and only `serde_json` may say which.
    fn mutations(line: &str, pos: usize, pick: usize) -> Vec<String> {
        let mut out = Vec::new();
        // Whitespace anywhere, also inside keys, literals and numbers.
        let at = pos % (line.len() + 1);
        for ws in [" ", "\t", "\r\n"] {
            out.push(format!("{}{ws}{}", &line[..at], &line[at..]));
        }
        // Key order, at the top level and inside the variant.
        let (t_field, event_field) = line[1..line.len() - 1]
            .split_once(",\"event\":")
            .expect("canonical line");
        out.push(format!("{{\"event\":{event_field},{t_field}}}"));
        let inner_at = line.rfind(":{\"").expect("variant body") + 2;
        let inner = &line[inner_at..line.len() - 3];
        if let Some((first, rest)) = inner.split_once(',') {
            out.push(format!("{}{rest},{first}}}}}}}", &line[..inner_at]));
        }
        // Numbers the writer never prints.
        let spans = integer_spans(line);
        let span = spans[pick % spans.len()].clone();
        let n = &line[span.clone()];
        for spelling in [
            format!("0{n}"),
            format!("00{n}"),
            format!("+{n}"),
            format!("-{n}"),
            format!("{n}e0"),
            format!("{n}E2"),
            format!("{n}.0"),
            format!("{n}.5"),
            "18446744073709551616".to_string(), // 2^64
            "4294967296".to_string(),           // 2^32
            "99999999999999999999999".to_string(),
            String::new(),
        ] {
            out.push(format!(
                "{}{spelling}{}",
                &line[..span.start],
                &line[span.end..]
            ));
        }
        // Every strict prefix, and bytes past the end.
        out.extend((0..line.len()).map(|cut| line[..cut].to_string()));
        for tail in ["}", ",", "x", " x", "\n{}", "{\"t_ns\":0}"] {
            out.push(format!("{line}{tail}"));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The canonical-line parser only ever *shortcuts* `serde_json`:
        /// for a written line and for every near miss of one,
        /// `parse_jsonl_line` returns the record `serde_json` alone
        /// returns, or the error it words.
        #[test]
        fn canonical_parser_never_changes_what_a_line_means(
            kind in 0usize..18,
            ints in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
            narrow in 0u8..4,
            pos in 0usize..200,
            pick in 0usize..8,
        ) {
            // Shift values down so short numbers and zeros are common too.
            let shift = u32::from(narrow) * 20;
            let (t_ns, big) = (ints.0 >> shift, ints.1 >> shift);
            let (a, b) = (ints.2 >> (shift / 2), ints.3 >> (shift / 2));
            let (_, template) = every_variant()[kind];
            let job = JobId(big);
            let event = match template {
                TraceEvent::Submitted { .. } => TraceEvent::Submitted { job, resubmits: a },
                TraceEvent::OwnerAssigned { owner: OwnerRef::Server, .. } => {
                    TraceEvent::OwnerAssigned { job, owner: OwnerRef::Server }
                }
                TraceEvent::OwnerAssigned { .. } => {
                    TraceEvent::OwnerAssigned { job, owner: OwnerRef::Peer(GridNodeId(a)) }
                }
                TraceEvent::Matched { .. } => {
                    TraceEvent::Matched { job, run_node: GridNodeId(a), hops: b }
                }
                TraceEvent::Started { .. } => TraceEvent::Started { job, run_node: GridNodeId(a) },
                TraceEvent::Completed { .. } => TraceEvent::Completed {
                    job,
                    results_at: SimTime::from_nanos(ints.1 >> (60 - shift)),
                },
                TraceEvent::Failed { .. } => TraceEvent::Failed { job },
                TraceEvent::NodeDown { graceful, .. } => {
                    TraceEvent::NodeDown { node: GridNodeId(a), graceful }
                }
                TraceEvent::NodeUp { .. } => TraceEvent::NodeUp { node: GridNodeId(a) },
                TraceEvent::RunRecovery { .. } => TraceEvent::RunRecovery { job },
                TraceEvent::OwnerRecovery { .. } => TraceEvent::OwnerRecovery { job },
                TraceEvent::LeaseExpired { .. } => TraceEvent::LeaseExpired { job },
                TraceEvent::LeaseTransferred { .. } => {
                    TraceEvent::LeaseTransferred { job, owner: GridNodeId(b) }
                }
            };
            let mut buf = String::new();
            write_event_line(&mut buf, t_ns, &event);
            let line = buf.trim_end();
            let record = EventRecord { t_ns, event };
            prop_assert_eq!(parse_canonical_line(line), Some(record));
            prop_assert_eq!(via_serde_alone(line), Ok(Some(record)));
            for mutated in mutations(line, pos, pick) {
                prop_assert_eq!(
                    parse_jsonl_line(&mutated),
                    via_serde_alone(&mutated),
                    "line {:?}",
                    mutated
                );
            }
        }
    }
}
