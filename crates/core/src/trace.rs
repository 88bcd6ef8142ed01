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
mod schema;

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use dgrid_resources::JobId;
use dgrid_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::job::OwnerRef;
use crate::node::GridNodeId;
use schema::{first_tag_named, with_tag, Kind, Shape, Values, SHAPES};

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

    /// Flush a stream writer's sink and return the first I/O error its
    /// stream met. A writer keeps that error and drops every later event
    /// instead of panicking mid-run; other observers have none to report.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A shared observer: the engine consumes one handle and the caller keeps
/// another, to [`finish`](Observer::finish) the stream after the run.
impl<O: Observer + ?Sized> Observer for Rc<RefCell<O>> {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.borrow_mut().on_event(at, event);
    }

    fn bytes_written(&self) -> Option<u64> {
        self.borrow().bytes_written()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.borrow_mut().finish()
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

/// Appends one event's bytes to a stream in some format.
pub trait EventEncoder: Default {
    /// Append `event`, emitted at `t_ns`, to `out`.
    fn encode(&mut self, out: &mut Vec<u8>, t_ns: u64, event: &TraceEvent);
}

/// The JSONL format: each event one line, by [`write_event_line`].
#[derive(Default)]
pub struct JsonlEncoder;

impl EventEncoder for JsonlEncoder {
    fn encode(&mut self, out: &mut Vec<u8>, t_ns: u64, event: &TraceEvent) {
        write_event_line(out, t_ns, event);
    }
}

/// Streams every event into a writer in the format `E` encodes, through a
/// scratch buffer reused across events: the per-event cost is the encoding
/// plus one `write_all`. The same seed produces a byte-identical stream,
/// which the CI determinism job asserts with a plain `diff`. Wrap files in
/// a `BufWriter`.
///
/// The first I/O error ends the stream: later events are dropped and
/// [`Observer::finish`] returns the error.
pub struct StreamObserver<W: Write, E: EventEncoder> {
    sink: W,
    encoder: E,
    scratch: Vec<u8>,
    bytes: u64,
    error: Option<io::Error>,
}

/// Streams every event as one JSON line (`{"t_ns":...,"event":...}`) with
/// its virtual timestamp.
pub type JsonlObserver<W> = StreamObserver<W, JsonlEncoder>;

impl<W: Write, E: EventEncoder> StreamObserver<W, E> {
    /// Stream events into `sink`.
    pub fn new(sink: W) -> Self {
        StreamObserver {
            sink,
            encoder: E::default(),
            scratch: Vec::with_capacity(96),
            bytes: 0,
            error: None,
        }
    }

    /// Flush and return the sink. Panics if the stream met an I/O error;
    /// [`Observer::finish`] returns it instead.
    pub fn into_inner(mut self) -> W {
        self.finish().expect("write event stream");
        self.sink
    }
}

impl<W: Write, E: EventEncoder> Observer for StreamObserver<W, E> {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.scratch.clear();
        self.encoder
            .encode(&mut self.scratch, at.as_nanos(), &event);
        match self.sink.write_all(&self.scratch) {
            Ok(()) => self.bytes += self.scratch.len() as u64,
            Err(e) => self.error = Some(e),
        }
    }

    fn bytes_written(&self) -> Option<u64> {
        Some(self.bytes)
    }

    fn finish(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.sink.flush(),
        }
    }
}

/// Render one event as its JSONL line (including the trailing newline) onto
/// `buf`, byte-for-byte what `serde_json::to_string(&EventRecord)` produces
/// (asserted by a test below) but without allocating per event. Every field
/// is an integer, boolean, or bare variant name, so no string escaping is
/// needed; the line is literal slices and decimal digits pushed onto the
/// buffer, two digits at a time from a table, with no `core::fmt`
/// machinery and no UTF-8 check on the per-event path: the bytes are ASCII
/// by construction, and a caller that needs a `str` checks once.
pub fn write_event_line(buf: &mut Vec<u8>, t_ns: u64, event: &TraceEvent) {
    /// `lit`, then `n` in decimal.
    fn field(buf: &mut Vec<u8>, lit: &str, mut n: u64) {
        const PAIRS: &[u8; 200] = b"\
            0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        buf.extend_from_slice(lit.as_bytes());
        let mut digits = [0u8; 20]; // u64::MAX has 20
        let mut at = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + n as u8;
        }
        buf.extend_from_slice(&digits[at..]);
    }
    field(buf, "{\"t_ns\":", t_ns);
    event.with_wire(
        #[inline(always)]
        |shape, values| {
            for (f, value) in shape.fields.iter().zip(values) {
                field(buf, f.json, value);
            }
            buf.extend_from_slice(shape.tail.as_bytes());
        },
    );
}

/// Parse one JSONL line written by [`JsonlObserver`]. Empty lines yield
/// `None`; any malformed or truncated line returns a typed
/// [`StreamError`](binary::StreamError) — never a panic, which the fuzz
/// proptests assert over arbitrary input.
///
/// A line in exactly the shape [`write_event_line`] emits is read by the
/// private fast path `read_canonical`; every other line — reordered keys,
/// whitespace, hand edits, garbage — goes through `serde_json`, which
/// therefore still decides what is accepted and words every error.
pub fn parse_jsonl_line(line: &str) -> Result<Option<EventRecord>, binary::StreamError> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if let Some((shape, t_ns, values, "")) = read_canonical(line) {
        let event = (shape.event)(values);
        return Ok(Some(EventRecord { t_ns, event }));
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
        let digit = |i: usize| Some(self.0.get(i)?.wrapping_sub(b'0')).filter(|&d| d < 10);
        let mut n = u64::from(digit(0)?);
        let mut len = 1;
        // Nineteen digits stay below 10^19 < 2^64: only a twentieth can
        // overflow.
        while let Some(d) = digit(len) {
            n = match len {
                ..19 => n * 10 + u64::from(d),
                19 => n.checked_mul(10)?.checked_add(u64::from(d))?,
                _ => return None,
            };
            len += 1;
        }
        if len > 1 && self.0[0] == b'0' {
            return None;
        }
        self.0 = &self.0[len..];
        Some(n)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }
}

/// Read the line at the front of `text` if, up to its row's tail, it is
/// byte for byte what [`write_event_line`] writes for some record: fixed
/// key order, no whitespace, canonical integers. The row, timestamp and
/// field values, and the text after the tail — where the writer puts the
/// newline. `None` on the slightest deviation — which says nothing about
/// validity, only that the general parser must look at the line.
#[inline(always)]
pub(crate) fn read_canonical(text: &str) -> Option<(&'static Shape, u64, Values, &str)> {
    let mut c = Canonical(text.as_bytes());
    c.eat("{\"t_ns\":")?;
    let t_ns = c.u64()?;
    let name = c.0.strip_prefix(b",\"event\":{\"")?;
    let start = text.len() - name.len();
    let name = text.get(start..start + name.iter().position(|&b| b == b'"')?)?;
    // `OwnerAssigned` and `NodeDown` have two rows each. Every row's first
    // field spells its name, so a row of the next name never matches.
    let first = first_tag_named(name)?;
    (first..=first + 1).find_map(|tag| {
        with_tag(
            tag,
            #[inline(always)]
            |shape| {
                let mut c = Canonical(c.0);
                let mut values = [0; 3];
                for (f, value) in shape.fields.iter().zip(&mut values) {
                    c.eat(f.json)?;
                    *value = match f.kind {
                        Kind::Job | Kind::Nanos => c.u64()?,
                        Kind::Node | Kind::U32 => u64::from(c.u32()?),
                    };
                }
                c.eat(shape.tail.strip_suffix('\n')?)?;
                Some((shape, t_ns, values, &text[text.len() - c.0.len()..]))
            },
        )
        .flatten()
    })
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

    /// Display label (the JSONL variant name).
    pub fn label(self) -> &'static str {
        SHAPES
            .iter()
            .find(|s| s.kind == self)
            .map_or("", |s| s.name)
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

    /// The line [`write_event_line`] renders, as text.
    fn line_of(t_ns: u64, event: &TraceEvent) -> String {
        let mut buf = Vec::new();
        write_event_line(&mut buf, t_ns, event);
        String::from_utf8(buf).expect("event lines are ASCII")
    }

    /// `template`'s shape with its fields replaced: `job` for the job,
    /// `results_at` for a time in nanoseconds, and `a`, then `b`, for the
    /// 32-bit fields in wire order (a node, peer or resubmit count, then
    /// hops).
    fn with_fields(template: TraceEvent, job: u64, a: u32, b: u32, results_at: u64) -> TraceEvent {
        template.with_wire(|shape, _| {
            let mut narrow = [a, b].into_iter().map(u64::from);
            let mut values = [0; 3];
            for (f, value) in shape.fields.iter().zip(&mut values) {
                *value = match f.kind {
                    Kind::Job => job,
                    Kind::Nanos => results_at,
                    Kind::Node | Kind::U32 => narrow.next().expect("two 32-bit fields at most"),
                };
            }
            (shape.event)(values)
        })
    }

    /// Every variant with every integer field at each digit-count
    /// boundary (0, 9, 10, 99, 100, each 10^k - 1 and 10^k, `u32::MAX`,
    /// `u64::MAX`): the two-digit renderer writes the line serde writes.
    /// The 32-bit fields take the boundaries that fit, in a rotated order,
    /// so fields of one line differ in length.
    #[test]
    fn renderer_matches_serde_at_every_digit_boundary() {
        let mut wide = vec![0u64, 9];
        let mut power = 10u64;
        loop {
            wide.extend([power - 1, power]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        wide.extend([u64::from(u32::MAX), u64::MAX]);
        let narrow: Vec<u32> = wide.iter().filter_map(|&n| u32::try_from(n).ok()).collect();
        for (i, &n) in wide.iter().enumerate() {
            let (a, b) = (narrow[i % narrow.len()], narrow[(i + 3) % narrow.len()]);
            for (t_ns, template) in every_variant() {
                for (t_ns, event) in [
                    (n, with_fields(template, n, a, b, n)),
                    (
                        t_ns,
                        with_fields(template, wide[wide.len() - 1 - i], b, a, n),
                    ),
                ] {
                    let via_serde = serde_json::to_string(&EventRecord { t_ns, event })
                        .expect("serde serializes");
                    assert_eq!(line_of(t_ns, &event), format!("{via_serde}\n"));
                }
            }
        }
    }

    /// The manual line renderer must stay byte-for-byte compatible with the
    /// serde derive output (`dgrid report` and the repro artifacts parse
    /// lines back through serde).
    #[test]
    fn manual_serializer_matches_serde_for_every_variant() {
        for (t_ns, event) in every_variant() {
            let buf = line_of(t_ns, &event);
            let via_serde =
                serde_json::to_string(&EventRecord { t_ns, event }).expect("serde serializes");
            assert_eq!(buf, format!("{via_serde}\n"), "mismatch for {event:?}");
            // And it must round-trip through the line parser.
            let parsed = parse_jsonl_line(&buf).expect("parses").expect("non-empty");
            assert_eq!(parsed, EventRecord { t_ns, event });
        }
    }

    /// The canonical-line reader on one whole line.
    fn parse_canonical_line(line: &str) -> Option<EventRecord> {
        let (shape, t_ns, values, rest) = read_canonical(line)?;
        let event = (shape.event)(values);
        rest.is_empty().then_some(EventRecord { t_ns, event })
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
        for (t_ns, event) in every_variant() {
            let buf = line_of(t_ns, &event);
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
            let results_at = ints.1 >> (60 - shift);
            let event = with_fields(template, big, a, b, results_at);
            let buf = line_of(t_ns, &event);
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
