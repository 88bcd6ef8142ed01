//! Compact binary event-stream format.
//!
//! The JSONL stream ([`JsonlObserver`](crate::JsonlObserver)) is the
//! per-event hot path: at simulation-kernel scale it costs ~45 integer
//! formats and ~100 bytes *per event*. This module is the wire format that
//! keeps tracing affordable — length-prefixed binary frames with
//! varint-delta virtual timestamps and interned node/job ids — plus a
//! lossless bidirectional converter to and from the JSONL text form.
//!
//! # Format
//!
//! A stream is an 8-byte magic header followed by frames:
//!
//! ```text
//! stream  := MAGIC frame*            MAGIC = b"DGEVS01\n"
//! frame   := varint(len) payload     len = payload byte length
//! payload := DEF_JOB  raw_job_id               (tag 0x01)
//!          | DEF_NODE raw_node_id              (tag 0x02)
//!          | event_tag zigzag(dt) field*       (tags 0x10..=0x1d)
//! ```
//!
//! An event frame's fields follow its time delta in the order its row of
//! the wire schema (`trace/schema.rs`) lists them — the order of the JSONL
//! keys: the job, then a node, then a scalar. A job field is an index into
//! the stream's job table; a node field (`node`, `owner`, `run_node`) one
//! into its node table; `resubmits` and `hops` are 32-bit varints and
//! `results_at` a varint in nanoseconds. A member the shape fixes (last
//! column, as JSONL spells it) takes no bytes: the tag carries it.
//!
//! ```text
//! tag   JSONL variant     fields after zigzag(dt)
//! 0x10  Submitted         job resubmits
//! 0x11  OwnerAssigned     job                "owner":"Server"
//! 0x12  OwnerAssigned     job owner          "owner":{"Peer":owner}
//! 0x13  Matched           job run_node hops
//! 0x14  Started           job run_node
//! 0x15  Completed         job results_at
//! 0x16  Failed            job
//! 0x17  NodeDown          node               "graceful":false
//! 0x18  NodeDown          node               "graceful":true
//! 0x19  NodeUp            node
//! 0x1a  RunRecovery       job
//! 0x1b  OwnerRecovery     job
//! 0x1c  LeaseExpired      job
//! 0x1d  LeaseTransferred  job owner
//! ```
//!
//! Varints are LEB128 over `u64`. Event timestamps are encoded as the
//! zigzag-varint delta from the previous event's timestamp — observers emit
//! in nondecreasing time order, so deltas are tiny, but the zigzag keeps
//! the format lossless for *any* record sequence (a concatenated
//! multi-replication JSONL file jumps backwards at replication boundaries).
//! Job and node ids are interned: the first reference to an id emits a
//! `DEF_JOB`/`DEF_NODE` frame binding the next table index to the raw id,
//! and every event field carries the (small) table index. The intern table
//! therefore travels *inside* the stream and the whole encoding is a pure
//! function of the event sequence — the same seed still produces a
//! byte-identical stream, which CI asserts with a plain `diff`.
//!
//! Concatenating streams is legal: a decoder meeting the magic at a frame
//! boundary resets its intern tables and time base, which is exactly what
//! `dgrid run --replications R` produces (one stream per replication,
//! concatenated in replication order).
//!
//! Decoding is push-based ([`StreamDecoder`], which also reads JSONL and
//! tells the two formats apart by their first bytes) so `dgrid watch` can
//! tail a file that is still being written; [`decode_stream`] is the
//! whole-buffer convenience wrapper for binary streams. Every malformed
//! input maps to a typed [`StreamError`] — the decoder never panics, which
//! the fuzz proptests assert over arbitrary byte soup and mutilated valid
//! streams.

use super::schema::{with_tag, Kind, Shape, Values};
use crate::job::{next_index, IdIndex};
use crate::trace::{
    parse_jsonl_line, read_canonical, write_event_line, EventEncoder, EventRecord, StreamObserver,
    TraceEvent,
};

/// The 8-byte stream header.
pub const MAGIC: [u8; 8] = *b"DGEVS01\n";

/// Frames longer than this are rejected as malformed (a legitimate frame is
/// a tag plus at most five varints — under 60 bytes).
pub const MAX_FRAME_LEN: u64 = 4096;

const TAG_DEF_JOB: u8 = 0x01;
const TAG_DEF_NODE: u8 = 0x02;

/// Which intern table a dangling reference pointed into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// The job id table.
    Job,
    /// The node id table.
    Node,
}

/// Every way a recorded stream (JSONL or binary) can be malformed. The
/// decoders return these instead of panicking, so one corrupt or truncated
/// file can never take down a report, a watch session, or a conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The stream does not start with [`MAGIC`].
    BadMagic {
        /// Byte offset of the failed header check.
        at: usize,
    },
    /// A varint ran past 10 bytes or past the end of its frame.
    BadVarint {
        /// Byte offset where the varint started.
        at: usize,
    },
    /// A frame declared a length over [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// Byte offset of the length prefix.
        at: usize,
        /// The declared length.
        len: u64,
    },
    /// A frame declared a zero-byte payload (every frame carries a tag).
    EmptyFrame {
        /// Byte offset of the length prefix.
        at: usize,
    },
    /// A frame payload began with an unassigned tag byte.
    UnknownTag {
        /// Byte offset of the tag.
        at: usize,
        /// The offending tag.
        tag: u8,
    },
    /// A frame payload had bytes left over after its last field.
    TrailingFrameBytes {
        /// Byte offset of the first unconsumed byte.
        at: usize,
        /// How many bytes were left.
        extra: usize,
    },
    /// An event referenced an intern index never defined by a `DEF_*` frame.
    BadRef {
        /// Byte offset of the reference.
        at: usize,
        /// Which table.
        kind: RefKind,
        /// The dangling index.
        idx: u64,
    },
    /// A field value exceeded its domain (node ids and hop/resubmit counts
    /// are 32-bit).
    FieldOverflow {
        /// Byte offset of the field.
        at: usize,
        /// Which field.
        what: &'static str,
    },
    /// The stream ended mid-frame (or mid-header).
    Truncated {
        /// Byte offset where the undecodable tail starts.
        at: usize,
    },
    /// A JSONL line failed to parse as an [`EventRecord`].
    Json {
        /// The parser's message.
        msg: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BadMagic { at } => {
                write!(f, "byte {at}: not a dgrid binary event stream (bad magic)")
            }
            StreamError::BadVarint { at } => write!(f, "byte {at}: malformed varint"),
            StreamError::FrameTooLong { at, len } => {
                write!(f, "byte {at}: frame length {len} exceeds {MAX_FRAME_LEN}")
            }
            StreamError::EmptyFrame { at } => write!(f, "byte {at}: zero-length frame"),
            StreamError::UnknownTag { at, tag } => {
                write!(f, "byte {at}: unknown frame tag {tag:#04x}")
            }
            StreamError::TrailingFrameBytes { at, extra } => {
                write!(f, "byte {at}: {extra} unconsumed byte(s) at end of frame")
            }
            StreamError::BadRef { at, kind, idx } => {
                let table = match kind {
                    RefKind::Job => "job",
                    RefKind::Node => "node",
                };
                write!(f, "byte {at}: reference to undefined {table} index {idx}")
            }
            StreamError::FieldOverflow { at, what } => {
                write!(f, "byte {at}: {what} out of range")
            }
            StreamError::Truncated { at } => {
                write!(f, "byte {at}: stream truncated mid-frame")
            }
            StreamError::Json { msg } => write!(f, "bad JSONL event line: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// The two on-disk spellings of an event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFormat {
    /// One JSON object per line ([`JsonlObserver`](crate::JsonlObserver)).
    Jsonl,
    /// Length-prefixed binary frames ([`BinaryObserver`]).
    Binary,
}

impl StreamFormat {
    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            StreamFormat::Jsonl => "jsonl",
            StreamFormat::Binary => "binary",
        }
    }
}

impl std::str::FromStr for StreamFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" | "json" => Ok(StreamFormat::Jsonl),
            "binary" | "bin" => Ok(StreamFormat::Binary),
            other => Err(format!("unknown stream format {other:?} (jsonl | binary)")),
        }
    }
}

/// Decide what format a stream is in from its first bytes. Binary streams
/// are identified by the [`MAGIC`] header (a truncated prefix of it also
/// counts — no JSONL stream can start with `DG`); everything else,
/// including the empty stream, is treated as JSONL.
fn sniff_format(prefix: &[u8]) -> StreamFormat {
    let n = prefix.len().min(MAGIC.len());
    if n > 0 && prefix[..n] == MAGIC[..n] {
        StreamFormat::Binary
    } else {
        StreamFormat::Jsonl
    }
}

// --- varint primitives -----------------------------------------------------

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a varint from `bytes`. `Ok(None)` means the buffer ended inside a
/// still-plausible varint (need more data); `Err` means no continuation can
/// ever make it valid. `at` is only used for error offsets.
fn read_varint(bytes: &[u8], at: usize) -> Result<Option<(u64, usize)>, StreamError> {
    let mut v: u64 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if i == 10 {
            return Err(StreamError::BadVarint { at });
        }
        let part = u64::from(b & 0x7f);
        // The 10th byte may only contribute the final bit.
        if i == 9 && part > 1 {
            return Err(StreamError::BadVarint { at });
        }
        v |= part << (7 * i);
        if b & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
    }
    if bytes.len() >= 10 {
        return Err(StreamError::BadVarint { at });
    }
    Ok(None)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- encoder ---------------------------------------------------------------

/// First-appearance intern table on the encoder hot path, addressed
/// through an [`IdIndex`]: engine job and node ids are small sequential
/// integers, so no id is hashed per event. Intern indices are assigned in
/// first-appearance order whichever side of the dense limit an id falls
/// on, so the split does not change the encoding.
#[derive(Default)]
struct InternMap {
    index: IdIndex,
    next: u32,
}

impl InternMap {
    /// Intern index for `id`, plus whether this is its first appearance.
    fn get_or_insert(&mut self, id: u64) -> (u32, bool) {
        if let Some(idx) = self.index.get(id) {
            return (idx, false);
        }
        // One stream interns fewer than 2³² − 1 distinct ids per table.
        let idx = next_index(self.next as usize);
        self.next = idx + 1;
        self.index.insert(id, idx);
        (idx, true)
    }

    /// The intern index of `id`, first appending to `out` the `def_tag`
    /// frame that binds it if this is its first appearance.
    fn intern(&mut self, out: &mut Vec<u8>, def_tag: u8, id: u64) -> u64 {
        let (idx, fresh) = self.get_or_insert(id);
        if fresh {
            let at = begin_frame(out);
            out.push(def_tag);
            write_varint(out, id);
            end_frame(out, at);
        }
        u64::from(idx)
    }
}

/// Stateful encoder: turns an event sequence into binary stream bytes.
///
/// The encoding is a pure function of the `(t_ns, event)` sequence — intern
/// indices are assigned in first-appearance order and timestamps are deltas
/// from the previous event — so two identical event sequences always
/// produce identical bytes.
#[derive(Default)]
pub struct BinaryEncoder {
    started: bool,
    prev_t: u64,
    jobs: InternMap,
    nodes: InternMap,
}

/// Begin a frame in `out`: push a one-byte length placeholder and return
/// its position. Every frame this encoder emits is a tag plus at most five
/// ten-byte varints — well under 128 bytes — so the LEB128 length prefix is
/// always a single byte and the payload can be encoded straight into `out`
/// with no intermediate buffer, then the placeholder patched.
#[inline]
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.push(0);
    out.len() - 1
}

/// Patch the length byte written by [`begin_frame`].
#[inline]
fn end_frame(out: &mut [u8], len_at: usize) {
    let len = out.len() - len_at - 1;
    debug_assert!(len < 0x80, "frame payload must fit a one-byte varint");
    out[len_at] = len as u8;
}

impl BinaryEncoder {
    /// A fresh encoder (writes the magic header before its first event).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the frames for one event given as its wire row and field
    /// values — its `DEF_*` frames first, if any id is new. The magic header
    /// is appended before the first event.
    #[inline(always)]
    pub(crate) fn encode_row(
        &mut self,
        out: &mut Vec<u8>,
        shape: &Shape,
        t_ns: u64,
        mut values: Values,
    ) {
        if !self.started {
            out.extend_from_slice(&MAGIC);
            self.started = true;
        }
        // Intern pass first: DEF frames precede the event that needs them.
        for (f, value) in shape.fields.iter().zip(&mut values) {
            match f.kind {
                Kind::Job => *value = self.jobs.intern(out, TAG_DEF_JOB, *value),
                Kind::Node => *value = self.nodes.intern(out, TAG_DEF_NODE, *value),
                Kind::U32 | Kind::Nanos => {}
            }
        }
        let at = begin_frame(out);
        out.push(shape.tag);
        let dt = zigzag(t_ns.wrapping_sub(self.prev_t) as i64);
        self.prev_t = t_ns;
        write_varint(out, dt);
        for &value in &values[..shape.fields.len()] {
            write_varint(out, value);
        }
        end_frame(out, at);
    }
}

impl EventEncoder for BinaryEncoder {
    /// Append the frames for one event (its `DEF_*` frames first, if any id
    /// is new) to `out`. The magic header is appended before the first
    /// event, so encoding zero events yields zero bytes.
    fn encode(&mut self, out: &mut Vec<u8>, t_ns: u64, event: &TraceEvent) {
        event.with_wire(
            #[inline(always)]
            |shape, values| self.encode_row(out, shape, t_ns, values),
        );
    }
}

/// Encode a whole event sequence as one binary stream.
pub fn encode_events<'a, I: IntoIterator<Item = &'a EventRecord>>(events: I) -> Vec<u8> {
    let mut enc = BinaryEncoder::new();
    let mut out = Vec::new();
    for rec in events {
        enc.encode(&mut out, rec.t_ns, &rec.event);
    }
    out
}

/// Streams every event as binary frames into a writer — the drop-in
/// replacement for [`JsonlObserver`](crate::JsonlObserver) when the stream
/// is consumed by tools rather than eyes.
pub type BinaryObserver<W> = StreamObserver<W, BinaryEncoder>;

// --- decoder ---------------------------------------------------------------

/// Push-based event-stream decoder, for either format.
///
/// Feed it bytes as they arrive ([`StreamDecoder::push`]) and drain decoded
/// events ([`StreamDecoder::next_event`]); `Ok(None)` means "need more
/// bytes", which is what lets `dgrid watch --follow` tail a file mid-write.
/// The format is sniffed from the first bytes: a stream that starts with
/// [`MAGIC`] is binary, anything else is JSONL, read line by line through
/// [`parse_jsonl_line`]. Call [`StreamDecoder::finish`] at end-of-input to
/// distinguish a clean boundary from a truncated tail. All errors are typed
/// [`StreamError`]s; no input can make the decoder panic.
#[derive(Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    pos: usize,
    consumed: usize,
    format: Option<StreamFormat>,
    /// JSONL lines consumed, for error messages.
    lines: usize,
    frames: FrameDecoder,
}

impl StreamDecoder {
    /// A decoder expecting the start of a stream in either format.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stream's format, once its first bytes have settled it.
    pub fn format(&self) -> Option<StreamFormat> {
        self.format
    }

    /// Append newly available bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Drop the consumed prefix before growing, keeping the buffer
        // bounded by one partial frame plus one read chunk.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next event, or `Ok(None)` if the buffered bytes end at a
    /// clean boundary (more input may still arrive).
    pub fn next_event(&mut self) -> Result<Option<EventRecord>, StreamError> {
        let from = self.pos;
        let next = match self.format.or_else(|| self.settle()) {
            None => Ok(None),
            Some(StreamFormat::Binary) => {
                let base = self.consumed - from;
                self.frames.next_event(&self.buf, &mut self.pos, base)
            }
            Some(StreamFormat::Jsonl) => self.next_line(),
        };
        self.consumed += self.pos - from;
        next
    }

    /// Signal end-of-input: errors if bytes are left undecoded (a frame,
    /// line or header was cut off mid-write). An empty stream is JSONL.
    pub fn finish(&mut self) -> Result<(), StreamError> {
        self.format
            .get_or_insert(sniff_format(&self.buf[self.pos..]));
        if self.pos < self.buf.len() {
            Err(StreamError::Truncated { at: self.consumed })
        } else {
            Ok(())
        }
    }

    /// Decide the format once the bytes so far either depart from
    /// [`MAGIC`] or cover it.
    fn settle(&mut self) -> Option<StreamFormat> {
        let head = &self.buf[self.pos..];
        let open = head.len() < MAGIC.len() && MAGIC.starts_with(head);
        self.format = (!open).then(|| sniff_format(head));
        self.format
    }

    /// The next record of a JSONL stream; blank lines yield none.
    fn next_line(&mut self) -> Result<Option<EventRecord>, StreamError> {
        while let Some(len) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[self.pos..self.pos + len];
            self.lines += 1;
            let bad = |msg: &dyn std::fmt::Display| StreamError::Json {
                msg: format!("line {}: {msg}", self.lines),
            };
            let line = std::str::from_utf8(line).map_err(|e| bad(&e))?;
            let record = match parse_jsonl_line(line) {
                Err(StreamError::Json { msg }) => return Err(bad(&msg)),
                parsed => parsed?,
            };
            self.pos += len + 1;
            if record.is_some() {
                return Ok(record);
            }
        }
        Ok(None)
    }
}

/// What decoding carries from frame to frame — whether a stream header has
/// been read, the intern tables and the time base — apart from the bytes,
/// so that frames are decoded where they lie: in the push decoder's buffer
/// or in a whole stream the caller holds.
#[derive(Default)]
struct FrameDecoder {
    in_stream: bool,
    jobs: Vec<u64>,
    nodes: Vec<u32>,
    prev_t: u64,
}

impl FrameDecoder {
    /// Decode frames of `bytes` from `*pos` on until one yields an event,
    /// advancing `*pos` past every frame consumed. `Ok(None)` when the
    /// bytes end at a clean boundary or inside a frame that more input may
    /// complete. `bytes[0]` lies at stream offset `base`.
    fn next_event(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        base: usize,
    ) -> Result<Option<EventRecord>, StreamError> {
        loop {
            let avail = &bytes[*pos..];
            if avail.is_empty() {
                return Ok(None);
            }
            let at = base + *pos;
            if !self.in_stream {
                if avail.len() < MAGIC.len() {
                    return if MAGIC.starts_with(avail) {
                        Ok(None)
                    } else {
                        Err(StreamError::BadMagic { at })
                    };
                }
                if avail[..MAGIC.len()] != MAGIC {
                    return Err(StreamError::BadMagic { at });
                }
                *pos += MAGIC.len();
                self.in_stream = true;
                self.jobs.clear();
                self.nodes.clear();
                self.prev_t = 0;
                continue;
            }
            // A concatenated stream restarts with the magic at a frame
            // boundary (valid frame tags never collide with it).
            if avail[0] == MAGIC[0] {
                if avail.len() < MAGIC.len() {
                    if MAGIC.starts_with(avail) {
                        return Ok(None);
                    }
                } else if avail[..MAGIC.len()] == MAGIC {
                    self.in_stream = false;
                    continue;
                }
            }
            let Some((len, n)) = read_varint(avail, at)? else {
                return Ok(None);
            };
            if len > MAX_FRAME_LEN {
                return Err(StreamError::FrameTooLong { at, len });
            }
            if len == 0 {
                return Err(StreamError::EmptyFrame { at });
            }
            let len = len as usize;
            if avail.len() < n + len {
                return Ok(None);
            }
            *pos += n + len;
            if let Some(rec) = self.decode_payload(&avail[n..n + len], at + n)? {
                return Ok(Some(rec));
            }
        }
    }

    /// Decode one complete frame payload. `Ok(None)` for definition frames
    /// (they only update the intern tables).
    fn decode_payload(
        &mut self,
        payload: &[u8],
        at: usize,
    ) -> Result<Option<EventRecord>, StreamError> {
        let tag = payload[0];
        let mut cur = Cursor {
            bytes: &payload[1..],
            pos: 0,
            at: at + 1,
        };
        let rec = match tag {
            TAG_DEF_JOB => {
                let raw = cur.varint()?;
                self.jobs.push(raw);
                None
            }
            TAG_DEF_NODE => {
                let raw = cur.varint()?;
                let raw = u32::try_from(raw).map_err(|_| StreamError::FieldOverflow {
                    at: cur.at,
                    what: "node id",
                })?;
                self.nodes.push(raw);
                None
            }
            tag => {
                let (t_ns, event) = with_tag(
                    tag,
                    #[inline(always)]
                    |shape| {
                        let dt = cur.varint()?;
                        let t_ns = self.prev_t.wrapping_add(unzigzag(dt) as u64);
                        let mut values = [0; 3];
                        for (f, value) in shape.fields.iter().zip(&mut values) {
                            *value = match f.kind {
                                Kind::Job => cur.interned(&self.jobs, RefKind::Job)?,
                                Kind::Node => u64::from(cur.interned(&self.nodes, RefKind::Node)?),
                                Kind::U32 => u64::from(cur.varint_u32(f.name)?),
                                Kind::Nanos => cur.varint()?,
                            };
                        }
                        Ok((t_ns, (shape.event)(values)))
                    },
                )
                .ok_or(StreamError::UnknownTag { at, tag })??;
                self.prev_t = t_ns;
                Some(EventRecord { t_ns, event })
            }
        };
        if cur.pos < cur.bytes.len() {
            return Err(StreamError::TrailingFrameBytes {
                at: cur.at + cur.pos,
                extra: cur.bytes.len() - cur.pos,
            });
        }
        Ok(rec)
    }
}

/// A bounds-checked reader over one frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    at: usize,
}

impl Cursor<'_> {
    fn varint(&mut self) -> Result<u64, StreamError> {
        let at = self.at + self.pos;
        match read_varint(&self.bytes[self.pos..], at)? {
            Some((v, n)) => {
                self.pos += n;
                Ok(v)
            }
            // Inside a complete frame "need more bytes" means the frame
            // lied about its length.
            None => Err(StreamError::BadVarint { at }),
        }
    }

    fn varint_u32(&mut self, what: &'static str) -> Result<u32, StreamError> {
        let at = self.at + self.pos;
        u32::try_from(self.varint()?).map_err(|_| StreamError::FieldOverflow { at, what })
    }

    /// The raw id at the `table` index the next varint names.
    fn interned<T: Copy>(&mut self, table: &[T], kind: RefKind) -> Result<T, StreamError> {
        let at = self.at + self.pos;
        let idx = self.varint()?;
        let dangling = StreamError::BadRef { at, kind, idx };
        table.get(idx as usize).copied().ok_or(dangling)
    }
}

/// Decode a complete in-memory binary stream (including concatenations of
/// streams) into its event records.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<EventRecord>, StreamError> {
    // Frames are decoded where they lie: no copy into a decoder's buffer.
    let mut frames = FrameDecoder::default();
    let mut pos = 0;
    let mut out = Vec::new();
    while let Some(rec) = frames.next_event(bytes, &mut pos, 0)? {
        out.push(rec);
    }
    if pos < bytes.len() {
        return Err(StreamError::Truncated { at: pos });
    }
    Ok(out)
}

/// Convert a JSONL event stream to the binary format (one header, even if
/// the text was a concatenation of runs — the zigzag time deltas absorb the
/// backward jumps). Blank lines are skipped, exactly as the JSONL readers
/// skip them.
///
/// One pass over the text: a canonical line is read up to its row's tail
/// and its row and values go straight to the encoder; it ends there, at a
/// `\n`, a `\r\n` or the end of the text. Any other line is cut as
/// `str::lines` cuts it and read by [`parse_jsonl_line`], so every text
/// converts to what its lines parsed one by one encode to, or fails with
/// the first bad line's error.
pub fn jsonl_to_binary(text: &str) -> Result<Vec<u8>, StreamError> {
    let mut enc = BinaryEncoder::new();
    let mut out = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let canonical = read_canonical(rest).and_then(|(shape, t_ns, values, after)| {
            let after = match after.as_bytes() {
                [] => after,
                [b'\n', ..] => &after[1..],
                [b'\r', b'\n', ..] => &after[2..],
                _ => return None,
            };
            Some((shape, t_ns, values, after))
        });
        if let Some((shape, t_ns, values, after)) = canonical {
            // Dispatching on the tag again makes the row a constant in each
            // arm, so the encoder's loop over its fields compiles to
            // straight-line code per row, as through `with_wire`.
            with_tag(
                shape.tag,
                #[inline(always)]
                |shape| enc.encode_row(&mut out, shape, t_ns, values),
            );
            rest = after;
            continue;
        }
        let (line, after) = match rest.split_once('\n') {
            Some((line, after)) => (line.strip_suffix('\r').unwrap_or(line), after),
            None => (rest, ""),
        };
        if let Some(rec) = parse_jsonl_line(line)? {
            enc.encode(&mut out, rec.t_ns, &rec.event);
        }
        rest = after;
    }
    Ok(out)
}

/// Convert a binary event stream back to its JSONL text. Converting
/// `jsonl_to_binary` output reproduces the original text byte for byte
/// (modulo skipped blank lines); the round-trip golden test pins this for
/// every matchmaker variant.
pub fn binary_to_jsonl(bytes: &[u8]) -> Result<String, StreamError> {
    let records = decode_stream(bytes)?;
    let mut out = Vec::new();
    for rec in &records {
        write_event_line(&mut out, rec.t_ns, &rec.event);
    }
    Ok(String::from_utf8(out).expect("event lines are ASCII"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::OwnerRef;
    use crate::node::GridNodeId;
    use crate::trace::Observer;
    use dgrid_resources::JobId;
    use dgrid_sim::SimTime;

    fn sample_records() -> Vec<EventRecord> {
        let job = JobId(7);
        let node = GridNodeId(3);
        vec![
            EventRecord {
                t_ns: 5,
                event: TraceEvent::Submitted { job, resubmits: 0 },
            },
            EventRecord {
                t_ns: 5,
                event: TraceEvent::OwnerAssigned {
                    job,
                    owner: OwnerRef::Peer(node),
                },
            },
            EventRecord {
                t_ns: 9,
                event: TraceEvent::Matched {
                    job,
                    run_node: GridNodeId(11),
                    hops: 4,
                },
            },
            EventRecord {
                t_ns: 100,
                event: TraceEvent::Started {
                    job,
                    run_node: GridNodeId(11),
                },
            },
            EventRecord {
                t_ns: 2_000_000_000,
                event: TraceEvent::Completed {
                    job,
                    results_at: SimTime::from_secs(3),
                },
            },
            EventRecord {
                t_ns: 2_000_000_001,
                event: TraceEvent::NodeDown {
                    node,
                    graceful: true,
                },
            },
        ]
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, n) = read_varint(&buf, 0).unwrap().unwrap();
            assert_eq!((back, n), (v, buf.len()));
        }
        // Incomplete: all continuation bits set.
        assert_eq!(read_varint(&[0x80, 0x80], 0).unwrap(), None);
        // Non-minimal but in-range encodings still decode.
        assert_eq!(read_varint(&[0x80, 0x00], 0).unwrap(), Some((0, 2)));
        // Too long to ever be a u64.
        assert!(read_varint(&[0xff; 11], 0).is_err());
        // 10th byte overflowing the final bit.
        let mut eleven = vec![0xff; 9];
        eleven.push(0x02);
        assert!(read_varint(&eleven, 0).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 12345, -12345, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let records = sample_records();
        let bytes = encode_events(&records);
        assert_eq!(&bytes[..8], &MAGIC);
        let back = decode_stream(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_stream_is_empty_bytes() {
        assert!(encode_events([].iter()).is_empty());
        assert!(decode_stream(&[]).unwrap().is_empty());
        assert_eq!(jsonl_to_binary("").unwrap(), Vec::<u8>::new());
        assert_eq!(binary_to_jsonl(&[]).unwrap(), "");
    }

    #[test]
    fn concatenated_streams_decode_with_reset() {
        let records = sample_records();
        let mut bytes = encode_events(&records);
        bytes.extend_from_slice(&encode_events(&records));
        let back = decode_stream(&bytes).unwrap();
        assert_eq!(back.len(), records.len() * 2);
        assert_eq!(&back[..records.len()], &records[..]);
        assert_eq!(&back[records.len()..], &records[..]);
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let records = sample_records();
        let mut text = Vec::new();
        for rec in &records {
            write_event_line(&mut text, rec.t_ns, &rec.event);
        }
        let text = String::from_utf8(text).unwrap();
        let bin = jsonl_to_binary(&text).unwrap();
        assert!(bin.len() < text.len(), "binary must be smaller than JSONL");
        assert_eq!(binary_to_jsonl(&bin).unwrap(), text);
        // And binary -> jsonl -> binary is stable for single streams.
        assert_eq!(
            jsonl_to_binary(&binary_to_jsonl(&bin).unwrap()).unwrap(),
            bin
        );
    }

    #[test]
    fn observer_counts_bytes() {
        let records = sample_records();
        let mut obs = BinaryObserver::new(Vec::new());
        for rec in &records {
            obs.on_event(SimTime::from_nanos(rec.t_ns), rec.event);
        }
        let n = obs.bytes_written().unwrap();
        let sink = obs.into_inner();
        assert_eq!(n as usize, sink.len());
        assert_eq!(decode_stream(&sink).unwrap(), records);
    }

    #[test]
    fn truncations_are_typed_errors() {
        let bytes = encode_events(&sample_records());
        for cut in 1..bytes.len() {
            let mut dec = StreamDecoder::new();
            dec.push(&bytes[..cut]);
            let mut events = 0usize;
            loop {
                match dec.next_event() {
                    Ok(Some(_)) => events += 1,
                    Ok(None) => {
                        // Clean pause point; only `finish` may complain.
                        if cut < bytes.len() {
                            let _ = dec.finish();
                        }
                        break;
                    }
                    Err(_) => break,
                }
            }
            assert!(events <= sample_records().len());
        }
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        // Bad magic.
        assert!(matches!(
            decode_stream(b"not a stream"),
            Err(StreamError::BadMagic { .. })
        ));
        // Unknown tag.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 0x7f]);
        assert!(matches!(
            decode_stream(&bytes),
            Err(StreamError::UnknownTag { tag: 0x7f, .. })
        ));
        // Dangling intern reference: Failed { job idx 5 } with empty table.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[3, 0x16, 0, 5]);
        assert!(matches!(
            decode_stream(&bytes),
            Err(StreamError::BadRef {
                kind: RefKind::Job,
                idx: 5,
                ..
            })
        ));
        // Oversized frame length.
        let mut bytes = MAGIC.to_vec();
        write_varint(&mut bytes, MAX_FRAME_LEN + 1);
        assert!(matches!(
            decode_stream(&bytes),
            Err(StreamError::FrameTooLong { .. })
        ));
        // Zero-length frame.
        let mut bytes = MAGIC.to_vec();
        bytes.push(0);
        assert!(matches!(
            decode_stream(&bytes),
            Err(StreamError::EmptyFrame { .. })
        ));
        // Trailing payload bytes.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[4, TAG_DEF_JOB, 1, 0, 0]);
        assert!(matches!(
            decode_stream(&bytes),
            Err(StreamError::TrailingFrameBytes { .. })
        ));
    }

    #[test]
    fn ids_either_side_of_the_dense_limit_intern_in_first_appearance_order() {
        use crate::job::DENSE_ID_LIMIT;
        let mut jobs = InternMap::default();
        let ids = [DENSE_ID_LIMIT, 7, DENSE_ID_LIMIT - 1, DENSE_ID_LIMIT, 7];
        let got: Vec<(u32, bool)> = ids.iter().map(|&id| jobs.get_or_insert(id)).collect();
        let want = [(0, true), (1, true), (2, true), (0, false), (1, false)];
        assert_eq!(got, want);
    }

    /// The decoder settles a stream's format from the bytes alone, not from
    /// how they were split: a stream that starts like the magic and departs
    /// from it is JSONL however its first bytes arrive.
    #[test]
    fn the_sniffed_format_does_not_depend_on_the_split() {
        let binary = encode_events(&sample_records());
        for bytes in [&binary[..], b"DGEVxyz\n", b"{\"t_ns\":x}\n", b"DGEV"] {
            let decode = |cut: usize| {
                let mut dec = StreamDecoder::new();
                let mut records = Vec::new();
                for chunk in [&bytes[..cut], &bytes[cut..]] {
                    dec.push(chunk);
                    loop {
                        match dec.next_event() {
                            Ok(Some(rec)) => records.push(rec),
                            Ok(None) => break,
                            Err(e) => return (dec.format(), Err(e)),
                        }
                    }
                }
                let end = dec.finish().map(|()| records);
                (dec.format(), end)
            };
            let whole = decode(bytes.len());
            for cut in 0..bytes.len() {
                assert_eq!(decode(cut), whole, "{bytes:?} cut at {cut}");
            }
        }
    }

    /// The module doc's tag table lists every row of the wire schema, in
    /// tag order, with its fields in wire order.
    #[test]
    fn the_documented_tag_table_is_the_schema() {
        let doc: Vec<&str> = include_str!("binary.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! 0x"))
            .collect();
        assert_eq!(doc.len(), super::super::schema::SHAPES.len());
        for (line, shape) in doc.iter().zip(super::super::schema::SHAPES) {
            let fields: Vec<&str> = shape.fields.iter().map(|f| f.name).collect();
            let want = format!(
                "{:02x}  {:<16}  {}",
                shape.tag,
                shape.name,
                fields.join(" ")
            );
            let rest = line.strip_prefix(want.as_str()).unwrap_or("?");
            assert!(
                rest.is_empty() || rest.starts_with("  "),
                "0x{line}: want 0x{want}"
            );
        }
    }

    #[test]
    fn sniffing_identifies_formats() {
        assert_eq!(sniff_format(&MAGIC), StreamFormat::Binary);
        assert_eq!(sniff_format(b"DGEV"), StreamFormat::Binary);
        assert_eq!(sniff_format(b"{\"t_ns\":0}"), StreamFormat::Jsonl);
        assert_eq!(sniff_format(b""), StreamFormat::Jsonl);
    }
}
