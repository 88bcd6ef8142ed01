//! The event stream's wire schema: one row per wire shape, read by all four
//! codecs.
//!
//! An event goes on the wire as one of fourteen shapes: the twelve
//! [`TraceEvent`] variants, with `OwnerAssigned` split by its owner (server
//! or peer) and `NodeDown` by `graceful`. A row gives a shape's binary tag,
//! its JSONL variant name, its fields in wire order — each a key and a
//! [`Kind`], a peer owner wrapped as `OwnerRef::Peer(Node)` — and the member
//! the shape fixes, if any (`owner: OwnerRef::Server`, `graceful: true`).
//! Both formats carry the fields in the row's order: the job, then the node,
//! then the scalar. The JSONL writer and canonical parser
//! ([`write_event_line`](super::write_event_line)) and the binary encoder and
//! decoder ([`binary`](super::binary)) are each one loop over a row's
//! fields; the canonical-line reader finds a line's row by its variant name
//! through one generated `match`; [`EventKind`]'s labels,
//! [`TraceEvent::kind`] and [`TraceEvent::job`] read the rows too.
//!
//! A new event kind is one more row (with its variant and its `EventKind`)
//! and a new binary magic, since old decoders would refuse its tag.

use dgrid_resources::JobId;
use dgrid_sim::SimTime;

use super::{EventKind, TraceEvent};
use crate::job::OwnerRef;
use crate::node::GridNodeId;

/// What a field holds, which decides how each format spells it: decimal in
/// JSONL; in binary, an index into the stream's job or node table for ids
/// and a varint for the scalars.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A job id.
    Job,
    /// A node id (32-bit).
    Node,
    /// A 32-bit count.
    U32,
    /// A virtual time in nanoseconds.
    Nanos,
}

/// One field of a shape.
pub(crate) struct Field {
    /// The JSONL text between the line's timestamp or the previous value
    /// and this one: `,"event":{"Name":{"key":` for the first field.
    pub json: &'static str,
    /// The key, which also names the field in decoding errors.
    pub name: &'static str,
    pub kind: Kind,
}

/// One wire shape.
pub(crate) struct Shape {
    pub tag: u8,
    pub kind: EventKind,
    /// The JSONL variant name.
    pub name: &'static str,
    pub fields: &'static [Field],
    /// The JSONL text after the last value, newline included.
    pub tail: &'static str,
    /// The event with these field values, in field order.
    pub event: fn(Values) -> TraceEvent,
}

/// A shape's field values in field order, widened to `u64` (ids as they
/// are, times in nanoseconds); unused slots are 0.
pub(crate) type Values = [u64; 3];

/// The tag of the first row; the rows run in tag order from it.
const FIRST_TAG: u8 = 0x10;

macro_rules! wire_shapes {
    ($($tag:literal $variant:ident {
        $first:ident: $first_kind:ident
        $(, $key:ident: $outer:ident $(:: $wrap:ident($kind:ident))?)*
    } $($fixed:ident: $value:ident $(:: $unit:ident)?)?;)*) => {
        /// Every wire shape, in tag order.
        pub(crate) const SHAPES: &[Shape] = &[$(Shape {
            tag: $tag,
            kind: EventKind::$variant,
            name: stringify!($variant),
            fields: &[
                Field {
                    json: concat!(",\"event\":{\"", stringify!($variant), "\":{\"",
                        stringify!($first), "\":"),
                    name: stringify!($first),
                    kind: Kind::$first_kind,
                },
                $(Field {
                    json: concat!(",\"", stringify!($key), "\":"
                        $(, "{\"", stringify!($wrap), "\":")?),
                    name: stringify!($key),
                    kind: field!(kind $outer $($kind)?),
                },)*
            ],
            tail: concat!($($(field!(close $wrap),)?)*
                $(",\"", stringify!($fixed), "\":", field!(json $value $($unit)?),)? "}}}\n"),
            event: |values| {
                let [$first, $($key,)* ..] = values;
                TraceEvent::$variant {
                    $first: field!(from $first_kind $first),
                    $($key: field!(from $outer $(:: $wrap($kind))? $key),)*
                    $($fixed: $value $(:: $unit)?,)?
                }
            },
        },)*];

        /// The tag of the first row whose JSONL variant name is `name`. A
        /// name has at most two rows, at consecutive tags.
        #[inline]
        pub(crate) fn first_tag_named(name: &str) -> Option<u8> {
            // A name's second row repeats its first's arm.
            #[allow(unreachable_patterns)]
            match name {
                $(stringify!($variant) => Some($tag),)*
                _ => None,
            }
        }

        /// `f` of the shape binary tag `tag` names, if any, compiled once
        /// per shape as in [`TraceEvent::with_wire`].
        #[inline(always)]
        pub(crate) fn with_tag<R>(tag: u8, f: impl FnOnce(&'static Shape) -> R) -> Option<R> {
            match tag {
                $($tag => Some(f(&SHAPES[usize::from($tag - FIRST_TAG)])),)*
                _ => None,
            }
        }

        impl TraceEvent {
            /// `f` of this event's shape and field values. The shape is a
            /// constant in each arm, so a codec's loop over its fields
            /// compiles to straight-line code, once per shape.
            #[inline(always)]
            pub(crate) fn with_wire<R>(&self, f: impl FnOnce(&'static Shape, Values) -> R) -> R {
                match *self {$(
                    TraceEvent::$variant {
                        $first,
                        $($key: field!(bind $outer $(:: $wrap)? $key),)*
                        $($fixed: $value $(:: $unit)?,)?
                    } => {
                        let mut values = [0; 3];
                        for (slot, value) in values.iter_mut().zip([
                            field!(to $first_kind $first),
                            $(field!(to $($kind)? $outer $key),)*
                        ]) {
                            *slot = value;
                        }
                        f(&SHAPES[usize::from($tag - FIRST_TAG)], values)
                    }
                )*}
            }
        }
    };
}

/// The pieces of a row's fields: their [`Kind`], the event value from a
/// wire value and back, a pattern binding a wrapped value, a wrapper's
/// closing brace, and a fixed member's JSON.
macro_rules! field {
    (kind $kind:ident) => { Kind::$kind };
    (kind $outer:ident $kind:ident) => { Kind::$kind };
    (from Job $v:ident) => { JobId($v) };
    // Node ids and counts were read as 32-bit by both decoders.
    (from Node $v:ident) => { GridNodeId($v as u32) };
    (from U32 $v:ident) => { $v as u32 };
    (from Nanos $v:ident) => { SimTime::from_nanos($v) };
    (from $outer:ident :: $wrap:ident($kind:ident) $v:ident) => {
        $outer::$wrap(field!(from $kind $v))
    };
    (to Job $v:ident) => { $v.0 };
    (to Node $v:ident) => { u64::from($v.0) };
    (to U32 $v:ident) => { u64::from($v) };
    (to Nanos $v:ident) => { $v.as_nanos() };
    (to $kind:ident $outer:ident $v:ident) => { field!(to $kind $v) };
    (bind $kind:ident $v:ident) => { $v };
    (bind $outer:ident :: $wrap:ident $v:ident) => { $outer::$wrap($v) };
    (close $wrap:ident) => { "}" };
    (json $bool:ident) => { stringify!($bool) };
    (json $outer:ident $unit:ident) => { concat!("\"", stringify!($unit), "\"") };
}

wire_shapes! {
    0x10 Submitted { job: Job, resubmits: U32 };
    0x11 OwnerAssigned { job: Job } owner: OwnerRef::Server;
    0x12 OwnerAssigned { job: Job, owner: OwnerRef::Peer(Node) };
    0x13 Matched { job: Job, run_node: Node, hops: U32 };
    0x14 Started { job: Job, run_node: Node };
    0x15 Completed { job: Job, results_at: Nanos };
    0x16 Failed { job: Job };
    0x17 NodeDown { node: Node } graceful: false;
    0x18 NodeDown { node: Node } graceful: true;
    0x19 NodeUp { node: Node };
    0x1a RunRecovery { job: Job };
    0x1b OwnerRecovery { job: Job };
    0x1c LeaseExpired { job: Job };
    0x1d LeaseTransferred { job: Job, owner: Node };
}

// `with_tag` and `with_wire` index a row by its tag's offset from the first.
const _: () = {
    let mut i = 0;
    while i < SHAPES.len() {
        assert!(SHAPES[i].tag as usize == FIRST_TAG as usize + i);
        i += 1;
    }
};

impl TraceEvent {
    /// This event's [`EventKind`].
    #[inline]
    pub fn kind(&self) -> EventKind {
        self.with_wire(
            #[inline(always)]
            |shape, _| shape.kind,
        )
    }

    /// The job this event concerns, if it is job-scoped: every job-scoped
    /// shape's first field is its job.
    #[inline]
    pub fn job(&self) -> Option<JobId> {
        self.with_wire(
            #[inline(always)]
            |shape, values| (shape.fields[0].kind == Kind::Job).then_some(JobId(values[0])),
        )
    }
}
