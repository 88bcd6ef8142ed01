//! Adversarial-input property tests on both event-stream parsers: for
//! arbitrary, truncated, and bit-flipped input, `parse_jsonl_line` and the
//! binary decoder must return typed errors — never panic — and the binary
//! codec must round-trip *arbitrary* record sequences (non-monotonic
//! timestamps, sparse ids) byte-exactly; and `jsonl_to_binary` must read
//! any text exactly as its line-by-line definition does.

use dgrid_core::{
    binary_to_jsonl, decode_stream, encode_events, jsonl_to_binary, parse_jsonl_line, EventRecord,
    GridNodeId, OwnerRef, StreamDecoder, StreamError, StreamFormat, TraceEvent,
};
use dgrid_resources::JobId;
use dgrid_sim::SimTime;
use proptest::prelude::*;

/// Arbitrary trace events, with small ids and ids past the dense-id limit
/// so both the encoder's direct index and its sparse fallback are
/// exercised.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    events_over(
        prop_oneof![0u64..1 << 12, 0u64..u64::MAX],
        prop_oneof![0u32..1 << 12, 0u32..u32::MAX],
    )
}

/// Trace events over the given job and node ids.
fn events_over(
    job: impl Strategy<Value = u64>,
    node: impl Strategy<Value = u32>,
) -> impl Strategy<Value = TraceEvent> {
    let (job, node) = (job.prop_map(JobId), node.prop_map(GridNodeId));
    (
        job,
        node,
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        0u8..12,
    )
        .prop_map(|(job, node, t, small, flag, kind)| match kind {
            0 => TraceEvent::Submitted {
                job,
                resubmits: small,
            },
            1 => TraceEvent::OwnerAssigned {
                job,
                owner: if flag {
                    OwnerRef::Server
                } else {
                    OwnerRef::Peer(node)
                },
            },
            2 => TraceEvent::Matched {
                job,
                run_node: node,
                hops: small,
            },
            3 => TraceEvent::Started {
                job,
                run_node: node,
            },
            4 => TraceEvent::Completed {
                job,
                results_at: SimTime::from_nanos(t),
            },
            5 => TraceEvent::Failed { job },
            6 => TraceEvent::NodeDown {
                node,
                graceful: flag,
            },
            7 => TraceEvent::NodeUp { node },
            8 => TraceEvent::RunRecovery { job },
            9 => TraceEvent::OwnerRecovery { job },
            10 => TraceEvent::LeaseExpired { job },
            _ => TraceEvent::LeaseTransferred { job, owner: node },
        })
}

fn arb_records() -> impl Strategy<Value = Vec<EventRecord>> {
    proptest::collection::vec(
        (any::<u64>(), arb_event()).prop_map(|(t_ns, event)| EventRecord { t_ns, event }),
        0..40,
    )
}

/// The intern table's dense limit: ids below it are indexed directly.
const DENSE_LIMIT: u64 = 1 << 21;

/// What `jsonl_to_binary` means: every `str::lines` line through
/// `parse_jsonl_line`, the records then through `encode_events` — the same
/// bytes, or the first line's error.
fn lines_then_encode(text: &str) -> Result<Vec<u8>, StreamError> {
    let mut records = Vec::new();
    for line in text.lines() {
        records.extend(parse_jsonl_line(line)?);
    }
    Ok(encode_events(&records))
}

/// The canonical line of one record, newline excluded.
fn canonical_line(rec: EventRecord) -> String {
    let text = binary_to_jsonl(&encode_events(&[rec])).expect("own encoding converts");
    text.trim_end_matches('\n').to_string()
}

/// `line` spelled the `how`-th way: canonically with `\n`, `\r\n` or
/// `\r\r\n`, padded with whitespace, with whitespace after every `:` and
/// `,`, with its two top-level keys swapped, or after a blank line.
fn spell(line: &str, how: u8) -> String {
    match how {
        0..=2 => format!("{line}\n"),
        3 => format!("{line}\r\n"),
        4 => format!("{line}\r\r\n"),
        5 => format!(" \t{line}  \n"),
        6 => format!("{}\n", line.replace(':', ": ").replace(',', " ,\t")),
        7 => {
            let (t_field, event_field) = line[1..line.len() - 1]
                .split_once(",\"event\":")
                .expect("canonical line");
            format!("{{\"event\":{event_field},{t_field}}}\n")
        }
        _ => format!("{}{line}\n", ["\n", "  \r\n", "\t\n"][usize::from(how % 3)]),
    }
}

/// A line no reader accepts, the `how`-th way, made from a canonical line.
fn malformed(line: &str, how: u8, cut: usize) -> String {
    match how {
        0 => line[..cut % line.len()].to_string(),
        1 => format!("{line}x"),
        2 => format!("{line}\r{line}"),
        3 => "{\"t_ns\":1}".to_string(),
        4 => line.replacen("{\"t_ns\":", "{\"t_ns\":18446744073709551616", 1),
        _ => "not json".to_string(),
    }
}

/// JSONL text as files meet it: one to three concatenated runs (each in
/// nondecreasing time, each starting over from its own base, so time goes
/// backwards between them) over ids either side of the dense limit, every
/// line spelled one of `spell`'s ways, perhaps one malformed line at a
/// random position, perhaps no newline after the last line. Also whether a
/// malformed line went in.
fn arb_jsonl_text() -> impl Strategy<Value = (String, bool)> {
    let job = prop_oneof![
        0u64..64,
        DENSE_LIMIT - 2..DENSE_LIMIT + 3,
        DENSE_LIMIT..u64::MAX,
    ];
    let node = prop_oneof![0u32..64, (1u32 << 21) - 2..(1 << 21) + 3, any::<u32>()];
    let run = (
        0u64..1 << 40,
        proptest::collection::vec((0u64..1 << 31, events_over(job, node), 0u8..11), 0..16),
    );
    (
        proptest::collection::vec(run, 1..4),
        proptest::option::of((any::<usize>(), 0u8..6, any::<usize>())),
        any::<bool>(),
    )
        .prop_map(|(runs, bad, open_end)| {
            let mut lines = Vec::new();
            for (mut t_ns, events) in runs {
                for (dt, event, how) in events {
                    t_ns += dt;
                    lines.push(spell(&canonical_line(EventRecord { t_ns, event }), how));
                }
            }
            let has_malformed = bad.is_some();
            if let Some((at, how, cut)) = bad {
                let template = canonical_line(EventRecord {
                    t_ns: cut as u64,
                    event: TraceEvent::Failed { job: JobId(7) },
                });
                let at = at % (lines.len() + 1);
                lines.insert(at, format!("{}\n", malformed(&template, how, cut)));
            }
            let mut text = lines.concat();
            if open_end {
                text.pop();
            }
            (text, has_malformed)
        })
}

/// A deeply nested JSON line must come back as a typed error — the vendored
/// parser's recursion is depth-limited, so hostile nesting cannot blow the
/// stack out from under `dgrid report` or `dgrid watch`.
#[test]
fn hostile_jsonl_nesting_is_a_typed_error() {
    let deep = format!("{{\"t_ns\":0,\"event\":{}", "[".repeat(100_000));
    assert!(matches!(
        parse_jsonl_line(&deep),
        Err(dgrid_core::StreamError::Json { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The JSONL parser returns `Ok` or a typed error on any input; it
    /// must never panic, whatever the bytes.
    #[test]
    fn jsonl_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_jsonl_line(&line);
    }

    /// `jsonl_to_binary` reads any text as its definition does — each
    /// `str::lines` line through `parse_jsonl_line`, then `encode_events` —
    /// giving the same bytes or the same error, on canonical streams mixed
    /// with whitespace, reordered keys, blank lines, `\r\n` line ends, a
    /// last line without its newline, runs whose time goes backwards, ids
    /// at and above the dense limit, and a malformed line anywhere.
    #[test]
    fn jsonl_to_binary_reads_text_as_its_lines_do((text, has_malformed) in arb_jsonl_text()) {
        let converted = jsonl_to_binary(&text);
        prop_assert!(has_malformed || converted.is_ok(), "{:?}", converted);
        prop_assert_eq!(converted, lines_then_encode(&text), "text {:?}", text);
    }

    /// Truncating a *valid* JSONL line at any byte yields `Ok(None)` (blank)
    /// or a typed error — and parsing the whole line round-trips.
    #[test]
    fn truncated_jsonl_lines_error_cleanly(rec in (any::<u64>(), arb_event()), cut in 0usize..200) {
        let records = [EventRecord { t_ns: rec.0, event: rec.1 }];
        let jsonl = dgrid_core::binary_to_jsonl(&encode_events(&records)).unwrap();
        let line = jsonl.trim_end();
        prop_assert_eq!(parse_jsonl_line(line).unwrap(), Some(records[0]));
        let cut = cut.min(line.len());
        if line.is_char_boundary(cut) && cut < line.len() {
            // Whatever comes back, it must come back (no panic) and a
            // strict prefix must never silently parse as the full record.
            if let Ok(Some(parsed)) = parse_jsonl_line(&line[..cut]) {
                prop_assert_ne!(parsed, records[0]);
            }
        }
    }

    /// The binary decoder returns `Ok` or a typed error on arbitrary bytes.
    #[test]
    fn binary_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_stream(&bytes);
    }

    /// Arbitrary record sequences — backwards time, duplicate ids, ids past
    /// the dense-interning cap — encode and decode losslessly, and the
    /// re-encoding is byte-identical (canonical form).
    #[test]
    fn binary_codec_round_trips_arbitrary_records(records in arb_records()) {
        let bytes = encode_events(&records);
        let decoded = decode_stream(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &records);
        prop_assert_eq!(encode_events(&decoded), bytes);
    }

    /// Truncating a valid binary stream at any byte either errors (typed)
    /// or yields a strict prefix of the original records; `finish()` flags
    /// a mid-frame cut as `Truncated`.
    #[test]
    fn truncated_binary_streams_error_or_prefix(records in arb_records(), cut in 0usize..2000) {
        let bytes = encode_events(&records);
        let cut = cut.min(bytes.len());
        // A typed error is the expected outcome mid-frame; on success the
        // decoding must be a strict prefix of what was encoded.
        if let Ok(decoded) = decode_stream(&bytes[..cut]) {
            prop_assert!(
                decoded.len() <= records.len() && decoded == records[..decoded.len()],
                "truncation must never invent or reorder records"
            );
        }
    }

    /// Flipping one bit of a valid stream never panics the decoder, and
    /// never makes it return *more* records than were encoded plus the
    /// corrupted tail (no unbounded amplification).
    #[test]
    fn bit_flipped_binary_streams_error_cleanly(records in arb_records(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = encode_events(&records);
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = decode_stream(&bytes);
    }

    /// Decoding a whole stream in place gives what the push decoder gives
    /// for the same bytes in one chunk — records, or the same typed error
    /// at the same offset — on valid, truncated and bit-flipped streams.
    /// A flip in the header can make the sniffing decoder read the bytes as
    /// JSONL; it must then return records or a typed error, never panic.
    #[test]
    fn in_place_decoding_equals_push_decoding(
        records in arb_records(),
        cut in any::<usize>(),
        flip in proptest::option::of((any::<usize>(), 0u8..8)),
    ) {
        let mut bytes = encode_events(&records);
        bytes.truncate(cut % (bytes.len() + 1));
        if let (Some((at, bit)), false) = (flip, bytes.is_empty()) {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        let mut pushed = Vec::new();
        let pushed = loop {
            match dec.next_event() {
                Ok(Some(rec)) => pushed.push(rec),
                Ok(None) => break dec.finish().map(|()| pushed),
                Err(e) => break Err(e),
            }
        };
        if dec.format() == Some(StreamFormat::Binary) {
            prop_assert_eq!(decode_stream(&bytes), pushed);
        }
    }

    /// Push-based decoding is split-invariant in either format: feeding the
    /// binary stream, or the JSONL text of the same records, in arbitrary
    /// chunks yields exactly the one-shot decoding.
    #[test]
    fn chunked_decoding_is_split_invariant(records in arb_records(), splits in proptest::collection::vec(any::<usize>(), 0..8)) {
        let binary = encode_events(&records);
        let jsonl = binary_to_jsonl(&binary).expect("own encoding converts").into_bytes();
        for bytes in [binary, jsonl] {
            let mut cuts: Vec<usize> = splits.iter().map(|&s| if bytes.is_empty() { 0 } else { s % (bytes.len() + 1) }).collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut dec = StreamDecoder::new();
            let mut decoded = Vec::new();
            for pair in cuts.windows(2) {
                dec.push(&bytes[pair[0]..pair[1]]);
                while let Some(rec) = dec.next_event().expect("valid stream decodes") {
                    decoded.push(rec);
                }
            }
            dec.finish().expect("stream ends at a frame boundary");
            prop_assert_eq!(&decoded, &records);
        }
    }

    /// A JSONL stream cut off inside its last line, or just before that
    /// line's newline, yields the complete lines' records and then fails
    /// `finish` with a typed error.
    #[test]
    fn a_jsonl_tail_without_its_newline_fails_finish(records in arb_records(), cut in any::<usize>()) {
        if records.is_empty() {
            return Ok(());
        }
        let text = binary_to_jsonl(&encode_events(&records)).expect("own encoding converts");
        let body = text.trim_end_matches('\n');
        let last_line = body.rfind('\n').map_or(0, |nl| nl + 1);
        let end = last_line + 1 + cut % (body.len() - last_line);
        let mut dec = StreamDecoder::new();
        dec.push(&text.as_bytes()[..end]);
        let mut decoded = Vec::new();
        while let Some(rec) = dec.next_event().expect("complete lines decode") {
            decoded.push(rec);
        }
        prop_assert_eq!(&decoded[..], &records[..records.len() - 1]);
        prop_assert_eq!(dec.finish(), Err(StreamError::Truncated { at: last_line }));
    }
}
