//! `dgrid events convert`: lossless conversion between the JSONL and
//! binary stream formats.

use dgrid::cli::{self, parsed, some, text, OrExit};
use dgrid::core::StreamFormat;
use dgrid::sim::SimTime;

use crate::{decode, stream_observer, SharedSink};

cli::options! {
    #[derive(Debug)]
    pub struct ConvertOpts as "dgrid events convert" {
        /// `--events IN`: the input stream, either format.
        events: String = String::new(), "--events", "IN", text => Required;
        /// `--out OUT`: the output stream.
        out: String = String::new(), "--out", "OUT", text => Required;
        /// `--to F`: the target format, `jsonl` or `binary`; the opposite
        /// of the input's unless given.
        to: Option<StreamFormat> = None, "--to", "jsonl|binary", some(parsed("jsonl or binary"));
    }
}

/// Re-encoding through the record layer validates the stream, and
/// normalizes a concatenated multi-replication binary file down to a single
/// header when the target is binary too. Each record is re-encoded as it is
/// decoded; the output is held in memory and written once the whole input
/// has decoded, so a malformed input writes nothing, and `--out` may name
/// the input itself.
pub fn convert(opts: ConvertOpts) {
    let (input, output) = (&opts.events, &opts.out);
    let target = |from| match (opts.to, from) {
        (Some(to), _) => to,
        (None, StreamFormat::Jsonl) => StreamFormat::Binary,
        (None, StreamFormat::Binary) => StreamFormat::Jsonl,
    };
    let sink = SharedSink::default();
    let mut observer = None;
    let (from, in_len) = decode(input, |from, rec| {
        let observer = observer.get_or_insert_with(|| stream_observer(target(from), sink.clone()));
        observer
            .borrow_mut()
            .on_event(SimTime::from_nanos(rec.t_ns), rec.event)
    });
    let out_bytes = sink.0.take();
    std::fs::write(output, &out_bytes).or_exit(output, "write");
    eprintln!(
        "converted {input} ({}) -> {output} ({}): {in_len} -> {} bytes ({:.2}x)",
        from.label(),
        target(from).label(),
        out_bytes.len(),
        in_len as f64 / (out_bytes.len().max(1)) as f64,
    );
}
