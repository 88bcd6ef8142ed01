//! `dgrid` — command-line front end for the desktop-grid simulator.
//!
//! ```text
//! dgrid run     --algorithm rn-tree --scenario mixed/light [options]
//! dgrid compare --scenario clustered/heavy [options]
//! dgrid report  --events events.{jsonl|bin} [--timeseries series.json]
//! dgrid watch   --events events.{jsonl|bin} [--follow] [--window SECS]
//! dgrid events convert --events IN --out OUT [--to jsonl|binary]
//! dgrid check   [--seeds N] [--seed BASE] [--out PATH] [--matchmaker M[,M...]]
//! dgrid check   --replay repro.json
//! ```
//!
//! `run` executes one cell and prints the report (`--replications R` fans R
//! seeds out over the work-stealing pool and averages them); `compare` runs
//! every algorithm on the same workload and replications and prints a
//! comparison table (with `--scenario-file`, per-tenant fairness and waits
//! too); `report` renders a per-phase wait-time decomposition from a
//! recorded event stream; `watch` renders a dashboard of one, live or
//! recorded; `events convert` rewrites one in the other format; `check`
//! fuzzes randomized fault scenarios under every matchmaker against the
//! invariant oracles in `dgrid-check` (seeds checked in parallel),
//! shrinking any violation to a minimal replayable artifact. Host time is
//! measured by `benchmark/` alone.
//!
//! Each command is a module with its own options struct, whose doc comments
//! say what each flag means. A command takes exactly the flags it declares
//! and prints the usage line generated from them when one is wrong; a flag
//! only another command takes is refused by name. All replicated work is
//! deterministic: results are merged in input order, so the same seed
//! yields the same bytes at any `--threads` setting.

mod check;
mod convert;
mod report;
mod run;
mod watch;

use std::cell::RefCell;
use std::fs::File;
use std::io::{Read, Write};
use std::rc::Rc;

use dgrid::check::LeaseSpec;
use dgrid::cli::{self, die, number, parsed, some, Options, OrExit, Parsed};
use dgrid::core::{
    BinaryObserver, EventRecord, JsonlObserver, Observer, PlacementPolicy, StreamDecoder,
    StreamFormat,
};
use dgrid::harness::Algorithm;
use dgrid::workloads::{scenario_preset, PaperScenario, ScenarioSpec, SCENARIO_PRESETS};

use check::CheckOpts;
use cli::{takes, usage_line};
use convert::ConvertOpts;
use report::ReportOpts;
use run::{RunOpts, SimOpts};
use watch::WatchOpts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    match words[..] {
        ["run", ..] => run::run(parse(&args[1..])),
        ["compare", ..] => run::compare(parse(&args[1..])),
        ["report", ..] => report::report(parse(&args[1..])),
        ["watch", ..] => watch::watch(parse(&args[1..])),
        ["events", "convert", ..] => convert::convert(parse(&args[2..])),
        ["check", ..] => check::check(parse(&args[1..])),
        ["bench", ..] => die(
            "dgrid bench is gone: host time is measured by `cargo run --release \
             --manifest-path benchmark/Cargo.toml`, and the simulated tables come \
             from `dgrid compare --replications R`",
        ),
        _ => {
            let lines: Vec<String> = COMMANDS.iter().map(|(usage, _)| usage()).collect();
            die(format_args!("{}{}", lines.join("\n"), registries()))
        }
    }
}

/// A command's usage line, and whether it takes a flag.
type Command = (fn() -> String, fn(&str) -> bool);

/// Every command, in the order `dgrid` lists them.
const COMMANDS: [Command; 6] = [
    (usage_line::<RunOpts>, takes::<RunOpts>),
    (usage_line::<SimOpts>, takes::<SimOpts>),
    (usage_line::<ReportOpts>, takes::<ReportOpts>),
    (usage_line::<WatchOpts>, takes::<WatchOpts>),
    (usage_line::<ConvertOpts>, takes::<ConvertOpts>),
    (usage_line::<CheckOpts>, takes::<CheckOpts>),
];

/// One command's options from its arguments.
fn parse<O: Options>(args: &[String]) -> O {
    cli::parse(args, |flag| COMMANDS.iter().any(|(_, takes)| takes(flag)))
}

/// The flag that loads a declarative scenario, in `run`, `compare` and
/// `check`.
const SCENARIO_FILE: &str = "--scenario-file";

/// Resolve `--scenario-file`: a preset label from the scenario registry, or
/// a path to a JSON [`ScenarioSpec`] (sparse — absent fields take defaults).
fn parse_scenario_file(val: &str) -> ScenarioSpec {
    if let Some(spec) = scenario_preset(val) {
        return spec;
    }
    let json = std::fs::read_to_string(val).unwrap_or_else(|e| {
        let known = SCENARIO_PRESETS.join(", ");
        die(format_args!(
            "{SCENARIO_FILE} {val:?}: not a preset (known: {known}) and not a readable file: {e}"
        ))
    });
    ScenarioSpec::from_json(&json)
        .unwrap_or_else(|e| die(format_args!("{SCENARIO_FILE} {val}: {e}")))
}

/// The labels `--algorithm`, `--scenario` and `--scenario-file` accept,
/// from their registries, so the help cannot drift from the parsers.
fn registries() -> String {
    let algorithms = Algorithm::ALL.map(Algorithm::label).join(" ");
    let scenarios = PaperScenario::ALL.map(PaperScenario::label).join(" ");
    let presets = SCENARIO_PRESETS.join(" ");
    format!(
        "\nalgorithms: {algorithms}\n\
         scenarios : {scenarios}\n\
         presets   : {presets} (for {SCENARIO_FILE}; or a JSON spec path)"
    )
}

/// The flag that arms owner leases; the other lease flags need it.
const LEASE_TTL: &str = "--lease-ttl";

cli::options! {
    /// The `--lease-*` and `--placement` flags. No lease is armed without
    /// `--lease-ttl`; with it, the flags left out take the command's
    /// defaults.
    #[derive(Debug)]
    struct Lease {
        /// `--lease-ttl SECS`, and as typed; `inf` arms leases that never
        /// expire.
        ttl: Option<(f64, String)> = None, LEASE_TTL, "SECS", some(ttl);
        renew: Option<f64> = None, "--lease-renew", "SECS", some(above_0()) => Needs(LEASE_TTL);
        grace: Option<f64> = None, "--lease-grace", "SECS", some(at_least_0()) => Needs(LEASE_TTL);
        placement: Option<PlacementPolicy> = None, "--placement", "hash|load-aware",
            some(parsed("hash or load-aware")) => Needs(LEASE_TTL);
        /// The lease the flags arm, once they are all read.
        armed: Option<LeaseSpec> = None;
    }
}

/// `--lease-ttl`'s value: above 0, kept as typed for the refusal below.
fn ttl(val: &str) -> Parsed<(f64, String)> {
    Ok((number("above 0", |x| x > 0.0)(val)?, val.to_string()))
}

impl Lease {
    /// Arm the lease `--lease-ttl` asks for, with `defaults` for what the
    /// flags leave out. A ttl within the renew interval is refused; an
    /// infinite one switches expiry off, so it has no renew interval to
    /// exceed.
    fn arm(&mut self, defaults: LeaseSpec) -> Parsed<()> {
        let Some((ttl_secs, typed)) = &self.ttl else {
            return Ok(());
        };
        let renew_secs = self.renew.unwrap_or(defaults.renew_secs);
        if ttl_secs.is_finite() && *ttl_secs <= renew_secs {
            let want = format!("above the renew interval ({renew_secs} s)");
            return Err(format!("{LEASE_TTL}: {typed:?} is not {want}"));
        }
        self.armed = Some(LeaseSpec {
            ttl_secs: *ttl_secs,
            renew_secs,
            grace_secs: self.grace.unwrap_or(defaults.grace_secs),
            placement: self.placement.unwrap_or(defaults.placement),
        });
        Ok(())
    }
}

/// Seconds that are finite and at least 0.
fn at_least_0() -> impl Fn(&str) -> Parsed<f64> {
    number("at least 0", |x| x.is_finite() && x >= 0.0)
}

/// Seconds that are finite and above 0.
fn above_0() -> impl Fn(&str) -> Parsed<f64> {
    number("above 0", |x| x.is_finite() && x > 0.0)
}

/// A probability or fraction.
fn fraction() -> impl Fn(&str) -> Parsed<f64> {
    number("in [0, 1]", |x| (0.0..=1.0).contains(&x))
}

/// The sparkline and timeline width of `report` and `watch` without
/// `--width`.
const WIDTH: usize = 48;

/// Every record of the event stream at `path`, in either format, to `each`
/// with the stream's format; returns the format and the stream's length in
/// bytes.
fn decode(path: &str, mut each: impl FnMut(StreamFormat, EventRecord)) -> (StreamFormat, usize) {
    let mut file = File::open(path).or_exit(path, "read");
    let mut decoder = StreamDecoder::new();
    let len = feed(path, &mut file, &mut decoder, &mut each);
    decoder.finish().or_exit(path, "decode");
    let format = decoder.format().expect("a finished stream has a format");
    (format, len)
}

/// Push the rest of `file` into `decoder` in fixed-size chunks, and each
/// record it completes to `each`; returns the number of bytes read. The
/// decoder drops what it has decoded, so memory stays at one chunk plus
/// one partial frame or line, however long the stream.
fn feed(
    path: &str,
    file: &mut File,
    decoder: &mut StreamDecoder,
    each: &mut impl FnMut(StreamFormat, EventRecord),
) -> usize {
    let mut chunk = vec![0; 1 << 16];
    let mut read = 0;
    loop {
        let n = file.read(&mut chunk).or_exit(path, "read");
        if n == 0 {
            return read;
        }
        read += n;
        decoder.push(&chunk[..n]);
        while let Some(rec) = decoder.next_event().or_exit(path, "decode") {
            each(decoder.format().expect("a record settles the format"), rec);
        }
    }
}

/// The stream observer of `format`, writing into `sink`, shared so the
/// caller can still [`finish`](Observer::finish) it once an engine has
/// consumed a handle.
fn stream_observer<W: Write + 'static>(format: StreamFormat, sink: W) -> Rc<RefCell<dyn Observer>> {
    match format {
        StreamFormat::Jsonl => Rc::new(RefCell::new(JsonlObserver::new(sink))),
        StreamFormat::Binary => Rc::new(RefCell::new(BinaryObserver::new(sink))),
    }
}

/// A `Write` handle whose buffer survives the observer that consumes it, so
/// a replication running on a pool worker can hand its event bytes back
/// after the engine (and the observer boxed inside it) is dropped. Never
/// shared across threads — each replication builds its own.
#[derive(Clone, Default)]
struct SharedSink(Rc<RefCell<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
