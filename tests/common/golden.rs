//! The golden registry: every pinned engine stream, in one table.
//!
//! A row names one traced run: a builder returning the [`Engine`] and the
//! format its observer writes. It pins the stream's FNV-1a hash and length,
//! and any [`Fact`] of the run's report it also holds fixed. [`check`] runs
//! the rows a test selects, several at once, each on a one-thread pool. It
//! fails with every drifted row printed as the table line that pins what the
//! run now does. Tests that hold a row's run to its pin under another
//! configuration (more threads, infinite leases, a binary round trip) look
//! the row up by name with [`row`].
//!
//! A row is named `group/member` or by its group alone; a selector names a
//! group or one row. Rows are checked by the suites that pinned them. The
//! three heavy rows (`central_10k` and the two `rn_tree_100k_*` runs) are
//! `#[ignore]`d tests of the same names in `stream_golden_e2e`, run by CI on
//! a release build.
//!
//! # Re-pinning
//!
//! Only a change that declares it alters the simulation may re-pin, and it
//! says so in CHANGES.md. Run every row, the heavy ones included:
//!
//! ```text
//! cargo test --release --test stream_golden_e2e -- --ignored --exact every_row_matches_its_pin
//! ```
//!
//! The failure prints each drifted row as its line of [`ROWS`] with the new
//! hash, length and facts. Paste those lines over the old ones: the re-pin
//! is one hunk in this file. The post-run digests in `stream_golden_e2e`
//! are not stream pins; their test prints its own table the same way.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dgrid::core::{
    BinaryObserver, ChurnConfig, Engine, EngineConfig, FaultPlan, JobDag, JsonlObserver, Observer,
    PlacementPolicy, SimReport, StreamFormat,
};
use dgrid::harness::Algorithm;
use dgrid::workloads::{
    diurnal_wave, flash_crowd, paper_scenario, CompiledScenario, PaperScenario,
    RuntimeDistribution, ScenarioSpec, WorkloadConfig,
};
use rayon::Pool;

use super::pin::{Pin, SharedBuf};
use super::{dag_engine, owner_departure_engine, reversed_blocks_engine, t0_pileup_engine};
use Algorithm::{
    Can, CanNoVirtualDim, CanPush, Central, PubSub, RnTree, RnTreePastry, RnTreeTapestry,
};
use Fact::{Departures, JobsFailed, MakespanBits, SweptAtNs};
use StreamFormat::{Binary, Jsonl};

/// The seed of the 40-node, 10⁴-node and central rows.
pub const SEED: u64 = 1993;

/// The seed of the lease and membership-churn rows, and of the sharded
/// 40-node rows.
const CHURN_SEED: u64 = 4_111;

/// The seed the scenario rows compile their specs at.
pub const SCENARIO_SEED: u64 = 2007;

/// The five matchmaker variants the 40-node rows pin, in table order.
pub const FORTY: [Algorithm; 5] = [RnTree, Can, CanPush, CanNoVirtualDim, Central];

/// A row: one run, in one format, and what it is pinned to.
pub struct Row {
    pub name: &'static str,
    pub format: StreamFormat,
    run: fn() -> Engine,
    /// The builder as written in the table, for the drift line.
    run_src: &'static str,
    pub pin: Pin,
    pub facts: &'static [Fact],
}

/// A pinned fact of a run's report, beside its stream.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// `makespan_secs`, bit for bit.
    MakespanBits(u64),
    /// `jobs_failed`.
    JobsFailed(u64),
    /// The time of the horizon sweep: the `t_ns` of the first of the
    /// stream's last `jobs_failed` lines.
    SweptAtNs(u64),
    /// Node departures: `node_failures + graceful_leaves`.
    Departures(u64),
}

macro_rules! row {
    ($name:literal, $format:ident, $run:expr, $hash:literal, $len:literal $(, [$($fact:expr),*])?) => {
        Row {
            name: $name,
            format: $format,
            run: || $run,
            run_src: stringify!($run),
            pin: Pin { hash: $hash, len: $len },
            facts: &[$($($fact),*)?],
        }
    };
}

/// Every pinned engine stream. `sharded(..)` runs are pinned at one pool
/// thread; their suites hold them to the same pin at more.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    // The 40-node run under churn and 3 % loss, pinned before the KeyRouter
    // refactor (JSONL) and harvested from the same runs before the
    // id-indexed kernel landed (binary).
    row!("forty/rn-tree", Jsonl, forty(RnTree, SEED), 0xc27b93d5c4666b3a, 44_666),
    row!("forty/can", Jsonl, forty(Can, SEED), 0xcd99c1924fe56479, 44_802),
    row!("forty/can-push", Jsonl, forty(CanPush, SEED), 0xcb962c1e160b0a09, 44_655),
    row!("forty/can-novirt", Jsonl, forty(CanNoVirtualDim, SEED), 0xeedac32629bc6f6b, 44_707),
    row!("forty/central", Jsonl, forty(Central, SEED), 0x659c34daabb90735, 44_289),
    row!("forty/rn-tree", Binary, forty(RnTree, SEED), 0xdac90070a29c074a, 5_957),
    row!("forty/can", Binary, forty(Can, SEED), 0xf21f867a2da3eddf, 5_813),
    row!("forty/can-push", Binary, forty(CanPush, SEED), 0x0b4ab6844e0709b4, 5_871),
    row!("forty/can-novirt", Binary, forty(CanNoVirtualDim, SEED), 0x93ee017ba33679bf, 5_786),
    row!("forty/central", Binary, forty(Central, SEED), 0xb3bd041fabd1eb5e, 5_751),
    // 10⁴ nodes, pinned when the id-indexed kernel landed; the Pastry and
    // Tapestry rows at `886afc4`, before the substrates shared one
    // membership type.
    row!("ten_k/rn-tree", Jsonl, ten_k(RnTree), 0xd04004fd7cc07c7d, 762_263),
    row!("ten_k/central", Jsonl, ten_k(Central), 0xdab563c9363b4965, 751_837),
    row!("ten_k/rn-tree@pastry", Jsonl, ten_k(RnTreePastry), 0xc4cef2f1ac3a173d, 762_770),
    row!("ten_k/rn-tree@tapestry", Jsonl, ten_k(RnTreeTapestry), 0x035c16b2cf754b3a, 775_751),
    // Pinned before the central scan moved onto the node table's columns.
    row!("central_churn", Jsonl, central_churn(), 0xb81035d9d1d95356, 1_155_299),
    // Pinned before the central scan took its capability index.
    row!("central_10k", Jsonl, central_10k(), 0xf36ea99a3b559d88, 7_653_688),
    // Pinned before the stream's wire schema became one table.
    row!("central_tie", Jsonl, central_tie(), 0xc2a4cf10fa4ac897, 372_683),
    // Pinned on the calendar queue, before the radix heap replaced it.
    row!("rn_tree_100k_rare_failures", Jsonl, churn_100k(2e7), 0x13cdf667d26c249a, 11_624_639),
    row!("rn_tree_100k_daily_failures", Jsonl, churn_100k(86_400.0), 0x40e72f252f216df4, 11_786_441),
    // Pinned before the event queue took the arrival stream as a sorted run.
    row!("reversed_blocks", Jsonl, reversed_blocks_engine(SEED), 0x8fa048e8abf2b782, 44_382),
    row!("t0_pileup", Jsonl, t0_pileup_engine(SEED), 0x8adc34920eeb67d0, 44_982),
    // Pinned before the DAG hold left the job record and owner sets became
    // per-node lists.
    row!("dag", Jsonl, dag_engine(SEED), 0x9ef41d4be839ca33, 46_885),
    row!("owner_departure", Jsonl, owner_departure_engine(SEED), 0x86bcfa2d0b7567a3, 158_600),
    // Leased runs under `placement = hash`, pinned before load-aware
    // run-node selection landed.
    row!("placement/rn-tree", Jsonl, leased_forty(RnTree, PlacementPolicy::Hash), 0x52a5f50a6bf05bfd, 44_662),
    row!("placement/rn-tree@pastry", Jsonl, leased_forty(RnTreePastry, PlacementPolicy::Hash), 0xd6cfa0e509d7888e, 44_663),
    row!("placement/rn-tree@tapestry", Jsonl, leased_forty(RnTreeTapestry, PlacementPolicy::Hash), 0xd162b8dfbc8e5d95, 44_529),
    row!("placement/central", Jsonl, leased_forty(Central, PlacementPolicy::Hash), 0x7a9bd6130068b46e, 44_216),
    // Pinned before the RN-Tree index was refreshed in place and a leased
    // job kept one pending expiry.
    row!("leased_horizon/400", Jsonl, leased_churn(400.0), 0x4fe6872f53ce14f4, 516_208, [MakespanBits(0x4078fff8baaa9c87), JobsFailed(1_556), SweptAtNs(399_998_224_894)]),
    row!("leased_horizon/555.5", Jsonl, leased_churn(555.5), 0xca07d3d4a6e635c4, 662_093, [MakespanBits(0x40815bbd8919a246), JobsFailed(1_187), SweptAtNs(555_467_546_654)]),
    row!("leased_horizon/701.25", Jsonl, leased_churn(701.25), 0x56bb488661cc96ba, 806_431, [MakespanBits(0x4085e9d5f7a842aa), JobsFailed(807), SweptAtNs(701_229_476_275)]),
    row!("leased_horizon/900", Jsonl, leased_churn(900.0), 0xdaf8a3bb6195ec9b, 906_625, [MakespanBits(0x408c200000000000), JobsFailed(329), SweptAtNs(900_000_000_000)]),
    row!("churned/rn-tree@pastry", Jsonl, churned(RnTreePastry, 2_000, 4_000.0, 3_000_000.0), 0x2383d138d1de94b2, 822_564, [Departures(344)]),
    row!("churned/rn-tree@tapestry", Jsonl, churned(RnTreeTapestry, 1_000, 4_000.0, 3_000.0), 0x192334afbd913225, 483_498, [Departures(701)]),
    // Sequential runs pinned above in JSONL, pinned in binary too before
    // the stream's wire schema became one table; with the `forty` binary
    // rows they carry every event tag, the departure ones (`NodeDown` and
    // `NodeUp`) in `central_churn` and `leased_horizon/900` alone. A group
    // of their own keeps the selectors of the JSONL suites above JSONL-only.
    row!("binary/central_churn", Binary, central_churn(), 0x0addb313fa14288d, 158_675),
    row!("binary/leased_horizon/900", Binary, leased_churn(900.0), 0x85ae4d1ca174a5d3, 125_072, [MakespanBits(0x408c200000000000), JobsFailed(329)]),
    row!("binary/central_tie", Binary, central_tie(), 0xa8b33396f3647772, 49_136),
    // The sharded kernel. Its 40-node and 10⁴-node rows were pinned before
    // the run-node handlers were unified; the others on the same commits as
    // their sequential twins above.
    row!("sharded/forty/rn-tree", Jsonl, sharded(forty(RnTree, CHURN_SEED)), 0x14d9d6077d120175, 44_688),
    row!("sharded/forty/can", Jsonl, sharded(forty(Can, CHURN_SEED)), 0xb5d57464bf95acc5, 44_646),
    row!("sharded/forty/can-push", Jsonl, sharded(forty(CanPush, CHURN_SEED)), 0xedc045e1fd59dd5e, 44_641),
    row!("sharded/forty/can-novirt", Jsonl, sharded(forty(CanNoVirtualDim, CHURN_SEED)), 0xb826718c8a488098, 44_613),
    row!("sharded/forty/central", Jsonl, sharded(forty(Central, CHURN_SEED)), 0x73490d07f68c6206, 44_327),
    row!("sharded/ten_k", Jsonl, sharded(ten_k(RnTree)), 0x0742deb17fd37a66, 762_088),
    row!("sharded/ten_k", Binary, sharded(ten_k(RnTree)), 0x4952680636338adb, 121_025),
    row!("sharded/central_churn", Jsonl, sharded(central_churn()), 0x3a1f5c3b99b58c21, 1_152_923),
    row!("sharded/central_churn", Binary, sharded(central_churn()), 0x43de4a46c870e358, 158_364),
    row!("sharded/reversed_blocks", Jsonl, sharded(reversed_blocks_engine(SEED)), 0xd5e4276c3852cb21, 44_826),
    row!("sharded/t0_pileup", Jsonl, sharded(t0_pileup_engine(SEED)), 0x0600bf1aceaa14e8, 45_179),
    row!("sharded/dag", Jsonl, sharded(dag_engine(SEED)), 0xedadb2db6db6538a, 46_320),
    row!("sharded/owner_departure", Jsonl, sharded(owner_departure_engine(SEED)), 0x8078854f6c0bbc89, 158_641),
    row!("sharded/leased_churn", Jsonl, sharded(leased_churn(3_000_000.0)), 0xdc3425902a95e6a7, 925_820, [MakespanBits(0x409c2438a1a805ee)]),
    row!("sharded/short_lease", Jsonl, sharded(short_lease()), 0xe1f73759c024787c, 72_194, [MakespanBits(0x4027ffc149472cf6)]),
    // Compiled scenario specs on the sharded kernel, pinned on the same
    // commit as its 40-node rows.
    row!("scenario/flash-crowd", Jsonl, sharded(scenario(flash_crowd(), RnTree)), 0xe8c39f4016627fca, 78_880),
    row!("scenario/flash-crowd", Binary, sharded(scenario(flash_crowd(), RnTree)), 0x2bf9aa4b7bfaa416, 10_392),
    row!("scenario/diurnal-wave", Jsonl, sharded(scenario(diurnal_wave(), RnTree)), 0xe1f6d12d71633e11, 82_680),
    row!("scenario/diurnal-wave", Binary, sharded(scenario(diurnal_wave(), RnTree)), 0xe9a4520eb798beb2, 10_995),
    row!("scenario/pub-sub", Jsonl, sharded(scenario(flash_crowd(), PubSub)), 0xeb78cf0fc483b445, 81_233),
    row!("scenario/pub-sub", Binary, sharded(scenario(flash_crowd(), PubSub)), 0xc97fc1a44685f78f, 10_770),
];

/// The row named `name` in `format`.
pub fn row(name: &str, format: StreamFormat) -> &'static Row {
    ROWS.iter()
        .find(|r| r.name == name && r.format == format)
        .unwrap_or_else(|| panic!("no {format:?} row is named {name}"))
}

/// Run every row one of `selectors` names, and fail listing each row whose
/// stream or facts drifted from its pin. Returns the rows with their runs.
pub fn check(selectors: &[&str]) -> Vec<(&'static Row, Capture)> {
    for s in selectors {
        assert!(ROWS.iter().any(|r| r.in_group(s)), "no row is named {s}");
    }
    check_rows(
        ROWS.iter()
            .filter(|r| selectors.iter().any(|s| r.in_group(s)))
            .collect(),
    )
}

/// [`check`] every row, the heavy ones included.
pub fn check_all() {
    check_rows(ROWS.iter().collect());
}

/// [`check`], then each selected row again on a pool of every size in
/// `threads`, which must reproduce the one-thread run's pin and facts.
pub fn check_at(selectors: &[&str], threads: &[usize]) -> Vec<(&'static Row, Capture)> {
    let checked = check(selectors);
    for (row, _) in &checked {
        for &t in threads {
            if let Some(line) = row.drift(&row.capture_at(t)) {
                panic!(
                    "{}: the run at {t} threads diverged from one thread's:\n{line}",
                    row.id()
                );
            }
        }
    }
    checked
}

fn check_rows(rows: Vec<&'static Row>) -> Vec<(&'static Row, Capture)> {
    let captures = capture_all(&rows);
    let drifted: Vec<String> = rows
        .iter()
        .zip(&captures)
        .filter_map(|(row, capture)| row.drift(capture))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} rows drifted from their pins. If the change declares that it alters \
         the simulation, paste these lines over theirs in tests/common/golden.rs:\n{}",
        drifted.len(),
        rows.len(),
        drifted.join("\n")
    );
    rows.into_iter().zip(captures).collect()
}

/// Each row's run, in table order, with as many runs at a time as the host
/// has cores.
fn capture_all(rows: &[&'static Row]) -> Vec<Capture> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Capture>>> = rows.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(rows.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(row) = rows.get(i) else { break };
                *slots[i].lock().expect("no run panics holding its slot") = Some(row.capture());
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no run panics holding its slot")
                .expect("every row ran")
        })
        .collect()
}

impl Row {
    /// Whether selector `s` names this row: its name, or its group.
    fn in_group(&self, s: &str) -> bool {
        self.name
            .strip_prefix(s)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    }

    /// Whether the row runs on the sequential kernel.
    pub fn is_sequential(&self) -> bool {
        !self.run_src.starts_with("sharded(")
    }

    /// `name [format]`, for messages.
    pub fn id(&self) -> String {
        format!("{} [{:?}]", self.name, self.format)
    }

    /// The row's run on a one-thread pool.
    pub fn capture(&self) -> Capture {
        self.capture_at(1)
    }

    /// The row's run on a pool of `threads`.
    pub fn capture_at(&self, threads: usize) -> Capture {
        Pool::install(threads, || capture((self.run)(), self.format))
    }

    /// The table line that would pin `capture`, if it is not this row's.
    fn drift(&self, capture: &Capture) -> Option<String> {
        let pin = Pin::of(&capture.bytes);
        let facts: Vec<Fact> = self.facts.iter().map(|f| f.of(capture)).collect();
        (pin != self.pin || facts != self.facts).then(|| self.line(pin, &facts))
    }

    /// This row's line of [`ROWS`], pinned to `pin` and `facts`.
    pub fn line(&self, pin: Pin, facts: &[Fact]) -> String {
        let mut line = format!(
            "    row!({:?}, {:?}, {}, {:#018x}, {}",
            self.name,
            self.format,
            self.run_src,
            pin.hash,
            grouped(pin.len as u64)
        );
        if !facts.is_empty() {
            let facts: Vec<String> = facts.iter().map(Fact::to_string).collect();
            line += &format!(", [{}]", facts.join(", "));
        }
        line + "),"
    }
}

impl Fact {
    /// This fact as `capture` has it.
    fn of(self, capture: &Capture) -> Fact {
        let report = &capture.report;
        match self {
            MakespanBits(_) => MakespanBits(report.makespan_secs.to_bits()),
            JobsFailed(_) => JobsFailed(report.jobs_failed),
            SweptAtNs(_) => {
                let swept = last_lines(&capture.bytes, report.jobs_failed as usize);
                SweptAtNs(swept.first().map_or(0, |line| t_ns(line)))
            }
            Departures(_) => Departures(report.node_failures + report.graceful_leaves),
        }
    }
}

/// As the table writes it.
impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MakespanBits(bits) => write!(f, "MakespanBits({bits:#018x})"),
            JobsFailed(n) => write!(f, "JobsFailed({})", grouped(n)),
            SweptAtNs(t) => write!(f, "SweptAtNs({})", grouped(t)),
            Departures(n) => write!(f, "Departures({})", grouped(n)),
        }
    }
}

/// `n` with its digits in groups of three: `1_155_299`.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// The last `n` lines of a JSONL stream (all of them if it has fewer).
pub fn last_lines(stream: &[u8], n: usize) -> Vec<&str> {
    let lines: Vec<&str> = std::str::from_utf8(stream)
        .expect("JSONL is UTF-8")
        .lines()
        .collect();
    lines[lines.len().saturating_sub(n)..].to_vec()
}

/// The timestamp a JSONL line opens with.
pub fn t_ns(line: &str) -> u64 {
    line.strip_prefix("{\"t_ns\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("{line}: no leading t_ns"))
}

/// A traced run: its stream and report.
pub struct Capture {
    pub bytes: Vec<u8>,
    pub report: SimReport,
}

/// `engine` run with an observer writing `format`; the stream is followed
/// by the run's time series as JSON when it sampled one.
pub fn capture(mut engine: Engine, format: StreamFormat) -> Capture {
    let buf = SharedBuf::default();
    let observer: Box<dyn Observer> = match format {
        Jsonl => Box::new(JsonlObserver::new(buf.clone())),
        Binary => Box::new(BinaryObserver::new(buf.clone())),
    };
    engine.set_observer(observer);
    let report = engine.run();
    let mut bytes = buf.take();
    assert!(!bytes.is_empty(), "traced run must emit events");
    if let Some(ts) = &report.timeseries {
        let json = serde_json::to_string(ts).expect("time series serializes");
        bytes.extend_from_slice(json.as_bytes());
    }
    Capture { bytes, report }
}

/// `engine` on the sharded kernel at its default shard count.
pub fn sharded(engine: Engine) -> Engine {
    engine.with_sharded_execution(Engine::DEFAULT_SHARDS)
}

fn churn(mttf_secs: f64, rejoin_after_secs: f64, graceful_fraction: f64) -> ChurnConfig {
    ChurnConfig {
        mttf_secs: Some(mttf_secs),
        rejoin_after_secs: Some(rejoin_after_secs),
        graceful_fraction,
    }
}

/// `alg` on 40 nodes offered 120 `mixed/light` jobs under churn (MTTF
/// 40 000 s) and 3 % loss: small, but order-sensitive on every path a lost
/// message takes. The runs end after ~960 s of virtual time, before any
/// node departs, so they cover loss, not departures: `central_churn`,
/// `dag`, `owner_departure`, `t0_pileup`, `leased_horizon/701.25` and
/// `/900`, `churned/*` and `ten_k/rn-tree@tapestry` carry both `NodeDown`
/// and `NodeUp`.
pub fn forty(alg: Algorithm, seed: u64) -> Engine {
    forty_with(alg, seed, EngineConfig::default())
}

/// [`forty`] with `base`'s settings besides the seed and horizon.
pub fn forty_with(alg: Algorithm, seed: u64, base: EngineConfig) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 40, 120, seed);
    let cfg = EngineConfig {
        seed,
        max_sim_secs: 3_000_000.0,
        ..base
    };
    Engine::new(
        cfg,
        churn(40_000.0, 900.0, 0.25),
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
}

/// [`forty`] with finite leases, so placement acts on the run-node path.
pub fn leased_forty(alg: Algorithm, placement: PlacementPolicy) -> Engine {
    let cfg = EngineConfig {
        lease_ttl_secs: Some(600.0),
        lease_renew_secs: 150.0,
        lease_grace_secs: 60.0,
        placement: Some(placement),
        ..EngineConfig::default()
    };
    forty_with(alg, SEED, cfg)
}

/// `alg` at kernel scale: 10 000 nodes under churn and 3 % loss, the
/// horizon pulled in to keep it cheap. A keyed-map kernel survives the
/// 40-node runs unnoticed; here the id-indexed, radix-heap kernel carries
/// the run, and overlays flip between settled and unsettled both ways.
pub fn ten_k(alg: Algorithm) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 10_000, 2_000, SEED);
    let cfg = EngineConfig {
        seed: SEED,
        max_sim_secs: 8_000.0,
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        churn(400_000.0, 900.0, 0.25),
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
}

/// Central where its scan has something to rank: 300 nodes (several
/// 64-node words of the node table) offered 3 000 jobs at full load, so
/// queues build and busy nodes are ranked by committed work, while ~40
/// crashes and rejoins clear and refill slots.
pub fn central_churn() -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 300, 3_000, SEED);
    let cfg = EngineConfig {
        seed: SEED,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        churn(10_000.0, 300.0, 0.25),
        Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.03))
}

/// Central on 10 000 nodes offered 20 000 jobs at 0.9 load (arrivals
/// stretched by 1/0.9, as the benchmark's `central-stream-1k` does),
/// without churn: each capability quantile of the scan holds ~156 nodes.
pub fn central_10k() -> Engine {
    let mut workload = paper_scenario(PaperScenario::MixedLight, 10_000, 20_000, SEED);
    for s in &mut workload.submissions {
        s.arrival_secs /= 0.9;
    }
    Engine::new(
        dgrid::harness::paper_engine_config(SEED),
        ChurnConfig::none(),
        Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
}

/// Central where busy nodes tie exactly: 100 nodes offered 1 000 jobs of
/// one fixed 100 s runtime at twice their capacity and no churn. A node's
/// committed work sums its jobs' declared runtimes, so once every node is
/// busy the nodes holding the fewest jobs commit exactly equal work, and
/// phase 1 of the scan draws among them.
pub fn central_tie() -> Engine {
    let workload = WorkloadConfig {
        seed: SEED,
        nodes: 100,
        jobs: 1_000,
        mean_interarrival_secs: 0.5,
        runtime_distribution: RuntimeDistribution::Fixed,
        ..WorkloadConfig::default()
    }
    .generate();
    let cfg = EngineConfig {
        seed: SEED,
        max_sim_secs: 3_000_000.0,
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        ChurnConfig::none(),
        Central.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
}

/// `dgrid run --algorithm rn-tree --nodes 100000 --jobs 30000 --seed 7
/// --rejoin 600 --mttf <mttf_secs>`: one exponential lifetime per node
/// waits in the queue beside the run's own traffic from the first event.
pub fn churn_100k(mttf_secs: f64) -> Engine {
    let compiled = CompiledScenario {
        workload: paper_scenario(PaperScenario::MixedLight, 100_000, 30_000, 7),
        fault_plan: FaultPlan::none(),
        schedule: Vec::new(),
        churn: churn(mttf_secs, 600.0, 0.0),
        horizon_secs: 5_000_000.0,
        tenant_names: Vec::new(),
    };
    let cfg = EngineConfig {
        seed: 7,
        ..EngineConfig::default()
    };
    compiled.engine(cfg, RnTree.matchmaker())
}

/// Leased RN-Tree over Chord on 300 nodes under churn and 2 % loss, cut at
/// `max_sim_secs`. A renewal every 30 s and an expiry bound of 130 s keep
/// four renewals of every live lease in flight within one bound.
pub fn leased_churn(max_sim_secs: f64) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 300, 2_400, CHURN_SEED);
    let cfg = EngineConfig {
        seed: CHURN_SEED,
        max_sim_secs,
        lease_ttl_secs: Some(120.0),
        lease_renew_secs: 30.0,
        lease_grace_secs: 10.0,
        placement: Some(PlacementPolicy::LoadAware),
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        churn(20_000.0, 600.0, 0.5),
        RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.02))
}

/// RN-Tree over `alg`'s substrate on 1 000 nodes under churn fast enough
/// to rebuild the index hundreds of times, and 2 % loss.
pub fn churned(alg: Algorithm, jobs: usize, mttf_secs: f64, max_sim_secs: f64) -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 1_000, jobs, CHURN_SEED);
    let cfg = EngineConfig {
        seed: CHURN_SEED,
        max_sim_secs,
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        churn(mttf_secs, 300.0, 0.5),
        alg.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.02))
}

/// A leased run whose expiry bound (20 ms) is shorter than the sharded
/// kernel's window (the 30 ms one-hop floor), renewing every 10 ms under
/// 2 % loss: a window holds several arms of one job, and an expiry that a
/// renewal superseded has its successor fall due inside the same window.
pub fn short_lease() -> Engine {
    let workload = paper_scenario(PaperScenario::MixedLight, 400, 40, CHURN_SEED);
    let cfg = EngineConfig {
        seed: CHURN_SEED,
        max_sim_secs: 12.0,
        lease_ttl_secs: Some(0.02),
        lease_renew_secs: 0.01,
        lease_grace_secs: 0.0,
        placement: Some(PlacementPolicy::Hash),
        ..EngineConfig::default()
    };
    Engine::new(
        cfg,
        ChurnConfig::none(),
        RnTree.matchmaker(),
        workload.nodes,
        workload.submissions,
    )
    .with_fault_plan(FaultPlan::with_loss(0.02))
}

/// `spec` shrunk so every thread-count comparison stays fast while each of
/// its features (burst, tenants, quota, failure domain, loss, diurnal
/// schedule) still fires.
pub fn compact(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.nodes = 48;
    spec.jobs = 200;
    for t in &mut spec.tenants {
        // Keep quotas binding relative to the shrunken job count.
        t.quota = t.quota.map(|q| q.min(100));
    }
    spec
}

/// [`compact`]`(spec)` compiled and handed to the engine, as `dgrid run
/// --scenario-file` runs it: workload, churn, fault plan and availability
/// schedule.
pub fn scenario(spec: ScenarioSpec, alg: Algorithm) -> Engine {
    let compiled = compact(spec).compile(SCENARIO_SEED);
    let cfg = EngineConfig {
        seed: SCENARIO_SEED,
        max_sim_secs: compiled.horizon_secs,
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_dag_and_schedule(
        cfg,
        compiled.churn,
        alg.matchmaker(),
        compiled.workload.nodes,
        compiled.workload.submissions,
        JobDag::none(),
        compiled.schedule,
    );
    if !compiled.fault_plan.is_none() {
        engine.set_fault_plan(compiled.fault_plan);
    }
    engine
}
