//! `dgrid-check`: invariant-oracle model checker for the dgrid simulator.
//!
//! The checker closes the loop the paper's evaluation leaves open: the
//! simulator *reports* aggregate numbers, but nothing independently verifies
//! that the protocol machinery underneath them is correct. This crate does,
//! with three layers:
//!
//! 1. **Oracles** ([`oracle`]): independent invariants driven purely by the
//!    engine's [`TraceEvent`] stream — job conservation, at-most-once result
//!    commit under epochs, CAN zone partition/neighbor symmetry, Chord
//!    successor consistency after churn quiesces, RN-Tree aggregate
//!    monotonicity, and span-sum conservation.
//! 2. **Scenario fuzzer** ([`scenario`]): a seeded generator composing
//!    random grid sizes, workload presets, churn, partitions, message loss,
//!    and crash schedules. Every scenario runs under every matchmaker
//!    variant ([`CHECKED`] — centralized, RN-Tree over Chord, Pastry, and
//!    Tapestry, CAN, and pub/sub) and the oracle-visible outcomes are
//!    compared differentially. A generated [`Scenario`] and a declarative
//!    [`ScenarioSpec`](dgrid_workloads::ScenarioSpec) both compile to a
//!    [`CompiledRun`], and every check goes through its one pipeline:
//!    [`CompiledRun::check`] for one matchmaker, [`CompiledRun::verdict`]
//!    across a set, [`sweep`] across seeds.
//! 3. **Shrinker** ([`shrink()`]): on violation, greedily shrink the scenario
//!    (fewer nodes, jobs, fault events; shorter horizon) while the
//!    violation still reproduces, and emit a minimal replayable artifact.
//!
//! The CLI entry point is `dgrid check` (see the umbrella crate's binary).
//!
//! [`TraceEvent`]: dgrid_core::TraceEvent

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dgrid_core::{Algorithm, Engine, EngineConfig, Observer, TraceEvent, VecObserver};
use dgrid_resources::JobId;
use dgrid_sim::SimTime;
use dgrid_workloads::CompiledScenario;
use serde::{Deserialize, Serialize};

pub mod artifact;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use artifact::ReproArtifact;
pub use oracle::{battery, FairnessOracle, NoOrphanOracle, TraceOracle, Violation};
pub use scenario::{fault_event_count, Inject, LeaseSpec, Scenario};
pub use shrink::{shrink, ShrinkResult};

/// The matchmakers a check runs unless told otherwise, in report order.
pub const CHECKED: [Algorithm; 6] = [
    Algorithm::Central,
    Algorithm::RnTree,
    Algorithm::RnTreePastry,
    Algorithm::RnTreeTapestry,
    Algorithm::Can,
    Algorithm::PubSub,
];

/// Oracle verdict for one `(scenario, matchmaker)` run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunVerdict {
    /// Which matchmaker ran.
    pub matchmaker: Algorithm,
    /// All oracle violations, empty when the run is clean.
    pub violations: Vec<Violation>,
    /// Terminal fate of every job (`true` = completed), for the
    /// differential comparison across matchmakers.
    pub terminal: BTreeMap<u64, bool>,
}

/// Verdict for one scenario across a set of matchmakers, including the
/// differential comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioVerdict {
    /// Per-matchmaker verdicts, in the order the matchmakers were given.
    pub runs: Vec<RunVerdict>,
    /// Violations from the cross-matchmaker differential comparison.
    pub differential: Vec<Violation>,
}

impl ScenarioVerdict {
    /// True iff every run and the differential comparison are clean.
    pub fn is_clean(&self) -> bool {
        self.differential.is_empty() && self.runs.iter().all(|r| r.violations.is_empty())
    }

    /// Every violation across runs and the differential, flattened.
    pub fn all_violations(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = self
            .runs
            .iter()
            .flat_map(|r| r.violations.iter().cloned())
            .collect();
        out.extend(self.differential.iter().cloned());
        out
    }
}

/// One checked run: a compiled scenario, the seed it runs at, its lease
/// knobs and any injected bug. A generated [`Scenario`] compiles to one
/// ([`Scenario::compile`]), and so does a declarative spec at a sweep seed.
#[derive(Clone, Debug)]
pub struct CompiledRun {
    /// Workload, churn, fault plan, availability schedule and horizon.
    pub scenario: CompiledScenario,
    /// Root seed of the engine and of the oracles' reference overlays.
    pub seed: u64,
    /// `Some` runs the engine leased, arms the no-orphan oracle, and adds
    /// the lease-vs-reassign-on-death differential to [`CompiledRun::verdict`].
    pub lease: Option<LeaseSpec>,
    /// Deliberate engine bugs (the oracles' self-test).
    pub inject: Inject,
}

impl CompiledRun {
    /// The engine that runs this under `mm`, assembled but not yet run — so
    /// a caller can still reconfigure it (switch it to sharded execution,
    /// say) before handing it to [`CompiledRun::judge`].
    pub fn engine(&self, mm: Algorithm) -> Engine {
        let mut cfg = EngineConfig {
            seed: self.seed,
            check_disable_epoch_dedup: self.inject.disable_epoch_dedup,
            ..EngineConfig::default()
        };
        if let Some(lease) = self.lease {
            lease.configure(&mut cfg);
        }
        self.scenario.clone().engine(cfg, mm.matchmaker())
    }

    /// Run this once under `mm` and evaluate the full oracle battery.
    pub fn check(&self, mm: Algorithm) -> RunVerdict {
        self.judge(mm, self.engine(mm))
    }

    /// Run `engine` — built by [`CompiledRun::engine`] for `mm`, then
    /// possibly reconfigured — and evaluate the full oracle battery on its
    /// trace. This is how an execution path [`CompiledRun::check`] does not
    /// take (the sharded kernel) is put under the oracles.
    pub fn judge(&self, mm: Algorithm, mut engine: Engine) -> RunVerdict {
        let sink: Rc<RefCell<VecObserver>> = Rc::default();
        engine.set_observer(Box::new(SharedObserver(Rc::clone(&sink))));
        let report = engine.run();
        let events = std::mem::take(&mut sink.borrow_mut().events);
        let mut oracles = battery(
            self.scenario.workload.nodes.len(),
            self.scenario.workload.submissions.len(),
            self.seed,
            self.lease.map(|l| l.bound_secs()),
        );
        let mut terminal: BTreeMap<u64, bool> = BTreeMap::new();
        for (at, event) in &events {
            match event {
                TraceEvent::Completed { job, .. } => {
                    terminal.insert(job.0, true);
                }
                TraceEvent::Failed { job } => {
                    terminal.entry(job.0).or_insert(false);
                }
                _ => {}
            }
            for oracle in &mut oracles {
                oracle.on_event(*at, event);
            }
        }
        let violations = oracles.iter_mut().flat_map(|o| o.finish(&report)).collect();
        RunVerdict {
            matchmaker: mm,
            violations,
            terminal,
        }
    }

    /// Run this under every matchmaker in `matchmakers` and compare the
    /// oracle-visible outcomes differentially: every matchmaker must drive
    /// the *same* job population to *some* terminal state. (Which jobs
    /// complete versus fail may legitimately differ — matchmakers place jobs
    /// differently, so a crash kills different victims — but a job that
    /// terminates under one matchmaker and vanishes under another betrays a
    /// protocol bug, not a policy choice.) A leased run is also compared
    /// with its own reassign-on-death baseline.
    pub fn verdict(&self, matchmakers: &[Algorithm]) -> ScenarioVerdict {
        let runs: Vec<RunVerdict> = matchmakers.iter().map(|&mm| self.check(mm)).collect();
        let universe: BTreeSet<u64> = runs
            .iter()
            .flat_map(|r| r.terminal.keys().copied())
            .collect();
        let mut differential: Vec<Violation> = runs
            .iter()
            .filter_map(|run| {
                let label = run.matchmaker.label();
                let context = format!("under other matchmakers never terminated under {label}");
                unterminated("differential", &universe, &run.terminal, context)
            })
            .collect();

        // Lease differential: the lease machinery is a *recovery policy*, not a
        // semantics change — so the same scenario with leases stripped (falling
        // back to reassign-on-death recovery) must drive the identical job
        // population to some terminal state under every matchmaker. A job that
        // terminates with leases off but is lost with leases on (or vice versa)
        // means lease expiry dropped or duplicated ownership.
        if self.lease.is_some() {
            let baseline = CompiledRun {
                lease: None,
                ..self.clone()
            };
            for run in &runs {
                let label = run.matchmaker.label();
                let base = baseline.check(run.matchmaker);
                for v in base.violations.iter().take(2) {
                    differential.push(Violation {
                        oracle: "lease-differential".to_string(),
                        detail: format!(
                            "reassign-on-death baseline under {label} is itself violating: {v}"
                        ),
                    });
                }
                let (leased, base) = (&run.terminal, &base.terminal);
                let lost =
                    format!("under reassign-on-death never terminated with leases under {label}");
                let extra =
                    format!("with leases never terminated under reassign-on-death under {label}");
                differential.extend(unterminated(
                    "lease-differential",
                    base.keys(),
                    leased,
                    lost,
                ));
                differential.extend(unterminated(
                    "lease-differential",
                    leased.keys(),
                    base,
                    extra,
                ));
            }
        }
        ScenarioVerdict { runs, differential }
    }
}

/// An [`Observer`] that tees events into a shared buffer the caller keeps,
/// working around `Engine::run` consuming the observer box.
struct SharedObserver(Rc<RefCell<VecObserver>>);

impl Observer for SharedObserver {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        self.0.borrow_mut().on_event(at, event);
    }
}

/// The jobs of `expected` that never reached a terminal state in
/// `terminal`, as one `oracle` violation reading "N job(s) terminal
/// {context} (e.g. ...)"; `None` when there are none.
fn unterminated<'a>(
    oracle: &str,
    expected: impl IntoIterator<Item = &'a u64>,
    terminal: &BTreeMap<u64, bool>,
    context: String,
) -> Option<Violation> {
    let missing: Vec<JobId> = expected
        .into_iter()
        .filter(|j| !terminal.contains_key(j))
        .map(|&j| JobId(j))
        .collect();
    (!missing.is_empty()).then(|| Violation {
        oracle: oracle.to_string(),
        detail: format!(
            "{} job(s) terminal {context} (e.g. {:?})",
            missing.len(),
            &missing[..missing.len().min(3)]
        ),
    })
}

/// Outcome of a (possibly parallel) multi-seed sweep.
#[derive(Debug)]
pub enum SweepOutcome {
    /// Every checked seed was clean.
    AllClean {
        /// How many seeds were checked.
        checked: u64,
    },
    /// A violating seed was found; later seeds may be unchecked.
    Violation {
        /// The violating seed — always the **lowest** violating seed that a
        /// sequential sweep stopping at the first violation would report.
        seed: u64,
        /// Its verdict (never clean).
        verdict: ScenarioVerdict,
        /// Seeds confirmed clean before the violation (`violating - start`).
        clean_before: u64,
    },
}

/// Check seeds `start..start + count` across the work-stealing pool, each
/// with `check` (which compiles the seed's run and takes its
/// [`CompiledRun::verdict`]), stopping at the first violation — with the
/// **same outcome a sequential sweep would produce**. Seeds are processed in
/// batches (a few per worker); within a violating batch the lowest violating
/// seed wins, so the reported seed (and therefore the repro artifact and the
/// shrinker's input) is independent of thread count and steal schedule.
/// `progress` is invoked after each fully clean batch with the number of
/// seeds cleared so far.
pub fn sweep(
    start: u64,
    count: u64,
    check: impl Fn(u64) -> ScenarioVerdict + Sync,
    mut progress: impl FnMut(u64),
) -> SweepOutcome {
    use rayon::prelude::*;

    let threads = rayon::Pool::current_threads() as u64;
    // Small batches keep the early-exit cheap on a violation while still
    // giving every worker a few seeds per round.
    let batch = (threads * 4).max(1);
    let mut done = 0u64;
    while done < count {
        let this_batch = batch.min(count - done);
        let base = start + done;
        let mut violations: Vec<(u64, ScenarioVerdict)> = (0..this_batch)
            .map(|i| base + i)
            .into_par_iter()
            .map(|seed| (seed, check(seed)))
            .filter(|(_, verdict)| !verdict.is_clean())
            .collect();
        if let Some((seed, verdict)) = violations.drain(..).next() {
            // `filter` preserves input (= ascending seed) order, so the
            // first entry is the lowest violating seed in this batch —
            // exactly where a sequential sweep would have stopped.
            return SweepOutcome::Violation {
                clean_before: seed - start,
                seed,
                verdict,
            };
        }
        done += this_batch;
        progress(done);
    }
    SweepOutcome::AllClean { checked: count }
}
