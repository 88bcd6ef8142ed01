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
//!    variant ([`MatchmakerChoice::ALL`] — centralized, RN-Tree over Chord,
//!    Pastry, and Tapestry, and CAN) and the oracle-visible outcomes are
//!    compared differentially.
//! 3. **Shrinker** ([`shrink`]): on violation, greedily shrink the scenario
//!    (fewer nodes, jobs, fault events; shorter horizon) while the
//!    violation still reproduces, and emit a minimal replayable artifact.
//!
//! The CLI entry point is `dgrid check` (see the umbrella crate's binary).
//!
//! [`TraceEvent`]: dgrid_core::TraceEvent

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use dgrid_resources::JobId;
use serde::{Deserialize, Serialize};

pub mod artifact;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use artifact::ReproArtifact;
pub use oracle::{
    battery, battery_with_lease, FairnessOracle, NoOrphanOracle, TraceOracle, Violation,
};
pub use scenario::{
    fault_event_count, run_spec, run_traced, spec_engine, Inject, LeaseSpec, MatchmakerChoice,
    Scenario,
};
pub use shrink::{shrink, ShrinkResult};

/// Oracle verdict for one `(scenario, matchmaker)` run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunVerdict {
    /// Which matchmaker ran.
    pub matchmaker: MatchmakerChoice,
    /// All oracle violations, empty when the run is clean.
    pub violations: Vec<Violation>,
    /// Terminal fate of every job (`true` = completed), for the
    /// differential comparison across matchmakers.
    pub terminal: BTreeMap<u64, bool>,
}

/// Verdict for one scenario across every matchmaker, including the
/// differential comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioVerdict {
    /// Per-matchmaker verdicts, in [`MatchmakerChoice::ALL`] order.
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

/// Feed a recorded trace through a fresh oracle battery and collect the
/// verdict — the shared tail of [`check_run`] and [`check_spec_run`].
fn judge_trace(
    nodes: usize,
    jobs: usize,
    seed: u64,
    lease_bound_secs: Option<f64>,
    events: &[(dgrid_sim::SimTime, dgrid_core::TraceEvent)],
    report: &dgrid_core::SimReport,
    mm: MatchmakerChoice,
) -> RunVerdict {
    let mut oracles = battery_with_lease(nodes, jobs, seed, lease_bound_secs);
    let mut terminal: BTreeMap<u64, bool> = BTreeMap::new();
    for (at, event) in events {
        match event {
            dgrid_core::TraceEvent::Completed { job, .. } => {
                terminal.insert(job.0, true);
            }
            dgrid_core::TraceEvent::Failed { job } => {
                terminal.entry(job.0).or_insert(false);
            }
            _ => {}
        }
        for oracle in &mut oracles {
            oracle.on_event(*at, event);
        }
    }
    let violations = oracles.iter_mut().flat_map(|o| o.finish(report)).collect();
    RunVerdict {
        matchmaker: mm,
        violations,
        terminal,
    }
}

/// Run `scenario` once under `mm` and evaluate the full oracle battery.
pub fn check_run(scenario: &Scenario, mm: MatchmakerChoice, inject: Inject) -> RunVerdict {
    check_engine(scenario, mm, scenario.engine(mm, inject))
}

/// Run `engine` — built by [`Scenario::engine`] for this `scenario` and `mm`,
/// then possibly reconfigured by the caller — and evaluate the full oracle
/// battery. This is how an execution path [`check_run`] does not take (the
/// sharded kernel) is put under the oracles.
pub fn check_engine(
    scenario: &Scenario,
    mm: MatchmakerChoice,
    engine: dgrid_core::Engine,
) -> RunVerdict {
    let (events, report) = run_traced(engine);
    judge_trace(
        scenario.nodes,
        scenario.jobs,
        scenario.seed,
        scenario.lease.map(|l| l.bound_secs()),
        &events,
        &report,
        mm,
    )
}

/// Run a declarative [`ScenarioSpec`](dgrid_workloads::ScenarioSpec)
/// compiled at `seed` once under `mm` and evaluate the full oracle battery
/// (including the report-level [`FairnessOracle`]).
pub fn check_spec_run(
    spec: &dgrid_workloads::ScenarioSpec,
    seed: u64,
    mm: MatchmakerChoice,
) -> RunVerdict {
    let (events, report) = run_spec(spec, seed, mm);
    judge_trace(spec.nodes, spec.jobs, seed, None, &events, &report, mm)
}

/// Cross-matchmaker differential over terminal job populations: every
/// matchmaker must drive the *same* job population to *some* terminal state.
fn population_differential(runs: &[RunVerdict]) -> Vec<Violation> {
    let mut differential = Vec::new();
    let mut universe: BTreeMap<u64, &'static str> = BTreeMap::new();
    for run in runs {
        for &job in run.terminal.keys() {
            universe.entry(job).or_insert(run.matchmaker.label());
        }
    }
    for run in runs {
        let missing: Vec<JobId> = universe
            .keys()
            .filter(|j| !run.terminal.contains_key(j))
            .map(|&j| JobId(j))
            .collect();
        if !missing.is_empty() {
            differential.push(Violation {
                oracle: "differential".to_string(),
                detail: format!(
                    "{} job(s) terminal under other matchmakers never terminated under {} (e.g. {:?})",
                    missing.len(),
                    run.matchmaker.label(),
                    &missing[..missing.len().min(3)],
                ),
            });
        }
    }
    differential
}

/// Differentially check a declarative scenario: compile `spec` at `seed`,
/// run it under every matchmaker in `matchmakers`, and require the same job
/// population to reach some terminal state everywhere — the scenario-file
/// analog of [`check_scenario_with`].
pub fn check_spec_with(
    spec: &dgrid_workloads::ScenarioSpec,
    seed: u64,
    matchmakers: &[MatchmakerChoice],
) -> ScenarioVerdict {
    let runs: Vec<RunVerdict> = matchmakers
        .iter()
        .map(|&mm| check_spec_run(spec, seed, mm))
        .collect();
    let differential = population_differential(&runs);
    ScenarioVerdict { runs, differential }
}

/// Run `scenario` under every matchmaker and compare oracle-visible
/// outcomes differentially: every matchmaker must drive the *same* job
/// population to *some* terminal state. (Which jobs complete versus fail
/// may legitimately differ — matchmakers place jobs differently, so a crash
/// kills different victims — but a job that terminates under one matchmaker
/// and vanishes under another betrays a protocol bug, not a policy choice.)
pub fn check_scenario(scenario: &Scenario, inject: Inject) -> ScenarioVerdict {
    check_scenario_with(scenario, inject, &MatchmakerChoice::ALL)
}

/// [`check_scenario`] restricted to a subset of matchmakers (the CI
/// overlay-matrix sweeps run one substrate at a time). The differential
/// comparison spans exactly the matchmakers given.
pub fn check_scenario_with(
    scenario: &Scenario,
    inject: Inject,
    matchmakers: &[MatchmakerChoice],
) -> ScenarioVerdict {
    let runs: Vec<RunVerdict> = matchmakers
        .iter()
        .map(|&mm| check_run(scenario, mm, inject))
        .collect();

    let mut differential = population_differential(&runs);

    // Lease differential: the lease machinery is a *recovery policy*, not a
    // semantics change — so the same scenario with leases stripped (falling
    // back to reassign-on-death recovery) must drive the identical job
    // population to some terminal state under every matchmaker. A job that
    // terminates with leases off but is lost with leases on (or vice versa)
    // means lease expiry dropped or duplicated ownership.
    if scenario.lease.is_some() {
        let mut baseline = scenario.clone();
        baseline.lease = None;
        for run in &runs {
            let base = check_run(&baseline, run.matchmaker, inject);
            for v in base.violations.iter().take(2) {
                differential.push(Violation {
                    oracle: "lease-differential".to_string(),
                    detail: format!(
                        "reassign-on-death baseline under {} is itself violating: {v}",
                        run.matchmaker.label(),
                    ),
                });
            }
            let lost: Vec<JobId> = base
                .terminal
                .keys()
                .filter(|j| !run.terminal.contains_key(j))
                .map(|&j| JobId(j))
                .collect();
            if !lost.is_empty() {
                differential.push(Violation {
                    oracle: "lease-differential".to_string(),
                    detail: format!(
                        "{} job(s) terminal under reassign-on-death never terminated \
                         with leases under {} (e.g. {:?})",
                        lost.len(),
                        run.matchmaker.label(),
                        &lost[..lost.len().min(3)],
                    ),
                });
            }
            let extra: Vec<JobId> = run
                .terminal
                .keys()
                .filter(|j| !base.terminal.contains_key(j))
                .map(|&j| JobId(j))
                .collect();
            if !extra.is_empty() {
                differential.push(Violation {
                    oracle: "lease-differential".to_string(),
                    detail: format!(
                        "{} job(s) terminal with leases never terminated under \
                         reassign-on-death under {} (e.g. {:?})",
                        extra.len(),
                        run.matchmaker.label(),
                        &extra[..extra.len().min(3)],
                    ),
                });
            }
        }
    }

    ScenarioVerdict { runs, differential }
}

/// Outcome of a (possibly parallel) multi-seed sweep.
///
/// `Violation` carries the full scenario + verdict inline; a sweep produces
/// at most one of these, so the size skew vs `AllClean` is irrelevant.
#[allow(clippy::large_enum_variant)]
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
        /// The generated scenario for that seed.
        scenario: Scenario,
        /// Its verdict (never clean).
        verdict: ScenarioVerdict,
        /// Seeds confirmed clean before the violation (`violating - start`).
        clean_before: u64,
    },
}

/// Check seeds `start..start + count` across the work-stealing pool,
/// stopping at the first violation — with the **same outcome a sequential
/// sweep would produce**. Seeds are processed in batches (a few per worker);
/// within a violating batch the lowest violating seed wins, so the reported
/// seed (and therefore the repro artifact and the shrinker's input) is
/// independent of thread count and steal schedule. `progress` is invoked
/// after each fully clean batch with the number of seeds cleared so far.
pub fn sweep(start: u64, count: u64, inject: Inject, progress: impl FnMut(u64)) -> SweepOutcome {
    sweep_with(start, count, inject, &MatchmakerChoice::ALL, progress)
}

/// [`sweep`] restricted to a subset of matchmakers — same batched-parallel
/// lowest-seed semantics, but each scenario only runs (and is differentially
/// compared) across `matchmakers`.
pub fn sweep_with(
    start: u64,
    count: u64,
    inject: Inject,
    matchmakers: &[MatchmakerChoice],
    progress: impl FnMut(u64),
) -> SweepOutcome {
    sweep_with_lease(start, count, inject, None, matchmakers, progress)
}

/// [`sweep_with`] with every generated scenario additionally running under
/// `lease` (when `Some`): the no-orphan oracle joins the battery and each
/// scenario is differentially compared against its own reassign-on-death
/// baseline.
pub fn sweep_with_lease(
    start: u64,
    count: u64,
    inject: Inject,
    lease: Option<LeaseSpec>,
    matchmakers: &[MatchmakerChoice],
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
        let mut violations: Vec<(u64, Scenario, ScenarioVerdict)> = (0..this_batch)
            .map(|i| base + i)
            .into_par_iter()
            .map(|seed| {
                let mut scenario = Scenario::generate(seed);
                if let Some(l) = lease {
                    scenario.lease = Some(l);
                }
                let verdict = check_scenario_with(&scenario, inject, matchmakers);
                (seed, scenario, verdict)
            })
            .filter(|(_, _, verdict)| !verdict.is_clean())
            .collect();
        if let Some((seed, scenario, verdict)) = violations.drain(..).next() {
            // `filter` preserves input (= ascending seed) order, so the
            // first entry is the lowest violating seed in this batch —
            // exactly where a sequential sweep would have stopped.
            return SweepOutcome::Violation {
                clean_before: seed - start,
                seed,
                scenario,
                verdict,
            };
        }
        done += this_batch;
        progress(done);
    }
    SweepOutcome::AllClean { checked: count }
}
