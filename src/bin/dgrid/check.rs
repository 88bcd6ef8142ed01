//! `dgrid check`: sweep randomized fault scenarios through the invariant
//! oracles under every matchmaker, shrinking the first violation found to a
//! minimal replayable artifact; or `--replay` a previously written artifact.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::Path;

use dgrid::check::{
    fault_event_count, shrink, sweep, CompiledRun, Inject, LeaseSpec, ReproArtifact, Scenario,
    ScenarioVerdict, SweepOutcome, Violation, CHECKED,
};
use dgrid::cli::{self, die, parsed, positive, some, text, Flag, OrExit, Parsed};
use dgrid::core::PlacementPolicy;
use dgrid::harness::Algorithm;
use dgrid::workloads::ScenarioSpec;

use crate::{parse_scenario_file, Lease, SCENARIO_FILE};

cli::options! {
    #[derive(Debug)]
    pub struct CheckOpts as "dgrid check" {
        /// `--seeds N`: how many scenarios to sweep.
        seeds: u64 = 50, "--seeds", "N", parsed("a number");
        /// `--seed BASE`: the first scenario's seed.
        seed: u64 = cli::DEFAULT_SEED, "--seed", "BASE", parsed("a number");
        /// `--out PATH`: where a violation's repro artifact goes.
        out: String = "dgrid-check-repro.json".to_string(), "--out", "PATH", text;
        /// `--replay PATH`: re-run a previously written repro artifact.
        replay: Option<String> = None, "--replay", "PATH", some(text);
        /// `--inject-bug NAME`: deliberately break the engine (self-test);
        /// names: `epoch-dedup`.
        inject_bug: Option<String> = None, "--inject-bug", "NAME", some(text);
        /// `--matchmaker M[,M...]`: only sweep the listed algorithm labels.
        matchmakers: Vec<Algorithm> = CHECKED.to_vec(), "--matchmaker", "M[,M...]", matchmakers;
        /// `--scenario-file S`: sweep the declarative spec instead of
        /// generated scenarios; each seed compiles it and runs it under
        /// every selected matchmaker, without shrinking (specs are small).
        scenario: Option<ScenarioSpec> = None, SCENARIO_FILE, "PRESET|SPEC.json",
            |v| Ok(Some(parse_scenario_file(v)));
        /// `--lease-ttl` and its companions turn every scenario into a
        /// leased run, by default with the short standard check lease.
        lease: Lease = Lease::default();
        /// `--threads N` sizes the pool the seeds fan out over.
        threads: Option<usize> = None, "--threads", "N", some(positive);
    }

    fn flags() -> Vec<Flag<Self>> {
        let mut flags = Self::fields();
        flags.extend(cli::lift(Lease::fields(), |o: &mut Self| &mut o.lease));
        flags
    }

    fn notes() -> String {
        crate::registries()
    }

    fn finish(&mut self) -> Parsed<()> {
        self.lease.arm(LeaseSpec::for_check(PlacementPolicy::LoadAware))
    }
}

/// `--matchmaker a,b` restricts the sweep (the CI overlay-matrix job runs
/// one substrate per shard).
fn matchmakers(list: &str) -> Parsed<Vec<Algorithm>> {
    let labels = list.split(',').map(str::trim).filter(|s| !s.is_empty());
    let selected: Vec<Algorithm> = labels
        .map(|label| {
            Algorithm::from_label(label).unwrap_or_else(|| {
                let known = Algorithm::ALL.map(Algorithm::label).join(", ");
                die(format_args!(
                    "unknown --matchmaker {label:?} (known: {known})"
                ))
            })
        })
        .collect();
    if selected.is_empty() {
        die("--matchmaker selected no matchmakers");
    }
    Ok(selected)
}

fn print_violations(violations: &[Violation]) {
    for v in violations {
        println!("  {v}");
    }
}

pub fn check(opts: CheckOpts) {
    cli::install(opts.threads, || run(&opts))
}

/// What can be known of `--out` before the sweep without creating or
/// changing it: an existing file opens for writing, or the directory a
/// new one would go in exists. The artifact is written only on a
/// violation, and a file already there is kept until then.
fn writable(out: &str) -> io::Result<()> {
    let path = Path::new(out);
    if path.exists() {
        // Opening to append writes nothing.
        return OpenOptions::new().append(true).open(path).map(drop);
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if fs::metadata(dir.unwrap_or(Path::new(".")))?.is_dir() {
        Ok(())
    } else {
        Err(io::ErrorKind::NotADirectory.into())
    }
}

fn run(opts: &CheckOpts) {
    let inject = match opts.inject_bug.as_deref() {
        None => Inject::default(),
        Some("epoch-dedup") => Inject {
            disable_epoch_dedup: true,
        },
        Some(other) => die(format_args!(
            "unknown --inject-bug {other:?} (known: epoch-dedup)"
        )),
    };

    let selected = &opts.matchmakers;
    if let Some(path) = &opts.replay {
        let artifact = ReproArtifact::read(Path::new(path)).or_exit(path, "read repro artifact");
        let run = artifact.scenario.compile(artifact.inject);
        let violations = match artifact.matchmaker {
            Some(mm) => run.check(mm).violations,
            None => run.verdict(&CHECKED).all_violations(),
        };
        if violations.is_empty() {
            println!("replay of {path}: clean (violation no longer reproduces)");
        } else {
            println!("replay of {path}: {} violation(s)", violations.len());
            print_violations(&violations);
            std::process::exit(1);
        }
        return;
    }

    let base = opts.seed;
    let lease = opts.lease.armed;
    let mm_labels = selected
        .iter()
        .map(|m| m.label())
        .collect::<Vec<_>>()
        .join(", ");
    let mut suffix = String::new();
    if let Some(l) = lease {
        suffix += &format!(
            " [leases: ttl {:.0}s renew {:.0}s grace {:.0}s, {} placement]",
            l.ttl_secs,
            l.renew_secs,
            l.grace_secs,
            l.placement.label()
        );
    }
    if let Some(bug) = &opts.inject_bug {
        suffix += &format!(" [injected bug: {bug}]");
    }
    // Every seed of the sweep is a scenario generated from it, with
    // `--lease-ttl` turning it into a leased run: the no-orphan oracle joins
    // the battery and each scenario is additionally compared against its
    // own reassign-on-death baseline.
    let generated = |seed| {
        let scenario = Scenario::generate(seed);
        match lease {
            Some(lease) => scenario.with_lease(lease),
            None => scenario,
        }
    };
    // `--scenario-file`: differentially check the declarative spec itself,
    // compiled at every sweep seed and run under every selected matchmaker
    // through the same pipeline. Specs are hand-written and already small,
    // so their violations are reported without shrinking.
    let (what, swept, check): (_, _, &(dyn Fn(u64) -> ScenarioVerdict + Sync)) =
        match &opts.scenario {
            Some(spec) => (
                format!(
                    "scenario '{}' at {} seed(s) from {base}",
                    spec.name, opts.seeds
                ),
                format!("scenario '{}' x {} seed(s)", spec.name, opts.seeds),
                &|seed| {
                    let run = CompiledRun {
                        scenario: spec.compile(seed),
                        seed,
                        lease,
                        inject,
                    };
                    run.verdict(selected)
                },
            ),
            None => (
                format!("{} scenario(s) from seed {base}", opts.seeds),
                format!("{} scenario(s)", opts.seeds),
                &|seed| generated(seed).compile(inject).verdict(selected),
            ),
        };
    if opts.scenario.is_none() {
        writable(&opts.out).or_exit(&opts.out, "write repro artifact");
    }
    println!(
        "checking {what}, {} matchmaker(s) [{mm_labels}], {} thread(s){suffix}",
        selected.len(),
        rayon::Pool::current_threads(),
    );
    // The sweep fans seeds out over the work-stealing pool but reports the
    // same (lowest) violating seed a sequential sweep would, so the repro
    // artifact — and the shrink below, which stays sequential — are
    // identical at any thread count.
    let mut last_reported = 0;
    let outcome = sweep(base, opts.seeds, check, |done| {
        if done / 10 > last_reported / 10 && done < opts.seeds {
            eprintln!("  ... {done}/{} clean", opts.seeds);
        }
        last_reported = done;
    });
    let SweepOutcome::Violation { seed, verdict, .. } = outcome else {
        let n = selected.len();
        println!("check: {swept} x {n} matchmaker(s) clean, all oracles passed");
        return;
    };
    let violations = verdict.all_violations();
    println!("seed {seed}: {} violation(s)", violations.len());
    print_violations(&violations);
    if opts.scenario.is_some() {
        std::process::exit(1);
    }

    // Shrink under the first violating matchmaker when one exists;
    // differential-only violations re-check every matchmaker.
    let scenario = generated(seed);
    let failing_mm = verdict
        .runs
        .iter()
        .find(|r| !r.violations.is_empty())
        .map(|r| r.matchmaker);
    let violations = |sc: &Scenario| match failing_mm {
        Some(mm) => sc.compile(inject).check(mm).violations,
        None => sc.compile(inject).verdict(selected).all_violations(),
    };
    let result = shrink(&scenario, |cand| !violations(cand).is_empty(), 150);
    println!(
        "shrunk {} -> {} nodes, {} -> {} jobs, {} -> {} fault event(s) in {} run(s)",
        scenario.nodes,
        result.scenario.nodes,
        scenario.jobs,
        result.scenario.jobs,
        fault_event_count(&scenario),
        fault_event_count(&result.scenario),
        result.runs_used,
    );

    let out = &opts.out;
    let artifact = ReproArtifact {
        violations: violations(&result.scenario),
        scenario: result.scenario,
        matchmaker: failing_mm,
        inject,
        original: Some(scenario),
    };
    artifact
        .write(Path::new(out))
        .or_exit(out, "write repro artifact");
    println!("wrote repro artifact to {out} (replay with: dgrid check --replay {out})");
    std::process::exit(1);
}
