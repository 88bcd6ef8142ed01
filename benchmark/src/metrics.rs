//! The benchmark's metric catalogue: names, units, directions and regression
//! bounds. `BENCHMARK.json` at the repository root carries the same list
//! (a self-test keeps the two in step).

use serde::{Deserialize, Serialize};

use crate::child::RunRecord;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// Spelling used in `BENCHMARK.json` and in tables.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator pays for one run.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Whether the value is a pure function of the seed (simulated time):
    /// then two results of one seed must agree to the bit.
    pub exact: bool,
    /// Where one run's record keeps it.
    pub of: fn(&RunRecord) -> f64,
}

/// The five end-to-end metrics, per workload, each the median over the
/// untraced repeats of one invocation.
///
/// Bounds cover the widest inter-quartile spread any workload showed across
/// ten seeds on the 2-vCPU reference box about twice over for time (the box
/// itself slows by 10–20 % for a minute at a time) and four times for memory
/// (README, "Steadiness").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        of: |r| r.setup_s,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        of: |r| r.wall_s,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        of: |r| r.events_per_s,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
        of: |r| r.peak_rss_mb,
    },
    EndToEnd {
        name: "sim_mean_wait_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
        of: |r| r.sim_mean_wait_s,
    },
];

/// A per-layer metric: `(name, unit, direction)`. No bounds — they explain
/// end-to-end movement, they do not gate it.
pub type PerLayer = (&'static str, &'static str, Better);

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Every per-layer metric a traced invocation reports, in reporting order.
pub const PER_LAYER: [PerLayer; 68] = [
    // Interposed spans of the traced run.
    ("workloads.generate_s", "s", L),
    ("engine.new_self_s", "s", L),
    ("matchmaker.bootstrap_s", "s", L),
    ("matchmaker.first_tick_s", "s", L),
    ("matchmaker.tick_s", "s", L),
    ("matchmaker.tick_calls", "count", L),
    ("matchmaker.assign_owner_s", "s", L),
    ("matchmaker.assign_owner_calls", "count", L),
    ("matchmaker.find_run_node_s", "s", L),
    ("matchmaker.find_run_node_calls", "count", L),
    ("matchmaker.match_success_ratio", "ratio", H),
    ("matchmaker.reassign_owner_s", "s", L),
    ("matchmaker.reassign_owner_calls", "count", L),
    ("matchmaker.membership_s", "s", L),
    ("matchmaker.membership_calls", "count", L),
    ("matchmaker.lease_registrar_s", "s", L),
    ("matchmaker.lease_registrar_calls", "count", L),
    ("matchmaker.hops_per_job", "hops", L),
    ("observer.on_event_s", "s", L),
    ("observer.events", "count", L),
    ("observer.bytes", "bytes", L),
    ("engine.run_self_s", "s", L),
    ("engine.self_ns_per_event", "ns", L),
    // Exact engine counts from the report.
    ("engine.heartbeat_messages", "count", L),
    ("engine.messages_lost", "count", L),
    ("engine.lease_renewals", "count", L),
    ("engine.lease_transfers", "count", L),
    ("engine.run_recoveries", "count", L),
    ("engine.node_failures", "count", L),
    // Post-run stages.
    ("report.finalize_s", "s", L),
    ("trace.jsonl_to_binary_s", "s", L),
    ("trace.decode_s", "s", L),
    ("span.assemble_s", "s", L),
    ("analytics.feed_s", "s", L),
    ("trace.jsonl_bytes", "bytes", L),
    ("trace.binary_bytes", "bytes", L),
    ("check.oracle_s", "s", L),
    ("check.violations", "count", L),
    // Probes.
    ("sim.queue_hold_ns_per_op.p1k", "ns", L),
    ("sim.queue_hold_ns_per_op.p100k", "ns", L),
    ("sim.network_send_ns", "ns", L),
    ("chord.build_s.n10k", "s", L),
    ("chord.lookup_ns.n10k", "ns", L),
    ("chord.lookup_hops.n10k", "hops", L),
    ("chord.churn_step_us.n10k", "us", L),
    ("pastry.build_s.n10k", "s", L),
    ("pastry.lookup_ns.n10k", "ns", L),
    ("pastry.lookup_hops.n10k", "hops", L),
    ("pastry.churn_step_us.n10k", "us", L),
    ("tapestry.build_s.n10k", "s", L),
    ("tapestry.lookup_ns.n10k", "ns", L),
    ("tapestry.lookup_hops.n10k", "hops", L),
    ("tapestry.churn_step_us.n10k", "us", L),
    ("can.join_us_per_node.n3k", "us", L),
    ("can.route_ns.n3k", "ns", L),
    ("can.route_hops.n3k", "hops", L),
    ("can.churn_step_us.n3k", "us", L),
    ("chord.build_s.n100k", "s", L),
    ("chord.lookup_ns.n100k", "ns", L),
    ("rntree.build_s.n100k", "s", L),
    ("rntree.refresh_aggregates_s.n100k", "s", L),
    ("rntree.find_candidates_ns.n100k", "ns", L),
    ("node.table_new_s.n100k", "s", L),
    ("rayon.replication_speedup_t2", "ratio", H),
    // The sharded kernel on this workload's inputs, and the tracer itself.
    ("engine_shard.run_s", "s", L),
    ("engine_shard.speedup_vs_seq", "ratio", H),
    ("bench.trace_overhead_pct", "%", L),
    ("bench.books_gap_pct", "%", L),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[derive(Deserialize)]
    struct ManifestWorkload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct ManifestEndToEnd {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct ManifestLayer {
        name: String,
        unit: String,
        better: String,
    }

    /// `BENCHMARK.json`, key for key.
    #[derive(Deserialize)]
    struct Manifest {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<ManifestWorkload>,
        end_to_end: Vec<ManifestEndToEnd>,
        per_layer: Vec<ManifestLayer>,
    }

    /// `BENCHMARK.json` is the contract other tools read; the tables here are
    /// what the binary does. They must say the same thing.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let m: Manifest =
            serde_json::from_str(&text).expect("BENCHMARK.json has the contract's keys");
        assert_eq!(m.paths, ["benchmark"]);
        assert!(m.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert!((1..=60).contains(&m.run_seconds));

        let theirs: Vec<(&str, &str)> = m
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(theirs, ours);

        let theirs: Vec<(&str, &str, &str, f64)> = m
            .end_to_end
            .iter()
            .map(|e| (e.name.as_str(), e.unit.as_str(), e.better.as_str(), e.bound))
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit, e.better.label(), e.bound))
            .collect();
        assert_eq!(theirs, ours);

        let theirs: Vec<(&str, &str, &str)> = m
            .per_layer
            .iter()
            .map(|l| (l.name.as_str(), l.unit.as_str(), l.better.as_str()))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (*n, *u, b.label()))
            .collect();
        assert_eq!(theirs, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|l| l.0))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
