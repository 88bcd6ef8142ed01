//! `dgrid report`: a per-phase wait-time decomposition of a recorded event
//! stream, per-job timelines, and gauge sparklines.

use std::fs::File;

use dgrid::cli::{self, parsed, some, text, OrExit};
use dgrid::core::{phase_samples, JobSpan, Phase, SpanAssembler, SpanOutcome};
use dgrid::sim::hist::LogHistogram;
use dgrid::sim::telemetry::TimeSeries;
use dgrid::sim::{SimDuration, SimTime};

use crate::{decode, WIDTH};

cli::options! {
    #[derive(Debug)]
    pub struct ReportOpts as "dgrid report" {
        /// `--events PATH`: the recorded stream, either format.
        events: String = String::new(), "--events", "PATH", text => Required;
        /// `--timeseries PATH`: render sparklines from a gauge series file.
        timeseries: Option<String> = None, "--timeseries", "PATH", some(text);
        /// `--timeline N`: per-job timelines for the first N jobs.
        timeline: usize = 10, "--timeline", "N", parsed("a number");
        /// `--width W`: the sparkline and timeline width.
        width: usize = WIDTH, "--width", "W", parsed("a number");
    }
}

/// Load spans back out of a recorded event stream, either format.
fn spans_from_events(path: &str) -> Vec<JobSpan> {
    let mut assembler = SpanAssembler::new();
    decode(path, |_, rec| {
        assembler.observe(SimTime::ZERO + SimDuration::from_nanos(rec.t_ns), rec.event)
    });
    assembler.finish()
}

/// One letter per phase for the compact per-job timeline.
fn phase_glyph(p: Phase) -> char {
    match p {
        Phase::Routing => 'r',
        Phase::Matchmaking => 'm',
        Phase::Dispatch => 'd',
        Phase::Execution => '#',
        Phase::Recovery => '!',
        Phase::ResultReturn => 't',
    }
}

/// Render one span as a proportional fixed-width bar of phase glyphs.
fn timeline_bar(span: &JobSpan, width: usize) -> String {
    let total = span.total().as_nanos();
    if total == 0 || width == 0 {
        return String::new();
    }
    let mut bar = String::with_capacity(width);
    for phase in Phase::ALL {
        let ns = span.phase(phase).as_nanos();
        let cells = ((ns as u128 * width as u128 + total as u128 / 2) / total as u128) as usize;
        let cells = if ns > 0 { cells.max(1) } else { 0 };
        for _ in 0..cells {
            bar.push(phase_glyph(phase));
        }
    }
    bar.truncate(width);
    bar
}

pub fn report(opts: ReportOpts) {
    let spans = spans_from_events(&opts.events);
    let count = |outcome| spans.iter().filter(|s| s.outcome() == outcome).count();
    let (completed, failed) = (count(SpanOutcome::Completed), count(SpanOutcome::Failed));
    let open = spans.len() - completed - failed;
    println!(
        "{} jobs traced: {completed} completed, {failed} failed, {open} open",
        spans.len()
    );
    let recoveries: u32 = spans.iter().map(JobSpan::recoveries).sum();
    let resubmits: u32 = spans.iter().map(JobSpan::resubmits).sum();
    if recoveries + resubmits > 0 {
        println!("{recoveries} recoveries, {resubmits} client resubmissions");
    }
    println!();

    // Per-phase percentile table with a log-histogram sparkline of the
    // nonzero durations.
    println!("phase              jobs       mean        p50        p95        p99  distribution");
    for (phase, mut set) in phase_samples(&spans) {
        let nonzero: Vec<f64> = set.samples().iter().copied().filter(|&x| x > 0.0).collect();
        let mut hist = LogHistogram::new(2.0);
        nonzero.iter().for_each(|&x| hist.record(x));
        let (label, n, s) = (phase.label(), nonzero.len(), set.summary());
        let (mean, p50, p95, p99) = (s.mean, s.p50, s.p95, s.p99);
        let spark = hist.sparkline();
        println!("{label:<14} {n:>8} {mean:>9.1}s {p50:>9.1}s {p95:>9.1}s {p99:>9.1}s  {spark}");
    }

    // Compact per-job timelines, submission order.
    if opts.timeline > 0 {
        let mut ordered: Vec<&JobSpan> = spans.iter().collect();
        ordered.sort_by_key(|s| (s.submitted_at(), s.job()));
        println!();
        println!(
            "first {} job timelines (r=routing m=matchmaking d=dispatch #=execution !=recovery t=result)",
            ordered.len().min(opts.timeline)
        );
        for span in ordered.iter().take(opts.timeline) {
            let (job, secs) = (span.job().to_string(), span.total().as_secs_f64());
            let bar = timeline_bar(span, opts.width);
            println!("{job:>8} {secs:>9.1}s |{bar}|");
        }
    }

    // Gauge sparklines from a recorded time series.
    if let Some(path) = &opts.timeseries {
        let f = File::open(path).or_exit(path, "open");
        let ts: TimeSeries = serde_json::from_reader(f).or_exit(path, "parse");
        println!();
        println!(
            "grid gauges over virtual time ({} samples, every {:.0}s)",
            ts.len(),
            ts.cadence_secs()
        );
        for name in ts.names() {
            let xs = ts.get(name).unwrap();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let line = ts.sparkline(name, opts.width).unwrap_or_default();
            println!("{name:<12} {line} [{min:.0}..{max:.0}]");
        }
    }
}
