//! `dgrid watch`: tail a live or recorded event stream (either format) and
//! render a refreshing terminal dashboard of window rates, percentile
//! sketches, and per-kind counters — observability that works *while* the
//! run is still writing, not just post-hoc.

use std::fs::File;
use std::io::{IsTerminal, Write};

use dgrid::cli::{self, parsed, some, text};
use dgrid::core::{EventKind, EventRecord, StreamAnalytics, StreamDecoder, StreamFormat};
use dgrid::sim::SimDuration;

use crate::{above_0, decode, feed, WIDTH};

cli::options! {
    #[derive(Debug)]
    pub struct WatchOpts as "dgrid watch" {
        /// `--events PATH`: the stream to watch.
        events: String = String::new(), "--events", "PATH", text => Required;
        /// `--follow`: poll the file for growth and refresh the view
        /// (Ctrl-C to stop); without it, render once and exit.
        follow: bool = false, "--follow", "", |_| Ok(true);
        /// `--window SECS`: the virtual-time window rates are counted over.
        window_secs: f64 = 60.0, "--window", "SECS", above_0();
        /// `--refresh SECS`: the wall-clock poll cadence with `--follow`.
        refresh_secs: f64 = 0.5, "--refresh", "SECS", above_0();
        /// `--idle-exit SECS`: with `--follow`, exit after this long
        /// without growth.
        idle_exit: Option<f64> = None, "--idle-exit", "SECS", some(parsed("a number"));
        /// `--width W`: the sparkline width.
        width: usize = WIDTH, "--width", "W", parsed("a number");
    }
}

/// Render a slice of per-window values as a fixed-width sparkline (last
/// `width` windows, scaled to the slice maximum).
fn sparkline(xs: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let tail = &xs[xs.len().saturating_sub(width)..];
    let max = tail.iter().copied().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&x| {
            if max <= 0.0 {
                GLYPHS[0]
            } else {
                let idx = ((x / max) * 7.0).round() as usize;
                GLYPHS[idx.min(7)]
            }
        })
        .collect()
}

fn fmt_ns_secs(ns: u64) -> String {
    format!("{:.1}s", ns as f64 / 1e9)
}

/// Render one refresh of the watch dashboard.
fn render(
    analytics: &StreamAnalytics,
    format: Option<StreamFormat>,
    opts: &WatchOpts,
    clear: bool,
) {
    let snap = analytics.snapshot();
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let fmt = format.map_or("?", StreamFormat::label);
    out.push_str(&format!(
        "watch {} ({fmt})  {} events  t = {:.1}s virtual\n",
        opts.events,
        snap.events_total,
        snap.last_t_ns as f64 / 1e9
    ));
    out.push_str(&format!(
        "jobs: {} inflight, {} executing, {} completed, {} failed\n",
        snap.inflight,
        snap.executing,
        snap.per_kind[EventKind::Completed.index()],
        snap.per_kind[EventKind::Failed.index()]
    ));
    for (label, stats) in [("wait", &snap.wait), ("turnaround", &snap.turnaround)] {
        match stats {
            Some(s) => out.push_str(&format!(
                "{label:<10} p50 {:>8} p95 {:>8} p99 {:>8} max {:>8} (n={})\n",
                fmt_ns_secs(s.p50_ns),
                fmt_ns_secs(s.p95_ns),
                fmt_ns_secs(s.p99_ns),
                fmt_ns_secs(s.max_ns),
                s.count
            )),
            None => out.push_str(&format!("{label:<10} (no samples yet)\n")),
        }
    }
    // Per-window rates over the retained history plus the open window.
    let window_secs = snap.window_ns as f64 / 1e9;
    let mut all_rows: Vec<&[u64]> = snap.recent.iter().map(|r| r.counts.as_slice()).collect();
    all_rows.push(&snap.current);
    // Every event, or the events of one kind, per second of each window.
    let count = |c: &[u64], kind: Option<EventKind>| kind.map_or(c.iter().sum(), |k| c[k.index()]);
    let rows = [
        ("events/s", None),
        ("completions/s", Some(EventKind::Completed)),
        ("lease xfers/s", Some(EventKind::LeaseTransferred)),
    ];
    out.push_str(&format!("per-{window_secs:.0}s-window rates:\n"));
    for (label, kind) in rows {
        let xs: Vec<f64> = all_rows
            .iter()
            .map(|c| count(c, kind) as f64 / window_secs)
            .collect();
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  {label:<14} {} [0..{max:.2}]\n",
            sparkline(&xs, opts.width)
        ));
    }
    out.push_str("kinds:");
    for kind in EventKind::ALL {
        let n = snap.per_kind[kind.index()];
        if n > 0 {
            out.push_str(&format!(" {}={n}", kind.label()));
        }
    }
    out.push('\n');
    print!("{out}");
    std::io::stdout().flush().ok();
}

pub fn watch(opts: WatchOpts) {
    let path = opts.events.as_str();
    let window = SimDuration::from_secs_f64(opts.window_secs);
    let mut analytics = StreamAnalytics::new(window, 512);
    if !opts.follow {
        let (format, _) = decode(path, |_, rec| analytics.feed_record(&rec));
        render(&analytics, Some(format), &opts, false);
        return;
    }

    let mut decoder = StreamDecoder::new();
    let clear = std::io::stdout().is_terminal();
    let mut file = None;
    let mut idle_secs = 0.0f64;
    loop {
        // The file may not exist yet. A partial frame or line at its end
        // waits in the decoder for the next poll, which is what makes
        // tailing a file mid-write safe.
        file = file.or_else(|| File::open(path).ok());
        let mut each = |_, rec: EventRecord| analytics.feed_record(&rec);
        let grew = file
            .as_mut()
            .is_some_and(|f| feed(path, f, &mut decoder, &mut each) > 0);
        render(&analytics, decoder.format(), &opts, clear);
        if grew {
            idle_secs = 0.0;
        } else {
            idle_secs += opts.refresh_secs;
            if opts.idle_exit.is_some_and(|limit| idle_secs >= limit) {
                return;
            }
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(
            opts.refresh_secs.max(0.01),
        ));
    }
}
