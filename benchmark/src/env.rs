//! The machine and toolchain a result came from.

use std::process::Command;

use serde::{Deserialize, Serialize};

/// Recorded in every result file, so a number is never read without the
/// hardware it was taken on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Environment {
    /// `git rev-parse HEAD` (`unknown` outside a git checkout).
    pub git_revision: String,
    /// `rustc -V`.
    pub rustc: String,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// 1-minute load average when the benchmark started.
    pub load_avg_1m: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Cores the OS will let this process use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Threads of the two-thread probes: two where the machine has them.
pub fn pool_threads() -> usize {
    available_parallelism().min(2)
}

impl Environment {
    /// Look the machine over.
    pub fn capture() -> Environment {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let load_avg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Environment {
            git_revision: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            cpu_model,
            available_parallelism: available_parallelism(),
            load_avg_1m,
        }
    }
}
