//! Replayable repro artifacts.
//!
//! When the sweep finds a violation it shrinks the scenario and writes a
//! JSON artifact; `dgrid check --replay <file>` re-runs it bit-exactly and
//! exits non-zero while the violation persists, so a fixed bug flips the
//! replay green with no artifact churn.

use std::fs;
use std::io;
use std::path::Path;

use dgrid_core::Algorithm;
use serde::{Deserialize, Serialize};

use crate::oracle::Violation;
use crate::scenario::{Inject, Scenario};

/// A minimal, self-contained reproduction of one oracle violation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReproArtifact {
    /// The shrunk scenario that still reproduces the violation.
    pub scenario: Scenario,
    /// The matchmaker under which the violation fires. `None` means the
    /// violation is differential: replay runs every matchmaker.
    pub matchmaker: Option<Algorithm>,
    /// Deliberate engine bugs that were active (fault-injection self-test).
    pub inject: Inject,
    /// The violations observed when the artifact was written.
    pub violations: Vec<Violation>,
    /// The unshrunk scenario the sweep originally found, for context.
    pub original: Option<Scenario>,
}

impl ReproArtifact {
    /// Serialize to pretty JSON and write to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        fs::write(path, json + "\n")
    }

    /// Read an artifact previously written by [`ReproArtifact::write`].
    pub fn read(path: &Path) -> io::Result<ReproArtifact> {
        let json = fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_roundtrips_through_disk() {
        let artifact = ReproArtifact {
            scenario: Scenario::generate(99),
            matchmaker: Some(Algorithm::RnTree),
            inject: Inject {
                disable_epoch_dedup: true,
            },
            violations: vec![Violation {
                oracle: "at-most-once-commit".to_string(),
                detail: "JobId(3) committed results 2 times".to_string(),
            }],
            original: Some(Scenario::generate(99)),
        };
        let dir = std::env::temp_dir();
        let path = dir.join("dgrid-check-artifact-roundtrip-test.json");
        artifact.write(&path).expect("write");
        let back = ReproArtifact::read(&path).expect("read");
        assert_eq!(back.scenario, artifact.scenario);
        assert_eq!(back.matchmaker, artifact.matchmaker);
        assert_eq!(back.inject, artifact.inject);
        assert_eq!(back.violations, artifact.violations);
        let _ = std::fs::remove_file(&path);
    }
}
