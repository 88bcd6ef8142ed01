//! The matchmaking algorithms under evaluation, by name.
//!
//! One enum serves every front end: the harness runs it, `dgrid run` and
//! `dgrid compare` parse `--algorithm` into it, and the model checker sweeps
//! a set of it and records it in verdicts and repro artifacts.

use dgrid_resources::ResourceSpace;
use serde::{Deserialize, Serialize};

use crate::router::{PastryNetwork, TapestryNetwork};
use crate::{
    CanMatchmaker, CanMmConfig, CentralizedMatchmaker, Matchmaker, PubSubMatchmaker, RnTreeConfig,
    RnTreeMatchmaker,
};

/// The matchmaking algorithms under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Rendezvous Node Tree over Chord (Section 3.1).
    RnTree,
    /// Rendezvous Node Tree over a Pastry substrate (overlay ablation).
    RnTreePastry,
    /// Rendezvous Node Tree over a Tapestry substrate (overlay ablation).
    RnTreeTapestry,
    /// Basic CAN matchmaking with the virtual dimension (Section 3.2).
    Can,
    /// Improved CAN with load pushing (Section 3.3's ongoing work).
    CanPush,
    /// Basic CAN *without* the virtual dimension (ablation `A-virt`).
    CanNoVirtualDim,
    /// Omniscient centralized baseline (the paper's load-balance target).
    Central,
    /// Publish/subscribe resource discovery (the Abbes et al. baseline):
    /// advertisement table + predicate-keyed subscriptions over rendezvous
    /// brokers.
    PubSub,
}

impl Algorithm {
    /// Every algorithm, in declaration order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::RnTree,
        Algorithm::RnTreePastry,
        Algorithm::RnTreeTapestry,
        Algorithm::Can,
        Algorithm::CanPush,
        Algorithm::CanNoVirtualDim,
        Algorithm::Central,
        Algorithm::PubSub,
    ];

    /// The three algorithms Figure 2 compares.
    pub const FIGURE2: [Algorithm; 3] = [Algorithm::Can, Algorithm::RnTree, Algorithm::Central];

    /// The RN-Tree matchmaker on every overlay substrate (experiment
    /// `T-overlay`).
    pub const OVERLAYS: [Algorithm; 3] = [
        Algorithm::RnTree,
        Algorithm::RnTreePastry,
        Algorithm::RnTreeTapestry,
    ];

    /// Short label used in tables, reports and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::RnTree => "rn-tree",
            Algorithm::RnTreePastry => "rn-tree@pastry",
            Algorithm::RnTreeTapestry => "rn-tree@tapestry",
            Algorithm::Can => "can",
            Algorithm::CanPush => "can-push",
            Algorithm::CanNoVirtualDim => "can-novirt",
            Algorithm::Central => "central",
            Algorithm::PubSub => "pub-sub",
        }
    }

    /// Parse a [`label`](Algorithm::label) or one of its aliases
    /// (`rntree`, `rn-tree@chord`, `rntree@pastry`, `rntree@tapestry`,
    /// `centralized`, `pubsub`); `None` for anything else.
    pub fn from_label(label: &str) -> Option<Algorithm> {
        let label = match label {
            "rntree" | "rn-tree@chord" => "rn-tree",
            "rntree@pastry" => "rn-tree@pastry",
            "rntree@tapestry" => "rn-tree@tapestry",
            "centralized" => "central",
            "pubsub" => "pub-sub",
            other => other,
        };
        Self::ALL.into_iter().find(|a| a.label() == label)
    }

    /// Instantiate the matchmaker with its default settings.
    pub fn matchmaker(self) -> Box<dyn Matchmaker> {
        self.matchmaker_with(RnTreeConfig::default())
    }

    /// Instantiate the matchmaker, the RN-Tree variants with `rn` (the
    /// extended-search width, say) and the others with their defaults.
    pub fn matchmaker_with(self, rn: RnTreeConfig) -> Box<dyn Matchmaker> {
        match self {
            Algorithm::RnTree => Box::new(RnTreeMatchmaker::new(rn)),
            Algorithm::RnTreePastry => {
                Box::new(RnTreeMatchmaker::<PastryNetwork>::on_substrate(rn))
            }
            Algorithm::RnTreeTapestry => {
                Box::new(RnTreeMatchmaker::<TapestryNetwork>::on_substrate(rn))
            }
            Algorithm::Can => Box::new(CanMatchmaker::with_defaults()),
            Algorithm::CanPush => Box::new(CanMatchmaker::with_push()),
            Algorithm::CanNoVirtualDim => Box::new(CanMatchmaker::new(
                CanMmConfig {
                    virtual_dim: false,
                    ..CanMmConfig::default()
                },
                ResourceSpace::default_desktop(),
            )),
            Algorithm::Central => Box::new(CentralizedMatchmaker::new()),
            Algorithm::PubSub => Box::new(PubSubMatchmaker::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            Algorithm::RnTree,
            Algorithm::RnTreePastry,
            Algorithm::RnTreeTapestry,
            Algorithm::Can,
            Algorithm::CanPush,
            Algorithm::CanNoVirtualDim,
            Algorithm::Central,
            Algorithm::PubSub,
        ];
        assert_eq!(all, Algorithm::ALL);
        let labels: std::collections::HashSet<_> = all.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 8);
        // `CellResult::from_reports` labels a cell by its reports' name.
        for a in all {
            assert_eq!(a.matchmaker().name(), a.label());
        }
    }

    /// Every label and alias the CLI's `--algorithm` and `--matchmaker`
    /// parsers accepted before they shared this enum.
    #[test]
    fn every_label_and_alias_names_its_variant() {
        use Algorithm::*;
        let table = [
            ("rn-tree", RnTree),
            ("rntree", RnTree),
            ("rn-tree@chord", RnTree),
            ("rn-tree@pastry", RnTreePastry),
            ("rntree@pastry", RnTreePastry),
            ("rn-tree@tapestry", RnTreeTapestry),
            ("rntree@tapestry", RnTreeTapestry),
            ("can", Can),
            ("can-push", CanPush),
            ("can-novirt", CanNoVirtualDim),
            ("central", Central),
            ("centralized", Central),
            ("pub-sub", PubSub),
            ("pubsub", PubSub),
        ];
        for (label, want) in table {
            let got = Algorithm::from_label(label);
            assert_eq!(got, Some(want), "{label}");
            assert_eq!(Algorithm::from_label(want.label()), Some(want));
            assert_eq!(want.matchmaker().name(), want.label());
        }
        for unknown in ["", "chord", "rn-tree@can", "Central", "pub_sub"] {
            assert_eq!(Algorithm::from_label(unknown), None, "{unknown}");
        }
    }
}
