//! # dgrid — a robust desktop grid built on peer-to-peer services
//!
//! A from-scratch Rust reproduction of *"Creating a Robust Desktop Grid
//! using Peer-to-Peer Services"* (Kim, Nam, Marsh, Keleher, Bhattacharjee,
//! Richardson, Wellnitz, Sussman — IPPS/IPDPS 2007): a decentralized job
//! submission and execution system in which peers pool idle resources,
//! matchmaking runs over DHT overlays instead of a central server, and the
//! owner/run-node pair replicates job state for failure recovery.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `dgrid-sim` | deterministic discrete-event kernel, RNG streams, statistics |
//! | [`resources`] | `dgrid-resources` | capability vectors, job profiles, the matching predicate |
//! | [`chord`] | `dgrid-chord` | Chord DHT: ring, fingers, successor lists, lookup, churn |
//! | [`pastry`] | `dgrid-pastry` | Pastry DHT: leaf sets, prefix routing tables |
//! | [`tapestry`] | `dgrid-tapestry` | Tapestry DHT: neighbor maps, surrogate routing |
//! | [`can`] | `dgrid-can` | CAN DHT: zones, splits, takeover, greedy routing |
//! | [`rntree`] | `dgrid-rntree` | the Rendezvous Node Tree and its pruned candidate search |
//! | [`core`] | `dgrid-core` | the grid engine, recovery protocol, and the three matchmakers |
//! | [`workloads`] | `dgrid-workloads` | the paper's clustered/mixed × light/heavy workload grid |
//! | [`harness`] | (here) | one-call experiment runner used by examples, tests, and benches |
//! | [`cli`] | (here) | the flag parser and exit-code conventions `dgrid` and `repro` share |
//!
//! ## Quickstart
//!
//! ```
//! use dgrid::harness::{run_scenario, Algorithm};
//! use dgrid::workloads::PaperScenario;
//!
//! // A small instance of the paper's mixed/lightly-constrained workload,
//! // matched by the RN-Tree algorithm.
//! let report = run_scenario(Algorithm::RnTree, PaperScenario::MixedLight, 64, 256, 42);
//! assert_eq!(report.jobs_completed, 256);
//! println!("mean wait {:.1}s over {} jobs", report.mean_wait(), report.jobs_completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dgrid_can as can;
pub use dgrid_check as check;
pub use dgrid_chord as chord;
pub use dgrid_core as core;
pub use dgrid_pastry as pastry;
pub use dgrid_resources as resources;
pub use dgrid_rntree as rntree;
pub use dgrid_sim as sim;
pub use dgrid_tapestry as tapestry;
pub use dgrid_workloads as workloads;

pub mod cli;
pub mod harness;
