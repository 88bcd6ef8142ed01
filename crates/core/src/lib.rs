//! # dgrid-core — the P2P desktop-grid engine
//!
//! This crate is the paper's primary contribution: a decentralized job
//! submission and execution system over P2P services (Section 2, Figure 1).
//! It simulates, event by event, the six-step lifecycle:
//!
//! 1. a client inserts a job at an **injection node**;
//! 2. the injection node assigns the job a GUID and routes it to its
//!    **owner node** through the overlay;
//! 3. the owner runs the **matchmaking** mechanism to find a capable
//!    **run node**;
//! 4. the owner sends the job to the run node;
//! 5. the run node queues the job (FIFO, one at a time) and, while it holds
//!    the job, keeps a heartbeat to the owner over a direct connection;
//! 6. on completion, results return to the client.
//!
//! Robustness comes from the **owner/run-node pair**: the job profile is
//! replicated on both, each monitors the other via heartbeats, and either
//! one can drive recovery when the other fails. Only if *both* fail before
//! recovery completes must the client resubmit — all three paths are
//! implemented in [`Engine`] and measured in the `T-robust` experiment.
//! A deterministic fault-injection layer ([`FaultPlan`], re-exported from
//! `dgrid-sim`) drops messages, partitions the network, and spikes latency,
//! driving the same recovery protocol — spurious detections, retry with
//! backoff, duplicate-execution suppression — without any node failing.
//!
//! Matchmaking is pluggable via the [`Matchmaker`] trait, with the paper's
//! three schemes provided:
//!
//! * [`RnTreeMatchmaker`] — Rendezvous-Node-Tree search over a pluggable
//!   [`KeyRouter`](router::KeyRouter) substrate (Chord by default, with
//!   Pastry and Tapestry variants) with a limited random walk for initial
//!   owner placement and extended search to `k` candidates (Section 3.1);
//! * [`CanMatchmaker`] — CAN coordinate-space routing with the virtual
//!   dimension, dominance-based candidate sets, stale neighbor load
//!   exchange, and the "improved" load-pushing extension (Section 3.2-3.3);
//! * [`CentralizedMatchmaker`] — the omniscient baseline the paper uses as
//!   its load-balance target ("a centralized scheme that uses knowledge of
//!   the status of all nodes and jobs").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod analytics;
mod config;
mod dag;
mod engine;
mod job;
mod match_can;
mod match_central;
mod match_pubsub;
mod match_rntree;
mod matchmaker;
mod metrics;
mod node;
pub mod router;
mod security;
mod span;
pub mod trace;

pub use algorithm::Algorithm;
pub use analytics::{AnalyticsSnapshot, SketchStats, StreamAnalytics, WINDOW_COUNTER_ARITY};
pub use config::{ChurnConfig, EngineConfig, PlacementPolicy};
pub use dag::JobDag;
pub use dgrid_sim::fault::{Delivery, Endpoint, FaultPlan, LatencySpike, NodeCrash, Partition};
pub use engine::{AvailabilityEvent, Engine, JobSubmission};
pub use job::{JobState, OwnerRef};
pub use match_can::{CanMatchmaker, CanMmConfig};
pub use match_central::CentralizedMatchmaker;
pub use match_pubsub::PubSubMatchmaker;
pub use match_rntree::{RnTreeConfig, RnTreeMatchmaker};
pub use matchmaker::{MatchOutcome, Matchmaker};
pub use metrics::SimReport;
pub use node::{GridNodeId, NodeTable};
pub use security::SandboxPolicy;
pub use span::{phase_samples, JobSpan, Phase, SpanAssembler, SpanOutcome};
pub use trace::binary::{
    binary_to_jsonl, decode_stream, encode_events, jsonl_to_binary, BinaryEncoder, BinaryObserver,
    StreamDecoder, StreamError, StreamFormat,
};
pub use trace::{
    parse_jsonl_line, EventEncoder, EventKind, EventRecord, JsonlEncoder, JsonlObserver,
    NullObserver, Observer, StreamObserver, TraceEvent, VecObserver,
};
