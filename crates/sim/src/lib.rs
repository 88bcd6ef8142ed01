//! # dgrid-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate under every experiment in the workspace. The
//! paper ("Creating a Robust Desktop Grid using Peer-to-Peer Services",
//! IPDPS 2007) evaluates its matchmaking algorithms with an event-driven
//! simulator; this crate is that simulator's kernel, rebuilt from scratch:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with nanosecond
//!   resolution stored in `u64`, so event ordering is exact (no float
//!   comparison hazards).
//! * [`EventQueue`] — a stable priority queue of `(time, seq)`-ordered
//!   events. Two events scheduled for the same instant pop in the order they
//!   were scheduled, which makes whole simulations bit-for-bit reproducible.
//! * [`rng`] — seed-derivation utilities so that each logical stream of
//!   randomness (arrivals, node capabilities, failures, ...) gets an
//!   independent, deterministic generator from one root seed.
//! * [`stats`] — online mean/variance (Welford), sample summaries with
//!   percentiles, and log-bucketed histograms for the metrics the paper
//!   reports (job wait time average and standard deviation, hop counts).
//! * [`net`] — a simple per-hop latency model for overlay messages.
//! * [`fault`] — deterministic network fault injection: message loss,
//!   scheduled partitions, latency spikes, and crash-recovery plans layered
//!   over the latency model.
//! * [`telemetry`] — named metric registries, virtual-time series
//!   sampling, and the hook interface overlay code uses to report lookup
//!   telemetry without threading values through every call.
//! * [`router`] — the [`KeyRouter`](router::KeyRouter) trait: the
//!   substrate-agnostic key-routing surface (membership, ownership,
//!   cost-counted lookup, maintenance, debug checks) that Chord, Pastry,
//!   and Tapestry implement and the matchmaking layer builds on.
//! * [`prefix`] — what the two prefix-routing substrates share: hexadecimal
//!   digit arithmetic, the sorted live-key snapshot of the last stabilize,
//!   and per-peer tables that are computed from it until an individual
//!   refresh materialises one.
//! * [`failover`] — the shared detour skeleton behind every overlay's
//!   lookup failover (Chord successor lists, CAN neighbor handoffs, generic
//!   `KeyRouter` retries).
//!
//! Everything here is allocation-light and single-threaded by design;
//! parallelism in the workspace happens *across* replications (one simulator
//! per seed), never inside one.
//!
//! ## Example
//!
//! ```
//! use dgrid_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32), Stop }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimDuration::from_secs(1), Ev::Ping(1));
//! q.schedule_in(SimDuration::from_secs(2), Ev::Stop);
//! q.schedule_in(SimDuration::from_secs(1), Ev::Ping(2)); // same time: FIFO
//!
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_secs(1), Ev::Ping(1)));
//! let (_, e2) = q.pop().unwrap();
//! assert_eq!(e2, Ev::Ping(2));
//! assert_eq!(q.now(), SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod failover;
pub mod fault;
pub mod hist;
pub mod net;
pub mod prefix;
pub mod rng;
pub mod router;
pub mod stats;
pub mod telemetry;
mod time;

pub use event::EventQueue;
pub use time::{SimDuration, SimTime};

/// Commonly used items, for glob import in downstream crates.
pub mod prelude {
    pub use crate::fault::{Delivery, Endpoint, FaultPlan, Network};
    pub use crate::hist::LogHistogram;
    pub use crate::net::LatencyModel;
    pub use crate::rng::{rng_for, SimRng};
    pub use crate::router::{KeyRouter, RouteCost};
    pub use crate::stats::{OnlineStats, SampleSet, SampleSummary};
    pub use crate::telemetry::{
        MetricsRegistry, NullHook, RegistryHook, SharedHook, SharedRegistry, TelemetryHook,
        TimeSeries,
    };
    pub use crate::{EventQueue, SimDuration, SimTime};
}
