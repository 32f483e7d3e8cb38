//! # hpn-sim — discrete-event engine and fluid-flow network model
//!
//! This crate is the simulation substrate for the reproduction of
//! *Alibaba HPN: A Data Center Network for Large Language Model Training*
//! (SIGCOMM 2024). It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`Engine`] — a deterministic discrete-event scheduler generic over a
//!   user-supplied world type,
//! * [`FlowNet`] — a fluid (rate-based) network model with progressive-filling
//!   max-min fair bandwidth allocation, per-link queue integration and
//!   flow-completion tracking. Rate allocation sits behind the
//!   [`RateAllocator`] trait: the default [`alloc::IncrementalMaxMin`]
//!   recomputes only the perturbed bottleneck component per event, while
//!   [`alloc::DenseMaxMin`] re-solves every flow and serves as the oracle.
//!   Flow paths are interned ([`PathId`]/[`PathInterner`]) so specs carry a
//!   4-byte handle instead of a link vector,
//! * [`SplitMix64`] / [`Xoshiro256`] — small, dependency-free deterministic
//!   PRNGs so simulation runs are exactly reproducible from a seed,
//! * [`TimeSeries`] and [`stats`] — recording utilities used by the
//!   experiment harness to regenerate the paper's figures,
//! * [`QuantileSketch`] — a mergeable, relative-error-bounded streaming
//!   quantile sketch for FCT/queue-delay tails, and [`tail`] — a fast
//!   link-decomposition tail-latency estimator ([`TailEstimator`])
//!   cross-validated against the full fluid model,
//! * [`packetval`] — a minimal exact packet-level link simulator whose only
//!   job is to certify the fluid queue model's steady states.
//!
//! The fluid model deliberately operates at *flow* granularity rather than
//! packet granularity: the phenomena the paper studies (ECMP hash
//! polarization, queue build-up on oversubscribed downlinks, collective
//! throughput under contention) play out over seconds to minutes of traffic,
//! which a packet-level simulator could not cover at 15K-GPU scale.

#![warn(missing_docs)]

pub mod alloc;
pub mod arena;
pub mod engine;
pub mod flownet;
mod fxhash;
pub mod packetval;
pub mod path;
pub mod probe;
pub mod rng;
pub mod series;
pub mod sketch;
pub mod stats;
pub mod tail;
pub mod time;
pub mod units;

pub use alloc::{AllocatorKind, RateAllocator};
pub use arena::{Flow, FlowArena};
pub use engine::{Engine, EventId};
pub use flownet::{FlowHandle, FlowNet, FlowSpec, HotLinks, LinkId, LinkState, MemoStats};
pub use path::{PathId, PathInterner, PathSet};
pub use probe::NetProbe;
pub use rng::{label_hash, split_seed, SplitMix64, StreamSeed, Xoshiro256};
pub use series::TimeSeries;
pub use sketch::QuantileSketch;
pub use stats::RecomputeScope;
pub use tail::{LinkDecompositionEstimator, LinkView, TailEstimator};
pub use time::{SimDuration, SimTime};
