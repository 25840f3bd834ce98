//! `senseaid-serve` — the live front-end of the dual-mode runtime.
//!
//! The deterministic sim is this workspace's executable spec; this crate
//! is the *other* implementation of its two edges (see
//! `senseaid_core::runtime`): a wall clock instead of harness-driven
//! time, and TCP sockets instead of in-process loopback queues.
//! Everything between those edges — coordinator, scheduler, leases,
//! breakers, persistence — runs unchanged.
//!
//! Layout:
//!
//! - [`wire`] — the typed request/response/push protocol, encoded as
//!   payloads inside the PR 7 CRC-framed codec (`persist::codec`).
//! - [`conn`] — stream reassembly ([`conn::FrameAssembler`]) and a
//!   transport-generic connection pump shared by the TCP and loopback
//!   paths.
//! - [`engine`] — the serving engine: one `SenseAidServer` plus a
//!   `Clock`, applying decoded requests at receive time and routing
//!   assignment pushes to device sessions.
//! - [`tcp`] — the live mode (unix-only): listener + per-shard
//!   event-loop workers over non-blocking sockets, every thread blocked
//!   in one readiness wait and woken through a pipe, whole batches handed
//!   between threads, graceful shutdown with a WAL flush.
//! - `poll` (private) — the `poll(2)` binding that wait is built on: the
//!   crate's one foreign call, with its safety argument beside it, and
//!   the one module exempt from the lint below.
//! - [`loadgen`] — a closed-loop load generator reporting requests/sec
//!   and p50/p99/p999 latency ([`hist`]).
//! - [`trace`] — recorded device-event traces and the sim↔live
//!   byte-identity harness (`durable_digest` equality).

// `deny`, not `forbid`, so that exactly one module can opt back in:
// `poll` declares the libc `poll(2)` symbol (see its safety argument).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod engine;
pub mod hist;
pub mod loadgen;
mod poll;
pub mod tcp;
pub mod trace;
pub mod wire;

pub use conn::{ConnError, Connection, FrameAssembler};
pub use engine::{EngineOutput, EngineStats, FlushSummary, ServeEngine};
pub use hist::LatencyHistogram;
pub use loadgen::{run_loadgen, LoadReport, LoadgenOptions};
pub use tcp::{serve, ServeHandle, ServeOptions, ServeSummary};
pub use trace::{
    record_sample_trace, run_live, run_live_chaos, run_sim, ChaosReport, EventTrace, TraceEvent,
    TraceOp,
};
pub use wire::{
    encode_request, WireError, WirePush, WireReading, WireRequest, WireResponse, WireTaskSpec,
};
