//! Sweep-as-a-service: a fault-tolerant HTTP/JSONL front end for the
//! deterministic simulator.
//!
//! `datasync serve` turns the sweep machinery into a long-running
//! service: clients POST a sweep grid (scheme × fabric × workload ×
//! machine × cache × fault intensities) and receive one JSON line per
//! cell as it completes, plus a summary with an aggregate hash that
//! proves byte identity across cached, resumed and cold runs. The
//! design premise is the simulator's determinism: a cell's result is a
//! pure function of its canonical spec, so content addressing makes
//! caching exact and crash recovery a replay, never a guess.
//!
//! Robustness is layered end to end, mirroring one level up what the
//! simulated machine's recovery ladder does inside a run:
//!
//! | Layer | Module | In-machine analogue |
//! |---|---|---|
//! | deadline budgets + escalated retry | [`runner`] | NACK retransmission |
//! | jittered retry backoff | [`runner`] | `WaitStrategy::JitteredBackoff` |
//! | quarantine + circuit breaker | [`runner`], [`store`] | fallback scheme (degradation) |
//! | backpressure / load shedding | [`queue`] | SynCron-style overflow shedding |
//! | checksummed journal + resume | [`journal`], [`store`] | watchdog image repair |
//! | content-addressed memo cache | [`spec`], [`store`] | — (determinism dividend) |
//!
//! The crate is std-only like the rest of the workspace: a blocking
//! `TcpListener` polled non-blockingly, worker threads per connection,
//! and `core/par.rs` fanning cells across cores.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod http;
pub mod journal;
pub mod queue;
pub mod record;
pub mod runner;
pub mod server;
pub mod signal;
pub mod spec;
pub mod store;

/// The workspace JSON codec, re-exported where the service's clients
/// have always found it.
pub use datasync_sim::json;
pub use record::{CellRecord, RECORD_SCHEMA_VERSION};
pub use runner::{run_cell, CellRun};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle, SERVE_SCHEMA_VERSION};
pub use spec::{CellSpec, SweepSpec};
pub use store::RunStore;
