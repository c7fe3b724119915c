#![deny(missing_docs)]

//! Sizing-as-a-service for KATO: the `katod` daemon, its request protocol,
//! and the persistent transfer-archive **knowledge bank**.
//!
//! The serving layer turns the one-shot optimiser in [`kato`] into an
//! accumulating system:
//!
//! * [`json`] — the serde-free JSON value tree (writer + parser) shared by
//!   the daemon protocol, the bank files and the `kato` CLI.
//! * [`archive`] — lossless `RunHistory` ⇄ JSON codec (non-finite values
//!   survive the roundtrip as tagged strings).
//! * [`bank`] — the on-disk knowledge bank: every completed run is
//!   appended to a versioned per-`scenario×tech` archive file, and new
//!   requests query it for the best-aligned source archive to warm-start
//!   from.
//! * [`protocol`] — newline-delimited JSON sizing requests/responses.
//! * [`cache`] — in-memory dedupe of identical requests by cache key.
//! * [`daemon`] — the request loop gluing it all together, including the
//!   probe → align → resume warm-start flow, one batched request path
//!   over the [`kato_par`] pool with per-job panic isolation, request
//!   deadlines (`deadline_ms` → degraded best-so-far), and the
//!   `{"op":"health"}` report.
//! * [`faults`] — dependency-free deterministic failpoints
//!   (`KATO_FAILPOINTS=bank_write=2,sim_panic=5`) used to test all of the
//!   above under injected crashes, torn writes and I/O errors.
//!
//! # Request lifecycle
//!
//! ```text
//! request ── cache hit? ──► replay stored response (cache_hit: true)
//!    │ miss
//!    ▼
//! bank has archives for the scenario?
//!    │ yes: probe sims → alignment-score candidates → attach best
//!    │      source → Kato::resume (probe counts toward budget)
//!    │ no:  cold Kato::run
//!    ▼
//! append RunHistory to bank ──► store in cache ──► respond
//! ```

pub mod archive;
pub mod bank;
pub mod cache;
pub mod daemon;
pub mod faults;
pub mod json;
pub mod protocol;

pub use bank::{Bank, BankError, SourceChoice};
pub use cache::ResultCache;
pub use daemon::Daemon;
pub use faults::Failpoints;
pub use json::Json;
pub use protocol::SizingRequest;
