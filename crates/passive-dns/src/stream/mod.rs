//! # nxd-stream — streaming ingest over the SIE channel
//!
//! The paper's scale leg (§4) is measured over a 1.07 T-response Farsight
//! SIE firehose — traffic that arrives continuously, bursty, and out of
//! order, not as a batch you get to scan after the fact. This module tree
//! turns the repo's SIE channel into a continuously-queryable engine with
//! three planes folded per row under one lock:
//!
//! * **Windows & watermarks** ([`window`]) — event-time tumbling windows
//!   with bounded out-of-order tolerance. Rows beyond the watermark are
//!   *late*: exactly tallied on a side ledger, never silently dropped.
//! * **Exact incremental aggregates** ([`engine`]) — the §4 answers as a
//!   running [`crate::ScaleSummary`] plus the exact NX-name set and §4.2
//!   1/N name sample, bit-identical to the batch `query.rs` oracle over
//!   the rows admitted so far (pinned by `tests/prop_stream.rs`). The
//!   NX-name set stores each name once and answers membership with one
//!   hashed lookup per NX row; it lives in the `intern` module, because
//!   this tree keeps hash collections out of its own code.
//! * **Approximate companions** ([`sketch`]) — a space-saving top-k TLD
//!   summary (over-count ≤ N/k, no under-count, heavy hitters guaranteed;
//!   one map of k counters, with the eviction victim found by a scan)
//!   and an HLL-style distinct-name sketch (relative error
//!   `1.04/sqrt(2^p)`), in O(k + 2^p) memory regardless of stream length.
//!   Pinned by `tests/prop_sketch.rs`.
//!
//! Producers reach the engine two ways: `sie::collect_stream` drains the
//! bounded SIE channel through [`StreamEngine::offer_db_admissions`]
//! batch-by-batch while still sealing rows into the sharded store for
//! exact replay, and the nxd-serve sensor sink offers each recorded live
//! query row. Either way `/metrics` and `/snapshot.json` show the
//! aggregates move mid-run.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

pub mod engine;
pub mod sketch;
pub mod window;

pub use engine::{Admission, StreamConfig, StreamEngine, StreamSnapshot};
pub use sketch::{DistinctSketch, SpaceSaving, TopEntry};
pub use window::{ClosedWindow, LateTally, WindowConfig, WindowState, WindowTally};
