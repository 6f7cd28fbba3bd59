//! # nxd-perfbench
//!
//! The repository's end-to-end and per-layer benchmark. `run.py` builds
//! this package and runs the `perfbench` runner for one workload:
//!
//! | workload | load | layers it stresses |
//! |---|---|---|
//! | `serve-udp` | open loop, 4,000 q/s, one UDP socket | dns-sim zone lookup, UDP hand-off, sink |
//! | `serve-tcp` | closed loop, 2 connections × 8 pipelined queries | accept, queue, TCP framing |
//! | `ingest-analyze` | one producer, 512-row SIE batches, live snapshots | passive-dns, core, §5 detectors |
//!
//! The server under test runs in its own process (`perfbench-host`), so
//! its CPU time and peak memory come from its own `/proc/<pid>`.

pub mod closedloop;
pub mod host;
pub mod ingest;
pub mod layers;
pub mod openloop;
pub mod procfs;
pub mod serve;
pub mod stats;
