//! # `perfbench` — the repository benchmark's measuring side
//!
//! Runs one benchmark workload (`paper`, `mesh10k` or `meshjam`) through
//! the simulator's public API and reports host time around the calls.
//! The simulator crates never read a clock; every `Instant` lives here,
//! outside them, so their determinism rule is untouched.
//!
//! * [`workload`] — the three workloads, their pinned scenarios, and
//!   one untraced operation each, guarded by `catch_unwind`.
//! * [`replay`] — the testbed replay: one fig10 PPR arm re-run
//!   reception by reception through the public calls the event driver
//!   makes, timed per layer and checked against `process_receptions`.
//! * [`meshtrace`] — the mesh legs (sliced run, `threads=1` twin) and
//!   the spatial-index probe.
//! * [`trace`] — the traced run that assembles every per-layer metric.
//! * [`metrics`] — the named, unit-tagged metric list and JSON output.
//!
//! `run.py` beside this package drives the binary, one process per
//! operation, and prints the benchmark's result line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meshtrace;
pub mod metrics;
pub mod replay;
pub mod trace;
pub mod workload;
