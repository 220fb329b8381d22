//! The repository benchmark: large COGCAST, long COGCOMP and the full
//! paper suite, with per-phase slot spans timed from outside the
//! engine. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

#![warn(missing_docs)]

pub mod host;
pub mod measure;
pub mod refs;
pub mod spans;
pub mod workloads;
