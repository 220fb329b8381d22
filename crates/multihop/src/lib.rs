//! # crn-multihop — retired; intentionally empty
//!
//! The multi-hop generalization now lives where the other media do:
//! the connectivity [`Topology`] and the receiver-centric
//! [`OracleMultihop`] medium are in `crn-sim`, and the COGCAST flood
//! over a topology is
//! `crn_core::cogcast::run_broadcast_on(model, seed, budget, OracleMultihop::new(topology))`.
//!
//! The crate stays only because deleting it, together with its entry
//! in `crn-bench`'s `Cargo.toml`, rewrites the benchmark's own lock
//! file (`perfbench/Cargo.lock`); it goes at the next change to the
//! benchmark.
//!
//! [`Topology`]: crn_sim::Topology
//! [`OracleMultihop`]: crn_sim::OracleMultihop

#![warn(missing_docs)]
