//! # crn-jamming — n-uniform jamming adversaries and Theorem 18
//!
//! The paper closes (Section 7, Theorem 18) by connecting broadcast in
//! *dynamic* cognitive radio networks to jamming-resistant broadcast in
//! multi-channel wireless networks: an algorithm that tolerates local
//! labels and per-slot channel churn automatically tolerates an
//! n-uniform jammer disabling up to `k < c/2` channels per node per
//! slot. This crate builds the jammers ([`jammer`]) and runs COGCAST —
//! completely unmodified — against them ([`theorem18`]): the jammed
//! network goes through the same broadcast driver as every other
//! broadcast runner ([`crn_core::cogcast::drive_broadcast`]) and the
//! result is COGCAST's [`BroadcastRun`](crn_core::cogcast::BroadcastRun).
//!
//! ```
//! use crn_jamming::{run_jammed_broadcast, JammerStrategy};
//! let run = run_jammed_broadcast(8, 6, 1, JammerStrategy::Sweep, 2, 12.0)?;
//! assert!(run.completed());
//! # Ok::<(), crn_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod jammer;
pub mod theorem18;

pub use adaptive::SilencerJammer;
pub use jammer::{JammerStrategy, UniformJammer};
pub use theorem18::{jammed_budget, run_jammed_broadcast};
