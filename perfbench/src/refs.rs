//! Reference outputs, recorded at the commit that introduced the
//! benchmark, and the output checks that use them.
//!
//! Each file under `refs/` holds one `key value` pair per line (`#`
//! starts a comment):
//!
//! - `cogcast_large.txt`, `cogcomp_1k.txt`: trial network seed → slots
//!   to completion, for the first [`Workload::ref_trials`] trials of
//!   each workload seed in [`REF_SEEDS`];
//! - `paper_suite.txt`: experiment id → FNV-1a of the rendered artifact
//!   (hex).
//!
//! A trial whose seed has no reference is checked against the
//! invariants alone. Every experiment id must have one.

use crate::workloads::{Outcome, Workload};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// The workload seeds `refs/` records the trials of; each gets
/// [`Workload::ref_trials`] trials.
pub const REF_SEEDS: RangeInclusive<u64> = 0..=10;

/// Reference values keyed by trial seed or experiment id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct References(HashMap<String, u64>);

impl References {
    /// The references compiled into the benchmark for `workload`.
    pub fn builtin(workload: Workload) -> References {
        let text = match workload {
            Workload::CogcastLarge => include_str!("../refs/cogcast_large.txt"),
            Workload::Cogcomp1k => include_str!("../refs/cogcomp_1k.txt"),
            Workload::PaperSuite => include_str!("../refs/paper_suite.txt"),
        };
        References::parse(text).expect("built-in references parse")
    }

    /// Parses `key value` lines; values are hex for `0x`-prefixed ones
    /// and decimal otherwise.
    ///
    /// # Errors
    ///
    /// Names the first malformed or duplicate line.
    fn parse(text: &str) -> Result<References, String> {
        let mut map = HashMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("line {}: {line:?}", no + 1);
            let (key, value) = line.split_once(' ').ok_or_else(bad)?;
            let value = value.trim();
            let value = match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            }
            .map_err(|_| bad())?;
            if map.insert(key.to_string(), value).is_some() {
                return Err(format!("{}: duplicate key", bad()));
            }
        }
        Ok(References(map))
    }

    /// Overrides one reference (tests use it to corrupt a value).
    pub fn set(&mut self, key: &str, value: u64) {
        self.0.insert(key.to_string(), value);
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True when the trial with network seed `seed` has a reference.
    pub fn covers_trial(&self, seed: u64) -> bool {
        self.0.contains_key(&seed.to_string())
    }

    /// Why a trial's outcome is wrong, or `None` when it is right.
    pub fn check_trial(&self, seed: u64, outcome: &Outcome) -> Option<String> {
        if let Some(err) = outcome.invariant_error() {
            return Some(format!("trial {seed}: {err}"));
        }
        match self.0.get(&seed.to_string()) {
            Some(&slots) if outcome.slots != Some(slots) => Some(format!(
                "trial {seed}: {:?} slots, reference {slots}",
                outcome.slots
            )),
            _ => None,
        }
    }

    /// Why an experiment's artifact is wrong, or `None` when its hash
    /// matches the reference.
    pub fn check_experiment(&self, id: &str, hash: u64) -> Option<String> {
        match self.0.get(id) {
            Some(&want) if want == hash => None,
            Some(&want) => Some(format!(
                "{id}: artifact hash {hash:#018x}, reference {want:#018x}"
            )),
            None => Some(format!("{id}: no reference hash")),
        }
    }
}
