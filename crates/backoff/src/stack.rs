//! The full stack: COGCAST running directly on the *physical* radio.
//!
//! The paper's model section assumes the abstract collision slot and
//! points to its appendix (and footnote 4) for the realization: every
//! abstract slot expands into one fixed-length decay-backoff episode
//! per channel, all channels in parallel. This module simulates exactly
//! that composition for local broadcast, with no abstract collision
//! oracle anywhere:
//!
//! - an abstract slot is `R =`
//!   [`crate::decay::recommended_rounds`]`(n)` physical rounds (the
//!   fixed length keeps channels synchronized — a node cannot observe
//!   when *other* channels finish);
//! - on each channel, the tuned broadcasters run decay; the first lone
//!   transmission wins and is received by every listener on the
//!   channel and by the losing broadcasters (who abort);
//! - an episode can *fail* (no lone transmission within `R` rounds) —
//!   the "with high probability" caveat of the abstract model made
//!   concrete; nobody receives anything on that channel that slot.
//!
//! [`run_physical_broadcast`] measures completion in abstract slots
//! *and* physical rounds, and counts episode failures — experiment F14
//! compares the abstract-slot count against `crn-core`'s oracle-model
//! COGCAST to show the substitution preserves behaviour. The same
//! physics, driving *any* protocol rather than this hard-wired uniform
//! hopper, is the [`crn_sim::medium::PhysicalDecay`] medium; both run
//! the one decay kernel, [`crn_sim::medium::decay_episode`], on the
//! dedicated `PHYSICAL` RNG stream (docs/RNG_STREAMS.md).

use crate::decay::recommended_rounds;
use crn_sim::assignment::ChannelAssignment;
use crn_sim::medium::decay_episode;
use crn_sim::rng::{derive_rng, streams};
use crn_sim::GlobalChannel;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Outcome of running COGCAST on the physical stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalRun {
    /// Abstract slots until everyone was informed (`None` on budget
    /// exhaustion).
    pub slots: Option<u64>,
    /// Physical rounds consumed (`slots × rounds_per_slot` when
    /// complete).
    pub physical_rounds: u64,
    /// Rounds in one abstract slot (the fixed episode length `R`).
    pub rounds_per_slot: u64,
    /// Channel-episodes with listeners that ended without a lone
    /// transmission. A failed episode on a channel where every node
    /// transmits is not counted (nobody could have been informed), so
    /// this is not the same quantity as
    /// [`crn_sim::PhysicalDecay::failed_episodes`], which counts every
    /// episode without a lone transmission.
    pub failed_episodes: u64,
    /// Informed count after each abstract slot.
    pub informed_per_slot: Vec<usize>,
}

impl PhysicalRun {
    /// True if broadcast completed within the budget.
    pub fn completed(&self) -> bool {
        self.slots.is_some()
    }
}

/// Runs COGCAST for local broadcast over the physical radio.
///
/// Every slot each node tunes to a uniformly random channel of its set
/// in `assignment` (the engine-free simulation needs no local labels —
/// uniform random selection is label-invariant). Node 0 is the source.
/// All randomness comes from the `PHYSICAL` stream derived from `seed`.
///
/// # Examples
///
/// ```
/// use crn_backoff::stack::run_physical_broadcast;
/// use crn_sim::assignment::full_overlap;
/// // 4 nodes sharing channels {0,1}.
/// let run = run_physical_broadcast(&full_overlap(4, 2)?, 3, 1_000);
/// assert!(run.completed());
/// assert!(run.physical_rounds >= run.slots.unwrap());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_physical_broadcast(
    assignment: &ChannelAssignment,
    seed: u64,
    max_slots: u64,
) -> PhysicalRun {
    let n = assignment.n();
    let rounds_per_slot = recommended_rounds(n);
    let mut rng = derive_rng(seed, streams::PHYSICAL);
    let mut informed = vec![false; n];
    informed[0] = true;
    let mut informed_count = 1usize;
    let mut informed_per_slot = Vec::new();
    let mut failed_episodes = 0u64;
    let mut physical_rounds = 0u64;
    let mut slots = None;
    // This slot's `(channel, node)` tunings, grouped by channel.
    let mut tuned: Vec<(GlobalChannel, usize)> = Vec::with_capacity(n);

    for slot in 1..=max_slots {
        // Tune: everyone picks a uniform channel from its own set.
        tuned.clear();
        tuned.extend((0..n).map(|i| {
            let set = assignment.channels_of(i);
            (set[rng.gen_range(0..set.len())], i)
        }));
        tuned.sort_unstable();
        physical_rounds += rounds_per_slot;

        // Per channel, ascending, one decay episode among the informed
        // (transmitting) nodes tuned there; a lone transmission informs
        // every node on the channel. A node is tuned to one channel, so
        // informing it at once cannot change another channel's episode.
        for members in tuned.chunk_by(|a, b| a.0 == b.0) {
            let transmitters = members.iter().filter(|&&(_, i)| informed[i]).count();
            if transmitters == 0 {
                continue;
            }
            if decay_episode(transmitters, n, rounds_per_slot, &mut rng).is_some() {
                for &(_, i) in members {
                    if !informed[i] {
                        informed[i] = true;
                        informed_count += 1;
                    }
                }
            } else if members.len() > transmitters {
                // Listeners were present but the episode failed.
                failed_episodes += 1;
            }
        }
        informed_per_slot.push(informed_count);
        if informed_count == n {
            slots = Some(slot);
            break;
        }
    }
    PhysicalRun {
        slots,
        physical_rounds,
        rounds_per_slot,
        failed_episodes,
        informed_per_slot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::SimRng;
    use rand::SeedableRng;

    #[test]
    fn completes_on_single_shared_channel() {
        let run = run_physical_broadcast(&full_overlap(6, 1).unwrap(), 1, 1000);
        assert!(run.completed());
        assert_eq!(
            run.physical_rounds,
            run.slots.unwrap() * run.rounds_per_slot
        );
    }

    #[test]
    fn completes_on_shared_core_assignments() {
        for seed in 0..5 {
            let assignment = shared_core(16, 6, 2).unwrap();
            let run = run_physical_broadcast(&assignment, seed, 100_000);
            assert!(run.completed(), "seed {seed}");
            assert_eq!(run.failed_episodes, 0, "episodes should not fail at n=16");
        }
    }

    #[test]
    fn informed_counts_monotone_and_reach_n() {
        let assignment = shared_core(20, 5, 2).unwrap();
        let run = run_physical_broadcast(&assignment, 7, 100_000);
        for w in run.informed_per_slot.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*run.informed_per_slot.last().unwrap(), 20);
    }

    #[test]
    fn abstract_slot_counts_match_oracle_model_in_distribution() {
        // The substitution-preservation check: mean completion in
        // abstract slots over the physical stack should be close to
        // the oracle-collision model's (both run the same COGCAST).
        // We compare against a locally simulated oracle variant.
        let (n, c, k) = (20usize, 6usize, 2usize);
        let trials = 30u64;
        let mut physical_total = 0u64;
        for seed in 0..trials {
            let run = run_physical_broadcast(&shared_core(n, c, k).unwrap(), seed, 1_000_000);
            physical_total += run.slots.unwrap();
        }
        // Oracle variant: identical loop with a guaranteed winner.
        let mut oracle_total = 0u64;
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
            let assignment = shared_core(n, c, k).unwrap();
            let mut informed = vec![false; n];
            informed[0] = true;
            let mut count = 1;
            let mut slots = 0u64;
            while count < n {
                slots += 1;
                let tuning: Vec<GlobalChannel> = (0..n)
                    .map(|i| {
                        let s = assignment.channels_of(i);
                        s[rng.gen_range(0..s.len())]
                    })
                    .collect();
                for i in 0..n {
                    if !informed[i] && (0..n).any(|j| informed[j] && tuning[j] == tuning[i]) {
                        informed[i] = true;
                        count += 1;
                    }
                }
            }
            oracle_total += slots;
        }
        let ratio = physical_total as f64 / oracle_total as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "physical stack diverges from the oracle model: ratio {ratio}"
        );
    }

    #[test]
    fn budget_exhaustion_reported() {
        let assignment = shared_core(30, 8, 1).unwrap();
        let run = run_physical_broadcast(&assignment, 2, 1);
        assert!(!run.completed());
        assert_eq!(run.informed_per_slot.len(), 1);
    }

    /// Known answers `slots/physical_rounds/failed_episodes` for seeds
    /// 0..8: they pin the PHYSICAL draw order of the whole stack — one
    /// tuning draw per node, then one decay episode per channel with
    /// transmitters, channels ascending.
    #[test]
    fn physical_broadcast_known_answers() {
        let cases = [
            (
                16,
                6,
                2,
                "17/3536/0 20/4160/0 11/2288/0 8/1664/0 25/5200/0 13/2704/0 11/2288/0 10/2080/0",
            ),
            (
                12,
                4,
                1,
                "11/2288/0 19/3952/0 7/1456/0 9/1872/0 16/3328/0 15/3120/0 24/4992/0 9/1872/0",
            ),
        ];
        for (n, c, k, want) in cases {
            let assignment = shared_core(n, c, k).unwrap();
            for (seed, expected) in want.split(' ').enumerate() {
                let run = run_physical_broadcast(&assignment, seed as u64, 100_000);
                let got = format!(
                    "{}/{}/{}",
                    run.slots.unwrap(),
                    run.physical_rounds,
                    run.failed_episodes
                );
                assert_eq!(got, expected, "shared_core({n}, {c}, {k}) seed {seed}");
            }
        }
    }
}
