//! The exponential-decay backoff protocol (footnote 4 of the paper).
//!
//! `m ≤ n_max` stations contend on a collision-as-silence channel. Time
//! is grouped into *epochs* of `⌈log₂ n_max⌉ + 1` rounds; in round `j`
//! of an epoch (0-based) every still-active station transmits with
//! probability `2^{-j}`. When the transmission probability passes near
//! `1/m`, exactly one station transmits with constant probability, so
//! each epoch succeeds with constant probability and `O(log n)` epochs —
//! `O(log² n)` rounds — suffice with high probability.
//!
//! On the first success all other stations *receive* the message and
//! abort; the transmitter is the only station that never heard anything,
//! which is how it learns it won. This exactly realizes the paper's
//! abstract collision model: one winner (uniform by symmetry), success
//! feedback for the winner, and the winning message delivered to
//! everyone else.
//!
//! The decay kernel ([`crn_sim::medium::decay_episode`]) and its
//! epoch/budget arithmetic ([`epoch_len`], [`recommended_rounds`]) live
//! in [`crn_sim::medium`], shared with the in-engine
//! [`crn_sim::medium::PhysicalDecay`] medium; this module adds the
//! parameter checks and the measurements behind experiment F10.

use crn_sim::medium::decay_episode;
pub use crn_sim::medium::{epoch_len, recommended_rounds};
use crn_sim::{SimError, SimRng};
use serde::{Deserialize, Serialize};

/// The result of resolving one contention episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionResult {
    /// The station whose message got through.
    pub winner: usize,
    /// Physical rounds consumed before the success.
    pub rounds: u64,
}

/// Runs decay backoff among `m` contenders until one succeeds, or
/// `max_rounds` pass.
///
/// Returns `Ok(None)` only if the round budget is exhausted (for sane
/// budgets like `8·epoch_len(n_max)²` this is vanishingly rare).
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `m == 0` or `m > n_max`.
///
/// # Examples
///
/// ```
/// use crn_backoff::decay::resolve_contention;
/// use crn_sim::SimRng;
/// use rand::SeedableRng;
/// let mut rng = SimRng::seed_from_u64(1);
/// let r = resolve_contention(5, 16, 10_000, &mut rng)?.unwrap();
/// assert!(r.winner < 5);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn resolve_contention(
    m: usize,
    n_max: usize,
    max_rounds: u64,
    rng: &mut SimRng,
) -> Result<Option<ContentionResult>, SimError> {
    if m == 0 {
        return Err(SimError::InvalidParams {
            reason: "need at least one contender".into(),
        });
    }
    if m > n_max {
        return Err(SimError::InvalidParams {
            reason: format!("m = {m} exceeds the population bound n_max = {n_max}"),
        });
    }
    Ok(decay_episode(m, n_max, max_rounds, rng)
        .map(|(winner, rounds)| ContentionResult { winner, rounds }))
}

/// Mean physical rounds per abstract slot for `m` contenders, over
/// `trials` seeded episodes of at most [`recommended_rounds`]`(n_max)`
/// rounds — the series behind experiment F10.
///
/// Returns `NaN` when no episode completes (including `m == 0`).
pub fn mean_rounds_per_slot(m: usize, n_max: usize, trials: usize, seed: u64) -> f64 {
    use rand::SeedableRng;
    let mut total = 0u64;
    let mut done = 0usize;
    for t in 0..trials {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t as u64));
        if let Ok(Some(r)) = resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng) {
            total += r.rounds;
            done += 1;
        }
    }
    if done == 0 {
        f64::NAN
    } else {
        total as f64 / done as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn single_contender_wins_first_round() {
        let mut rng = SimRng::seed_from_u64(0);
        let r = resolve_contention(1, 1, 10, &mut rng).unwrap().unwrap();
        assert_eq!(r.winner, 0);
        assert_eq!(r.rounds, 1, "p = 1 in round 0 of every epoch");
    }

    #[test]
    fn always_resolves_within_recommended_budget() {
        for n_max in [2usize, 8, 32, 128] {
            for m in [1usize, 2, n_max / 2 + 1, n_max] {
                let mut failures = 0;
                for seed in 0..200 {
                    let mut rng = SimRng::seed_from_u64(seed);
                    if resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng)
                        .unwrap()
                        .is_none()
                    {
                        failures += 1;
                    }
                }
                assert!(
                    failures <= 2,
                    "m={m}, n_max={n_max}: {failures}/200 budget misses"
                );
            }
        }
    }

    #[test]
    fn winner_distribution_is_roughly_uniform() {
        // By symmetry every contender should win ~equally often — this
        // is what justifies the abstract model's uniform winner pick.
        let m = 4;
        let trials = 4000;
        let mut wins = vec![0usize; m];
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed as u64);
            let r = resolve_contention(m, 16, 10_000, &mut rng)
                .unwrap()
                .unwrap();
            wins[r.winner] += 1;
        }
        let expect = trials / m;
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                (w as f64) > expect as f64 * 0.85 && (w as f64) < expect as f64 * 1.15,
                "station {i} won {w} times, expected ~{expect}"
            );
        }
    }

    #[test]
    fn rounds_grow_slowly_with_population() {
        // Mean resolution rounds should scale like log², i.e. far
        // slower than linearly.
        let mean = |m: usize, n_max: usize| -> f64 {
            let trials = 300;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut rng = SimRng::seed_from_u64(seed);
                total += resolve_contention(m, n_max, 1_000_000, &mut rng)
                    .unwrap()
                    .unwrap()
                    .rounds;
            }
            total as f64 / trials as f64
        };
        let t_small = mean(4, 4);
        let t_big = mean(256, 256);
        // 64x the contenders should cost far less than 64x the rounds.
        assert!(
            t_big < t_small * 16.0,
            "decay not polylogarithmic? {t_small} -> {t_big}"
        );
    }

    #[test]
    fn zero_contenders_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let err = resolve_contention(0, 4, 10, &mut rng).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("at least one contender")),
            "{err:?}"
        );
    }

    #[test]
    fn over_population_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let err = resolve_contention(9, 4, 10, &mut rng).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("exceeds the population bound")),
            "{err:?}"
        );
    }

    #[test]
    fn mean_rounds_stay_polylog() {
        let small = mean_rounds_per_slot(2, 256, 200, 1);
        let large = mean_rounds_per_slot(200, 256, 200, 2);
        assert!(small.is_finite() && large.is_finite());
        // 100x contenders, same n_max: both bounded by the same
        // O(log² n_max) budget, and the ratio should be small.
        assert!(large < small * 12.0, "small={small}, large={large}");
        assert!(large < 200.0, "rounds per slot implausibly high: {large}");
        assert!(mean_rounds_per_slot(0, 256, 10, 1).is_nan());
    }

    /// Known answers for seeds 0..16 at a few `(m, n_max, budget)`
    /// shapes, written `winner/rounds`, or `-` for budget exhaustion.
    /// They pin the RNG consumption of the decay kernel: one `gen_bool`
    /// per contender per round, every round, until the first lone
    /// transmission.
    #[test]
    fn contention_known_answers() {
        let cases = [
            (
                1,
                1,
                10,
                "0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1 0/1",
            ),
            (
                3,
                8,
                136,
                "1/8 1/2 2/11 2/2 1/2 0/2 1/6 0/7 1/2 1/3 2/2 1/2 1/12 2/14 2/2 2/3",
            ),
            (
                16,
                16,
                208,
                "4/14 5/8 4/9 7/9 6/15 1/20 9/5 5/5 2/4 14/20 5/10 4/15 9/25 0/10 11/9 1/9",
            ),
            (
                100,
                256,
                656,
                "0/8 34/9 60/7 86/8 40/16 73/7 38/9 56/15 98/9 90/8 0/8 18/8 96/7 89/16 24/7 4/9",
            ),
            (
                4,
                16,
                5,
                "- 0/2 - 2/4 0/2 - 0/3 - 0/5 - 2/4 2/4 1/2 1/3 3/3 0/3",
            ),
        ];
        for (m, n_max, budget, want) in cases {
            for (seed, expected) in want.split(' ').enumerate() {
                let mut rng = SimRng::seed_from_u64(seed as u64);
                let got = resolve_contention(m, n_max, budget, &mut rng)
                    .unwrap()
                    .map_or("-".to_string(), |r| format!("{}/{}", r.winner, r.rounds));
                assert_eq!(
                    got, expected,
                    "m={m} n_max={n_max} budget={budget} seed={seed}"
                );
            }
        }
    }
}
