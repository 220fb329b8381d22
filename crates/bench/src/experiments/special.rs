//! Separation, jamming and substrate experiments: T5, F9, F10.

use crate::effort::{mean_slots, Effort};
use crn_backoff::decay::mean_rounds_per_slot;
use crn_core::cogcast::run_broadcast;
use crn_jamming::{run_jammed_broadcast, JammerStrategy};
use crn_rendezvous::hop_together::run_hop_together;
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_stats::{Series, Table};

const MEASURE_BUDGET: u64 = 50_000_000;

/// **T5** — the Section 6 separation example: with global labels,
/// `c = n²` and `k = c − 1` (shared-core, `C = k + n`), hop-together
/// completes in `O(C/k) = O(1)` expected slots while COGCAST pays
/// `Θ((c²/(nk))·lg n) = Θ(n·lg n)`.
pub fn t5(effort: Effort) -> Table {
    let ns: &[usize] = &[3, 4, 5, 6];
    let trials = effort.trials(20);
    let mut t = Table::new(
        "T5: c >> n separation — hop-together (global labels) vs COGCAST (mean slots); c = n², k = c-1",
        &["n", "c", "hop-together", "COGCAST", "ratio"],
    );
    for &n in &effort.sweep(ns) {
        let c = n * n;
        let k = c - 1;
        let hop = mean_slots(trials, |seed| {
            let model = StaticChannels::global(shared_core(n, c, k).expect("valid"));
            run_hop_together(model, seed, MEASURE_BUDGET)
                .expect("construct")
                .slots
                .expect("completion")
        });
        let cog = mean_slots(trials, |seed| {
            let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
            run_broadcast(model, seed, MEASURE_BUDGET)
                .expect("construct")
                .slots
                .expect("completion")
        });
        t.push_row(vec![
            n.to_string(),
            c.to_string(),
            format!("{hop:.2}"),
            format!("{cog:.2}"),
            format!("{:.1}x", cog / hop),
        ]);
    }
    t
}

/// **F9** — COGCAST against n-uniform jammers (Theorem 18): completion
/// time vs jam budget `k`, per strategy, in a fully-shared `c`-channel
/// network. The effective overlap is `c − 2k`.
pub fn f9(effort: Effort) -> Table {
    let (n, c) = (16usize, 12usize);
    let trials = effort.trials(15);
    let mut t = Table::new(
        format!("F9: COGCAST under n-uniform jamming (n = {n}, c = {c}; mean slots)"),
        &[
            "jam budget k",
            "effective overlap c-2k",
            "random",
            "sweep",
            "targeted",
        ],
    );
    for k in [0usize, 1, 2, 3, 4, 5] {
        let mut cells = vec![k.to_string(), (c - 2 * k).to_string()];
        for strategy in JammerStrategy::ALL {
            let mean = mean_slots(trials, |seed| {
                let run = run_jammed_broadcast(n, c, k, strategy, seed, 60.0).expect("construct");
                run.slots.expect("completion within the padded budget")
            });
            cells.push(format!("{mean:.1}"));
        }
        t.push_row(cells);
    }
    t
}

/// **F10** — the backoff substrate (footnote 4): mean physical rounds
/// to resolve `m` contenders with population bound `n_max = 256`; the
/// curve stays `O(log² n)` across three orders of magnitude of `m`.
pub fn f10(effort: Effort) -> Series {
    let n_max = 256usize;
    let ms: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
    let trials = effort.trials(300);
    let mut s = Series::new(
        format!("F10: decay backoff — physical rounds per abstract slot (n_max = {n_max})"),
        "contenders m",
        "mean rounds",
    );
    for &m in &effort.sweep(ms) {
        s.push(m as f64, mean_rounds_per_slot(m, n_max, trials, 41));
    }
    s
}

/// **F14** — the end-to-end stack substitution: COGCAST over the real
/// decay-backoff radio vs over the abstract collision oracle. The
/// abstract-slot counts must agree (same protocol, same workload); the
/// physical stack additionally pays `O(log² n)` rounds per slot.
pub fn f14(effort: Effort) -> Table {
    use crn_backoff::stack::run_physical_broadcast;
    let (c, k) = (6usize, 2usize);
    let ns: &[usize] = &[8, 16, 32, 64];
    let trials = effort.trials(15);
    let mut t = Table::new(
        format!("F14: COGCAST on the physical stack vs the collision oracle (c = {c}, k = {k})"),
        &[
            "n",
            "oracle slots",
            "physical slots",
            "rounds/slot",
            "physical rounds",
            "failed episodes",
        ],
    );
    for &n in &effort.sweep(ns) {
        let oracle = mean_slots(trials, |seed| {
            let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
            run_broadcast(model, seed, MEASURE_BUDGET)
                .expect("construct")
                .slots
                .expect("completes")
        });
        let assignment = shared_core(n, c, k).expect("valid");
        let runs = crate::effort::par_trials(trials, |seed| {
            let run = run_physical_broadcast(&assignment, seed, 10_000_000);
            assert!(run.completed(), "physical n={n} seed={seed}");
            run
        });
        let phys_slots =
            runs.iter().map(|r| r.slots.unwrap()).sum::<u64>() as f64 / runs.len() as f64;
        let phys_rounds =
            runs.iter().map(|r| r.physical_rounds).sum::<u64>() as f64 / runs.len() as f64;
        let fails = runs.iter().map(|r| r.failed_episodes).sum::<u64>();
        t.push_row(vec![
            n.to_string(),
            format!("{oracle:.1}"),
            format!("{phys_slots:.1}"),
            runs[0].rounds_per_slot.to_string(),
            format!("{phys_rounds:.0}"),
            fails.to_string(),
        ]);
    }
    t
}

/// **F16** — the protocol × medium matrix: COGCAST, hop-together and
/// COGCOMP each driven over the abstract collision oracle, the multihop
/// medium on the complete topology (which must reproduce the oracle's
/// numbers exactly), and the real decay-backoff physical layer. The
/// physical columns are the first cross-protocol runs on real decay —
/// previously only the hard-wired COGCAST stack (F14) touched it.
pub fn f16(effort: Effort) -> Table {
    use crn_core::aggregate::Count;
    use crn_core::cogcast::run_broadcast_on;
    use crn_core::cogcomp::run_aggregation_on;
    use crn_rendezvous::hop_together::run_hop_together_on;
    use crn_sim::{OracleMultihop, OracleSingleHop, PhysicalDecay, Topology};

    let (n, c, k) = (16usize, 6usize, 2usize);
    let trials = effort.trials(15);
    let budget = 1_000_000u64;
    let mut t = Table::new(
        format!("F16: protocol × medium matrix (n = {n}, c = {c}, k = {k}; mean slots)"),
        &[
            "protocol",
            "oracle",
            "multihop (complete)",
            "physical",
            "phys rounds",
        ],
    );

    // Mean over the completed trials, annotating any that timed out.
    let fmt_cell = |xs: &[Option<u64>]| -> String {
        let done: Vec<u64> = xs.iter().copied().flatten().collect();
        let dnf = xs.len() - done.len();
        if done.is_empty() {
            return "dnf".into();
        }
        let mean = done.iter().sum::<u64>() as f64 / done.len() as f64;
        if dnf == 0 {
            format!("{mean:.1}")
        } else {
            format!("{mean:.1} ({dnf} dnf)")
        }
    };
    let mean_rounds = |xs: &[(Option<u64>, u64)]| -> String {
        format!(
            "{:.0}",
            xs.iter().map(|&(_, r)| r).sum::<u64>() as f64 / xs.len() as f64
        )
    };

    // COGCAST (local labels).
    {
        let model = |seed| StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
        let oracle = crate::effort::par_trials(trials, |s| {
            let (run, _) =
                run_broadcast_on(model(s), s, budget, OracleSingleHop::new()).expect("construct");
            run.slots
        });
        let multihop = crate::effort::par_trials(trials, |s| {
            let medium = OracleMultihop::new(Topology::complete(n));
            let (run, _) = run_broadcast_on(model(s), s, budget, medium).expect("construct");
            run.slots
        });
        let physical = crate::effort::par_trials(trials, |s| {
            let (run, med) =
                run_broadcast_on(model(s), s, budget, PhysicalDecay::new()).expect("construct");
            (run.slots, med.physical_rounds())
        });
        let phys_slots: Vec<Option<u64>> = physical.iter().map(|&(sl, _)| sl).collect();
        t.push_row(vec![
            "COGCAST".into(),
            fmt_cell(&oracle),
            fmt_cell(&multihop),
            fmt_cell(&phys_slots),
            mean_rounds(&physical),
        ]);
    }

    // Hop-together rendezvous broadcast (global labels).
    {
        let model = |_seed| StaticChannels::global(shared_core(n, c, k).expect("valid"));
        let oracle = crate::effort::par_trials(trials, |s| {
            let (run, _) = run_hop_together_on(model(s), s, budget, OracleSingleHop::new())
                .expect("construct");
            run.slots
        });
        let multihop = crate::effort::par_trials(trials, |s| {
            let medium = OracleMultihop::new(Topology::complete(n));
            let (run, _) = run_hop_together_on(model(s), s, budget, medium).expect("construct");
            run.slots
        });
        let physical = crate::effort::par_trials(trials, |s| {
            let (run, med) =
                run_hop_together_on(model(s), s, budget, PhysicalDecay::new()).expect("construct");
            (run.slots, med.physical_rounds())
        });
        let phys_slots: Vec<Option<u64>> = physical.iter().map(|&(sl, _)| sl).collect();
        t.push_row(vec![
            "hop-together".into(),
            fmt_cell(&oracle),
            fmt_cell(&multihop),
            fmt_cell(&phys_slots),
            mean_rounds(&physical),
        ]);
    }

    // COGCOMP aggregation (local labels; slots counted only when the
    // aggregate is complete — every node informed and terminated).
    {
        let alpha = 6.0;
        let model = |seed| StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
        let values = || -> Vec<Count> { (0..n).map(|_| Count(1)).collect() };
        let oracle = crate::effort::par_trials(trials, |s| {
            let (run, _) = run_aggregation_on(model(s), values(), s, alpha, OracleSingleHop::new())
                .expect("construct");
            run.is_complete().then(|| run.slots.expect("complete"))
        });
        let multihop = crate::effort::par_trials(trials, |s| {
            let medium = OracleMultihop::new(Topology::complete(n));
            let (run, _) =
                run_aggregation_on(model(s), values(), s, alpha, medium).expect("construct");
            run.is_complete().then(|| run.slots.expect("complete"))
        });
        let physical = crate::effort::par_trials(trials, |s| {
            let (run, med) = run_aggregation_on(model(s), values(), s, alpha, PhysicalDecay::new())
                .expect("construct");
            let slots = run.is_complete().then(|| run.slots.expect("complete"));
            (slots, med.physical_rounds())
        });
        let phys_slots: Vec<Option<u64>> = physical.iter().map(|&(sl, _)| sl).collect();
        t.push_row(vec![
            "COGCOMP".into(),
            fmt_cell(&oracle),
            fmt_cell(&multihop),
            fmt_cell(&phys_slots),
            mean_rounds(&physical),
        ]);
    }
    t
}

/// **F15** — the multi-hop extension: COGCAST flooding time vs network
/// diameter at fixed `n` (the message pays one single-hop epoch per
/// hop, so completion tracks the diameter).
pub fn f15(effort: Effort) -> Table {
    use crn_multihop::{run_flood, Topology};
    let (n, c, k) = (16usize, 4usize, 2usize);
    let trials = effort.trials(15);
    let mut t = Table::new(
        format!("F15: multi-hop COGCAST flood vs topology (n = {n}, c = {c}, k = {k}; mean slots)"),
        &["topology", "diameter", "mean slots", "slots/diameter"],
    );
    let topologies: Vec<(&str, Topology)> = vec![
        ("complete", Topology::complete(n)),
        ("grid 4x4", Topology::grid(4, 4)),
        ("ring", Topology::ring(n)),
        ("line", Topology::line(n)),
    ];
    for (name, topo) in topologies {
        let diameter = topo.diameter().expect("connected");
        let mean = mean_slots(trials, |seed| {
            let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
            run_flood(topo.clone(), model, seed, MEASURE_BUDGET)
                .expect("construct")
                .slots
                .expect("completes")
        });
        t.push_row(vec![
            name.to_string(),
            diameter.to_string(),
            format!("{mean:.1}"),
            format!("{:.1}", mean / diameter as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f15_diameter_dominates() {
        let t = f15(Effort::Quick);
        let complete: f64 = t.rows()[0][2].parse().unwrap();
        let line: f64 = t.rows().last().unwrap()[2].parse().unwrap();
        assert!(
            line > complete * 2.0,
            "line must be much slower than complete: {complete} vs {line}"
        );
    }

    #[test]
    fn f16_multihop_column_matches_oracle_exactly() {
        // Complete topology + single-hop protocols: the multihop medium
        // delegates to the oracle, so the columns must be identical —
        // same trace, same slot counts, not just statistically close.
        let t = f16(Effort::Quick);
        assert_eq!(t.rows().len(), 3);
        for row in t.rows() {
            assert_eq!(row[1], row[2], "oracle vs multihop diverged: {row:?}");
            // The physical column completed and agrees in order of
            // magnitude (decay preserves the slot-level behaviour).
            assert!(!row[3].contains("dnf"), "physical timed out: {row:?}");
            let oracle: f64 = row[1].parse().unwrap();
            let physical: f64 = row[3].parse().unwrap();
            assert!(
                physical / oracle < 4.0 && oracle / physical < 4.0,
                "physical slots far from oracle: {row:?}"
            );
        }
    }

    #[test]
    fn f14_physical_tracks_oracle() {
        let t = f14(Effort::Quick);
        for row in t.rows() {
            let oracle: f64 = row[1].parse().unwrap();
            let physical: f64 = row[2].parse().unwrap();
            let ratio = physical / oracle;
            assert!(
                (0.4..2.5).contains(&ratio),
                "abstract-slot counts should agree: {row:?}"
            );
        }
    }

    #[test]
    fn t5_hop_together_wins() {
        let t = t5(Effort::Quick);
        for row in t.rows() {
            let hop: f64 = row[2].parse().unwrap();
            let cog: f64 = row[3].parse().unwrap();
            assert!(hop < cog, "hop-together should win when c >> n: {row:?}");
            assert!(hop < 6.0, "hop-together should be O(1): {row:?}");
        }
    }

    #[test]
    fn f9_unjammed_row_is_fastest() {
        let t = f9(Effort::Quick);
        let first: f64 = t.rows()[0][2].parse().unwrap();
        let last: f64 = t.rows().last().unwrap()[2].parse().unwrap();
        assert!(
            last > first,
            "jamming must slow broadcast: {first} vs {last}"
        );
    }

    #[test]
    fn f10_rounds_bounded() {
        let s = f10(Effort::Quick);
        for &(_, y) in s.points() {
            assert!(y.is_finite() && y < 500.0);
        }
    }
}
