//! The benchmark's own checks: its wrappers change nothing the engine
//! does, its spans account for the step time, its output checks catch a
//! wrong output, and `BENCHMARK.json` names exactly what it reports.

use crn_core::cogcast::CogCast;
use crn_core::cogcomp::{CogComp, CogCompConfig};
use crn_perfbench::measure::{per_layer, END_TO_END};
use crn_perfbench::refs::{References, REF_SEEDS};
use crn_perfbench::spans::{self, TimedMedium};
use crn_perfbench::workloads::{cogcomp_inputs, run_trial, trial_seed, Protocol, Shape, Workload};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::pool::WorkerPool;
use crn_sim::{Network, OracleSingleHop, ParConfig, TraceDigest};
use std::sync::Arc;
use std::time::Instant;

const SMALL: Shape = Shape { n: 300, c: 6, k: 2 };

fn model(seed: u64) -> StaticChannels {
    StaticChannels::local(shared_core(SMALL.n, SMALL.c, SMALL.k).unwrap(), seed)
}

fn cogcast_protocols() -> Vec<CogCast<()>> {
    let mut protos = vec![CogCast::source(())];
    protos.extend((1..SMALL.n).map(|_| CogCast::node()));
    protos
}

/// Steps `net` until every node is done (at most `budget` slots),
/// folding each slot into a digest.
fn digest<M, P, CM, Med>(net: &mut Network<M, P, CM, Med>, budget: u64) -> (u64, u64)
where
    M: Clone,
    P: crn_sim::Protocol<M>,
    CM: crn_sim::ChannelModel,
    Med: crn_sim::Medium<M>,
{
    let mut d = TraceDigest::new();
    for _ in 0..budget {
        d.record(net.step());
        if net.protocols().iter().all(|p| p.is_done()) {
            break;
        }
    }
    (d.finish(), net.slot())
}

/// Installs a two-worker fan-out that engages at any size, so the
/// wrapped model is also read from pool threads.
fn fan_out<M, P, CM, Med>(net: &mut Network<M, P, CM, Med>)
where
    M: Clone + Send,
    P: crn_sim::Protocol<M> + Send,
    CM: crn_sim::ChannelModel + Sync,
    Med: crn_sim::Medium<M>,
{
    let pool = Arc::new(WorkerPool::new(2));
    net.set_parallelism(Some(ParConfig::new(pool).with_threshold(1)));
}

#[test]
fn wrappers_leave_the_cogcast_trace_digest_unchanged() {
    for seed in [1, 2, 3] {
        for parallel in [false, true] {
            let mut plain = Network::new(model(seed), cogcast_protocols(), seed).unwrap();
            let (m, med) = spans::traced(model(seed), OracleSingleHop::new());
            let mut timed = Network::with_medium(m, cogcast_protocols(), seed, med).unwrap();
            if parallel {
                fan_out(&mut plain);
                fan_out(&mut timed);
            }
            let want = digest(&mut plain, 10_000);
            assert_eq!(
                digest(&mut timed, 10_000),
                want,
                "seed {seed}, fan-out {parallel}"
            );
            assert_eq!(timed.medium().totals().slots, want.1);
        }
    }
}

#[test]
fn wrappers_leave_the_cogcomp_trace_digest_unchanged() {
    let seed = 7;
    let cfg = CogCompConfig::new(SMALL.n, SMALL.c, SMALL.k, 10.0);
    let protocols = || {
        let mut values = cogcomp_inputs(seed, SMALL.n).into_iter();
        let mut protos = vec![CogComp::source(cfg, values.next().unwrap())];
        protos.extend(values.map(|v| CogComp::node(cfg, v)));
        protos
    };
    let mut plain = Network::new(model(seed), protocols(), seed).unwrap();
    let (m, med) = spans::traced(model(seed), OracleSingleHop::new());
    let mut timed = Network::with_medium(m, protocols(), seed, med).unwrap();
    let budget = cfg.recommended_budget();
    assert_eq!(digest(&mut timed, budget), digest(&mut plain, budget));
}

#[test]
fn traced_and_untraced_trials_agree() {
    for protocol in [Protocol::Cogcast, Protocol::Cogcomp] {
        for i in 0..3 {
            let seed = trial_seed(5, i);
            let plain = run_trial(protocol, SMALL, seed, false).unwrap();
            let traced = run_trial(protocol, SMALL, seed, true).unwrap();
            assert_eq!(plain.outcome, traced.outcome, "{protocol:?} trial {seed}");
            assert_eq!(plain.outcome.invariant_error(), None);
            let spans = traced.spans.unwrap();
            assert_eq!(Some(spans.slots), traced.outcome.slots);
            assert_eq!(spans.d_slots + 1, spans.slots);
        }
    }
}

#[test]
fn spans_add_up_to_the_measured_step_time() {
    let seed = 11;
    let (m, med) = spans::traced(model(seed), OracleSingleHop::new());
    let mut net: Network<(), CogCast<()>, _, TimedMedium<OracleSingleHop>> =
        Network::with_medium(m, cogcast_protocols(), seed, med).unwrap();
    let slots = 400;
    let start = Instant::now();
    net.run_slots(slots);
    net.medium_mut().close();
    let measured = start.elapsed().as_nanos() as u64;

    let t = net.medium().totals();
    assert_eq!((t.slots, t.d_slots), (slots, slots));
    let spans = t.a_ns + t.b_ns + t.c_ns + t.d_ns;
    for (phase, ns) in [("A", t.a_ns), ("B", t.b_ns), ("C", t.c_ns), ("D", t.d_ns)] {
        assert!(ns > 0, "phase {phase} recorded no time");
    }
    // The spans tile the interval from the first `advance` to `close`;
    // only the instants before the first stamp and the count reads fall
    // outside them.
    assert!(
        spans + t.count_ns <= measured,
        "{spans} + {} > {measured}",
        t.count_ns
    );
    assert!(
        spans as f64 >= 0.9 * measured as f64,
        "spans {spans} ns cover under 90% of {measured} ns"
    );
}

#[test]
fn recorded_references_hold_and_a_corrupted_one_fails() {
    let workload = Workload::Cogcomp1k;
    let (protocol, shape) = workload.network().unwrap();
    let mut refs = References::builtin(workload);
    let seed = trial_seed(1, 0);
    let trial = run_trial(protocol, shape, seed, false).unwrap();
    assert_eq!(refs.check_trial(seed, &trial.outcome), None);

    let slots = trial.outcome.slots.unwrap();
    refs.set(&seed.to_string(), slots + 1);
    let err = refs
        .check_trial(seed, &trial.outcome)
        .expect("corrupted reference must fail");
    assert!(err.contains("reference"), "{err}");
}

#[test]
fn committed_trial_references_have_the_shape_record_writes() {
    for workload in [Workload::CogcastLarge, Workload::Cogcomp1k] {
        let trials = workload.ref_trials().unwrap();
        let refs = References::builtin(workload);
        let seeds: Vec<u64> = REF_SEEDS
            .flat_map(|s| (0..trials).map(move |i| trial_seed(s, i)))
            .collect();
        assert_eq!(refs.len(), seeds.len(), "{}", workload.name());
        for seed in seeds {
            assert!(refs.covers_trial(seed), "{}: {seed}", workload.name());
        }
    }
}

#[test]
fn a_wrong_output_fails_without_a_reference() {
    let refs = References::default();
    let trial = run_trial(Protocol::Cogcomp, SMALL, 3, false).unwrap();
    assert_eq!(refs.check_trial(3, &trial.outcome), None);
    let mut wrong = trial.outcome;
    wrong.value = wrong.value.map(|v| v + 1);
    assert!(refs.check_trial(3, &wrong).is_some());
    let mut late = trial.outcome;
    late.slots = None;
    assert!(refs.check_trial(3, &late).is_some());
}

#[test]
fn every_experiment_has_a_reference_hash_and_a_corrupted_one_fails() {
    let mut refs = References::builtin(Workload::PaperSuite);
    assert_eq!(refs.len(), crn_bench::EXPERIMENT_IDS.len());
    let text = include_str!("../refs/paper_suite.txt");
    let t1 = text
        .lines()
        .find_map(|l| l.strip_prefix("t1 "))
        .map(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).unwrap())
        .unwrap();
    assert_eq!(refs.check_experiment("t1", t1), None);
    refs.set("t1", t1 ^ 1);
    assert!(refs.check_experiment("t1", t1).is_some());
    assert!(refs.check_experiment("nope", t1).is_some());
}

/// The `"name"` and `"unit"` strings of one `BENCHMARK.json` section.
fn section(json: &str, key: &str, next: Option<&str>) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let end = next.map_or(json.len(), |n| json.find(&format!("\"{n}\"")).unwrap());
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\": \""))? + f.len() + 5;
        Some(entry[at..at + entry[at..].find('"')?].to_string())
    };
    json[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name").unwrap(), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let json = include_str!("../../BENCHMARK.json");
    let workloads: Vec<_> = section(json, "workloads", Some("end_to_end"))
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let want: Vec<_> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, want);

    let e2e = section(json, "end_to_end", Some("per_layer"));
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
        .collect();
    assert_eq!(e2e, want);

    let layers = section(json, "per_layer", None);
    let want: Vec<_> = per_layer(&[])
        .into_iter()
        .map(|m| (m.name, Some(m.unit.to_string())))
        .collect();
    assert_eq!(layers, want);
}
