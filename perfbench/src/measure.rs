//! One benchmark run: the closed loop over a workload's operations, the
//! output checks, and the metrics the run reports.
//!
//! With tracing off the run repeats operations for the whole time
//! allowed and reports the end-to-end metrics. With tracing on it runs
//! each operation twice, untraced and traced, alternating which goes
//! first so that drift in host speed cancels out of the trace overhead;
//! it checks that both runs agree and reports the per-layer metrics.

use crate::host::peak_rss_mb;
use crate::refs::References;
use crate::spans::PhaseTotals;
use crate::workloads::{
    run_suite_pass, run_trial, suite_order, trial_seed, Protocol, Shape, SuitePass, Trial, Workload,
};
use crn_bench::EXPERIMENT_IDS;
use crn_sim::pool::{self, WorkerPool};
use crn_sim::SimError;
use std::time::Instant;

/// Fresh pools started, besides the global one, to take the median
/// pool start-up time from. A start-up takes tens of microseconds, so
/// only a median over many is steady.
const POOL_STARTS: usize = 100;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations issued: trials, or experiments for `paper_suite`.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The failures, one line each.
    pub failures: Vec<String>,
    /// Operations timed, for the sample-count note.
    pub samples: usize,
    /// Trials checked against the invariants alone, because `refs/`
    /// has no reference for their seed.
    pub unreferenced: usize,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            self.failures.push(f);
        }
    }
}

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// The single-network per-layer metrics and their units, in
/// `BENCHMARK.json` order; [`per_layer`] adds one `harness.<id>_ms` per
/// experiment and `trace.overhead_frac`.
const NETWORK_LAYERS: [(&str, &str); 15] = [
    ("assignment.build_ms", "ms"),
    ("channel_model.labels_ms", "ms"),
    ("engine.phase_a_ns", "ns"),
    ("engine.phase_b_ns", "ns"),
    ("medium.resolve_ns", "ns"),
    ("engine.phase_d_plus_runner_ns", "ns"),
    ("medium.active_channels", "count"),
    ("medium.broadcasters", "count"),
    ("medium.listeners", "count"),
    ("medium.collisions", "count"),
    ("medium.deliveries", "count"),
    ("engine.sleepers", "count"),
    ("medium.delivery_frac", "frac"),
    ("runner.slots_per_trial", "slots"),
    ("runner.node_slots_per_s", "1/s"),
];

/// Every per-layer metric, in `BENCHMARK.json` order, with `measured`
/// values filled in by name and 0 for a layer the workload does not
/// pass through.
pub fn per_layer(measured: &[(String, f64)]) -> Vec<Metric> {
    let value = |name: &str| {
        measured
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let harness = EXPERIMENT_IDS
        .iter()
        .map(|id| (format!("harness.{id}_ms"), "ms"));
    NETWORK_LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(harness)
        .chain([("trace.overhead_frac".to_string(), "frac")])
        .map(|(name, unit)| {
            let v = value(&name);
            metric(name, v, unit)
        })
        .collect()
}

/// The median of `values` (the mean of the middle two for an even
/// count); `NaN` when empty.
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Repeats `op(index)` until `seconds` have passed, at least once.
fn closed_loop<T>(seconds: f64, mut op: impl FnMut(u64) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(op(out.len() as u64));
        if start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Starts the global pool at its default width, then [`POOL_STARTS`]
/// fresh pools of that width; returns the width and the median time
/// from creating a pool to its first job completing, in seconds.
pub fn pool_startup() -> (usize, f64) {
    let ready = |pool: &WorkerPool| pool.run(pool.workers(), 1, &|_, _| {});
    let t = Instant::now();
    let global = pool::global();
    ready(&global);
    let mut samples = vec![t.elapsed().as_secs_f64()];
    for _ in 0..POOL_STARTS {
        let t = Instant::now();
        let fresh = WorkerPool::new(global.workers());
        ready(&fresh);
        samples.push(t.elapsed().as_secs_f64());
    }
    (global.workers(), median(samples))
}

/// Runs `workload` for about `seconds` and returns its report.
///
/// # Errors
///
/// On a simulator error or an unreadable peak RSS.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pool_startup_s: f64,
) -> Result<Report, String> {
    let refs = References::builtin(workload);
    match workload.network() {
        Some((protocol, shape)) if trace => network_traced(protocol, shape, seed, seconds, &refs),
        Some((protocol, shape)) => {
            network_plain(protocol, shape, seed, seconds, &refs, pool_startup_s)
        }
        None if trace => Ok(suite_traced(seed, seconds, &refs)),
        None => suite_plain(seed, seconds, &refs, pool_startup_s),
    }
}

fn end_to_end(report: &mut Report, wall_s: f64, setup_s: f64, run_s: f64) -> Result<(), String> {
    let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    let values = [wall_s, setup_s, run_s, peak_rss_mb()?, ok];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect();
    Ok(())
}

fn network_plain(
    protocol: Protocol,
    shape: Shape,
    seed: u64,
    seconds: f64,
    refs: &References,
    pool_startup_s: f64,
) -> Result<Report, String> {
    let trials: Vec<Trial> = closed_loop(seconds, |i| {
        run_trial(protocol, shape, trial_seed(seed, i), false)
    })
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(|e: SimError| e.to_string())?;
    let mut report = Report {
        samples: trials.len(),
        unreferenced: trials.iter().filter(|t| !refs.covers_trial(t.seed)).count(),
        ..Report::default()
    };
    for t in &trials {
        report.check(refs.check_trial(t.seed, &t.outcome));
    }
    end_to_end(
        &mut report,
        median(trials.iter().map(Trial::wall_s)),
        pool_startup_s + median(trials.iter().map(Trial::setup_s)),
        median(trials.iter().map(Trial::runner_s_per_budget)),
    )?;
    Ok(report)
}

fn network_traced(
    protocol: Protocol,
    shape: Shape,
    seed: u64,
    seconds: f64,
    refs: &References,
) -> Result<Report, String> {
    let pairs = closed_loop(seconds, |i| {
        let run = |traced| run_trial(protocol, shape, trial_seed(seed, i), traced);
        if i % 2 == 0 {
            Ok((run(false)?, run(true)?))
        } else {
            let traced = run(true)?;
            Ok((run(false)?, traced))
        }
    });
    let (plain, traced): (Vec<Trial>, Vec<Trial>) = pairs
        .into_iter()
        .collect::<Result<Vec<_>, SimError>>()
        .map_err(|e| e.to_string())?
        .into_iter()
        .unzip();
    let mut report = Report {
        samples: traced.len(),
        unreferenced: plain.iter().filter(|t| !refs.covers_trial(t.seed)).count(),
        ..Report::default()
    };
    let mut spans = PhaseTotals::default();
    for (p, t) in plain.iter().zip(&traced) {
        report.check(refs.check_trial(p.seed, &p.outcome));
        let disagreement = (t.outcome != p.outcome).then(|| {
            format!(
                "trial {}: traced {:?} differs from untraced {:?}",
                t.seed, t.outcome, p.outcome
            )
        });
        report.check(refs.check_trial(t.seed, &t.outcome).or(disagreement));
        spans.add(&t.spans.expect("traced trial records spans"));
    }
    let [a, b, c, d] = spans.per_node_slot_ns();
    let sum = |ts: &[Trial], f: fn(&Trial) -> f64| ts.iter().map(f).sum::<f64>();
    let node_slots: u64 = plain.iter().map(Trial::node_slots).sum();
    let first = &plain[0].outcome;
    let measured = [
        (
            "assignment.build_ms",
            1e3 * median(traced.iter().map(|t| t.build_s)),
        ),
        (
            "channel_model.labels_ms",
            1e3 * median(traced.iter().map(|t| t.labels_s)),
        ),
        ("engine.phase_a_ns", a),
        ("engine.phase_b_ns", b),
        ("medium.resolve_ns", c),
        ("engine.phase_d_plus_runner_ns", d),
        (
            "medium.active_channels",
            spans.per_slot(spans.active_channels),
        ),
        ("medium.broadcasters", spans.per_slot(spans.broadcasters)),
        ("medium.listeners", spans.per_slot(spans.listeners)),
        ("medium.collisions", spans.per_slot(spans.collisions)),
        ("medium.deliveries", spans.per_slot(spans.deliveries)),
        ("engine.sleepers", spans.per_slot(spans.sleepers)),
        (
            "medium.delivery_frac",
            spans.deliveries as f64 / spans.active_channels.max(1) as f64,
        ),
        (
            "runner.slots_per_trial",
            first.slots.unwrap_or(first.budget) as f64,
        ),
        (
            "runner.node_slots_per_s",
            node_slots as f64 / sum(&plain, |t| t.runner_s),
        ),
        (
            "trace.overhead_frac",
            sum(&traced, Trial::wall_s) / sum(&plain, Trial::wall_s) - 1.0,
        ),
    ]
    .map(|(name, v)| (name.to_string(), v));
    report.metrics = per_layer(&measured);
    Ok(report)
}

fn check_pass(report: &mut Report, pass: &SuitePass, refs: &References) {
    for e in &pass.experiments {
        report.check(refs.check_experiment(e.id, e.hash));
    }
}

fn suite_plain(
    seed: u64,
    seconds: f64,
    refs: &References,
    pool_startup_s: f64,
) -> Result<Report, String> {
    let order = suite_order(seed);
    let passes = closed_loop(seconds, |_| run_suite_pass(&order, false));
    let mut report = Report {
        samples: passes.len(),
        ..Report::default()
    };
    for pass in &passes {
        check_pass(&mut report, pass, refs);
    }
    let wall = median(passes.iter().map(|p| p.wall_s));
    // Every second of a pass is spent inside `run_experiment` calls
    // (rendering aside), so the runner time is the pass time.
    end_to_end(&mut report, wall, pool_startup_s, wall)?;
    Ok(report)
}

fn suite_traced(seed: u64, seconds: f64, refs: &References) -> Report {
    let order = suite_order(seed);
    let pairs = closed_loop(seconds, |i| {
        if i % 2 == 0 {
            (run_suite_pass(&order, false), run_suite_pass(&order, true))
        } else {
            let traced = run_suite_pass(&order, true);
            (run_suite_pass(&order, false), traced)
        }
    });
    let (plain, traced): (Vec<SuitePass>, Vec<SuitePass>) = pairs.into_iter().unzip();
    let mut report = Report {
        samples: traced.len(),
        ..Report::default()
    };
    for (p, t) in plain.iter().zip(&traced) {
        check_pass(&mut report, p, refs);
        check_pass(&mut report, t, refs);
    }
    let mut measured: Vec<(String, f64)> = EXPERIMENT_IDS
        .iter()
        .map(|&id| {
            let ms = traced.iter().flat_map(|pass| {
                pass.experiments
                    .iter()
                    .filter(move |e| e.id == id)
                    .filter_map(|e| e.secs)
            });
            (format!("harness.{id}_ms"), 1e3 * median(ms))
        })
        .collect();
    let wall = |passes: &[SuitePass]| passes.iter().map(|p| p.wall_s).sum::<f64>();
    measured.push((
        "trace.overhead_frac".to_string(),
        wall(&traced) / wall(&plain) - 1.0,
    ));
    report.metrics = per_layer(&measured);
    report
}
