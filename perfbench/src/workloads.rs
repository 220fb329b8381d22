//! The benchmark's workloads and the operations each one repeats.
//!
//! An operation is one trial (one network, built and run to completion)
//! for the single-network workloads, and one pass over every experiment
//! id for `paper_suite`. All inputs derive from the workload seed.

use crate::spans::{self, PhaseTotals};
use crn_bench::{run_experiment, Effort, EXPERIMENT_IDS};
use crn_core::aggregate::Sum;
use crn_core::bounds::{self, DEFAULT_ALPHA};
use crn_core::cogcast::{run_broadcast, run_broadcast_on};
use crn_core::cogcomp::{run_aggregation, run_aggregation_on};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::{mix_seed, OracleSingleHop, SimError};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// COGCAST on `shared_core(16384, 8, 2)` with local labels. Run by
    /// hand only: see [`Workload::BENCHMARKED`].
    CogcastLarge,
    /// COGCOMP `Sum` on `shared_core(1024, 8, 2)` with local labels.
    Cogcomp1k,
    /// Every experiment id at `Effort::Full`.
    PaperSuite,
}

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 3] = [
        Workload::CogcastLarge,
        Workload::Cogcomp1k,
        Workload::PaperSuite,
    ];

    /// The workloads `BENCHMARK.json` names, in its order.
    /// `cogcast_large` is left out: its runner time is bound by the
    /// memory system, and on a shared host that drifts by a third
    /// between runs of the same code, past any usable bound.
    pub const BENCHMARKED: [Workload; 2] = [Workload::Cogcomp1k, Workload::PaperSuite];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CogcastLarge => "cogcast_large",
            Workload::Cogcomp1k => "cogcomp_1k",
            Workload::PaperSuite => "paper_suite",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The protocol and network shape of a single-network workload;
    /// `None` for `paper_suite`.
    pub fn network(self) -> Option<(Protocol, Shape)> {
        match self {
            Workload::CogcastLarge => Some((
                Protocol::Cogcast,
                Shape {
                    n: 16384,
                    c: 8,
                    k: 2,
                },
            )),
            Workload::Cogcomp1k => Some((
                Protocol::Cogcomp,
                Shape {
                    n: 1024,
                    c: 8,
                    k: 2,
                },
            )),
            Workload::PaperSuite => None,
        }
    }

    /// Trials per workload seed that `refs/` records for a
    /// single-network workload: more than a run of `run_seconds`
    /// issues on a host several times faster than a 2-core one.
    /// `None` for `paper_suite`, whose references are per experiment.
    pub fn ref_trials(self) -> Option<u64> {
        match self {
            Workload::CogcastLarge => Some(48),
            Workload::Cogcomp1k => Some(512),
            Workload::PaperSuite => None,
        }
    }
}

/// The protocol a single-network trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// COGCAST from node 0 with the Theorem 4 budget.
    Cogcast,
    /// COGCOMP `Sum` at node 0 with the recommended budget.
    Cogcomp,
}

/// The `shared_core(n, c, k)` network a trial runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Nodes.
    pub n: usize,
    /// Channels per node.
    pub c: usize,
    /// Channels every pair shares.
    pub k: usize,
}

/// The network seed of trial `index` under workload seed `seed`.
pub fn trial_seed(seed: u64, index: u64) -> u64 {
    mix_seed(seed, index)
}

/// Node `i`'s COGCOMP input in the trial with network seed `seed`:
/// 32-bit values, so the exact sum of any network here fits in `u64`.
pub fn cogcomp_inputs(seed: u64, n: usize) -> Vec<Sum> {
    (0..n as u64)
        .map(|i| Sum(mix_seed(seed, i) >> 32))
        .collect()
}

/// What a trial computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Slots to completion, `None` if the budget ran out.
    pub slots: Option<u64>,
    /// The slot budget the runner was given.
    pub budget: u64,
    /// COGCAST: nodes informed at the end. COGCOMP: the sum at the
    /// source, `None` unless every node was informed and terminated.
    pub value: Option<u64>,
    /// What `value` must be: `n`, or the exact sum of the inputs.
    pub expected: u64,
}

impl Outcome {
    /// Why the outcome breaks an invariant, or `None`: the run must
    /// complete within its budget with the expected value.
    pub fn invariant_error(&self) -> Option<String> {
        match self.slots {
            None => Some(format!("no completion within {} slots", self.budget)),
            Some(s) if s > self.budget => Some(format!("{s} slots over budget {}", self.budget)),
            Some(_) if self.value != Some(self.expected) => Some(format!(
                "value {:?}, expected {}",
                self.value, self.expected
            )),
            Some(_) => None,
        }
    }
}

/// One timed trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The trial's network seed.
    pub seed: u64,
    /// Nodes in the network.
    pub n: usize,
    /// What the runner computed.
    pub outcome: Outcome,
    /// Seconds in `shared_core`, including its pairwise validation.
    pub build_s: f64,
    /// Seconds in `StaticChannels::local`.
    pub labels_s: f64,
    /// Seconds inside the runner call.
    pub runner_s: f64,
    /// Phase spans, for a traced trial.
    pub spans: Option<PhaseTotals>,
}

impl Trial {
    /// Host time before the first simulated slot.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.labels_s
    }

    /// Set-up plus the runner call.
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.runner_s
    }

    /// Slots simulated: to completion, or the budget on timeout.
    pub fn slots_run(&self) -> u64 {
        self.outcome.slots.unwrap_or(self.outcome.budget)
    }

    /// Node-slots simulated (nodes × slots run).
    pub fn node_slots(&self) -> u64 {
        self.n as u64 * self.slots_run()
    }

    /// Runner seconds scaled from the slots this trial ran to its whole
    /// slot budget. Trials of different seeds run different numbers of
    /// slots; scaling to the budget, which depends on the shape alone,
    /// keeps the seed out of the figure.
    pub fn runner_s_per_budget(&self) -> f64 {
        self.runner_s * self.outcome.budget as f64 / self.slots_run() as f64
    }
}

/// Builds and runs one network with network seed `seed`. A traced
/// trial wraps the model and medium in [`spans::traced`] and calls the
/// `_on` runner the untraced entry point delegates to.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn run_trial(
    protocol: Protocol,
    shape: Shape,
    seed: u64,
    traced: bool,
) -> Result<Trial, SimError> {
    let Shape { n, c, k } = shape;
    let inputs = match protocol {
        Protocol::Cogcast => Vec::new(),
        Protocol::Cogcomp => cogcomp_inputs(seed, n),
    };
    let t0 = Instant::now();
    let assignment = shared_core(n, c, k)?;
    let t1 = Instant::now();
    let model = StaticChannels::local(assignment, seed);
    let t2 = Instant::now();
    let (outcome, spans) = match protocol {
        Protocol::Cogcast => {
            let budget = bounds::cogcast_slots(n, c, k, DEFAULT_ALPHA);
            let (run, spans) = if traced {
                let (model, medium) = spans::traced(model, OracleSingleHop::new());
                let (run, medium) = run_broadcast_on(model, seed, budget, medium)?;
                (run, Some(medium.totals()))
            } else {
                (run_broadcast(model, seed, budget)?, None)
            };
            let informed = run.informed_per_slot.last().map(|&i| i as u64);
            let outcome = Outcome {
                slots: run.slots,
                budget,
                value: informed,
                expected: n as u64,
            };
            (outcome, spans)
        }
        Protocol::Cogcomp => {
            let expected = inputs.iter().map(|v| v.0).sum();
            let (run, spans) = if traced {
                let (model, medium) = spans::traced(model, OracleSingleHop::new());
                let (run, medium) = run_aggregation_on(model, inputs, seed, DEFAULT_ALPHA, medium)?;
                (run, Some(medium.totals()))
            } else {
                (run_aggregation(model, inputs, seed, DEFAULT_ALPHA)?, None)
            };
            let value = if run.is_complete() {
                run.result.map(|s| s.0)
            } else {
                None
            };
            let outcome = Outcome {
                slots: run.slots,
                budget: run.budget,
                value,
                expected,
            };
            (outcome, spans)
        }
    };
    let t3 = Instant::now();
    Ok(Trial {
        seed,
        n,
        outcome,
        build_s: (t1 - t0).as_secs_f64(),
        labels_s: (t2 - t1).as_secs_f64(),
        runner_s: (t3 - t2).as_secs_f64(),
        spans,
    })
}

/// The experiment order of `paper_suite` under workload seed `seed`: a
/// seeded shuffle of [`EXPERIMENT_IDS`]. The experiments fix their own
/// inputs, so the seed can only choose the order they run in.
pub fn suite_order(seed: u64) -> Vec<&'static str> {
    let mut ids = EXPERIMENT_IDS.to_vec();
    for i in (1..ids.len()).rev() {
        let j = (mix_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids
}

/// One experiment of a suite pass.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The experiment id.
    pub id: &'static str,
    /// [`fnv1a`] of the artifact as rendered by `Display`.
    pub hash: u64,
    /// Seconds inside `run_experiment`, for a traced pass.
    pub secs: Option<f64>,
}

/// One pass over the suite.
#[derive(Debug, Clone)]
pub struct SuitePass {
    /// The experiments, in the order run.
    pub experiments: Vec<ExperimentRun>,
    /// Seconds for the whole pass, rendering included.
    pub wall_s: f64,
}

/// Runs every id of `order` at `Effort::Full`, rendering and hashing
/// each artifact. A traced pass also times each `run_experiment` call.
///
/// # Panics
///
/// Panics on an id `run_experiment` does not know; `order` comes from
/// [`suite_order`].
pub fn run_suite_pass(order: &[&'static str], traced: bool) -> SuitePass {
    let start = Instant::now();
    let experiments = order
        .iter()
        .map(|&id| {
            let t0 = Instant::now();
            let artifact = run_experiment(id, Effort::Full).expect("id from EXPERIMENT_IDS");
            let secs = traced.then(|| t0.elapsed().as_secs_f64());
            ExperimentRun {
                id,
                hash: fnv1a(artifact.to_string().as_bytes()),
                secs,
            }
        })
        .collect();
    SuitePass {
        experiments,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
