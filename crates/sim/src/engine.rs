//! The synchronous slot engine.
//!
//! [`Network`] drives `n` protocol state machines against a
//! [`ChannelModel`] over a pluggable [`Medium`], implementing the
//! paper's Section 2 model exactly:
//!
//! 1. at the start of each slot every node picks an action (broadcast /
//!    listen / sleep) on one of its `c` channels, addressed by local
//!    label;
//! 2. the engine translates local labels to global channels and applies
//!    interference;
//! 3. the medium resolves contention — under the default
//!    [`OracleSingleHop`], on each channel with at least one
//!    transmission one transmission (chosen uniformly at random)
//!    succeeds: all listeners on the channel receive it, the winner
//!    learns it succeeded, and the losing broadcasters both learn they
//!    failed *and* receive the winning message;
//! 4. every non-sleeping node observes the outcome.
//!
//! Everything around step 3 — protocol driving, label translation,
//! interference/jamming, fault wrappers, tracing, conformance checking
//! — is medium-agnostic and written once here; swapping the medium
//! (multi-hop topology, physical decay backoff) swaps only the
//! resolution rule.
//!
//! The engine is fully deterministic given its seed: per-node protocol
//! RNGs, the medium's resolution RNG, and the interference RNG are all
//! derived from the master seed on independent streams, and channels
//! are resolved in sorted order so winner draws are reproducible.

use crate::channel_model::ChannelModel;
use crate::error::SimError;
use crate::ids::NodeId;
use crate::interference::Interference;
use crate::medium::{Medium, OracleSingleHop, SlotInputs};
use crate::pool::WorkerPool;
use crate::proto::{Action, Event, NodeCtx, Protocol};
use crate::rng::{derive_rng, streams, SimRng};
use crate::trace::SlotActivity;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default minimum network size at which an installed [`ParConfig`]
/// fans [`Network::step`]'s per-node phases across the worker pool.
/// Below it, per-slot synchronization (wake + barrier, on the order of
/// microseconds) clearly costs more than the per-node work it would
/// parallelize. Reaching it does not mean the fan-out pays: on a 2-core
/// host, 2 workers stepped a 1024-node network in 73 µs per slot
/// against 65 µs sequentially (`BENCH_engine.json`), and a COGCOMP run
/// at n = 1024 took a median 1.28 s with the fan-out against 1.03 s
/// without it (EXPERIMENTS.md §E3).
pub const DEFAULT_PAR_THRESHOLD: usize = 256;

/// Opt-in intra-slot parallelism: which [`WorkerPool`] the engine fans
/// its per-node decide/observe phases across, and from what network
/// size ([`DEFAULT_PAR_THRESHOLD`] by default).
///
/// Networks step sequentially unless a caller installs one with
/// [`Network::set_parallelism`] or [`NetworkBuilder::parallelism`]; the
/// library's runners do not, because the fan-out has not beaten
/// sequential stepping on any workload measured so far: on a 2-core
/// host it lost on COGCOMP at n = 1024 and tied on COGCAST at
/// n = 16384 (DESIGN.md "Threading model"). The conformance suite and
/// the differential tests opt in.
///
/// Installing one never changes results: every golden-trace digest is
/// reproduced bit-for-bit at any worker count, because the
/// parallelized phases are order-free (each node touches only its own
/// RNG lane and its own index-keyed slots) while winner draws stay
/// serialized on the ENGINE stream and jamming on the JAMMER stream.
#[derive(Clone, Debug)]
pub struct ParConfig {
    pool: Arc<WorkerPool>,
    threshold: usize,
}

impl ParConfig {
    /// Parallelism over an explicit pool, at the default threshold.
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        ParConfig {
            pool,
            threshold: DEFAULT_PAR_THRESHOLD,
        }
    }

    /// Parallelism over the process-wide shared pool
    /// ([`crate::pool::global`]).
    ///
    /// # Panics
    ///
    /// Panics if `CRN_THREADS` is set to an invalid value (binaries
    /// validate via [`crate::pool::configured_workers`] first).
    pub fn global() -> Self {
        Self::new(crate::pool::global())
    }

    /// [`ParConfig::global`], but `None` when the global pool has a
    /// single worker — callers can skip installing a configuration
    /// that could never engage.
    pub fn auto() -> Option<Self> {
        let pool = crate::pool::global();
        (pool.workers() > 1).then(|| Self::new(pool))
    }

    /// Replaces the small-`n` sequential-fallback threshold (networks
    /// with fewer nodes step sequentially). `0`/`1` parallelizes
    /// everything — useful in differential tests, wasteful otherwise.
    #[must_use]
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold;
        self
    }

    /// Total worker count of the underlying pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The small-`n` sequential-fallback threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// True when stepping an `n`-node network should use the pool.
    fn engaged(&self, n: usize) -> bool {
        self.pool.workers() > 1 && n >= self.threshold
    }

    /// Chunk size for an `n`-node fan-out: a few chunks per worker for
    /// stealing slack, but never so small that claim traffic dominates.
    fn chunk(&self, n: usize) -> usize {
        (n / (self.pool.workers() * 4)).max(16)
    }

    /// Fans `f` over `0..n` across the pool with this config's
    /// chunking, blocking until every index is processed.
    fn pool_run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        self.pool.run(n, self.chunk(n), f);
    }
}

/// The per-slot facts every node's [`NodeCtx`] shares.
#[derive(Clone, Copy)]
struct SlotFrame {
    slot: u64,
    n: usize,
    k: usize,
    global_labels: bool,
}

impl SlotFrame {
    /// Node `i`'s view of the slot. Channel sets are looked up only
    /// under global labels, where protocols may see them.
    fn ctx<'a, CM: ChannelModel>(&self, model: &'a CM, i: usize) -> NodeCtx<'a> {
        NodeCtx {
            id: NodeId(i as u32),
            slot: self.slot,
            n: self.n,
            c: model.c_of(i),
            k: self.k,
            channels: self.global_labels.then(|| model.channels(i)),
        }
    }
}

/// Phase A over nodes `start..start + actions.len()`: each node decides
/// its action from its own protocol state and RNG lane.
///
/// # Panics
///
/// Panics if a protocol selects a local channel `>= c`.
fn decide_range<M, P: Protocol<M>, CM: ChannelModel>(
    frame: SlotFrame,
    model: &CM,
    start: usize,
    protocols: &mut [P],
    rngs: &mut [SimRng],
    actions: &mut [Action<M>],
) {
    for (offset, ((proto, rng), slot_action)) in protocols
        .iter_mut()
        .zip(rngs.iter_mut())
        .zip(actions.iter_mut())
        .enumerate()
    {
        let i = start + offset;
        let ctx = frame.ctx(model, i);
        let action = proto.decide(&ctx, rng);
        if let Some(ch) = action.channel() {
            assert!(
                ch.index() < ctx.c,
                "protocol bug: node {i} chose local channel {ch} but c = {}",
                ctx.c
            );
        }
        *slot_action = action;
    }
}

/// Phase D over nodes `start..start + events.len()`: each non-sleeping
/// node observes its event. Returns how many of these nodes report
/// [`Protocol::is_done`] afterwards.
fn observe_range<M, P: Protocol<M>, CM: ChannelModel>(
    frame: SlotFrame,
    model: &CM,
    start: usize,
    protocols: &mut [P],
    events: &mut [Option<Event<M>>],
) -> usize {
    let mut done = 0;
    for (offset, (proto, event)) in protocols.iter_mut().zip(events.iter_mut()).enumerate() {
        if let Some(event) = event.take() {
            proto.observe(&frame.ctx(model, start + offset), event);
        }
        if proto.is_done() {
            done += 1;
        }
    }
    done
}

/// Raw bases of the per-node buffers, handed to pool workers by the
/// fan-out of [`Network::step`] without widening `step`'s bounds.
///
/// Soundness is enforced at install time: the only ways to set
/// `Network::par` ([`NetworkBuilder::parallelism`],
/// [`Network::set_parallelism`]) require `P: Send`, `M: Send` and
/// `CM: Sync`, and every worker touches a disjoint index range.
struct Lanes<M, P, CM> {
    model: *const CM,
    protocols: *mut P,
    rngs: *mut SimRng,
    actions: *mut Action<M>,
    events: *mut Option<Event<M>>,
}

// SAFETY: workers only read `model`, and `CM: Sync` was proven when the
// config was installed. `protocols`, `rngs`, `actions` and `events` are
// reached only through `decide`/`observe`, whose callers give each
// worker a disjoint index range, so no element is shared; moving their
// contents across threads needs `P: Send` and `M: Send` (proven at
// install) and `SimRng: Send`.
unsafe impl<M, P, CM> Sync for Lanes<M, P, CM> {}

impl<M, P: Protocol<M>, CM: ChannelModel> Lanes<M, P, CM> {
    /// Takes the buffer bases. Each phase reads only its own buffers,
    /// which must hold one entry per node when it fans out.
    fn new(model: &CM, protocols: &mut [P], rngs: &mut [SimRng], scratch: &mut Scratch<M>) -> Self {
        Lanes {
            model,
            protocols: protocols.as_mut_ptr(),
            rngs: rngs.as_mut_ptr(),
            actions: scratch.actions.as_mut_ptr(),
            events: scratch.events.as_mut_ptr(),
        }
    }

    /// [`decide_range`] over nodes `start..end`.
    ///
    /// # Safety
    ///
    /// `start..end` must lie within the node range, no other thread may
    /// touch those nodes during the call, and the buffers must be live.
    unsafe fn decide(&self, frame: SlotFrame, start: usize, end: usize) {
        let len = end - start;
        decide_range(
            frame,
            &*self.model,
            start,
            std::slice::from_raw_parts_mut(self.protocols.add(start), len),
            std::slice::from_raw_parts_mut(self.rngs.add(start), len),
            std::slice::from_raw_parts_mut(self.actions.add(start), len),
        );
    }

    /// [`observe_range`] over nodes `start..end`.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::decide`].
    unsafe fn observe(&self, frame: SlotFrame, start: usize, end: usize) -> usize {
        let len = end - start;
        observe_range(
            frame,
            &*self.model,
            start,
            std::slice::from_raw_parts_mut(self.protocols.add(start), len),
            std::slice::from_raw_parts_mut(self.events.add(start), len),
        )
    }
}

/// The result of [`Network::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate became true after the given number of slots had
    /// executed (i.e. `slots` is the completion time in slots).
    Done {
        /// Slots executed when the predicate first held.
        slots: u64,
    },
    /// The slot budget was exhausted before the predicate held.
    Timeout {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl RunOutcome {
    /// The completion time, or `None` on timeout.
    ///
    /// ```
    /// use crn_sim::RunOutcome;
    /// assert_eq!(RunOutcome::Done { slots: 10 }.slots(), Some(10));
    /// assert_eq!(RunOutcome::Timeout { budget: 5 }.slots(), None);
    /// ```
    pub fn slots(self) -> Option<u64> {
        match self {
            RunOutcome::Done { slots } => Some(slots),
            RunOutcome::Timeout { .. } => None,
        }
    }

    /// True if the run completed within budget.
    pub fn is_done(self) -> bool {
        matches!(self, RunOutcome::Done { .. })
    }
}

/// A consuming builder for [`Network`], convenient when protocols are
/// assembled incrementally, interference is optional, or the medium is
/// non-default.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::full_overlap;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::engine::NetworkBuilder;
/// use crn_sim::{Action, Event, NodeCtx, Protocol};
/// use crn_sim::rng::SimRng;
///
/// struct Quiet;
/// impl Protocol<u8> for Quiet {
///     fn decide(&mut self, _: &NodeCtx<'_>, _: &mut SimRng) -> Action<u8> { Action::Sleep }
///     fn observe(&mut self, _: &NodeCtx<'_>, _: Event<u8>) {}
/// }
///
/// let model = StaticChannels::global(full_overlap(2, 1)?);
/// let mut net = NetworkBuilder::new(model)
///     .seed(9)
///     .protocol(Quiet)
///     .protocol(Quiet)
///     .build()?;
/// net.step();
/// assert_eq!(net.slot(), 1);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
#[allow(missing_debug_implementations)] // protocols and interference are user types
pub struct NetworkBuilder<M, P, CM, Med = OracleSingleHop> {
    model: CM,
    protocols: Vec<P>,
    seed: u64,
    interference: Option<Box<dyn Interference>>,
    medium: Med,
    par: Option<ParConfig>,
    _marker: std::marker::PhantomData<M>,
}

impl<M, P, CM> NetworkBuilder<M, P, CM>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
{
    /// Starts a builder over `model` (seed 0, no protocols, no
    /// interference, single-hop oracle medium, sequential stepping).
    pub fn new(model: CM) -> Self {
        NetworkBuilder {
            model,
            protocols: Vec::new(),
            seed: 0,
            interference: None,
            medium: OracleSingleHop::new(),
            par: None,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M, P, CM, Med> NetworkBuilder<M, P, CM, Med>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
    Med: Medium<M>,
{
    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends one protocol instance (node ids follow insertion order).
    #[must_use]
    pub fn protocol(mut self, protocol: P) -> Self {
        self.protocols.push(protocol);
        self
    }

    /// Appends protocol instances in bulk.
    #[must_use]
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = P>) -> Self {
        self.protocols.extend(protocols);
        self
    }

    /// Installs an interference model.
    #[must_use]
    pub fn interference(mut self, interference: Box<dyn Interference>) -> Self {
        self.interference = Some(interference);
        self
    }

    /// Replaces the medium (type-changing: the builder tracks the new
    /// medium type).
    #[must_use]
    pub fn medium<Med2: Medium<M>>(self, medium: Med2) -> NetworkBuilder<M, P, CM, Med2> {
        NetworkBuilder {
            model: self.model,
            protocols: self.protocols,
            seed: self.seed,
            interference: self.interference,
            medium,
            par: self.par,
            _marker: std::marker::PhantomData,
        }
    }

    /// Enables intra-slot parallelism: the built network fans its
    /// per-node decide/observe phases across `cfg`'s pool (for
    /// networks at or above the configured threshold). Results are
    /// bit-identical to sequential stepping at any worker count.
    ///
    /// The bounds make the sharing sound: protocol state (`P`) and
    /// actions/events (`M`) move to pool threads, and the channel
    /// model (`CM`) is read concurrently.
    #[must_use]
    pub fn parallelism(mut self, cfg: ParConfig) -> Self
    where
        P: Send,
        M: Send,
        CM: Sync,
    {
        self.par = Some(cfg);
        self
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProtocolCountMismatch`] if the number of
    /// protocols differs from the model's node count, and
    /// [`SimError::InvalidParams`] if the medium is built for a
    /// different node count ([`Medium::nodes`]).
    pub fn build(self) -> Result<Network<M, P, CM, Med>, SimError> {
        let mut net = Network::assemble(
            self.model,
            self.protocols,
            self.seed,
            self.interference,
            self.medium,
        )?;
        // Sound: `parallelism()` carried the Send/Sync bounds.
        net.par = self.par;
        Ok(net)
    }
}

/// A simulated cognitive radio network.
///
/// Generic over the message type `M`, the per-node protocol `P`, the
/// channel model `CM`, and the slot-resolution [`Medium`] `Med`
/// (default: the paper's single-hop collision oracle).
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::full_overlap;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::{Action, Event, LocalChannel, Network, NodeCtx, Protocol};
/// use crn_sim::rng::SimRng;
///
/// /// Node 0 shouts; everyone else listens on the only channel.
/// struct Shout(bool);
/// impl Protocol<u32> for Shout {
///     fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
///         if ctx.id.index() == 0 {
///             Action::Broadcast(LocalChannel(0), 42)
///         } else {
///             Action::Listen(LocalChannel(0))
///         }
///     }
///     fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
///         if matches!(event, Event::Received { msg: 42, .. }) {
///             self.0 = true;
///         }
///     }
///     fn is_done(&self) -> bool { self.0 }
/// }
///
/// let model = StaticChannels::global(full_overlap(3, 1)?);
/// let mut net = Network::new(model, vec![Shout(false), Shout(false), Shout(false)], 7)?;
/// net.step();
/// assert!(net.protocols()[1].is_done());
/// assert!(net.protocols()[2].is_done());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
#[allow(missing_debug_implementations)] // protocols and interference are user types
pub struct Network<M, P, CM, Med = OracleSingleHop> {
    model: CM,
    protocols: Vec<P>,
    node_rngs: Vec<SimRng>,
    jam_rng: SimRng,
    interference: Option<Box<dyn Interference>>,
    medium: Med,
    slot: u64,
    activity: SlotActivity,
    scratch: Scratch<M>,
    par: Option<ParConfig>,
    /// Number of protocols reporting done as of the last executed
    /// slot; `None` when stale (before the first step, or after
    /// `protocols_mut` handed out mutable state). Makes `all_done`
    /// O(1) in run loops instead of an O(n) rescan per slot.
    done_cache: Option<usize>,
    _marker: std::marker::PhantomData<M>,
}

/// Reusable per-slot buffers owned by [`Network`].
///
/// Every vector [`Network::step`] needs is cleared and refilled in
/// place, so after the first few slots the engine itself performs no
/// heap allocation in steady state (see `tests/alloc.rs`); the default
/// [`OracleSingleHop`] medium upholds the same guarantee for the
/// resolution path.
struct Scratch<M> {
    /// Phase A: each node's chosen action this slot.
    actions: Vec<Action<M>>,
    /// Phase B: per node, whether interference suppressed it this slot.
    jammed_nodes: Vec<bool>,
    /// Phase B: committed tunings shown to adaptive interference.
    intents: Vec<crate::interference::Intent>,
    /// Phase B: `(channel, node, is_broadcast)` in ascending node order
    /// — the medium's [`SlotInputs::tuned`].
    tuned: Vec<(crate::ids::GlobalChannel, usize, bool)>,
    /// Phase C/D: per node, the event to observe (`None` = sleeper).
    events: Vec<Option<Event<M>>>,
    /// Phase D (parallel path): per-chunk doneness tallies accumulate
    /// here; the barrier at the end of the fan-out orders the final
    /// read, so `Relaxed` operations suffice.
    done_count: AtomicUsize,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            actions: Vec::new(),
            jammed_nodes: Vec::new(),
            intents: Vec::new(),
            tuned: Vec::new(),
            events: Vec::new(),
            done_count: AtomicUsize::new(0),
        }
    }
}

impl<M, P, CM> Network<M, P, CM>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
{
    /// Creates a network with no interference, on the default
    /// single-hop oracle medium.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProtocolCountMismatch`] if `protocols.len()`
    /// differs from the model's node count.
    pub fn new(model: CM, protocols: Vec<P>, seed: u64) -> Result<Self, SimError> {
        Self::assemble(model, protocols, seed, None, OracleSingleHop::new())
    }

    /// Creates a network subject to an [`Interference`] model (used by
    /// the jamming experiments of Theorem 18), on the default
    /// single-hop oracle medium.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProtocolCountMismatch`] if `protocols.len()`
    /// differs from the model's node count.
    pub fn with_interference(
        model: CM,
        protocols: Vec<P>,
        seed: u64,
        interference: Box<dyn Interference>,
    ) -> Result<Self, SimError> {
        Self::assemble(
            model,
            protocols,
            seed,
            Some(interference),
            OracleSingleHop::new(),
        )
    }
}

impl<M, P, CM, Med> Network<M, P, CM, Med>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
    Med: Medium<M>,
{
    /// Creates a network over an explicit [`Medium`] (no interference).
    ///
    /// The medium's RNG stream is re-derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProtocolCountMismatch`] if `protocols.len()`
    /// differs from the model's node count, and
    /// [`SimError::InvalidParams`] if the medium is built for a
    /// different node count ([`Medium::nodes`]).
    pub fn with_medium(
        model: CM,
        protocols: Vec<P>,
        seed: u64,
        medium: Med,
    ) -> Result<Self, SimError> {
        Self::assemble(model, protocols, seed, None, medium)
    }

    fn assemble(
        model: CM,
        protocols: Vec<P>,
        seed: u64,
        interference: Option<Box<dyn Interference>>,
        mut medium: Med,
    ) -> Result<Self, SimError> {
        if protocols.len() != model.n() {
            return Err(SimError::ProtocolCountMismatch {
                nodes: model.n(),
                protocols: protocols.len(),
            });
        }
        if let Some(nodes) = medium.nodes() {
            if nodes != model.n() {
                return Err(SimError::InvalidParams {
                    reason: format!(
                        "the medium is built for {nodes} nodes but the channel model has {}",
                        model.n()
                    ),
                });
            }
        }
        let node_rngs = (0..model.n())
            .map(|i| derive_rng(seed, streams::NODE_BASE + i as u64))
            .collect();
        medium.reseed(seed);
        Ok(Network {
            model,
            protocols,
            node_rngs,
            jam_rng: derive_rng(seed, streams::JAMMER),
            interference,
            medium,
            slot: 0,
            activity: SlotActivity::default(),
            scratch: Scratch::default(),
            par: None,
            done_cache: None,
            _marker: std::marker::PhantomData,
        })
    }

    /// The current slot (number of slots executed so far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The channel model.
    pub fn model(&self) -> &CM {
        &self.model
    }

    /// The installed interference model, if any.
    pub fn interference(&self) -> Option<&dyn Interference> {
        self.interference.as_deref()
    }

    /// The slot-resolution medium.
    pub fn medium(&self) -> &Med {
        &self.medium
    }

    /// Mutable access to the medium (e.g. to read-and-reset metadata
    /// counters between runs).
    pub fn medium_mut(&mut self) -> &mut Med {
        &mut self.medium
    }

    /// Checks the most recently executed slot against the Section 2
    /// model contract (see [`crate::conformance`]), applying only the
    /// clauses the medium's [`crate::medium::MediumProfile`] claims;
    /// returns every violation found. Valid only after at least one
    /// [`Network::step`] — the model still holds that slot's channel
    /// sets until the next step advances it.
    pub fn check_conformance(&self) -> Vec<crate::conformance::Violation> {
        crate::conformance::check_slot_for(
            &self.model,
            self.interference(),
            &self.activity,
            self.medium.profile(),
        )
    }

    /// The protocol instances, indexed by node.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Mutable access to the protocol instances (e.g. to inject values
    /// between protocol phases in tests).
    pub fn protocols_mut(&mut self) -> &mut [P] {
        // The caller may flip doneness behind the engine's back.
        self.done_cache = None;
        &mut self.protocols
    }

    /// Installs (or, with `None`, removes) intra-slot parallelism; see
    /// [`NetworkBuilder::parallelism`] for the determinism guarantee
    /// and why the bounds are required.
    pub fn set_parallelism(&mut self, cfg: Option<ParConfig>)
    where
        P: Send,
        M: Send,
        CM: Sync,
    {
        self.par = cfg;
    }

    /// The installed parallelism configuration, if any.
    pub fn parallelism(&self) -> Option<&ParConfig> {
        self.par.as_ref()
    }

    /// The activity record of the most recently executed slot.
    pub fn last_activity(&self) -> &SlotActivity {
        &self.activity
    }

    /// How many protocols report [`Protocol::is_done`].
    ///
    /// O(1) after a [`Network::step`]: the observe phase tallies
    /// doneness as it runs, so per-slot run loops don't rescan all `n`
    /// protocols. Falls back to the scan when the tally is stale
    /// (before the first step, or after [`Network::protocols_mut`]).
    pub fn done_count(&self) -> usize {
        self.done_cache
            .unwrap_or_else(|| self.protocols.iter().filter(|p| p.is_done()).count())
    }

    /// True once every protocol reports [`Protocol::is_done`]; O(1)
    /// after a step, like [`Network::done_count`].
    pub fn all_done(&self) -> bool {
        self.done_count() == self.protocols.len()
    }

    /// Executes one slot and returns its activity record.
    ///
    /// # Panics
    ///
    /// Panics if a protocol selects a local channel `>= c` — that is a
    /// protocol bug, not a recoverable condition.
    pub fn step(&mut self) -> &SlotActivity {
        let slot = self.slot;
        let n = self.model.n();
        let frame = SlotFrame {
            slot,
            n,
            k: self.model.k(),
            global_labels: self.model.labels_are_global(),
        };

        self.model.advance(slot);
        if let Some(intf) = self.interference.as_mut() {
            intf.advance(slot, &mut self.jam_rng);
        }

        // The opt-in pool, if this slot's per-node phases (A and D) fan
        // out across it. Decided once so both phases agree; phases B
        // and C always stay serial — jamming consumes the JAMMER
        // stream and winner draws the ENGINE stream in fixed order, so
        // digests are identical at any worker count.
        let par = self.par.as_ref().filter(|cfg| cfg.engaged(n));

        // Phase A: collect decisions. Every node overwrites its own
        // index-keyed entry; `Sleep` placeholders carry no payload.
        self.scratch.actions.resize_with(n, || Action::Sleep);
        if let Some(cfg) = par {
            let lanes = Lanes::new(
                &self.model,
                &mut self.protocols,
                &mut self.node_rngs,
                &mut self.scratch,
            );
            // SAFETY: the pool partitions `0..n` into disjoint ranges,
            // and `lanes` outlives the blocking fan-out.
            cfg.pool_run(n, &|start, end| unsafe { lanes.decide(frame, start, end) });
        } else {
            decide_range(
                frame,
                &self.model,
                0,
                &mut self.protocols,
                &mut self.node_rngs,
                &mut self.scratch.actions,
            );
        }

        // Phase B: translate to global channels, show the committed
        // intents to an adaptive adversary, and apply interference.
        self.scratch.jammed_nodes.clear();
        self.scratch.jammed_nodes.resize(n, false);
        let mut sleepers = 0usize;
        let mut jammed_count = 0usize;
        // Each node tunes at most once, so sizing the per-node lists to
        // `n` up front keeps them from growing at a late high-water mark.
        self.scratch.tuned.clear();
        self.scratch.tuned.reserve(n);
        if self.interference.is_some() {
            // Interference is adaptive: the committed intents must be
            // shown to the adversary before jamming is applied.
            self.scratch.intents.clear();
            self.scratch.intents.reserve(n);
            for (i, action) in self.scratch.actions.iter().enumerate() {
                let Some(local) = action.channel() else {
                    sleepers += 1;
                    continue;
                };
                self.scratch.intents.push(crate::interference::Intent {
                    node: NodeId(i as u32),
                    channel: self.model.channels(i)[local.index()],
                    broadcast: action.is_broadcast(),
                });
            }
            if let Some(intf) = self.interference.as_mut() {
                intf.observe_intents(slot, &self.scratch.intents);
            }
            for intent in &self.scratch.intents {
                let jammed = self
                    .interference
                    .as_ref()
                    .is_some_and(|intf| intf.is_jammed(intent.node, intent.channel));
                if jammed {
                    self.scratch.jammed_nodes[intent.node.index()] = true;
                    jammed_count += 1;
                } else {
                    self.scratch.tuned.push((
                        intent.channel,
                        intent.node.index(),
                        intent.broadcast,
                    ));
                }
            }
        } else {
            // No adversary: tune directly, skipping the intent staging.
            for (i, action) in self.scratch.actions.iter().enumerate() {
                let Some(local) = action.channel() else {
                    sleepers += 1;
                    continue;
                };
                self.scratch.tuned.push((
                    self.model.channels(i)[local.index()],
                    i,
                    action.is_broadcast(),
                ));
            }
        }

        // Phase C: the medium resolves contention. Jammed nodes are
        // pre-filled (they hear noise regardless of substrate); the
        // medium fills in every tuned participant and this slot's
        // channel records.
        self.activity.slot = slot;
        self.activity.sleepers = sleepers;
        self.activity.jammed = jammed_count;
        self.scratch.events.clear();
        self.scratch.events.resize(n, None);
        for (i, &jammed) in self.scratch.jammed_nodes.iter().enumerate() {
            if jammed {
                self.scratch.events[i] = Some(Event::Jammed);
            }
        }
        let Scratch {
            actions,
            tuned,
            events,
            ..
        } = &mut self.scratch;
        self.medium.resolve(
            &SlotInputs {
                slot,
                n,
                total_channels: self.model.total_channels(),
                actions,
                tuned,
            },
            events,
            &mut self.activity,
        );

        // Phase D: deliver observations (sleepers observe nothing),
        // fused with a doneness tally so `all_done` is O(1) in run
        // loops instead of an O(n) rescan every slot.
        let done_count = if let Some(cfg) = par {
            let lanes = Lanes::new(
                &self.model,
                &mut self.protocols,
                &mut self.node_rngs,
                &mut self.scratch,
            );
            let tally = &self.scratch.done_count;
            tally.store(0, Ordering::Relaxed);
            cfg.pool_run(n, &|start, end| {
                // SAFETY: as in Phase A.
                let done = unsafe { lanes.observe(frame, start, end) };
                // Relaxed suffices: the pool's barrier orders this
                // against the load below.
                tally.fetch_add(done, Ordering::Relaxed);
            });
            tally.load(Ordering::Relaxed)
        } else {
            observe_range(
                frame,
                &self.model,
                0,
                &mut self.protocols,
                &mut self.scratch.events,
            )
        };
        self.done_cache = Some(done_count);

        // With the `validate` feature, every slot is checked against the
        // Section 2 contract before being published; the first violation
        // aborts the run. Compiled out by default (the checks allocate).
        #[cfg(feature = "validate")]
        {
            let violations = self.check_conformance();
            assert!(
                violations.is_empty(),
                "model-conformance violation:\n{}",
                crate::conformance::report(&violations)
            );
        }

        self.slot += 1;
        &self.activity
    }

    /// Runs until `done` holds (checked after every slot) or the budget
    /// is exhausted.
    pub fn run(&mut self, budget: u64, mut done: impl FnMut(&Self) -> bool) -> RunOutcome {
        for _ in 0..budget {
            self.step();
            if done(self) {
                return RunOutcome::Done { slots: self.slot };
            }
        }
        RunOutcome::Timeout { budget }
    }

    /// Runs exactly `slots` slots.
    pub fn run_slots(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Runs until every protocol reports done, within the budget.
    pub fn run_to_completion(&mut self, budget: u64) -> RunOutcome {
        if self.all_done() {
            return RunOutcome::Done { slots: self.slot };
        }
        self.run(budget, |net| net.all_done())
    }

    /// Consumes the network and returns its protocol instances.
    pub fn into_protocols(self) -> Vec<P> {
        self.protocols
    }

    /// Consumes the network and returns its medium (e.g. to read
    /// accumulated [`crate::PhysicalDecay`] round counters after a run).
    pub fn into_medium(self) -> Med {
        self.medium
    }

    /// Consumes the network and returns both the protocol instances and
    /// the medium.
    pub fn into_parts(self) -> (Vec<P>, Med) {
        (self.protocols, self.medium)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{full_overlap, shared_core};
    use crate::channel_model::StaticChannels;
    use crate::ids::{GlobalChannel, LocalChannel};

    /// Test protocol: a fixed script of actions; records all events.
    struct Scripted {
        script: Vec<Action<u32>>,
        events: Vec<Event<u32>>,
        at: usize,
    }

    impl Scripted {
        fn new(script: Vec<Action<u32>>) -> Self {
            Scripted {
                script,
                events: Vec::new(),
                at: 0,
            }
        }
    }

    impl Protocol<u32> for Scripted {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
            let a = self.script[self.at % self.script.len()].clone();
            self.at += 1;
            a
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
            self.events.push(event);
        }
    }

    fn one_channel_net(protos: Vec<Scripted>) -> Network<u32, Scripted, StaticChannels> {
        let model = StaticChannels::global(full_overlap(protos.len(), 1).unwrap());
        Network::new(model, protos, 1).unwrap()
    }

    #[test]
    fn lone_broadcaster_succeeds_and_is_heard() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        net.step();
        let p = net.protocols();
        assert_eq!(p[0].events, vec![Event::Delivered]);
        assert_eq!(
            p[1].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 5
            }]
        );
    }

    #[test]
    fn collision_has_one_winner_and_losers_overhear() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 10)]),
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 20)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        net.step();
        let p = net.protocols();
        let delivered: Vec<usize> = (0..2)
            .filter(|&i| p[i].events == vec![Event::Delivered])
            .collect();
        assert_eq!(delivered.len(), 1, "exactly one winner");
        let w = delivered[0];
        let l = 1 - w;
        let expected_msg = if w == 0 { 10 } else { 20 };
        assert_eq!(
            p[l].events,
            vec![Event::Lost {
                winner: NodeId(w as u32),
                msg: expected_msg
            }]
        );
        assert_eq!(
            p[2].events,
            vec![Event::Received {
                from: NodeId(w as u32),
                msg: expected_msg
            }]
        );
    }

    #[test]
    fn listener_on_quiet_channel_hears_silence() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Listen(LocalChannel(0))])]);
        net.step();
        assert_eq!(net.protocols()[0].events, vec![Event::Silence]);
    }

    #[test]
    fn sleeper_observes_nothing() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Sleep])]);
        net.step();
        assert!(net.protocols()[0].events.is_empty());
        assert_eq!(net.last_activity().sleepers, 1);
    }

    #[test]
    fn winner_choice_is_roughly_uniform() {
        // Two persistent broadcasters on one channel: over many slots
        // each should win about half the time.
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 1)]),
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 2)]),
        ]);
        net.run_slots(2000);
        let wins0 = net.protocols()[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Delivered))
            .count();
        assert!(
            (700..=1300).contains(&wins0),
            "winner selection badly skewed: {wins0}/2000"
        );
    }

    #[test]
    fn separate_channels_do_not_interfere() {
        // shared_core(2, 2, 1): core channel g0 + one private channel each.
        let a = shared_core(2, 2, 1).unwrap();
        let model = StaticChannels::global(a);
        // Node 0 broadcasts on its private channel (local label 1);
        // node 1 listens on its own private channel (also local label 1,
        // but a *different* global channel).
        let protos = vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(1), 9)]),
            Scripted::new(vec![Action::Listen(LocalChannel(1))]),
        ];
        let mut net = Network::new(model, protos, 3).unwrap();
        net.step();
        let p = net.protocols();
        assert_eq!(p[0].events, vec![Event::Delivered]);
        assert_eq!(p[1].events, vec![Event::Silence]);
    }

    #[test]
    fn shared_core_channel_connects_nodes() {
        let a = shared_core(2, 2, 1).unwrap();
        let model = StaticChannels::global(a);
        let protos = vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 9)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ];
        let mut net = Network::new(model, protos, 3).unwrap();
        net.step();
        assert_eq!(
            net.protocols()[1].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 9
            }]
        );
    }

    #[test]
    fn protocol_count_mismatch_rejected() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![Scripted::new(vec![Action::Sleep])];
        assert!(matches!(
            Network::new(model, protos, 0).err(),
            Some(SimError::ProtocolCountMismatch {
                nodes: 3,
                protocols: 1
            })
        ));
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn out_of_range_local_channel_panics() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Listen(LocalChannel(5))])]);
        net.step();
    }

    #[test]
    fn runs_are_deterministic_for_same_seed() {
        let run = |seed: u64| -> Vec<Vec<Event<u32>>> {
            let model = StaticChannels::global(full_overlap(3, 1).unwrap());
            let protos = vec![
                Scripted::new(vec![Action::Broadcast(LocalChannel(0), 1)]),
                Scripted::new(vec![Action::Broadcast(LocalChannel(0), 2)]),
                Scripted::new(vec![Action::Listen(LocalChannel(0))]),
            ];
            let mut net = Network::new(model, protos, seed).unwrap();
            net.run_slots(50);
            net.into_protocols().into_iter().map(|p| p.events).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn activity_record_matches_events() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 10)]),
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 20)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        let act = net.step().clone();
        assert_eq!(act.transmissions(), 2);
        assert_eq!(act.deliveries(), 1);
        let ch = act.on_channel(GlobalChannel(0)).unwrap();
        assert!(ch.had_collision());
        assert_eq!(ch.listeners, vec![NodeId(2)]);
        assert!(ch.winner.is_some());
    }

    #[test]
    fn jammed_nodes_observe_jammed_and_do_not_participate() {
        use crate::interference::{Intent, Interference};

        /// Jams global channel 0 for node 1 only.
        struct JamOneForOne;
        impl Interference for JamOneForOne {
            fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {}
            fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
                node == NodeId(1) && channel == GlobalChannel(0)
            }
        }

        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 7)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ];
        let mut net = Network::with_interference(model, protos, 1, Box::new(JamOneForOne)).unwrap();
        let activity = net.step().clone();
        assert_eq!(activity.jammed, 1);
        let p = net.into_protocols();
        assert_eq!(p[0].events, vec![Event::Delivered]);
        assert_eq!(
            p[1].events,
            vec![Event::Jammed],
            "jammed listener hears noise"
        );
        assert_eq!(
            p[2].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 7
            }],
            "unjammed listener still receives"
        );
        // The jammed node is excluded from the channel's listener list.
        let ch = activity.on_channel(GlobalChannel(0)).unwrap();
        assert_eq!(ch.listeners, vec![NodeId(2)]);

        // Adaptive hook sanity: intents carry the committed tunings.
        struct CaptureIntents(std::sync::Arc<std::sync::Mutex<Vec<Intent>>>);
        impl Interference for CaptureIntents {
            fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {}
            fn observe_intents(&mut self, _slot: u64, intents: &[Intent]) {
                self.0.lock().unwrap().extend_from_slice(intents);
            }
            fn is_jammed(&self, _node: NodeId, _channel: GlobalChannel) -> bool {
                false
            }
        }
        let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let protos = vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 1)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ];
        let mut net = Network::with_interference(
            model,
            protos,
            2,
            Box::new(CaptureIntents(captured.clone())),
        )
        .unwrap();
        net.step();
        let intents = captured.lock().unwrap().clone();
        assert_eq!(intents.len(), 2);
        assert!(intents[0].broadcast && !intents[1].broadcast);
        assert_eq!(intents[0].channel, GlobalChannel(0));
    }

    #[test]
    fn run_returns_done_with_slot_count() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        let outcome = net.run(10, |n| !n.protocols()[1].events.is_empty());
        assert_eq!(outcome, RunOutcome::Done { slots: 1 });
    }

    #[test]
    fn builder_matches_direct_construction() {
        let build = |via_builder: bool| -> Vec<Event<u32>> {
            let model = StaticChannels::global(full_overlap(2, 1).unwrap());
            let protos = vec![
                Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5)]),
                Scripted::new(vec![Action::Listen(LocalChannel(0))]),
            ];
            let mut net = if via_builder {
                NetworkBuilder::new(model)
                    .seed(4)
                    .protocols(protos)
                    .build()
                    .unwrap()
            } else {
                Network::new(model, protos, 4).unwrap()
            };
            net.run_slots(8);
            net.into_protocols().remove(1).events
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn builder_rejects_wrong_protocol_count() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let result = NetworkBuilder::<u32, Scripted, _>::new(model)
            .protocol(Scripted::new(vec![Action::Sleep]))
            .build();
        assert!(matches!(
            result.err(),
            Some(SimError::ProtocolCountMismatch { .. })
        ));
    }

    #[test]
    fn builder_swaps_media() {
        use crate::medium::PhysicalDecay;
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let mut net = NetworkBuilder::new(model)
            .seed(4)
            .protocol(Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5)]))
            .protocol(Scripted::new(vec![Action::Listen(LocalChannel(0))]))
            .medium(PhysicalDecay::new())
            .build()
            .unwrap();
        net.step();
        assert!(net.medium().physical_rounds() > 0);
        assert_eq!(
            net.protocols()[1].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 5
            }]
        );
    }

    #[test]
    fn run_times_out() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Sleep])]);
        let outcome = net.run(5, |_| false);
        assert_eq!(outcome, RunOutcome::Timeout { budget: 5 });
        assert_eq!(outcome.slots(), None);
        assert!(!outcome.is_done());
    }

    /// Test protocol exercising the per-node RNG lane: hops uniformly,
    /// broadcasts ~30% of slots, records every event.
    struct RandomHopper {
        events: Vec<Event<u32>>,
    }

    impl Protocol<u32> for RandomHopper {
        fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u32> {
            use rand::Rng;
            let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
            if rng.gen_bool(0.3) {
                Action::Broadcast(ch, ctx.id.0)
            } else {
                Action::Listen(ch)
            }
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
            self.events.push(event);
        }
    }

    #[test]
    fn parallel_stepping_reproduces_sequential_events_exactly() {
        let run = |par: Option<ParConfig>| -> Vec<Vec<Event<u32>>> {
            let model = StaticChannels::local(shared_core(24, 6, 3).unwrap(), 5);
            let protos = (0..24)
                .map(|_| RandomHopper { events: Vec::new() })
                .collect();
            let mut net = Network::new(model, protos, 42).unwrap();
            net.set_parallelism(par);
            net.run_slots(40);
            net.into_protocols().into_iter().map(|p| p.events).collect()
        };
        let sequential = run(None);
        for workers in [1, 2, 3, 8] {
            let cfg = ParConfig::new(Arc::new(WorkerPool::new(workers))).with_threshold(1);
            assert_eq!(
                run(Some(cfg)),
                sequential,
                "parallel run diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn below_threshold_networks_step_sequentially() {
        // Same pool, threshold above n: the parallel machinery must not
        // engage, and results are (trivially) identical.
        let model = StaticChannels::local(shared_core(8, 4, 2).unwrap(), 3);
        let protos = (0..8)
            .map(|_| RandomHopper { events: Vec::new() })
            .collect();
        let mut net = Network::new(model, protos, 9).unwrap();
        let cfg = ParConfig::new(Arc::new(WorkerPool::new(4)));
        assert_eq!(cfg.threshold(), DEFAULT_PAR_THRESHOLD);
        assert!(!cfg.engaged(8));
        net.set_parallelism(Some(cfg));
        net.run_slots(10);
        assert_eq!(net.slot(), 10);
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn out_of_range_local_channel_panics_in_parallel_phase() {
        let model = StaticChannels::global(full_overlap(8, 1).unwrap());
        let protos = (0..8)
            .map(|_| Scripted::new(vec![Action::Listen(LocalChannel(5))]))
            .collect();
        let mut net = Network::new(model, protos, 1).unwrap();
        net.set_parallelism(Some(
            ParConfig::new(Arc::new(WorkerPool::new(2))).with_threshold(1),
        ));
        net.step();
    }

    /// Done once `decide` has been called `target` times.
    struct DoneAfter {
        target: u32,
        decides: u32,
    }

    impl Protocol<u32> for DoneAfter {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
            self.decides += 1;
            Action::Sleep
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u32>) {}
        fn is_done(&self) -> bool {
            self.decides >= self.target
        }
    }

    #[test]
    fn all_done_cache_matches_scan_and_invalidates_on_protocols_mut() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = (0..3)
            .map(|_| DoneAfter {
                target: 5,
                decides: 0,
            })
            .collect();
        let mut net = Network::new(model, protos, 0).unwrap();
        assert!(!net.all_done(), "fallback scan before any step");
        let outcome = net.run_to_completion(100);
        assert_eq!(
            outcome,
            RunOutcome::Done { slots: 5 },
            "cached count drives run loops"
        );
        // Mutating protocol state behind the engine's back must
        // invalidate the cache: if the stale count survived, the next
        // all_done would still claim done.
        for p in net.protocols_mut() {
            p.decides = 0;
        }
        assert!(
            !net.all_done(),
            "protocols_mut must invalidate the done cache"
        );
        assert_eq!(net.done_count(), 0);
    }

    #[test]
    fn parallel_done_tally_agrees_with_scan() {
        let make = |par: Option<ParConfig>| {
            let model = StaticChannels::global(full_overlap(16, 1).unwrap());
            let protos = (0..16)
                .map(|i| DoneAfter {
                    target: 3 + (i % 4) as u32,
                    decides: 0,
                })
                .collect();
            let mut net = Network::<u32, _, _>::new(model, protos, 0).unwrap();
            net.set_parallelism(par);
            net
        };
        let cfg = ParConfig::new(Arc::new(WorkerPool::new(3))).with_threshold(1);
        let mut seq = make(None);
        let mut par = make(Some(cfg));
        for _ in 0..8 {
            seq.step();
            par.step();
            assert_eq!(seq.done_count(), par.done_count());
            let scan = par.protocols().iter().filter(|p| p.is_done()).count();
            assert_eq!(
                par.done_count(),
                scan,
                "cached tally must match a fresh scan"
            );
            assert_eq!(par.all_done(), scan == 16);
        }
        assert!(par.all_done());
    }
}
