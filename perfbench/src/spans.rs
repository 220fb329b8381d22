//! Per-phase slot spans, stamped from outside the engine.
//!
//! Two thin wrappers sit on the public trait boundaries the engine
//! already calls once per slot, so no crate has to change:
//!
//! - [`TimedModel`] wraps a [`ChannelModel`]. It stamps `advance`,
//!   which starts the slot, and the slot's first `channels()` call.
//!   With local labels Phase A never asks for channels, so that first
//!   call is the start of Phase B (label translation).
//! - [`TimedMedium`] wraps a [`Medium`]. It stamps `resolve` entry and
//!   exit and reads the slot's counts from the [`SlotActivity`] the
//!   inner medium filled.
//!
//! From the stamps, per slot:
//!
//! - A = `advance` → first `channels()` (per-node `decide`);
//! - B = first `channels()` → `resolve` entry (tuning, jamming);
//! - C = time inside `resolve` (the medium);
//! - D = `resolve` exit → next `advance`: per-node `observe` *plus the
//!   runner's per-slot bookkeeping* (for example COGCAST's informed
//!   count), because the next `advance` is the first stamp after both.
//!
//! A slot in which no node tunes makes no `channels()` call; its A span
//! then runs to `resolve` entry and its B span is zero. The last slot of
//! a run has no following `advance`, so D is summed over one slot fewer
//! than A, B and C; [`PhaseTotals::d_slots`] says how many. Reading the
//! counts after `resolve` exit is benchmark overhead: it is kept out of
//! C and D and reported in [`PhaseTotals::count_ns`].
//!
//! The stamps assume the engine's order of calls, which is what the
//! benchmark's own tests check: wrapped and unwrapped runs have equal
//! trace digests, and the four spans add up to the measured step time.

use crn_sim::ids::GlobalChannel;
use crn_sim::medium::{Medium, MediumProfile, SlotInputs};
use crn_sim::proto::Event;
use crn_sim::trace::SlotActivity;
use crn_sim::ChannelModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Marks "no `channels()` call yet in this slot".
const UNSET: u64 = u64::MAX;

/// The stamps the model side leaves for the medium side to read.
#[derive(Debug)]
struct SlotClock {
    epoch: Instant,
    advance_ns: AtomicU64,
    first_channels_ns: AtomicU64,
}

impl SlotClock {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Wraps `model` and `medium` so that one run of the engine over them
/// records [`PhaseTotals`], read back from the returned medium with
/// [`TimedMedium::totals`].
pub fn traced<CM, Med>(model: CM, medium: Med) -> (TimedModel<CM>, TimedMedium<Med>) {
    let clock = Arc::new(SlotClock {
        epoch: Instant::now(),
        advance_ns: AtomicU64::new(0),
        first_channels_ns: AtomicU64::new(UNSET),
    });
    let model = TimedModel {
        inner: model,
        clock: Arc::clone(&clock),
    };
    let medium = TimedMedium {
        inner: medium,
        clock,
        totals: PhaseTotals::default(),
        last_exit: None,
    };
    (model, medium)
}

/// A [`ChannelModel`] that stamps the start of each slot and of its
/// Phase B; otherwise it forwards every call unchanged.
#[derive(Debug)]
pub struct TimedModel<CM> {
    inner: CM,
    clock: Arc<SlotClock>,
}

impl<CM: ChannelModel> ChannelModel for TimedModel<CM> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn c(&self) -> usize {
        self.inner.c()
    }
    fn c_of(&self, node: usize) -> usize {
        self.inner.c_of(node)
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn total_channels(&self) -> usize {
        self.inner.total_channels()
    }
    fn labels_are_global(&self) -> bool {
        self.inner.labels_are_global()
    }
    fn advance(&mut self, slot: u64) {
        let now = self.clock.now();
        self.clock.advance_ns.store(now, Ordering::Relaxed);
        self.clock.first_channels_ns.store(UNSET, Ordering::Relaxed);
        self.inner.advance(slot);
    }
    fn channels(&self, node: usize) -> &[GlobalChannel] {
        if self.clock.first_channels_ns.load(Ordering::Relaxed) == UNSET {
            // A lost race only means another thread stamped first,
            // which is the stamp wanted.
            let _ = self.clock.first_channels_ns.compare_exchange(
                UNSET,
                self.clock.now(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        self.inner.channels(node)
    }
}

/// Phase times and on-air counts summed over the slots of one or more
/// runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Node count of the network (constant within a run).
    pub n: u64,
    /// Slots with A, B and C spans.
    pub slots: u64,
    /// Slots with a D span (one fewer per run than `slots`).
    pub d_slots: u64,
    /// Phase A: per-node `decide`.
    pub a_ns: u64,
    /// Phase B: label translation, tuning and jamming.
    pub b_ns: u64,
    /// Phase C: inside `Medium::resolve`.
    pub c_ns: u64,
    /// Phase D plus the runner's per-slot bookkeeping.
    pub d_ns: u64,
    /// Time spent reading the counts below: trace overhead, in no span.
    pub count_ns: u64,
    /// Channel records the medium built.
    pub active_channels: u64,
    /// Transmissions attempted.
    pub broadcasters: u64,
    /// Nodes listening.
    pub listeners: u64,
    /// Channels with two or more broadcasters.
    pub collisions: u64,
    /// Channels with a winner and at least one listener.
    pub deliveries: u64,
    /// Nodes that slept.
    pub sleepers: u64,
}

impl PhaseTotals {
    /// Adds another run's totals (of a network of the same size).
    pub fn add(&mut self, other: &PhaseTotals) {
        self.n = other.n;
        self.slots += other.slots;
        self.d_slots += other.d_slots;
        self.a_ns += other.a_ns;
        self.b_ns += other.b_ns;
        self.c_ns += other.c_ns;
        self.d_ns += other.d_ns;
        self.count_ns += other.count_ns;
        self.active_channels += other.active_channels;
        self.broadcasters += other.broadcasters;
        self.listeners += other.listeners;
        self.collisions += other.collisions;
        self.deliveries += other.deliveries;
        self.sleepers += other.sleepers;
    }

    /// The four spans in nanoseconds per node-slot, `[A, B, C, D]`.
    pub fn per_node_slot_ns(&self) -> [f64; 4] {
        let per = |ns: u64, slots: u64| ns as f64 / (slots * self.n).max(1) as f64;
        [
            per(self.a_ns, self.slots),
            per(self.b_ns, self.slots),
            per(self.c_ns, self.slots),
            per(self.d_ns, self.d_slots),
        ]
    }

    /// A count averaged per slot.
    pub fn per_slot(&self, count: u64) -> f64 {
        count as f64 / self.slots.max(1) as f64
    }
}

/// A [`Medium`] that times `resolve` and reads each slot's counts,
/// closing the previous slot's D span and this slot's A and B spans on
/// entry.
#[derive(Debug)]
pub struct TimedMedium<Med> {
    inner: Med,
    clock: Arc<SlotClock>,
    totals: PhaseTotals,
    last_exit: Option<u64>,
}

impl<Med> TimedMedium<Med> {
    /// The totals recorded so far.
    pub fn totals(&self) -> PhaseTotals {
        self.totals
    }

    /// Closes the last slot's D span at the current time. Only for a
    /// caller that steps the network itself and stamps its own end:
    /// after a runner returns, "now" would also cover its teardown.
    pub fn close(&mut self) {
        if let Some(exit) = self.last_exit.take() {
            self.totals.d_ns += self.clock.now().saturating_sub(exit);
            self.totals.d_slots += 1;
        }
    }
}

impl<M: Clone, Med: Medium<M>> Medium<M> for TimedMedium<Med> {
    fn reseed(&mut self, master: u64) {
        self.inner.reseed(master);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        let entry = self.clock.now();
        let advance = self.clock.advance_ns.load(Ordering::Relaxed);
        let first = match self.clock.first_channels_ns.load(Ordering::Relaxed) {
            UNSET => entry,
            stamp => stamp,
        };
        let t = &mut self.totals;
        if let Some(exit) = self.last_exit {
            t.d_ns += advance.saturating_sub(exit);
            t.d_slots += 1;
        }
        t.a_ns += first.saturating_sub(advance);
        t.b_ns += entry.saturating_sub(first);

        self.inner.resolve(inputs, events, activity);

        let exit = self.clock.now();
        t.c_ns += exit - entry;
        t.n = inputs.n as u64;
        t.slots += 1;
        t.sleepers += activity.sleepers as u64;
        t.active_channels += activity.channels.len() as u64;
        for ch in &activity.channels {
            t.broadcasters += ch.broadcasters.len() as u64;
            t.listeners += ch.listeners.len() as u64;
            t.collisions += u64::from(ch.had_collision());
            t.deliveries += u64::from(ch.winner.is_some() && !ch.listeners.is_empty());
        }
        let counted = self.clock.now();
        t.count_ns += counted - exit;
        self.last_exit = Some(counted);
    }

    fn profile(&self) -> MediumProfile {
        self.inner.profile()
    }
}
