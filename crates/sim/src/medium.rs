//! The medium layer: pluggable slot-resolution substrates.
//!
//! The paper defines one synchronous slot model (Section 2) that this
//! repo realizes three ways: the abstract collision oracle, its
//! multi-hop generalization, and the footnote-4 decay-backoff stack.
//! A [`Medium`] is the part of the engine that differs between them —
//! given every node's committed tuning and action for the slot, it
//! decides who hears what and records the physical-layer activity. The
//! engine ([`crate::Network`]) keeps everything that is substrate
//! independent: protocol driving, local→global label translation,
//! interference/jamming, fault wrappers, tracing, and the `validate`
//! conformance hook.
//!
//! Three implementations ship here:
//!
//! - [`OracleSingleHop`] — the paper's Section 2 oracle: one uniformly
//!   random winner per contended channel, success feedback, losers
//!   overhear the winner. The allocation-free default path; its
//!   winner draws consume the `ENGINE` RNG stream in ascending channel
//!   order, so golden traces are byte-identical to the pre-medium
//!   engine.
//! - [`OracleMultihop`] — receiver-centric resolution over a
//!   [`Topology`]: each listener independently hears one uniformly
//!   random transmitting *neighbor* on its channel. On a complete
//!   topology it delegates to [`OracleSingleHop`] outright, making
//!   "multi-hop on a complete graph" literally the single-hop engine.
//! - [`PhysicalDecay`] — no oracle anywhere: every abstract slot
//!   expands into one fixed-length exponential-decay backoff episode
//!   per channel (footnote 4), on the dedicated `PHYSICAL` RNG stream.
//!   Physical-round counts and failed episodes are exposed as medium
//!   metadata.
//!
//! All three build a slot's [`ChannelActivity`] records one way, through
//! a private builder that stamps the active channels, sorts only those,
//! fills the lists in node order and recycles records by position; each
//! medium adds only what differs — the oracle's `ENGINE` draw per
//! channel, the multihop per-receiver draws, or one decay episode per
//! channel. That episode is [`decay_episode`], the single decay-backoff
//! kernel, which `crn-backoff`'s contention and physical-stack
//! experiments call too.

use crate::ids::{GlobalChannel, NodeId};
use crate::proto::{Action, Event};
use crate::rng::{derive_rng, streams, SimRng};
use crate::topology::Topology;
use crate::trace::{ChannelActivity, SlotActivity};
use rand::Rng;

/// Static facts about a medium that the conformance layer needs in
/// order to know which Section 2 clauses apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediumProfile {
    /// Every channel with at least one broadcaster records a winner.
    /// True for the oracle; false for media where an episode can fail
    /// ([`PhysicalDecay`]) or where winners are per-receiver
    /// ([`OracleMultihop`] on an incomplete topology).
    pub guaranteed_winner: bool,
    /// Recorded winners are reproducible by replaying the `ENGINE`
    /// stream — one uniform draw per contended channel, ascending
    /// channel order (see [`crate::conformance::replay_winners`]).
    pub engine_stream_winners: bool,
}

impl MediumProfile {
    /// The profile of the Section 2 collision oracle.
    pub fn oracle() -> Self {
        MediumProfile {
            guaranteed_winner: true,
            engine_stream_winners: true,
        }
    }
}

/// Everything the engine hands a medium for one slot.
///
/// `tuned` lists each non-sleeping, non-jammed node exactly once as
/// `(global_channel, node, is_broadcast)`, in ascending node order —
/// local labels already translated, interference already applied.
#[derive(Debug)]
pub struct SlotInputs<'a, M> {
    /// The slot being resolved.
    pub slot: u64,
    /// Total node count.
    pub n: usize,
    /// Size of the global channel space.
    pub total_channels: usize,
    /// Each node's committed action (indexed by node; jammed nodes'
    /// actions are present but must be ignored — they are not tuned).
    pub actions: &'a [Action<M>],
    /// The participating `(channel, node, is_broadcast)` triples, in
    /// ascending node order.
    pub tuned: &'a [(GlobalChannel, usize, bool)],
}

/// A slot-resolution substrate.
///
/// Given the committed per-node tunings, a medium fills in one
/// [`Event`] per participating node and the slot's [`ChannelActivity`]
/// records, drawing any randomness from its own dedicated RNG stream.
///
/// Contract:
///
/// - `events` arrives with `None` for every sleeper and participant
///   and `Some(Event::Jammed)` for jammed nodes; the medium must set
///   `events[i]` for exactly the nodes in `inputs.tuned`.
/// - `activity` arrives with `slot`, `sleepers` and `jammed` already
///   set and `channels` still holding the previous slot's records (for
///   buffer recycling); the medium replaces them with this slot's
///   records, sorted ascending by channel.
/// - All randomness comes from the medium's own stream, reseeded via
///   [`Medium::reseed`] when the network is built — never from the
///   per-node or jammer streams.
pub trait Medium<M: Clone> {
    /// Re-derives the medium's RNG stream(s) from the master seed.
    fn reseed(&mut self, master: u64);

    /// Resolves one slot.
    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    );

    /// Which contract clauses this medium satisfies.
    fn profile(&self) -> MediumProfile;

    /// The node count this medium is built for, if it fixes one (a
    /// multi-hop topology does); the engine rejects a channel model of
    /// any other size at construction.
    fn nodes(&self) -> Option<usize> {
        None
    }
}

/// The one way every medium builds a slot's [`ChannelActivity`]
/// records, in `O(T + A log A)` for `T` tuned nodes on `A` active
/// channels — never proportional to the model's full channel space:
///
/// 1. one pass over the tuned nodes stamps the active channels;
/// 2. only those `A` channels are sorted;
/// 3. a second pass, in node order, fills each channel's record
///    straight from the tuned list, so its broadcaster and listener
///    lists come out in node order.
///
/// Records come out ascending by channel with no winner; a medium then
/// decides the winners and reads each node's event off its channel's
/// record ([`ChannelRecords::pos`], [`ChannelRecords::deliver`]).
///
/// Records are recycled by position: the slot's `j`-th active channel
/// refills the record the previous slot published at position `j`, so
/// a slot reuses the few records (and list buffers) it touched
/// recently. Every record a slot can need is provisioned up front, and
/// each position's lists converge to that position's high-water size,
/// after which refills never reallocate (see `crn-sim/tests/alloc.rs`).
#[derive(Debug, Default)]
struct ChannelRecords {
    /// Number of slots built by this medium: the stamp for
    /// `chan_epoch`. Counted per medium rather than taken from the slot
    /// number, so a medium handed from one network to the next never
    /// mistakes the previous run's stamps for current ones.
    resolved: u64,
    /// Sparse activity index: per global channel, the value of
    /// `resolved` during the slot that last touched it. A stale stamp
    /// means "inactive this slot", so no per-slot clearing of the
    /// channel space is ever needed.
    chan_epoch: Vec<u64>,
    /// Per global channel, its position in this slot's records (valid
    /// only when the epoch stamp is current).
    chan_pos: Vec<u32>,
    /// The distinct channels touched this slot.
    active: Vec<GlobalChannel>,
    /// Records not needed by the current slot, kept (with their list
    /// capacity) for a later slot with more active channels. Pushed
    /// and popped at the end, so a record returns to its old position.
    spare: Vec<ChannelActivity>,
}

impl ChannelRecords {
    /// Replaces `channels` with this slot's records: one per channel in
    /// `inputs.tuned`, ascending by channel, lists in node order, no
    /// winner.
    fn build<M>(&mut self, inputs: &SlotInputs<'_, M>, channels: &mut Vec<ChannelActivity>) {
        self.collect_active_channels(inputs.total_channels, inputs.tuned);
        self.size_records(inputs.n, inputs.total_channels, channels);
        for (pos, (&channel, act)) in self.active.iter().zip(channels.iter_mut()).enumerate() {
            self.chan_pos[channel.index()] = pos as u32;
            act.channel = channel;
            act.broadcasters.clear();
            act.winner = None;
            act.listeners.clear();
        }
        for &(ch, node, is_broadcast) in inputs.tuned {
            let act = &mut channels[self.pos(ch)];
            if is_broadcast {
                act.broadcasters.push(NodeId(node as u32));
            } else {
                act.listeners.push(NodeId(node as u32));
            }
        }
    }

    /// Position of `ch`'s record among the records of the slot last
    /// built; `ch` must have been tuned in that slot.
    fn pos(&self, ch: GlobalChannel) -> usize {
        self.chan_pos[ch.index()] as usize
    }

    /// Sets every tuned node's event from its channel's winner, in
    /// ascending node order (so message clones happen in the same order
    /// as the pre-medium engine's Phase D): the winner learns it
    /// succeeded, the other broadcasters lose to it, the listeners
    /// receive it. On a channel without a winner listeners hear silence
    /// and broadcasters observe [`Event::Delivered`]: the oracle never
    /// leaves a broadcaster's channel without a winner, and on the
    /// physical radio a failed episode sounds exactly like winning.
    fn deliver<M: Clone>(
        &self,
        inputs: &SlotInputs<'_, M>,
        channels: &[ChannelActivity],
        events: &mut [Option<Event<M>>],
    ) {
        for &(ch, i, is_broadcast) in inputs.tuned {
            events[i] = Some(match channels[self.pos(ch)].winner {
                Some(w) if w.index() == i => Event::Delivered,
                Some(w) => {
                    let Action::Broadcast(_, msg) = &inputs.actions[w.index()] else {
                        unreachable!("winner must have broadcast")
                    };
                    let msg = msg.clone();
                    if is_broadcast {
                        Event::Lost { winner: w, msg }
                    } else {
                        Event::Received { from: w, msg }
                    }
                }
                None if is_broadcast => Event::Delivered,
                None => Event::Silence,
            });
        }
    }

    /// Collects this slot's distinct channels into `self.active`,
    /// ascending.
    fn collect_active_channels(
        &mut self,
        total_channels: usize,
        tuned: &[(GlobalChannel, usize, bool)],
    ) {
        // Sized to the channel space once (amortized; see tests/alloc.rs),
        // then only the active entries are ever touched again.
        if self.chan_epoch.len() < total_channels {
            self.chan_epoch.resize(total_channels, 0);
            self.chan_pos.resize(total_channels, 0);
        }
        self.resolved += 1; // stamps start at 0, so the first epoch is 1
        let epoch = self.resolved;
        self.active.clear();
        for &(ch, _, _) in tuned {
            let stamp = &mut self.chan_epoch[ch.index()];
            if *stamp != epoch {
                *stamp = epoch;
                self.active.push(ch);
            }
        }
        // Media that draw per channel consume their stream in ascending
        // channel order, so the active set must be resolved sorted.
        self.active.sort_unstable();
    }

    /// Makes `channels` hold exactly one record per active channel,
    /// recycling records by position through `self.spare`.
    ///
    /// A slot has at most one active channel per tuned node, so
    /// `min(n, C)` records cover every slot. They are provisioned once,
    /// each list with the room its first push would allocate, so a slot
    /// with more active channels than any before it reuses a record
    /// instead of allocating one.
    fn size_records(
        &mut self,
        n: usize,
        total_channels: usize,
        channels: &mut Vec<ChannelActivity>,
    ) {
        let bound = n.min(total_channels);
        let have = channels.len() + self.spare.len();
        if have < bound {
            channels.reserve(bound - channels.len());
            self.spare.reserve(bound - self.spare.len());
            self.spare.extend((have..bound).map(|_| ChannelActivity {
                channel: GlobalChannel(0),
                broadcasters: Vec::with_capacity(4),
                winner: None,
                listeners: Vec::with_capacity(4),
            }));
        }
        let want = self.active.len();
        if channels.len() > want {
            self.spare.extend(channels.drain(want..).rev());
        } else {
            let reused = self.spare.len() - (want - channels.len());
            channels.extend(self.spare.drain(reused..).rev());
        }
    }
}

/// The paper's Section 2 collision oracle — the default medium.
///
/// One uniformly random broadcaster per contended channel wins; all
/// listeners on the channel receive its message; the winner gets
/// success feedback and the losers overhear the winning message. The
/// records come from the shared record builder, so resolution is
/// allocation-free in steady state (see `crn-sim/tests/alloc.rs`) and
/// costs `O(T + A log A)` for `T` tuned nodes on `A` active channels.
/// Winners are drawn on the `ENGINE` stream in ascending channel order,
/// one draw per channel with broadcasters.
#[derive(Debug)]
pub struct OracleSingleHop {
    engine_rng: SimRng,
    records: ChannelRecords,
}

impl Default for OracleSingleHop {
    fn default() -> Self {
        OracleSingleHop {
            engine_rng: derive_rng(0, streams::ENGINE),
            records: ChannelRecords::default(),
        }
    }
}

impl OracleSingleHop {
    /// A fresh oracle (the RNG is re-derived when the network seeds it).
    pub fn new() -> Self {
        OracleSingleHop::default()
    }
}

impl<M: Clone> Medium<M> for OracleSingleHop {
    fn reseed(&mut self, master: u64) {
        self.engine_rng = derive_rng(master, streams::ENGINE);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        let channels = &mut activity.channels;
        self.records.build(inputs, channels);
        for act in channels.iter_mut() {
            if !act.broadcasters.is_empty() {
                let pick = self.engine_rng.gen_range(0..act.broadcasters.len());
                act.winner = Some(act.broadcasters[pick]);
            }
        }
        self.records.deliver(inputs, channels, events);
    }

    fn profile(&self) -> MediumProfile {
        MediumProfile::oracle()
    }
}

/// Receiver-centric resolution over a connectivity [`Topology`].
///
/// A transmission on channel `q` reaches only *neighbors* tuned to
/// `q`. For each listener, one of its transmitting neighbors on the
/// channel — uniformly random, independent per listener — gets
/// through, which is the natural multi-hop reading of the paper's
/// backoff abstraction. Transmitter-side feedback does not survive the
/// generalization (a node cannot know which of its neighbors heard
/// it), so transmitters always observe [`Event::Delivered`].
///
/// On a **complete** topology the medium delegates wholesale to
/// [`OracleSingleHop`]: the single-hop oracle *is* the complete-graph
/// special case, so traces (and golden digests) match the single-hop
/// engine exactly.
#[derive(Debug)]
pub struct OracleMultihop {
    topology: Topology,
    is_complete: bool,
    inner: OracleSingleHop,
    rng: SimRng,
    records: ChannelRecords,
    /// Scratch: a listener's transmitting neighbors on its channel.
    senders: Vec<usize>,
}

impl OracleMultihop {
    /// A multi-hop oracle over `topology` (the RNG is re-derived when
    /// the network seeds it).
    pub fn new(topology: Topology) -> Self {
        let is_complete = topology.is_complete();
        OracleMultihop {
            topology,
            is_complete,
            inner: OracleSingleHop::new(),
            rng: derive_rng(0, streams::ENGINE),
            records: ChannelRecords::default(),
            senders: Vec::new(),
        }
    }

    /// The connectivity topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl<M: Clone> Medium<M> for OracleMultihop {
    fn reseed(&mut self, master: u64) {
        Medium::<M>::reseed(&mut self.inner, master);
        self.rng = derive_rng(master, streams::ENGINE);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        if self.is_complete {
            // The single-hop oracle is the complete-graph special case.
            return self.inner.resolve(inputs, events, activity);
        }

        // Winners are per-receiver in this medium, so channel records
        // carry none (`guaranteed_winner: false`).
        let channels = &mut activity.channels;
        self.records.build(inputs, channels);

        // Per-receiver winner draws, ascending node order (the draw
        // order the standalone multi-hop engine always used).
        for &(ch, i, is_broadcast) in inputs.tuned {
            events[i] = Some(if is_broadcast {
                Event::Delivered
            } else {
                let on_air = &channels[self.records.pos(ch)].broadcasters;
                self.senders.clear();
                self.senders.extend(
                    self.topology
                        .neighbors(i)
                        .iter()
                        .copied()
                        .filter(|&j| on_air.binary_search(&NodeId(j as u32)).is_ok()),
                );
                if self.senders.is_empty() {
                    Event::Silence
                } else {
                    let w = self.senders[self.rng.gen_range(0..self.senders.len())];
                    let Action::Broadcast(_, msg) = &inputs.actions[w] else {
                        unreachable!("sender filter guarantees a broadcast")
                    };
                    Event::Received {
                        from: NodeId(w as u32),
                        msg: msg.clone(),
                    }
                }
            });
        }
    }

    fn nodes(&self) -> Option<usize> {
        Some(self.topology.len())
    }

    fn profile(&self) -> MediumProfile {
        if self.is_complete {
            MediumProfile::oracle()
        } else {
            MediumProfile {
                guaranteed_winner: false,
                engine_stream_winners: false,
            }
        }
    }
}

/// Number of rounds per decay epoch for a population bound `n_max`
/// (footnote 4): `⌈log₂ n_max⌉ + 1`.
///
/// The canonical home of the decay-backoff arithmetic;
/// `crn_backoff::decay` re-exports it.
///
/// # Examples
///
/// ```
/// use crn_sim::medium::epoch_len;
/// assert_eq!(epoch_len(1), 1);
/// assert_eq!(epoch_len(8), 4);
/// assert_eq!(epoch_len(9), 5);
/// ```
pub fn epoch_len(n_max: usize) -> u32 {
    (n_max.max(1) as f64).log2().ceil() as u32 + 1
}

/// A recommended round budget that succeeds w.h.p.: `8·epoch_len² + 8`
/// (constant-probability success per epoch × `O(log n)` epochs for
/// high probability).
pub fn recommended_rounds(n_max: usize) -> u64 {
    let e = epoch_len(n_max) as u64;
    8 * e * e + 8
}

/// One exponential-decay backoff episode (footnote 4) among `m`
/// contenders on a collision-as-silence radio, under a budget of
/// `max_rounds` rounds: the single decay kernel behind
/// [`PhysicalDecay`] and the `crn-backoff` experiments.
///
/// In round `j` of an epoch of [`epoch_len`]`(n_max)` rounds every
/// contender transmits with probability `2^{-j}` — one `gen_bool` draw
/// per contender, every round. The first round with exactly one
/// transmitter ends the episode: everyone else received its message.
/// Returns that contender's index and the rounds used, or `None` if the
/// budget ran out (always so for `m == 0`).
///
/// # Examples
///
/// ```
/// use crn_sim::medium::{decay_episode, recommended_rounds};
/// use crn_sim::SimRng;
/// use rand::SeedableRng;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// // A lone contender transmits with probability 1 in round 0.
/// assert_eq!(decay_episode(1, 16, recommended_rounds(16), &mut rng), Some((0, 1)));
/// let (winner, rounds) = decay_episode(5, 16, recommended_rounds(16), &mut rng).unwrap();
/// assert!(winner < 5 && rounds >= 2);
/// ```
pub fn decay_episode(
    m: usize,
    n_max: usize,
    max_rounds: u64,
    rng: &mut SimRng,
) -> Option<(usize, u64)> {
    let epoch = epoch_len(n_max) as u64;
    for round in 0..max_rounds {
        let j = (round % epoch) as i32;
        let p = 0.5f64.powi(j);
        let mut transmitters = 0;
        let mut last = 0;
        for i in 0..m {
            if rng.gen_bool(p) {
                transmitters += 1;
                last = i;
            }
        }
        if transmitters == 1 {
            return Some((last, round + 1));
        }
    }
    None
}

/// The footnote-4 physical realization: no collision oracle anywhere.
///
/// Every abstract slot expands into one fixed-length exponential-decay
/// backoff episode per channel, all channels in parallel: in round `j`
/// of an epoch every still-active broadcaster transmits with
/// probability `2^{-j}`; the first *lone* transmission wins — its
/// message is received by every listener and every losing broadcaster
/// on the channel (who abort), and the winner, having heard nothing,
/// knows it succeeded. The episode length is fixed at
/// [`recommended_rounds`]`(n)` rounds so channels stay synchronized (a
/// node cannot observe when *other* channels finish).
///
/// An episode can **fail** — no lone transmission within the budget —
/// which is the abstract model's "with high probability" caveat made
/// concrete: nobody on the channel hears anything, so listeners
/// observe [`Event::Silence`] and every broadcaster observes
/// [`Event::Delivered`] (a false positive — hearing nothing is exactly
/// what winning feels like on this radio). The channel records no
/// winner and [`PhysicalDecay::failed_episodes`] increments.
///
/// Each episode is one [`decay_episode`] call, channels in ascending
/// order; all randomness comes from the dedicated `PHYSICAL` stream
/// (docs/RNG_STREAMS.md), never from the oracle's `ENGINE` stream.
#[derive(Debug)]
pub struct PhysicalDecay {
    rng: SimRng,
    physical_rounds: u64,
    failed_episodes: u64,
    rounds_per_slot: u64,
    records: ChannelRecords,
}

impl Default for PhysicalDecay {
    fn default() -> Self {
        PhysicalDecay {
            rng: derive_rng(0, streams::PHYSICAL),
            physical_rounds: 0,
            failed_episodes: 0,
            rounds_per_slot: 0,
            records: ChannelRecords::default(),
        }
    }
}

impl PhysicalDecay {
    /// A fresh physical medium (the RNG is re-derived when the network
    /// seeds it).
    pub fn new() -> Self {
        PhysicalDecay::default()
    }

    /// Physical rounds consumed so far (`slots × rounds_per_slot`).
    pub fn physical_rounds(&self) -> u64 {
        self.physical_rounds
    }

    /// Channel-episodes that ended without a lone transmission, on
    /// every channel with broadcasters, whether or not it also had
    /// listeners. `crn_backoff::stack::PhysicalRun::failed_episodes`
    /// (experiment F14) counts only failures on channels with
    /// listeners, so the two counters differ by the failures among
    /// broadcasters alone.
    pub fn failed_episodes(&self) -> u64 {
        self.failed_episodes
    }

    /// Rounds in one abstract slot (the fixed episode length `R`),
    /// as of the most recent slot; 0 before the first slot.
    pub fn rounds_per_slot(&self) -> u64 {
        self.rounds_per_slot
    }
}

impl<M: Clone> Medium<M> for PhysicalDecay {
    fn reseed(&mut self, master: u64) {
        self.rng = derive_rng(master, streams::PHYSICAL);
        self.physical_rounds = 0;
        self.failed_episodes = 0;
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        // Fixed-length episodes keep the channels synchronized: every
        // abstract slot costs R physical rounds no matter how early
        // any one channel's episode succeeds.
        self.rounds_per_slot = recommended_rounds(inputs.n);
        self.physical_rounds += self.rounds_per_slot;

        // One decay episode per channel with broadcasters, ascending
        // channel order on the PHYSICAL stream.
        let channels = &mut activity.channels;
        self.records.build(inputs, channels);
        for act in channels.iter_mut() {
            if act.broadcasters.is_empty() {
                continue;
            }
            let m = act.broadcasters.len();
            match decay_episode(m, inputs.n, self.rounds_per_slot, &mut self.rng) {
                Some((i, _)) => act.winner = Some(act.broadcasters[i]),
                None => self.failed_episodes += 1,
            }
        }
        self.records.deliver(inputs, channels, events);
    }

    fn profile(&self) -> MediumProfile {
        MediumProfile {
            guaranteed_winner: false,
            engine_stream_winners: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::full_overlap;
    use crate::channel_model::StaticChannels;
    use crate::ids::LocalChannel;
    use crate::proto::{NodeCtx, Protocol};
    use crate::Network;

    struct Fixed {
        action: Action<u8>,
        heard: Vec<Event<u8>>,
    }

    impl Protocol<u8> for Fixed {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
            self.action.clone()
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
            self.heard.push(event);
        }
    }

    fn fixed(action: Action<u8>) -> Fixed {
        Fixed {
            action,
            heard: Vec::new(),
        }
    }

    #[test]
    fn epoch_len_is_log2_plus_one() {
        assert_eq!(epoch_len(0), 1);
        assert_eq!(epoch_len(2), 2);
        assert_eq!(epoch_len(1024), 11);
    }

    /// The round-by-round episode the kernel replaces: a transmit flag
    /// per contender per round, then the radio's verdict — silence,
    /// collision, or a lone transmission that wins.
    fn reference_episode(
        m: usize,
        n_max: usize,
        max_rounds: u64,
        rng: &mut SimRng,
    ) -> Option<(usize, u64)> {
        let epoch = epoch_len(n_max) as u64;
        let mut tx = vec![false; m];
        for round in 0..max_rounds {
            let p = 0.5f64.powf((round % epoch) as f64);
            for t in tx.iter_mut() {
                *t = rng.gen_bool(p);
            }
            let on_air: Vec<usize> = (0..m).filter(|&i| tx[i]).collect();
            if let [lone] = on_air[..] {
                return Some((lone, round + 1));
            }
        }
        None
    }

    #[test]
    fn decay_episode_matches_round_by_round_reference() {
        use rand::SeedableRng;
        let mut outcomes = [0usize; 2];
        for seed in 0..300u64 {
            let m = (seed % 20) as usize;
            let (n_max, budget) = (16, 1 + seed % 12);
            let mut kernel_rng = SimRng::seed_from_u64(seed);
            let mut reference_rng = SimRng::seed_from_u64(seed);
            let got = decay_episode(m, n_max, budget, &mut kernel_rng);
            let want = reference_episode(m, n_max, budget, &mut reference_rng);
            assert_eq!(got, want, "m={m} budget={budget} seed={seed}");
            // Same RNG consumption: the streams stay in step.
            assert_eq!(kernel_rng.gen::<u64>(), reference_rng.gen::<u64>());
            outcomes[got.is_some() as usize] += 1;
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }

    #[test]
    fn decay_episode_edge_cases() {
        use rand::SeedableRng;
        let mut rng = SimRng::seed_from_u64(3);
        // Nobody contends: silence every round, the budget runs out.
        assert_eq!(decay_episode(0, 8, 50, &mut rng), None);
        // A lone contender transmits with probability 1 in round 0.
        assert_eq!(decay_episode(1, 8, 50, &mut rng), Some((0, 1)));
        // Two or more always collide in round 0, so they need round 2+.
        let (winner, rounds) = decay_episode(2, 8, 1_000, &mut rng).unwrap();
        assert!(winner < 2 && rounds >= 2);
        assert_eq!(decay_episode(2, 8, 1, &mut rng), None);
    }

    #[test]
    fn physical_decay_delivers_lone_broadcast() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let mut net = Network::with_medium(model, protos, 5, PhysicalDecay::new()).unwrap();
        net.step();
        assert_eq!(
            net.medium().physical_rounds(),
            net.medium().rounds_per_slot()
        );
        let p = net.into_protocols();
        assert_eq!(p[0].heard, vec![Event::Delivered]);
        assert_eq!(
            p[1].heard,
            vec![Event::Received {
                from: NodeId(0),
                msg: 9
            }]
        );
    }

    #[test]
    fn physical_decay_charges_fixed_rounds_per_slot() {
        let model = StaticChannels::global(full_overlap(4, 2).unwrap());
        let protos = (0..4)
            .map(|_| fixed(Action::Broadcast(LocalChannel(0), 1)))
            .collect();
        let mut net = Network::with_medium(model, protos, 9, PhysicalDecay::new()).unwrap();
        for _ in 0..10 {
            net.step();
        }
        let med = net.medium();
        assert_eq!(med.physical_rounds(), 10 * med.rounds_per_slot());
        assert_eq!(med.rounds_per_slot(), recommended_rounds(4));
    }

    #[test]
    fn physical_decay_failed_episode_has_no_winner() {
        // Two persistent contenders fail an episode (no lone
        // transmission in recommended_rounds(2) = 40 rounds) with
        // probability 2^-20 per slot. Seed 13032 was found by search
        // over this network: its only failure in 40 slots is slot 25.
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 1)),
            fixed(Action::Broadcast(LocalChannel(0), 2)),
        ];
        let mut net = Network::with_medium(model, protos, 13032, PhysicalDecay::new()).unwrap();
        let mut winnerless = Vec::new();
        for slot in 0..40 {
            let act = net.step();
            assert_eq!(act.channels.len(), 1);
            if act.channels[0].winner.is_none() {
                winnerless.push(slot);
            }
        }
        assert_eq!(winnerless, vec![25]);
        assert_eq!(net.medium().failed_episodes(), 1);
        // The winnerless rule: with no winner every broadcaster hears
        // nothing and so observes Delivered; otherwise exactly one wins
        // and the other loses to it.
        let p = net.into_protocols();
        for slot in 0..40 {
            let events = [&p[0].heard[slot], &p[1].heard[slot]];
            let delivered = events
                .iter()
                .filter(|e| matches!(e, Event::Delivered))
                .count();
            let lost = events
                .iter()
                .filter(|e| matches!(e, Event::Lost { .. }))
                .count();
            if slot == 25 {
                assert_eq!((delivered, lost), (2, 0), "slot {slot}: {events:?}");
            } else {
                assert_eq!((delivered, lost), (1, 1), "slot {slot}: {events:?}");
            }
        }
    }

    #[test]
    fn physical_decay_winner_is_roughly_uniform() {
        // Two persistent contenders: decay symmetry should give each
        // about half the wins — the property that justifies the
        // oracle's uniform pick.
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 1)),
            fixed(Action::Broadcast(LocalChannel(0), 2)),
        ];
        let mut net = Network::with_medium(model, protos, 31, PhysicalDecay::new()).unwrap();
        for _ in 0..2000 {
            net.step();
        }
        let p = net.into_protocols();
        let wins0 = p[0]
            .heard
            .iter()
            .filter(|e| matches!(e, Event::Delivered))
            .count();
        assert!(
            (700..=1300).contains(&wins0),
            "physical winner badly skewed: {wins0}/2000"
        );
    }

    #[test]
    fn multihop_complete_matches_single_hop_trace() {
        use crate::trace::TraceDigest;
        let run = |multihop: bool| -> u64 {
            let model = StaticChannels::global(full_overlap(4, 2).unwrap());
            let protos = vec![
                fixed(Action::Broadcast(LocalChannel(0), 1)),
                fixed(Action::Broadcast(LocalChannel(0), 2)),
                fixed(Action::Listen(LocalChannel(0))),
                fixed(Action::Listen(LocalChannel(1))),
            ];
            let mut digest = TraceDigest::new();
            if multihop {
                let med = OracleMultihop::new(Topology::complete(4));
                let mut net = Network::with_medium(model, protos, 7, med).unwrap();
                for _ in 0..64 {
                    digest.record(net.step());
                }
            } else {
                let mut net = Network::new(model, protos, 7).unwrap();
                for _ in 0..64 {
                    digest.record(net.step());
                }
            }
            digest.finish()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn multihop_respects_line_topology() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let med = OracleMultihop::new(Topology::line(3));
        let mut net = Network::with_medium(model, protos, 1, med).unwrap();
        net.step();
        let p = net.into_protocols();
        assert_eq!(
            p[1].heard,
            vec![Event::Received {
                from: NodeId(0),
                msg: 9
            }]
        );
        assert_eq!(p[2].heard, vec![Event::Silence]);
    }

    #[test]
    fn multihop_per_receiver_winners_are_independent() {
        // 1 and 2 both broadcast and node 0 neighbors both: over many
        // slots node 0 hears each roughly half the time.
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Broadcast(LocalChannel(0), 1)),
            fixed(Action::Broadcast(LocalChannel(0), 2)),
        ];
        let med = OracleMultihop::new(Topology::from_edges(3, &[(0, 1), (0, 2)]));
        let mut net = Network::with_medium(model, protos, 5, med).unwrap();
        net.run_slots(2000);
        let p = net.into_protocols();
        let from1 = p[0]
            .heard
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Received {
                        from: NodeId(1),
                        ..
                    }
                )
            })
            .count();
        assert!(
            (700..=1300).contains(&from1),
            "receiver-side winner skewed: {from1}/2000"
        );
    }

    #[test]
    fn multihop_channels_do_not_mix() {
        for topo in [Topology::complete(3), Topology::line(3)] {
            let model = StaticChannels::global(full_overlap(3, 2).unwrap());
            let protos = vec![
                fixed(Action::Broadcast(LocalChannel(0), 3)),
                fixed(Action::Listen(LocalChannel(1))),
                fixed(Action::Sleep),
            ];
            let med = OracleMultihop::new(topo);
            let mut net = Network::with_medium(model, protos, 2, med).unwrap();
            net.step();
            assert_eq!(net.into_protocols()[1].heard, vec![Event::Silence]);
        }
    }

    #[test]
    fn multihop_is_deterministic_given_seed() {
        let run = |seed: u64| -> Vec<Event<u8>> {
            let model = StaticChannels::global(full_overlap(3, 1).unwrap());
            let protos = vec![
                fixed(Action::Listen(LocalChannel(0))),
                fixed(Action::Broadcast(LocalChannel(0), 1)),
                fixed(Action::Broadcast(LocalChannel(0), 2)),
            ];
            let med = OracleMultihop::new(Topology::from_edges(3, &[(0, 1), (0, 2)]));
            let mut net = Network::with_medium(model, protos, seed, med).unwrap();
            net.run_slots(32);
            net.into_protocols().remove(0).heard
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn multihop_conformance_holds_on_incomplete_topology() {
        // The conformance hook applies the multihop profile:
        // winner-less contended channels are legal here.
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let med = OracleMultihop::new(Topology::line(3));
        let mut net = Network::with_medium(model, protos, 1, med).unwrap();
        net.step();
        assert_eq!(net.check_conformance(), vec![]);
    }

    #[test]
    fn multihop_topology_of_another_size_is_rejected() {
        use crate::engine::NetworkBuilder;
        use crate::SimError;
        let quiet = || (0..4).map(|_| fixed(Action::Sleep)).collect::<Vec<_>>();
        let model = || StaticChannels::global(full_overlap(4, 1).unwrap());
        for nodes in [3, 5] {
            let med = || OracleMultihop::new(Topology::line(nodes));
            let direct = Network::with_medium(model(), quiet(), 0, med());
            assert!(
                matches!(direct, Err(SimError::InvalidParams { .. })),
                "with_medium accepted a {nodes}-node topology for 4 nodes"
            );
            let built = NetworkBuilder::new(model())
                .protocols(quiet())
                .medium(med())
                .build();
            assert!(
                matches!(built, Err(SimError::InvalidParams { .. })),
                "build accepted a {nodes}-node topology for 4 nodes"
            );
        }
        assert!(
            Network::with_medium(model(), quiet(), 0, OracleMultihop::new(Topology::line(4)))
                .is_ok()
        );
    }

    #[test]
    fn profiles_reflect_guarantees() {
        let oracle = OracleSingleHop::new();
        assert!(Medium::<u8>::profile(&oracle).guaranteed_winner);
        let complete = OracleMultihop::new(Topology::complete(4));
        assert!(Medium::<u8>::profile(&complete).engine_stream_winners);
        let line = OracleMultihop::new(Topology::line(4));
        assert!(!Medium::<u8>::profile(&line).guaranteed_winner);
        let phys = PhysicalDecay::new();
        assert!(!Medium::<u8>::profile(&phys).guaranteed_winner);
    }
}
