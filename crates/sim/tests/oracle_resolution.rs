//! The single-hop oracle against a plain reference, and across reuse.
//!
//! `OracleSingleHop::resolve` counts channels first and fills its
//! records straight from the tuned list. The reference here does the
//! obvious thing instead: sort the tuned nodes by `(channel, node)`,
//! group them, and draw one winner per contended channel on the
//! `ENGINE` stream in ascending channel order. On seeded random slots
//! the two must agree on every channel record, every per-node event,
//! and the next `ENGINE` draw (read off a probe slot in which every
//! node contends for one channel), which shows both streams stand at
//! the same position.
//!
//! A medium handed back by one network (`into_medium`, the `*_on`
//! runners) and passed to the next must then resolve exactly like a
//! fresh one.

use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::medium::{Medium, SlotInputs};
use crn_sim::rng::{derive_rng, streams, SimRng};
use crn_sim::{
    Action, ChannelActivity, Event, GlobalChannel, LocalChannel, Network, NodeCtx, NodeId,
    OracleMultihop, OracleSingleHop, Protocol, SlotActivity, Topology,
};
use rand::Rng;

/// Resolves one slot the obvious way, drawing winners from `engine`.
fn reference(
    engine: &mut SimRng,
    inputs: &SlotInputs<'_, u32>,
    events: &mut [Option<Event<u32>>],
) -> Vec<ChannelActivity> {
    let mut sorted = inputs.tuned.to_vec();
    sorted.sort_by_key(|&(ch, node, _)| (ch, node));
    let mut records = Vec::new();
    for group in sorted.chunk_by(|a, b| a.0 == b.0) {
        let nodes = |broadcast: bool| -> Vec<NodeId> {
            group
                .iter()
                .filter(|&&(_, _, b)| b == broadcast)
                .map(|&(_, node, _)| NodeId(node as u32))
                .collect()
        };
        let broadcasters = nodes(true);
        let winner = (!broadcasters.is_empty())
            .then(|| broadcasters[engine.gen_range(0..broadcasters.len())]);
        let msg = |w: NodeId| match &inputs.actions[w.index()] {
            Action::Broadcast(_, msg) => *msg,
            other => panic!("winner {w} did not broadcast: {other:?}"),
        };
        for &(_, node, is_broadcast) in group {
            events[node] = Some(match (winner, is_broadcast) {
                (Some(w), true) if w.index() == node => Event::Delivered,
                (Some(w), true) => Event::Lost {
                    winner: w,
                    msg: msg(w),
                },
                (Some(w), false) => Event::Received {
                    from: w,
                    msg: msg(w),
                },
                (None, false) => Event::Silence,
                (None, true) => unreachable!("a broadcaster's channel has a winner"),
            });
        }
        records.push(ChannelActivity {
            channel: group[0].0,
            broadcasters,
            winner,
            listeners: nodes(false),
        });
    }
    records
}

/// The kinds of slot the differential sweep draws.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Mixed sleepers, jammed nodes, listeners and broadcasters.
    Mixed,
    /// Every node sleeps or is jammed.
    NoneTuned,
    /// Tuned nodes only listen.
    ListenersOnly,
    /// Every tuned node is on core channel 0.
    PileUp,
    /// Few broadcasters, so most channels have none.
    QuietChannels,
}

const SHAPES: [Shape; 5] = [
    Shape::Mixed,
    Shape::NoneTuned,
    Shape::ListenersOnly,
    Shape::PileUp,
    Shape::QuietChannels,
];

/// One node's part in a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Sleep,
    Jammed,
    Tuned(GlobalChannel, bool),
}

fn draw_roles(rng: &mut SimRng, shape: Shape, n: usize, channels: usize) -> Vec<Role> {
    (0..n)
        .map(|_| {
            let p_broadcast = match shape {
                Shape::Mixed | Shape::PileUp => 0.4,
                Shape::ListenersOnly | Shape::NoneTuned => 0.0,
                Shape::QuietChannels => 0.05,
            };
            let channel = match shape {
                Shape::PileUp => GlobalChannel(0),
                _ => GlobalChannel(rng.gen_range(0..channels as u32)),
            };
            let roll: f64 = rng.gen();
            match shape {
                Shape::NoneTuned if roll < 0.5 => Role::Sleep,
                Shape::NoneTuned => Role::Jammed,
                _ if roll < 0.15 => Role::Sleep,
                _ if roll < 0.25 => Role::Jammed,
                _ => Role::Tuned(channel, rng.gen_bool(p_broadcast)),
            }
        })
        .collect()
}

/// Resolves `roles` on `medium` and on the reference, and checks that
/// records and events agree.
fn check_slot(
    medium: &mut OracleSingleHop,
    engine: &mut SimRng,
    activity: &mut SlotActivity,
    slot: u64,
    total_channels: usize,
    roles: &[Role],
    context: &str,
) {
    let n = roles.len();
    let mut actions = Vec::with_capacity(n);
    let mut tuned = Vec::new();
    let mut events: Vec<Option<Event<u32>>> = vec![None; n];
    for (node, &role) in roles.iter().enumerate() {
        let msg = node as u32 * 1_000 + slot as u32;
        actions.push(match role {
            Role::Sleep => Action::Sleep,
            Role::Jammed => {
                events[node] = Some(Event::Jammed);
                Action::Broadcast(LocalChannel(0), msg)
            }
            Role::Tuned(ch, broadcast) => {
                tuned.push((ch, node, broadcast));
                if broadcast {
                    Action::Broadcast(LocalChannel(0), msg)
                } else {
                    Action::Listen(LocalChannel(0))
                }
            }
        });
    }
    let inputs = SlotInputs {
        slot,
        n,
        total_channels,
        actions: &actions,
        tuned: &tuned,
    };
    let mut expected_events = events.clone();
    let expected = reference(engine, &inputs, &mut expected_events);
    medium.resolve(&inputs, &mut events, activity);
    assert_eq!(activity.channels, expected, "{context}: channel records");
    assert_eq!(events, expected_events, "{context}: per-node events");
}

#[test]
fn count_first_resolution_matches_sorted_reference() {
    let mut workload = derive_rng(0x0_5EED, streams::WORKLOAD);
    for run in 0..60u64 {
        // Enough nodes that the probe's winner pins the stream position.
        let n = workload.gen_range(32..=96usize);
        let total_channels = workload.gen_range(1..=2 * n);
        let master = workload.gen();
        let mut medium = OracleSingleHop::new();
        Medium::<u32>::reseed(&mut medium, master);
        let mut engine = derive_rng(master, streams::ENGINE);
        let mut activity = SlotActivity::default();
        let slots = workload.gen_range(1..=40u64);
        for slot in 0..slots {
            let shape = SHAPES[workload.gen_range(0..SHAPES.len())];
            let roles = draw_roles(&mut workload, shape, n, total_channels);
            let context = format!("run {run} (n={n}, C={total_channels}) slot {slot} {shape:?}");
            check_slot(
                &mut medium,
                &mut engine,
                &mut activity,
                slot,
                total_channels,
                &roles,
                &context,
            );
        }
        // Probe: every node broadcasts on channel 0, so the winner is
        // the next ENGINE draw over 0..n on both sides.
        let probe = vec![Role::Tuned(GlobalChannel(0), true); n];
        let context = format!("run {run} (n={n}, C={total_channels}) probe");
        check_slot(
            &mut medium,
            &mut engine,
            &mut activity,
            slots,
            total_channels,
            &probe,
            &context,
        );
    }
}

/// Hops to a uniformly random local channel and broadcasts there 30%
/// of the time.
struct Hopper;

impl Protocol<u32> for Hopper {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u32> {
        let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
        if rng.gen_bool(0.3) {
            Action::Broadcast(ch, ctx.id.0)
        } else {
            Action::Listen(ch)
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u32>) {}
}

/// Steps a 16-node seed-1 network over `medium` for 20 slots and hands
/// the medium back with the trace.
fn run_seed_1<Med: Medium<u32>>(medium: Med) -> (Vec<SlotActivity>, Med) {
    let model = StaticChannels::local(shared_core(16, 8, 2).unwrap(), 1);
    let protos = (0..16).map(|_| Hopper).collect();
    let mut net = Network::with_medium(model, protos, 1, medium).unwrap();
    let trace = (0..20).map(|_| net.step().clone()).collect();
    (trace, net.into_medium())
}

#[test]
fn reused_single_hop_medium_resolves_like_a_fresh_one() {
    let (first, used) = run_seed_1(OracleSingleHop::new());
    let (reused, _) = run_seed_1(used);
    let (fresh, _) = run_seed_1(OracleSingleHop::new());
    assert_eq!(first, fresh);
    for (slot, (got, want)) in reused.iter().zip(&fresh).enumerate() {
        assert_eq!(got, want, "slot {slot} of the second network");
    }
}

#[test]
fn reused_complete_multihop_medium_resolves_like_a_fresh_one() {
    let medium = || OracleMultihop::new(Topology::complete(16));
    let (_, used) = run_seed_1(medium());
    let (reused, _) = run_seed_1(used);
    let (fresh, _) = run_seed_1(medium());
    for (slot, (got, want)) in reused.iter().zip(&fresh).enumerate() {
        assert_eq!(got, want, "slot {slot} of the second network");
    }
}
