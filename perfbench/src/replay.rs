//! Outside-in replay timers: each layer's public entry point, called
//! from here on inputs shaped like the workload's, timed with
//! `Instant`. Calls cheaper than the clock are timed in batches and
//! reported per call.

use crate::stats::Timing;
use qlink::classical::ChannelModel;
use qlink::des::EventQueue;
use qlink::egp::FidelityEstimator;
use qlink::phys::AttemptModel;
use qlink::prelude::*;
use qlink::wire::egp::{CreateMsg, ExpireMsg, RetractMsg};
use qlink::wire::fields::ReplyOutcome;
use qlink::wire::mhp::{GenMsg, ReplyMsg};
use qlink::wire::{AbsQueueId, Fidelity16, Frame, MidpointOutcome, RequestFlags, RequestType};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per cheap replay.
const BATCHES: usize = 400;

/// Runs `op` in `BATCHES` timed batches of `batch` calls after one
/// untimed warm-up batch; returns nanoseconds per call of each batch.
fn batched(batch: usize, mut op: impl FnMut(usize)) -> Timing {
    for i in 0..batch {
        op(i);
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..batch {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    Timing::of(&samples)
}

/// `EventQueue::schedule_at` + `pop_until` pairs on a queue held at
/// `depth` pending events, with delays like a link's (up to 100 µs).
pub fn schedule_pop(depth: usize, seed: u64) -> Timing {
    let mut rng = DetRng::new(seed).substream("perfbench/replay/des");
    let mut delay = move || SimDuration::from_ps(1 + rng.below(100_000_000));
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        let at = queue.now() + delay();
        queue.schedule_at(at, i as u64);
    }
    let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
    batched(256, |i| {
        let at = queue.now() + delay();
        queue.schedule_at(at, i as u64);
        black_box(queue.pop_until(horizon));
    })
}

/// The bright-state populations the FEU picks for the workload's
/// minimum fidelity, for K- and M-type requests.
pub fn alphas(fmin: f64) -> Vec<f64> {
    let mut feu = FidelityEstimator::new(ScenarioParams::lab());
    [RequestType::Keep, RequestType::Measure]
        .into_iter()
        .filter_map(|rtype| feu.choose_alpha(fmin, rtype).map(|c| c.alpha))
        .collect()
}

/// `AttemptModel::sample` at the workload's α.
pub fn attempt_sample(alpha: f64, seed: u64) -> Timing {
    let model = AttemptModel::build(&ScenarioParams::lab(), alpha);
    let mut rng = DetRng::new(seed).substream("perfbench/replay/phys");
    batched(1024, |_| {
        black_box(model.sample(&mut rng));
    })
}

/// `AttemptModel::build` (the quantum noise chain) at each α, in
/// milliseconds per build.
pub fn model_build(alphas: &[f64]) -> Timing {
    let params = ScenarioParams::lab();
    let samples: Vec<f64> = (0..24)
        .flat_map(|_| alphas.iter())
        .map(|&alpha| {
            let t = Instant::now();
            black_box(AttemptModel::build(black_box(&params), alpha));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Timing::of(&samples)
}

/// A busy link's frame mix: GEN and REPLY every attempt, now and then
/// an EGP CREATE, EXPIRE or RETRACT.
fn frame_mix() -> Vec<Frame> {
    let qid = AbsQueueId::new(1, 7);
    let gen = |cycle| {
        Frame::Gen(GenMsg {
            queue_id: qid,
            timestamp_cycle: cycle,
        })
    };
    let reply = |cycle, outcome| {
        Frame::Reply(ReplyMsg {
            outcome: ReplyOutcome::Attempt(outcome),
            mhp_seq: 4,
            receiver_qid: qid,
            peer_qid: Some(qid),
            timestamp_cycle: cycle,
        })
    };
    let mut frames = Vec::new();
    for cycle in 0..4 {
        frames.push(gen(1_000 + cycle));
        frames.push(reply(1_000 + cycle, MidpointOutcome::Fail));
    }
    frames.push(reply(1_004, MidpointOutcome::PsiPlus));
    frames.push(Frame::Create(CreateMsg {
        remote_node_id: 2,
        min_fidelity: Fidelity16::from_f64(0.64),
        max_time_us: 0,
        purpose_id: 1,
        number: 1,
        priority: 3,
        flags: RequestFlags {
            measure_directly: true,
            ..Default::default()
        },
    }));
    frames.push(Frame::Expire(ExpireMsg {
        queue_id: qid,
        origin_id: 1,
        create_id: 3,
        seq_low: 1,
        seq_high: 2,
    }));
    frames.push(Frame::Retract(RetractMsg {
        queue_id: qid,
        origin_id: 1,
        create_id: 3,
    }));
    frames
}

/// `Frame::encode` over the frame mix.
pub fn frame_encode() -> Timing {
    let frames = frame_mix();
    batched(256, |i| {
        black_box(frames[i % frames.len()].encode());
    })
}

/// `Frame::decode` over the encoded frame mix.
pub fn frame_decode() -> Timing {
    let encoded: Vec<Vec<u8>> = frame_mix().iter().map(Frame::encode).collect();
    batched(256, |i| {
        black_box(Frame::decode(&encoded[i % encoded.len()]).expect("frames round-trip"));
    })
}

/// `ChannelModel::transmit` over a Lab arm with the workload's
/// classical loss (empty payloads: the frame bytes are the codec's
/// cost, the loss and delay draws are the channel's).
pub fn channel_transmit(loss: f64, seed: u64) -> Timing {
    let mut channel = ChannelModel::fiber(0.001, loss);
    let mut rng = DetRng::new(seed).substream("perfbench/replay/classical");
    batched(1024, |_| {
        black_box(channel.transmit(Vec::new(), &mut rng));
    })
}

/// `Network::plan_routes` on the finished network, at its end-of-run
/// loads, for each of the workload's pairs; microseconds per plan.
pub fn plan_routes(net: &mut Network, pairs: &[(usize, usize)], fmin: f64) -> Timing {
    let mut samples = Vec::new();
    for round in 0..=64 {
        for &(src, dst) in pairs {
            let t = Instant::now();
            black_box(net.plan_routes(src, dst, fmin, 1));
            if round > 0 {
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    Timing::of(&samples)
}
