//! The Entanglement Generation Protocol state machine (Protocol 2).
//!
//! One [`Egp`] instance runs at each controllable node. It is written
//! sans-IO: the harness feeds it CREATE requests, peer frames, MHP
//! results and poll ticks; it emits frames to send, OK/ERR messages
//! for the higher layer, and hardware directives (move-to-memory,
//! discard) that the simulation applies to the shared pair states.
//!
//! Responsibilities, following §5.2.5:
//!
//! * validate CREATEs against the FEU (UNSUPP) and memory (MEMEXCEEDED);
//! * place requests in the distributed queue with a `min_time` barrier;
//! * answer the MHP's per-cycle poll using the deterministic scheduler
//!   (identical decisions at both nodes);
//! * process midpoint results: sequence tracking modulo 2¹⁶, OK
//!   delivery, `|Ψ−⟩→|Ψ+⟩` correction, move-to-memory timing, carbon
//!   re-initialization blackouts;
//! * recover from lost control messages via EXPIRE (§E.3.2) and
//!   queue-mismatch reconciliation;
//! * intersperse test rounds (Appendix B) and feed the QBER estimator.

use crate::dqueue::{
    AddPayload, DistributedQueue, DqpEvent, DqueueConfig, QueueEntry, RejectReason, Role,
};
use crate::feu::{FidelityEstimator, QberEstimator};
use crate::qmm::{QuantumMemoryManager, QubitId};
use crate::request::{Request, RequestId, RequestState};
use crate::scheduler::SchedulerPolicy;
use crate::shared_random::SharedRandomness;
use qlink_phys::mhp::{AttemptKind, AttemptSpec, MhpResult};
use qlink_phys::params::ScenarioParams;
use qlink_quantum::bell::BellState;
use qlink_quantum::Basis;
use qlink_wire::egp::{
    CreateMsg, EgpErrorCode, ErrMsg, ExpireAckMsg, ExpireMsg, MemoryAdvertMsg, OkKeepMsg,
    OkMeasureMsg, RetractMsg, WireBasis,
};
use qlink_wire::fields::{
    seq_after, AbsQueueId, MhpError, MidpointOutcome, ReplyOutcome, RequestType,
};
use qlink_wire::Frame;
use std::collections::{HashMap, VecDeque};

/// Hardware directives the EGP issues to the node's quantum device —
/// the "pulse sequences" of §5.1, abstracted.
#[derive(Debug, Clone, PartialEq)]
pub enum HwDirective {
    /// Apply the `|Ψ−⟩ → |Ψ+⟩` Z correction to the local half of the
    /// pair heralded in `cycle`.
    CorrectPsiMinus {
        /// Detection window of the pair.
        cycle: u64,
    },
    /// Begin moving the local half of the pair heralded in `cycle`
    /// into the carbon memory (completes after the move duration).
    MoveToMemory {
        /// Detection window of the pair.
        cycle: u64,
        /// Storage qubit allocated for it.
        qubit: QubitId,
    },
    /// Discard the local half of the pair heralded in `cycle`
    /// (sequence-check failure, expiry, or a consumed test round).
    Discard {
        /// Detection window of the pair.
        cycle: u64,
    },
}

/// Everything the EGP can emit in response to an input.
#[derive(Debug, Clone, PartialEq)]
pub enum EgpEvent {
    /// Transmit a frame to the peer node.
    SendPeer(Frame),
    /// OK for a create-and-keep pair (§4.1.2).
    OkKeep(OkKeepMsg),
    /// OK for a measure-directly pair.
    OkMeasure(OkMeasureMsg),
    /// An error for the higher layer.
    Error(ErrMsg),
    /// A quantum-hardware directive.
    Hw(HwDirective),
}

/// Static configuration of one EGP instance.
#[derive(Debug, Clone)]
pub struct EgpConfig {
    /// This node's ID.
    pub node_id: u32,
    /// The peer's ID.
    pub peer_id: u32,
    /// Distributed-queue role (exactly one node is master).
    pub role: Role,
    /// Physical scenario (timings, NV parameters).
    pub scenario: ScenarioParams,
    /// Distributed-queue parameters (must match the peer's).
    pub dq: DqueueConfig,
    /// Scheduling policy (must match the peer's).
    pub scheduler: SchedulerPolicy,
    /// Number of carbon storage qubits.
    pub storage_qubits: usize,
    /// Pre-shared randomness for test rounds and bases.
    pub shared_random: SharedRandomness,
    /// Cycles to wait for a midpoint reply before declaring GEN_FAIL.
    pub reply_timeout_cycles: u64,
    /// `min_time` offset: cycles between queue-add and earliest service
    /// (must exceed the ADD/ACK round trip; §E.1.2).
    pub min_time_cycles: u64,
    /// Window size of the QBER estimator (Appendix B's `N`).
    pub qber_window: usize,
    /// Consecutive NO_MESSAGE_OTHER results on one request before
    /// concluding the peer has diverged and sending a resync EXPIRE
    /// (§E.3.2's "inconsistency detected later" case).
    pub nmo_resync_threshold: u32,
    /// Resync attempts before abandoning the request entirely.
    pub resync_give_up: u32,
    /// Cycles a completed request lingers (still reopenable by a
    /// resync EXPIRE) before being forgotten.
    pub completed_linger_cycles: u64,
}

impl EgpConfig {
    /// Sensible defaults for a scenario: reply timeout covers the
    /// midpoint round trip with margin, `min_time` covers the DQP
    /// handshake.
    pub fn for_scenario(
        node_id: u32,
        peer_id: u32,
        role: Role,
        scenario: ScenarioParams,
        scheduler: SchedulerPolicy,
    ) -> Self {
        let cycle = scenario.mhp_cycle;
        let reply_cycles = scenario.reply_latency().as_ps().div_ceil(cycle.as_ps());
        let rtt_ab = (scenario.arm_a_delay() + scenario.arm_b_delay()).as_ps() * 2;
        let min_time = rtt_ab.div_ceil(cycle.as_ps()) + 3;
        EgpConfig {
            node_id,
            peer_id,
            role,
            scenario,
            dq: DqueueConfig {
                master_node: if role == Role::Master {
                    node_id
                } else {
                    peer_id
                },
                slave_node: if role == Role::Master {
                    peer_id
                } else {
                    node_id
                },
                ..DqueueConfig::default()
            },
            scheduler,
            storage_qubits: 1,
            shared_random: SharedRandomness::new(0x51_1b_2a_7e, 0.0),
            reply_timeout_cycles: reply_cycles + 10,
            min_time_cycles: min_time,
            qber_window: 1000,
            nmo_resync_threshold: 5,
            resync_give_up: 3,
            completed_linger_cycles: 5_000,
        }
    }
}

/// A completed move awaiting its OK at `ready_cycle`.
#[derive(Debug, Clone)]
struct PendingMove {
    aid: AbsQueueId,
    seq: u16,
    qubit: QubitId,
    herald_cycle: u64,
    ready_cycle: u64,
}

/// An EXPIRE we sent and must retransmit until ACKed.
#[derive(Debug, Clone)]
struct PendingExpire {
    msg: ExpireMsg,
    next_retransmit: u64,
    retries_left: u8,
}

#[derive(Debug)]
struct PendingRetract {
    msg: RetractMsg,
    next_retransmit: u64,
    retries_left: u8,
}

/// The per-node link-layer protocol instance.
#[derive(Debug)]
pub struct Egp {
    cfg: EgpConfig,
    dq: DistributedQueue,
    qmm: QuantumMemoryManager,
    feu: FidelityEstimator,
    qber: QberEstimator,
    requests: HashMap<AbsQueueId, Request>,
    /// Our CREATEs not yet committed (create_id → request template).
    pending_creates: HashMap<u16, Request>,
    next_create_id: u16,
    seq_expected: u16,
    /// Recently issued OK sequence numbers per request (for EXPIRE).
    issued_seqs: HashMap<AbsQueueId, VecDeque<u16>>,
    /// K-attempt in flight: the cycle it was fired in.
    inflight_keep: Option<u64>,
    /// Hardware blocked until this cycle (move in progress).
    busy_until: u64,
    /// Move awaiting completion.
    pending_move: Option<PendingMove>,
    /// Buffered OKs for non-consecutive requests.
    buffered_oks: HashMap<AbsQueueId, Vec<EgpEvent>>,
    /// EXPIREs awaiting acknowledgment.
    pending_expires: Vec<PendingExpire>,
    /// RETRACTs awaiting acknowledgment.
    pending_retracts: Vec<PendingRetract>,
    /// CREATEs retracted while their dqueue ADD was still in flight:
    /// if the queue later commits one, it is retracted then.
    retracted_creates: std::collections::HashSet<u16>,
    /// Peer's last advertised free storage (None = unknown).
    peer_free_storage: Option<u8>,
    /// Consecutive NO_MESSAGE_OTHER counts per request (divergence
    /// detection) and resync attempts already made.
    nmo_counts: HashMap<AbsQueueId, (u32, u32)>,
    /// Consecutive QUEUE_MISMATCH counts per (our aid, peer aid) pair.
    /// Mismatches for a couple of windows are normal when the two
    /// nodes' replies arrive staggered (unequal arms) around a request
    /// boundary; only persistent mismatch triggers reconciliation.
    qm_counts: HashMap<(AbsQueueId, AbsQueueId), u32>,
    /// Carbon re-init blackout bookkeeping (cycles, derived from NV).
    reinit_period_cycles: u64,
    reinit_duration_cycles: u64,
    move_cycles: u64,
    /// Deterministic K-attempt cadence: both nodes compute the next
    /// permissible K trigger cycle from the *attempt window*, never
    /// from local reply arrival times (which differ when the two arms
    /// to the station are unequal — QL2020 is 10 km vs 15 km).
    keep_cadence_cycles: u64,
    next_keep_cycle: u64,
    /// NMO threshold adjusted for this scenario: a single lost frame
    /// legitimately silences the peer for one reply-timeout window, so
    /// divergence must persist *longer* than that before a resync.
    effective_nmo_threshold: u32,
    /// Counters for robustness reporting.
    expires_sent: u64,
    expires_received: u64,
}

impl Egp {
    /// Builds an EGP instance.
    pub fn new(cfg: EgpConfig) -> Self {
        let cycle_s = cfg.scenario.mhp_cycle.as_secs_f64();
        let reinit_period_cycles =
            (cfg.scenario.nv.carbon_reinit_period_s / cycle_s).round() as u64;
        let reinit_duration_cycles =
            (cfg.scenario.nv.carbon_reinit_duration_s / cycle_s).ceil() as u64;
        let move_cycles = (cfg.scenario.nv.move_duration_s / cycle_s).ceil() as u64;
        let keep_cadence_cycles = if cfg.scenario.keep_waits_for_reply {
            cfg.scenario
                .reply_latency()
                .as_ps()
                .div_ceil(cfg.scenario.mhp_cycle.as_ps())
                + 1
        } else {
            1
        };
        Egp {
            dq: DistributedQueue::new(cfg.role, cfg.dq.clone()),
            qmm: QuantumMemoryManager::new(cfg.storage_qubits),
            feu: FidelityEstimator::new(cfg.scenario.clone()),
            qber: QberEstimator::new(cfg.qber_window),
            requests: HashMap::new(),
            pending_creates: HashMap::new(),
            next_create_id: 0,
            seq_expected: 0,
            issued_seqs: HashMap::new(),
            inflight_keep: None,
            busy_until: 0,
            pending_move: None,
            buffered_oks: HashMap::new(),
            pending_expires: Vec::new(),
            pending_retracts: Vec::new(),
            retracted_creates: std::collections::HashSet::new(),
            peer_free_storage: None,
            nmo_counts: HashMap::new(),
            qm_counts: HashMap::new(),
            reinit_period_cycles,
            reinit_duration_cycles,
            move_cycles,
            keep_cadence_cycles,
            next_keep_cycle: 0,
            effective_nmo_threshold: cfg
                .nmo_resync_threshold
                .max((cfg.reply_timeout_cycles / keep_cadence_cycles + 4) as u32),
            expires_sent: 0,
            expires_received: 0,
            cfg,
        }
    }

    /// This node's ID.
    pub fn node_id(&self) -> u32 {
        self.cfg.node_id
    }

    /// The expected next midpoint sequence number.
    pub fn seq_expected(&self) -> u16 {
        self.seq_expected
    }

    /// `true` when [`Egp::poll`] has nothing to do at any cycle: no
    /// tracked request, no EXPIRE or RETRACT awaiting an ACK, no move
    /// in progress, and an idle distributed queue. A poll is then a
    /// no-op that draws no randomness, so a simulation may stop
    /// polling until a CREATE, a retraction or a peer frame arrives.
    pub fn is_quiescent(&self) -> bool {
        self.requests.is_empty()
            && self.pending_expires.is_empty()
            && self.pending_retracts.is_empty()
            && self.pending_move.is_none()
            && self.dq.is_idle()
    }

    /// Number of requests currently tracked (all states).
    pub fn tracked_requests(&self) -> usize {
        self.requests.len()
    }

    /// Current committed queue length (both kinds of origin).
    pub fn queue_len(&self) -> usize {
        self.dq.len()
    }

    /// EXPIREs sent so far (robustness metric of §6.1).
    pub fn expires_sent(&self) -> u64 {
        self.expires_sent
    }

    /// EXPIREs received so far.
    pub fn expires_received(&self) -> u64 {
        self.expires_received
    }

    /// The runtime QBER estimator (fed by test rounds).
    pub fn qber_estimator(&self) -> &QberEstimator {
        &self.qber
    }

    /// Records a test-round outcome into the FEU's estimator (the
    /// harness routes the midpoint's bits here).
    pub fn record_test_round(&mut self, heralded: BellState, basis: Basis, bit_a: u8, bit_b: u8) {
        self.qber.record(heralded, basis, bit_a, bit_b);
    }

    /// Submits a CREATE from the higher layer (Protocol 2 step 1).
    /// Returns the assigned create ID and any immediate events.
    pub fn create(&mut self, msg: CreateMsg, cycle: u64) -> (u16, Vec<EgpEvent>) {
        let create_id = self.next_create_id;
        self.next_create_id = self.next_create_id.wrapping_add(1);
        let mut events = Vec::new();

        let rtype = msg.flags.request_type();
        // Atomic requests must fit the device (§4.1.2 MEMEXCEEDED).
        if rtype == RequestType::Keep && msg.flags.atomic && !self.qmm.can_ever_store(msg.number) {
            events.push(EgpEvent::Error(
                self.err(create_id, EgpErrorCode::MemExceeded),
            ));
            return (create_id, events);
        }
        // FEU: α and feasibility (UNSUPP).
        let fmin = msg.min_fidelity.to_f64();
        let Some(choice) = self.feu.choose_alpha(fmin, rtype) else {
            events.push(EgpEvent::Error(
                self.err(create_id, EgpErrorCode::Unsupported),
            ));
            return (create_id, events);
        };
        let cycle_us = self.cfg.scenario.mhp_cycle.as_micros_f64();
        let tmax_cycles = if msg.max_time_us == 0 {
            u64::MAX
        } else {
            (msg.max_time_us as f64 / cycle_us).floor() as u64
        };
        let est = self.feu.estimate_completion_cycles(&choice, msg.number);
        if est > tmax_cycles {
            events.push(EgpEvent::Error(
                self.err(create_id, EgpErrorCode::Unsupported),
            ));
            return (create_id, events);
        }
        let min_cycle = cycle + self.cfg.min_time_cycles;
        let timeout_cycle = if tmax_cycles == u64::MAX {
            u64::MAX
        } else {
            cycle.saturating_add(tmax_cycles)
        };
        let id = RequestId {
            origin: self.cfg.node_id,
            create_id,
        };
        let template = Request {
            id,
            create: msg.clone(),
            queue_id: None,
            alpha: choice.alpha,
            goodness: choice.goodness,
            min_cycle,
            timeout_cycle,
            est_cycles_per_pair: choice.est_cycles_per_pair.min(u32::MAX as u64) as u32,
            pairs_done: 0,
            round: 0,
            state: RequestState::Enqueueing,
            accepted_cycle: cycle,
            completed_cycle: None,
        };
        self.pending_creates.insert(create_id, template.clone());
        let payload = AddPayload {
            origin: id,
            schedule_cycle: min_cycle,
            timeout_cycle,
            min_fidelity: msg.min_fidelity,
            purpose_id: msg.purpose_id,
            num_pairs: msg.number,
            priority: msg.priority,
            est_cycles_per_pair: template.est_cycles_per_pair,
            flags: msg.flags,
        };
        let dq_events = self.dq.add(payload, cycle);
        events.extend(self.process_dq_events(dq_events, cycle));
        (create_id, events)
    }

    /// Retracts a CREATE this node originated: the request is dropped
    /// from the local queue immediately and the peer is told to do the
    /// same (RETRACT frame, retransmitted until acknowledged), so
    /// neither node spends further attempt cycles on it. The
    /// abandonment signal a higher layer sends when it no longer wants
    /// the pairs — a network-layer attempt failed or was cancelled.
    ///
    /// No-op for an unknown, already completed, or already rejected
    /// create ID. No OK/ERR is emitted: the higher layer asked for the
    /// removal and needs no echo.
    pub fn expire_request(&mut self, create_id: u16, cycle: u64) -> Vec<EgpEvent> {
        // ADD still in flight: drop the template now; if the dqueue
        // later commits the entry anyway, the tombstone retracts it at
        // commit time (see `process_dq_events`).
        if self.pending_creates.remove(&create_id).is_some() {
            self.retracted_creates.insert(create_id);
            return Vec::new();
        }
        let aid = self.requests.iter().find_map(|(aid, r)| {
            (r.id.origin == self.cfg.node_id
                && r.id.create_id == create_id
                && r.completed_cycle.is_none())
            .then_some(*aid)
        });
        let Some(aid) = aid else {
            return Vec::new();
        };
        self.drop_request(aid);
        vec![self.send_retract(aid, create_id, cycle)]
    }

    /// Removes every local trace of a queued request (the same set the
    /// timeout purge clears). In-flight MHP results for it resolve
    /// through the unknown-request path, which frees hardware and
    /// resyncs sequence numbers.
    fn drop_request(&mut self, aid: AbsQueueId) {
        self.requests.remove(&aid);
        self.dq.remove(aid);
        self.buffered_oks.remove(&aid);
        self.issued_seqs.remove(&aid);
        self.nmo_counts.remove(&aid);
    }

    /// Builds, registers for retransmission, and returns the RETRACT
    /// for `aid`.
    fn send_retract(&mut self, aid: AbsQueueId, create_id: u16, cycle: u64) -> EgpEvent {
        let msg = RetractMsg {
            queue_id: aid,
            origin_id: self.cfg.node_id,
            create_id,
        };
        self.pending_retracts.push(PendingRetract {
            msg,
            next_retransmit: cycle + self.cfg.reply_timeout_cycles,
            retries_left: 10,
        });
        EgpEvent::SendPeer(Frame::Retract(msg))
    }

    /// Handles a frame arriving from the peer node.
    pub fn on_peer_frame(&mut self, frame: Frame, cycle: u64) -> Vec<EgpEvent> {
        match frame {
            Frame::Dqp(msg) => {
                let evs = self.dq.on_frame(msg, cycle);
                self.process_dq_events(evs, cycle)
            }
            Frame::Expire(msg) => self.on_expire(msg, cycle),
            Frame::Retract(msg) => {
                // The originator abandoned the request: forget it and
                // acknowledge (the ack doubles as a sequence resync,
                // like an EXPIRE ack).
                self.drop_request(msg.queue_id);
                vec![EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
                    queue_id: msg.queue_id,
                    seq_expected: self.seq_expected,
                }))]
            }
            Frame::ExpireAck(msg) => {
                self.pending_expires
                    .retain(|p| p.msg.queue_id != msg.queue_id);
                self.pending_retracts
                    .retain(|p| p.msg.queue_id != msg.queue_id);
                // The acknowledger reports its up-to-date expectation;
                // adopt it if ahead (stops stale-sequence discards).
                if seq_after(msg.seq_expected, self.seq_expected) {
                    self.seq_expected = msg.seq_expected;
                }
                Vec::new()
            }
            Frame::MemoryAdvert(msg) => {
                self.peer_free_storage = Some(msg.storage_qubits);
                if msg.is_ack {
                    Vec::new()
                } else {
                    vec![EgpEvent::SendPeer(Frame::MemoryAdvert(MemoryAdvertMsg {
                        is_ack: true,
                        comm_qubits: self.qmm.free_comm(),
                        storage_qubits: self.qmm.free_storage() as u8,
                    }))]
                }
            }
            other => {
                debug_assert!(false, "unexpected peer frame {}", other.kind());
                Vec::new()
            }
        }
    }

    /// The MHP's per-cycle poll (Protocol 1 step 1(a) / Protocol 2
    /// step 2). Returns the attempt spec (if any) plus housekeeping
    /// events (timeouts, retransmissions, deferred OKs).
    pub fn poll(&mut self, cycle: u64) -> (Option<AttemptSpec>, Vec<EgpEvent>) {
        let mut events = Vec::new();

        // Housekeeping: DQP retransmissions, EXPIRE retransmissions,
        // request timeouts, move completion.
        let dq_events = self.dq.tick(cycle);
        events.extend(self.process_dq_events(dq_events, cycle));
        self.retransmit_expires(cycle, &mut events);
        self.purge_timed_out(cycle, &mut events);
        self.finish_move_if_ready(cycle, &mut events);

        // Hardware availability.
        if cycle < self.busy_until || self.pending_move.is_some() {
            return (None, events);
        }

        // Scheduler: pick among ready requests (identical at both
        // nodes: all inputs are synchronized queue fields). The ready
        // set streams straight into the policy — this runs every MHP
        // cycle, so it must not allocate.
        let requests = &self.requests;
        let ready = self
            .dq
            .iter()
            .filter(|e| requests.get(&e.aid).is_some_and(|r| r.is_ready(cycle)));
        let Some(aid) = self.cfg.scheduler.select(ready) else {
            return (None, events);
        };
        let req = self
            .requests
            .get_mut(&aid)
            .expect("selected from ready set");
        req.state = RequestState::InService;
        let rtype = req.request_type();

        // Without emission multiplexing (ablation, §5.2/[98]), M-type
        // attempts pace like K-type: one per reply round trip.
        if rtype == RequestType::Measure
            && !self.cfg.scenario.measure_multiplexing
            && cycle < self.next_keep_cycle
        {
            return (None, events);
        }
        if rtype == RequestType::Keep {
            // Deterministic K-attempt cadence: both nodes may only fire
            // the next K attempt at the agreed cycle (§4.4's "expected
            // cycles per attempt" E, and §5.2.4's determinism demand).
            if cycle < self.next_keep_cycle {
                return (None, events);
            }
            // Carbon re-initialization blackout for K service (§4.4:
            // 330 µs every 3500 µs; deterministic in the cycle number).
            if self.reinit_period_cycles > 0
                && cycle % self.reinit_period_cycles < self.reinit_duration_cycles
            {
                return (None, events);
            }
            // K-type needs the communication qubit plus storage here
            // and at the peer (flow control, §4.5). A busy qubit at
            // cadence time means a lost/late reply: skip this slot (the
            // peer sees NO_MESSAGE_OTHER and recovery converges).
            if !self.qmm.comm_free() || self.qmm.free_storage() == 0 {
                return (None, events);
            }
            if self.peer_free_storage == Some(0) {
                return (None, events);
            }
        }

        // Test-round / basis strings are indexed by the shared cycle
        // number so both nodes agree without communication.
        let is_test =
            rtype == RequestType::Keep && self.cfg.shared_random.is_test_round(aid, cycle);
        let kind = if rtype == RequestType::Measure || is_test {
            AttemptKind::Measure {
                basis: self.cfg.shared_random.basis(aid, cycle),
            }
        } else {
            AttemptKind::Keep
        };
        let spec = AttemptSpec {
            queue_id: aid,
            alpha: req.alpha,
            kind,
            test_round: is_test,
        };
        if rtype == RequestType::Keep
            || (rtype == RequestType::Measure && !self.cfg.scenario.measure_multiplexing)
        {
            // Any attempt for a K request (including a test round)
            // occupies the slot for one cadence period; unmultiplexed M
            // attempts pace the same way. The next slot is aligned to a
            // global grid (multiples of the cadence) so that after any
            // local hiccup — a reply timeout, a lost frame — both nodes
            // re-lock onto the same trigger cycles automatically.
            self.next_keep_cycle = self.grid_align(cycle + 1);
        }
        if matches!(kind, AttemptKind::Keep) {
            self.qmm.reserve_comm();
            self.inflight_keep = Some(cycle);
        }
        (Some(spec), events)
    }

    /// Processes a RESULT from the MHP (Protocol 2 step 3). For M-type
    /// attempts `local_bit` carries this node's measurement outcome
    /// (from the physical ledger).
    pub fn on_mhp_result(
        &mut self,
        result: &MhpResult,
        local_bit: Option<u8>,
        cycle: u64,
    ) -> Vec<EgpEvent> {
        let mut events = Vec::new();
        // Clear the K in-flight marker for this window.
        let was_keep = matches!(result.spec.kind, AttemptKind::Keep);
        if was_keep && self.inflight_keep == Some(result.cycle) {
            self.inflight_keep = None;
        }

        let outcome = result.outcome();
        match outcome {
            ReplyOutcome::Error(err) => {
                if was_keep {
                    self.qmm.release_comm();
                }
                self.handle_mhp_error(err, result, cycle, &mut events);
            }
            ReplyOutcome::Attempt(MidpointOutcome::Fail) => {
                // Step 3(c)(ii): failed attempt, nothing more to do.
                if was_keep {
                    self.qmm.release_comm();
                }
                // Both sides attempted: clear the divergence counters.
                self.nmo_counts.remove(&result.spec.queue_id);
                self.qm_counts.clear();
            }
            ReplyOutcome::Attempt(success) => {
                self.nmo_counts.remove(&result.spec.queue_id);
                self.qm_counts.clear();
                self.handle_success(success, result, local_bit, cycle, &mut events);
            }
        }
        events
    }

    // ----- internals ---------------------------------------------------

    fn handle_mhp_error(
        &mut self,
        err: MhpError,
        result: &MhpResult,
        cycle: u64,
        events: &mut Vec<EgpEvent>,
    ) {
        let reply = match &result.reply {
            Some(r) => r,
            None => return, // local GEN_FAIL: nothing else to do
        };
        // Step 3(c)(i): resynchronise the expected sequence number.
        if seq_after(reply.mhp_seq, self.seq_expected) {
            self.seq_expected = reply.mhp_seq;
        }
        match err {
            MhpError::QueueMismatch => {
                if let Some(peer_aid) = reply.peer_qid {
                    self.reconcile_queue_mismatch(result.spec.queue_id, peer_aid, events);
                }
            }
            MhpError::NoMessageOther => {
                // The peer did not attempt this window. Occasional
                // losses cause this too, so only persistent repetition
                // counts as divergence (§E.3.2: "inconsistency detected
                // later, e.g. when the remote node never received an OK
                // for this pair").
                let aid = result.spec.queue_id;
                if !self.requests.contains_key(&aid) {
                    return;
                }
                let threshold = self.effective_nmo_threshold;
                let (count, resyncs) = self.nmo_counts.entry(aid).or_insert((0, 0));
                *count += 1;
                if *count >= threshold {
                    *count = 0;
                    *resyncs += 1;
                    let give_up = *resyncs > self.cfg.resync_give_up;
                    let req = &self.requests[&aid];
                    if give_up {
                        // The peer has forgotten the request entirely;
                        // abandon it and tell the higher layer.
                        events.push(EgpEvent::Error(ErrMsg {
                            code: EgpErrorCode::Expire,
                            create_id: req.id.create_id,
                            origin_node_id: req.id.origin,
                            range_only: false,
                            seq_low: 0,
                            seq_high: 0,
                        }));
                        self.requests.remove(&aid);
                        self.dq.remove(aid);
                        self.nmo_counts.remove(&aid);
                        return;
                    }
                    // Resync EXPIRE: an empty sequence range carries our
                    // pairs-done count in `seq_low`; the peer rolls its
                    // progress back to the minimum of the two.
                    let expire = ExpireMsg {
                        queue_id: aid,
                        origin_id: req.id.origin,
                        create_id: req.id.create_id,
                        seq_low: req.pairs_done,
                        seq_high: req.pairs_done,
                    };
                    self.expires_sent += 1;
                    self.pending_expires.push(PendingExpire {
                        msg: expire,
                        next_retransmit: cycle + self.cfg.reply_timeout_cycles,
                        retries_left: 3,
                    });
                    events.push(EgpEvent::SendPeer(Frame::Expire(expire)));
                }
            }
            MhpError::TimeMismatch | MhpError::GenFail => {}
        }
    }

    /// Queue-mismatch reconciliation: if the peer is serving an
    /// *earlier* item that we consider further along (we issued OKs the
    /// peer never saw the replies for), revoke our most recent OK for
    /// it and step back — convergence within a bounded number of
    /// mismatched windows (§E.3.2's "EXPIRE for an OK already issued").
    fn reconcile_queue_mismatch(
        &mut self,
        ours: AbsQueueId,
        theirs: AbsQueueId,
        events: &mut Vec<EgpEvent>,
    ) {
        if theirs == ours {
            return;
        }
        // Transient mismatches around request boundaries are expected
        // when the two arms have different reply latencies; only a
        // *persistent* mismatch is a real divergence.
        let count = self.qm_counts.entry((ours, theirs)).or_insert(0);
        *count += 1;
        if *count < 6 {
            return;
        }
        *count = 0;
        let peer_is_earlier = (theirs.qid, theirs.qseq) < (ours.qid, ours.qseq);
        if !peer_is_earlier {
            return; // we are behind; the peer will reconcile
        }
        let Some(req) = self.requests.get_mut(&theirs) else {
            return;
        };
        if req.pairs_done == 0 {
            return;
        }
        req.pairs_done -= 1;
        req.state = RequestState::InService;
        let id = req.id;
        let last_seq = self
            .issued_seqs
            .get_mut(&theirs)
            .and_then(|q| q.pop_back())
            .unwrap_or(0);
        events.push(EgpEvent::Error(ErrMsg {
            code: EgpErrorCode::Expire,
            create_id: id.create_id,
            origin_node_id: id.origin,
            range_only: true,
            seq_low: last_seq,
            seq_high: last_seq.wrapping_add(1),
        }));
    }

    fn handle_success(
        &mut self,
        success: MidpointOutcome,
        result: &MhpResult,
        local_bit: Option<u8>,
        cycle: u64,
        events: &mut Vec<EgpEvent>,
    ) {
        let reply = result.reply.as_ref().expect("success implies a reply");
        let seq = reply.mhp_seq;
        let aid = result.spec.queue_id;
        let was_keep = matches!(result.spec.kind, AttemptKind::Keep);

        // Step 3(b): unknown request (timed out / completed): free
        // resources, resync, discard the pair.
        if !self.requests.contains_key(&aid) {
            if was_keep {
                self.qmm.release_comm();
            }
            self.seq_expected = seq.wrapping_add(1);
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        // Step 3(c)(iii): sequence processing.
        if seq == self.seq_expected {
            self.seq_expected = self.seq_expected.wrapping_add(1);
        } else if seq_after(seq, self.seq_expected) {
            // Missed successes: issue EXPIRE, discard this pair too.
            let req = &self.requests[&aid];
            let expire = ExpireMsg {
                queue_id: aid,
                origin_id: req.id.origin,
                create_id: req.id.create_id,
                seq_low: self.seq_expected,
                seq_high: seq.wrapping_add(1),
            };
            self.expires_sent += 1;
            self.pending_expires.push(PendingExpire {
                msg: expire,
                next_retransmit: cycle + self.cfg.reply_timeout_cycles,
                retries_left: 10,
            });
            events.push(EgpEvent::SendPeer(Frame::Expire(expire)));
            events.push(EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::Expire,
                create_id: self.requests[&aid].id.create_id,
                origin_node_id: self.requests[&aid].id.origin,
                range_only: true,
                seq_low: self.seq_expected,
                seq_high: seq.wrapping_add(1),
            }));
            if was_keep {
                self.qmm.release_comm();
            }
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            self.seq_expected = seq.wrapping_add(1);
            return;
        } else {
            // Stale (already expired) — ignore.
            if was_keep {
                self.qmm.release_comm();
            }
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        // Test round (Appendix B): consumed for estimation, not counted.
        if result.spec.test_round {
            let req = self.requests.get_mut(&aid).expect("checked above");
            req.round += 1;
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        // A completed (lingering) request can still receive heralds
        // from attempts that were in flight when it finished (emission
        // multiplexing); they are surplus — discard the pairs.
        if self.requests[&aid].is_complete() {
            if was_keep {
                self.qmm.release_comm();
            }
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        match result.spec.kind {
            AttemptKind::Measure { basis } => {
                self.deliver_measure_ok(success, result, basis, local_bit, cycle, events);
            }
            AttemptKind::Keep => {
                // Step 3(c)(iv): correction to |Ψ+⟩ by the originator.
                let req = self.requests.get_mut(&aid).expect("checked above");
                if success == MidpointOutcome::PsiMinus && req.id.origin == self.cfg.node_id {
                    events.push(EgpEvent::Hw(HwDirective::CorrectPsiMinus {
                        cycle: result.cycle,
                    }));
                }
                let qubit = self
                    .qmm
                    .alloc_storage()
                    .expect("poll checked storage before the attempt");
                self.busy_until = cycle + self.move_cycles;
                // The next K attempt may start once *both* nodes have
                // finished their moves; anchor the cadence to the
                // attempt window (shared) rather than to this node's
                // reply-processing time (which differs on unequal
                // arms), and grid-align so the nodes re-lock.
                self.next_keep_cycle = self.next_keep_cycle.max(
                    self.grid_align(result.cycle + self.keep_cadence_cycles + self.move_cycles),
                );
                self.pending_move = Some(PendingMove {
                    aid,
                    seq,
                    qubit,
                    herald_cycle: result.cycle,
                    ready_cycle: cycle + self.move_cycles,
                });
                events.push(EgpEvent::Hw(HwDirective::MoveToMemory {
                    cycle: result.cycle,
                    qubit,
                }));
                // The communication qubit frees once the state moved.
                self.qmm.release_comm();
            }
        }
    }

    fn deliver_measure_ok(
        &mut self,
        success: MidpointOutcome,
        result: &MhpResult,
        basis: Basis,
        local_bit: Option<u8>,
        cycle: u64,
        events: &mut Vec<EgpEvent>,
    ) {
        let aid = result.spec.queue_id;
        let seq = result.reply.as_ref().expect("success").mhp_seq;
        let req = self.requests.get_mut(&aid).expect("checked");
        req.pairs_done += 1;
        req.round += 1;
        let ok = OkMeasureMsg {
            create_id: req.id.create_id,
            outcome: local_bit.unwrap_or(0),
            basis: to_wire_basis(basis),
            origin_is_local: req.id.origin == self.cfg.node_id,
            sequence_number: seq,
            purpose_id: req.create.purpose_id,
            remote_node_id: self.cfg.peer_id,
            goodness: qlink_wire::fields::Fidelity16::from_f64(req.goodness),
            // The pair was created in the attempt's detection window,
            // not when the reply was processed (§4.1.2 item 5).
            create_time_ps: result
                .cycle
                .saturating_mul(self.cfg.scenario.mhp_cycle.as_ps()),
        };
        let _ = success;
        self.issued_seqs.entry(aid).or_default().push_back(seq);
        self.trim_issued(aid);
        self.emit_ok(aid, EgpEvent::OkMeasure(ok), events);
        self.complete_if_done(aid, cycle, events);
    }

    fn finish_move_if_ready(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        let Some(pm) = &self.pending_move else {
            return;
        };
        if cycle < pm.ready_cycle {
            return;
        }
        let pm = self.pending_move.take().expect("checked");
        let Some(req) = self.requests.get_mut(&pm.aid) else {
            // Request vanished (timed out) while the move ran.
            self.qmm.release_storage(pm.qubit);
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: pm.herald_cycle,
            }));
            return;
        };
        req.pairs_done += 1;
        req.round += 1;
        let ok = OkKeepMsg {
            create_id: req.id.create_id,
            logical_qubit_id: pm.qubit,
            origin_is_local: req.id.origin == self.cfg.node_id,
            sequence_number: pm.seq,
            purpose_id: req.create.purpose_id,
            remote_node_id: self.cfg.peer_id,
            goodness: qlink_wire::fields::Fidelity16::from_f64(req.goodness),
            goodness_time_ps: req
                .accepted_cycle
                .saturating_mul(self.cfg.scenario.mhp_cycle.as_ps()),
            create_time_ps: pm
                .herald_cycle
                .saturating_mul(self.cfg.scenario.mhp_cycle.as_ps()),
        };
        let aid = pm.aid;
        self.issued_seqs.entry(aid).or_default().push_back(pm.seq);
        self.trim_issued(aid);
        self.emit_ok(aid, EgpEvent::OkKeep(ok), events);
        // The workloads of §6 consume pairs on delivery; the storage
        // qubit frees for the next pair (a CK application holding pairs
        // would instead release through the QMM explicitly).
        self.qmm.release_storage(pm.qubit);
        self.complete_if_done(aid, cycle, events);
    }

    /// Emits an OK now (consecutive) or buffers it until the request
    /// completes (§4.1.1 item 5).
    fn emit_ok(&mut self, aid: AbsQueueId, ok: EgpEvent, events: &mut Vec<EgpEvent>) {
        let consecutive = self
            .requests
            .get(&aid)
            .map(|r| r.create.flags.consecutive)
            .unwrap_or(true);
        if consecutive {
            events.push(ok);
        } else {
            self.buffered_oks.entry(aid).or_default().push(ok);
        }
    }

    fn complete_if_done(&mut self, aid: AbsQueueId, cycle: u64, events: &mut Vec<EgpEvent>) {
        let done = self
            .requests
            .get(&aid)
            .map(|r| r.is_complete() && r.completed_cycle.is_none())
            .unwrap_or(false);
        if !done {
            return;
        }
        if let Some(buffered) = self.buffered_oks.remove(&aid) {
            events.extend(buffered);
        }
        // Completed requests linger (scheduler skips them) so a resync
        // EXPIRE from a diverged peer can still reopen them; they are
        // forgotten in `purge_timed_out` after the linger period.
        if let Some(req) = self.requests.get_mut(&aid) {
            req.state = RequestState::Completed;
            req.completed_cycle = Some(cycle);
        }
    }

    fn purge_timed_out(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        // Runs every MHP cycle; skip the two map walks below outright
        // on the (common) idle cycle.
        if self.requests.is_empty() {
            return;
        }
        // Forget completed requests once their linger period passed.
        let linger = self.cfg.completed_linger_cycles;
        let forgotten: Vec<AbsQueueId> = self
            .requests
            .iter()
            .filter(|(_, r)| {
                r.completed_cycle
                    .map(|c| cycle >= c.saturating_add(linger))
                    .unwrap_or(false)
            })
            .map(|(aid, _)| *aid)
            .collect();
        for aid in forgotten {
            self.requests.remove(&aid);
            self.dq.remove(aid);
            self.issued_seqs.remove(&aid);
            self.nmo_counts.remove(&aid);
        }
        // Time out incomplete requests past their deadline.
        let expired: Vec<AbsQueueId> = self
            .requests
            .iter()
            .filter(|(_, r)| cycle >= r.timeout_cycle && !r.is_complete())
            .map(|(aid, _)| *aid)
            .collect();
        for aid in expired {
            let req = self.requests.remove(&aid).expect("collected");
            self.dq.remove(aid);
            self.buffered_oks.remove(&aid);
            self.issued_seqs.remove(&aid);
            self.nmo_counts.remove(&aid);
            if req.id.origin == self.cfg.node_id {
                events.push(EgpEvent::Error(ErrMsg {
                    code: EgpErrorCode::Timeout,
                    create_id: req.id.create_id,
                    origin_node_id: req.id.origin,
                    range_only: false,
                    seq_low: 0,
                    seq_high: 0,
                }));
            }
        }
    }

    fn retransmit_expires(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        for p in &mut self.pending_expires {
            if p.next_retransmit <= cycle && p.retries_left > 0 {
                p.retries_left -= 1;
                p.next_retransmit = cycle + self.cfg.reply_timeout_cycles;
                events.push(EgpEvent::SendPeer(Frame::Expire(p.msg)));
            }
        }
        self.pending_expires.retain(|p| p.retries_left > 0);
        for p in &mut self.pending_retracts {
            if p.next_retransmit <= cycle && p.retries_left > 0 {
                p.retries_left -= 1;
                p.next_retransmit = cycle + self.cfg.reply_timeout_cycles;
                events.push(EgpEvent::SendPeer(Frame::Retract(p.msg)));
            }
        }
        self.pending_retracts.retain(|p| p.retries_left > 0);
    }

    fn on_expire(&mut self, msg: ExpireMsg, _cycle: u64) -> Vec<EgpEvent> {
        self.expires_received += 1;
        let mut events = Vec::new();
        // Resync form (empty range): the peer's `seq_low` carries its
        // pairs-done count; roll our progress back to match so both
        // sides regenerate the pairs the peer never confirmed.
        if msg.seq_low == msg.seq_high {
            if let Some(req) = self.requests.get_mut(&msg.queue_id) {
                let target = msg.seq_low;
                if req.pairs_done > target {
                    let revoked = req.pairs_done - target;
                    req.pairs_done = target;
                    req.state = RequestState::InService;
                    req.completed_cycle = None;
                    events.push(EgpEvent::Error(ErrMsg {
                        code: EgpErrorCode::Expire,
                        create_id: req.id.create_id,
                        origin_node_id: req.id.origin,
                        range_only: true,
                        seq_low: 0,
                        seq_high: revoked,
                    }));
                    self.issued_seqs.remove(&msg.queue_id);
                }
            }
            events.push(EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
                queue_id: msg.queue_id,
                seq_expected: self.seq_expected,
            })));
            return events;
        }
        // Fast-forward our own expectation if the peer is ahead.
        if seq_after(msg.seq_high, self.seq_expected) {
            self.seq_expected = msg.seq_high;
        }
        // Revoke any OKs we issued in [seq_low, seq_high).
        if let Some(req) = self.requests.get_mut(&msg.queue_id) {
            let issued = self.issued_seqs.entry(msg.queue_id).or_default();
            let in_range = |s: u16| {
                // Half-open wrap-aware range membership.
                seq_in_range(s, msg.seq_low, msg.seq_high)
            };
            let revoked = issued.iter().filter(|s| in_range(**s)).count() as u16;
            issued.retain(|s| !in_range(*s));
            if revoked > 0 {
                req.pairs_done = req.pairs_done.saturating_sub(revoked);
                req.state = RequestState::InService;
                events.push(EgpEvent::Error(ErrMsg {
                    code: EgpErrorCode::Expire,
                    create_id: req.id.create_id,
                    origin_node_id: req.id.origin,
                    range_only: true,
                    seq_low: msg.seq_low,
                    seq_high: msg.seq_high,
                }));
            }
        }
        events.push(EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
            queue_id: msg.queue_id,
            seq_expected: self.seq_expected,
        })));
        events
    }

    /// Rounds a cycle up to the next multiple of the K cadence — the
    /// shared trigger grid both nodes pace K attempts on.
    fn grid_align(&self, cycle: u64) -> u64 {
        cycle.div_ceil(self.keep_cadence_cycles) * self.keep_cadence_cycles
    }

    fn trim_issued(&mut self, aid: AbsQueueId) {
        if let Some(q) = self.issued_seqs.get_mut(&aid) {
            while q.len() > 64 {
                q.pop_front();
            }
        }
    }

    fn process_dq_events(&mut self, dq_events: Vec<DqpEvent>, cycle: u64) -> Vec<EgpEvent> {
        // Per-cycle call, almost always with nothing to process.
        if dq_events.is_empty() {
            return Vec::new();
        }
        let mut events = Vec::new();
        for ev in dq_events {
            match ev {
                DqpEvent::Send(msg) => events.push(EgpEvent::SendPeer(Frame::Dqp(msg))),
                DqpEvent::Committed(entry) => {
                    let aid = entry.aid;
                    // A request retracted while its ADD was in flight:
                    // retract the freshly committed entry instead of
                    // tracking it.
                    if entry.origin.origin == self.cfg.node_id
                        && self.retracted_creates.remove(&entry.origin.create_id)
                    {
                        self.dq.remove(aid);
                        events.push(self.send_retract(aid, entry.origin.create_id, cycle));
                        continue;
                    }
                    // Our own template if we originated it, otherwise
                    // build the request from the synchronized entry.
                    let req = if entry.origin.origin == self.cfg.node_id {
                        // Template moves over when AddSucceeded fires
                        // (master: same flush; slave: on ACK).
                        self.pending_creates
                            .get(&entry.origin.create_id)
                            .cloned()
                            .map(|mut t| {
                                t.queue_id = Some(aid);
                                t.state = RequestState::Queued;
                                t
                            })
                    } else {
                        Some(self.request_from_entry(&entry))
                    };
                    if let Some(req) = req {
                        self.requests.insert(aid, req);
                    }
                }
                DqpEvent::AddSucceeded { create_id, aid } => {
                    if self.retracted_creates.remove(&create_id) {
                        self.drop_request(aid);
                        events.push(self.send_retract(aid, create_id, cycle));
                        continue;
                    }
                    if let Some(mut t) = self.pending_creates.remove(&create_id) {
                        t.queue_id = Some(aid);
                        t.state = RequestState::Queued;
                        self.requests.entry(aid).or_insert(t);
                    }
                }
                DqpEvent::AddRejected { create_id, reason } => {
                    self.pending_creates.remove(&create_id);
                    if self.retracted_creates.remove(&create_id) {
                        continue; // retracted before the queue denied it
                    }
                    let code = match reason {
                        RejectReason::QueueFull => EgpErrorCode::OutOfMem,
                        RejectReason::PurposeDenied => EgpErrorCode::Denied,
                    };
                    events.push(EgpEvent::Error(self.err(create_id, code)));
                }
                DqpEvent::AddTimedOut { create_id } => {
                    self.pending_creates.remove(&create_id);
                    if self.retracted_creates.remove(&create_id) {
                        continue;
                    }
                    events.push(EgpEvent::Error(self.err(create_id, EgpErrorCode::NoTime)));
                }
                DqpEvent::RolledBack { aid } => {
                    self.requests.remove(&aid);
                }
            }
        }
        events
    }

    fn request_from_entry(&mut self, entry: &QueueEntry) -> Request {
        // Peer-originated request: reconstruct service parameters from
        // the synchronized fields. α must match the peer's choice —
        // both FEUs run the same deterministic inversion on the same
        // Fmin, so they agree.
        let rtype = entry.flags.request_type();
        let fmin = entry.min_fidelity.to_f64();
        let (alpha, goodness) = match self.feu.choose_alpha(fmin, rtype) {
            Some(c) => (c.alpha, c.goodness),
            None => (self.feu.alpha_min, fmin),
        };
        Request {
            id: entry.origin,
            create: CreateMsg {
                remote_node_id: entry.origin.origin,
                min_fidelity: entry.min_fidelity,
                max_time_us: 0,
                purpose_id: entry.purpose_id,
                number: entry.num_pairs,
                priority: entry.priority,
                flags: entry.flags,
            },
            queue_id: Some(entry.aid),
            alpha,
            goodness,
            min_cycle: entry.schedule_cycle,
            timeout_cycle: entry.timeout_cycle,
            est_cycles_per_pair: entry.est_cycles_per_pair,
            pairs_done: 0,
            round: 0,
            state: RequestState::Queued,
            accepted_cycle: entry
                .schedule_cycle
                .saturating_sub(self.cfg.min_time_cycles),
            completed_cycle: None,
        }
    }

    fn err(&self, create_id: u16, code: EgpErrorCode) -> ErrMsg {
        ErrMsg {
            code,
            create_id,
            origin_node_id: self.cfg.node_id,
            range_only: false,
            seq_low: 0,
            seq_high: 0,
        }
    }
}

fn to_wire_basis(b: Basis) -> WireBasis {
    match b {
        Basis::X => WireBasis::X,
        Basis::Y => WireBasis::Y,
        Basis::Z => WireBasis::Z,
    }
}

/// Wrap-aware membership test for half-open `[lo, hi)` over `u16`.
fn seq_in_range(s: u16, lo: u16, hi: u16) -> bool {
    if lo == hi {
        return false;
    }
    if lo < hi {
        (lo..hi).contains(&s)
    } else {
        s >= lo || s < hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_des::DetRng;
    use qlink_phys::attempt::AttemptModel;
    use qlink_phys::mhp::{Midpoint, NodeMhp};
    use qlink_phys::params::ScenarioParams;
    use qlink_wire::fields::{Fidelity16, RequestFlags};

    const A: u32 = 1;
    const B: u32 = 2;

    fn lab_pair(scheduler: SchedulerPolicy) -> (Egp, Egp) {
        let scenario = ScenarioParams::lab();
        let a = Egp::new(EgpConfig::for_scenario(
            A,
            B,
            Role::Master,
            scenario.clone(),
            scheduler.clone(),
        ));
        let b = Egp::new(EgpConfig::for_scenario(
            B,
            A,
            Role::Slave,
            scenario,
            scheduler,
        ));
        (a, b)
    }

    fn create_msg(n: u16, keep: bool, priority: u8) -> CreateMsg {
        CreateMsg {
            remote_node_id: B,
            min_fidelity: Fidelity16::from_f64(0.6),
            max_time_us: 0,
            purpose_id: 7,
            number: n,
            priority,
            flags: RequestFlags {
                store: keep,
                measure_directly: !keep,
                consecutive: true,
                ..Default::default()
            },
        }
    }

    /// Minimal in-test harness: perfect channels, zero latency, a hot
    /// synthetic attempt model. Drives both EGPs + MHPs + midpoint one
    /// cycle at a time.
    struct Harness {
        egp_a: Egp,
        egp_b: Egp,
        mhp_a: NodeMhp,
        mhp_b: NodeMhp,
        midpoint: Midpoint,
        model: AttemptModel,
        rng: DetRng,
        oks_a: Vec<EgpEvent>,
        oks_b: Vec<EgpEvent>,
        errors_a: Vec<ErrMsg>,
        /// Drop REPLY frames heading to A for these cycles (loss test).
        drop_reply_a_cycles: Vec<u64>,
    }

    impl Harness {
        fn new(scheduler: SchedulerPolicy) -> Self {
            let (egp_a, egp_b) = lab_pair(scheduler);
            Harness {
                egp_a,
                egp_b,
                mhp_a: NodeMhp::new(A),
                mhp_b: NodeMhp::new(B),
                midpoint: Midpoint::new(A, B),
                model: AttemptModel::synthetic(
                    0.3,
                    0.3,
                    BellState::PsiPlus.state(),
                    BellState::PsiMinus.state(),
                    0.2,
                ),
                rng: DetRng::new(99),
                oks_a: Vec::new(),
                oks_b: Vec::new(),
                errors_a: Vec::new(),
                drop_reply_a_cycles: Vec::new(),
            }
        }

        fn dispatch(&mut self, from_a: Vec<EgpEvent>, from_b: Vec<EgpEvent>, cycle: u64) {
            let mut queue_a = from_a;
            let mut queue_b = from_b;
            // Settle classical exchanges instantly (Lab latency ≪ cycle).
            while !queue_a.is_empty() || !queue_b.is_empty() {
                let mut next_a = Vec::new();
                let mut next_b = Vec::new();
                for ev in queue_a.drain(..) {
                    match ev {
                        EgpEvent::SendPeer(f) => next_b.extend(self.egp_b.on_peer_frame(f, cycle)),
                        EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_) => self.oks_a.push(ev),
                        EgpEvent::Error(e) => self.errors_a.push(e),
                        EgpEvent::Hw(_) => {}
                    }
                }
                for ev in queue_b.drain(..) {
                    match ev {
                        EgpEvent::SendPeer(f) => next_a.extend(self.egp_a.on_peer_frame(f, cycle)),
                        EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_) => self.oks_b.push(ev),
                        EgpEvent::Error(_) | EgpEvent::Hw(_) => {}
                    }
                }
                queue_a = next_a;
                queue_b = next_b;
            }
        }

        fn step(&mut self, cycle: u64) {
            let (spec_a, evs_a) = self.egp_a.poll(cycle);
            let (spec_b, evs_b) = self.egp_b.poll(cycle);
            self.dispatch(evs_a, evs_b, cycle);
            if let Some(spec) = spec_a {
                let act = self.mhp_a.trigger(cycle, spec);
                self.midpoint.on_photon(act.photon);
                self.midpoint.on_gen(A, act.gen);
            }
            if let Some(spec) = spec_b {
                let act = self.mhp_b.trigger(cycle, spec);
                self.midpoint.on_photon(act.photon);
                self.midpoint.on_gen(B, act.gen);
            }
            let eval = self
                .midpoint
                .evaluate_window(cycle, &self.model, &mut self.rng);
            let bits = eval.herald.as_ref().and_then(|h| h.measured_bits);
            for (node, reply) in eval.replies {
                if node == A && self.drop_reply_a_cycles.contains(&reply.timestamp_cycle) {
                    // Reply lost; node-side timeout cleans up later.
                    if let Some(res) = self.mhp_a.on_reply_timeout(reply.timestamp_cycle) {
                        let evs = self.egp_a.on_mhp_result(&res, None, cycle);
                        self.dispatch(evs, vec![], cycle);
                    }
                    continue;
                }
                let (mhp, egp, bit, is_a) = if node == A {
                    (&mut self.mhp_a, &mut self.egp_a, bits.map(|b| b.0), true)
                } else {
                    (&mut self.mhp_b, &mut self.egp_b, bits.map(|b| b.1), false)
                };
                if let Some(res) = mhp.on_reply(reply) {
                    let evs = egp.on_mhp_result(&res, bit, cycle);
                    if is_a {
                        self.dispatch(evs, vec![], cycle);
                    } else {
                        self.dispatch(vec![], evs, cycle);
                    }
                }
            }
        }

        fn run(&mut self, cycles: u64) {
            for c in 0..cycles {
                self.step(c);
            }
        }

        fn count_oks(&self, at_a: bool) -> usize {
            let v = if at_a { &self.oks_a } else { &self.oks_b };
            v.iter()
                .filter(|e| matches!(e, EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_)))
                .count()
        }
    }

    #[test]
    fn measure_request_end_to_end() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = h.egp_a.create(create_msg(3, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        h.run(400);
        assert_eq!(h.count_oks(true), 3, "A should deliver 3 OKs");
        assert_eq!(h.count_oks(false), 3, "B should deliver 3 OKs too");
        // OKs carry midpoint sequence numbers 0,1,2.
        let seqs: Vec<u16> = h
            .oks_a
            .iter()
            .filter_map(|e| match e {
                EgpEvent::OkMeasure(m) => Some(m.sequence_number),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn keep_request_end_to_end() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = h.egp_a.create(create_msg(2, true, 1), 0);
        h.dispatch(evs, vec![], 0);
        h.run(1500);
        let keeps_a = h
            .oks_a
            .iter()
            .filter(|e| matches!(e, EgpEvent::OkKeep(_)))
            .count();
        assert_eq!(keeps_a, 2, "A should deliver 2 K-type OKs");
        assert_eq!(h.count_oks(false), 2);
    }

    #[test]
    fn slave_originated_request_works() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = h.egp_b.create(create_msg(2, false, 2), 0);
        h.dispatch(vec![], evs, 0);
        h.run(300);
        assert_eq!(h.count_oks(false), 2);
        assert_eq!(h.count_oks(true), 2);
    }

    #[test]
    fn unsupported_fidelity_rejected_immediately() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(1, true, 1);
        msg.min_fidelity = Fidelity16::from_f64(0.99);
        let (_, evs) = h.egp_a.create(msg, 0);
        let errs: Vec<&EgpEvent> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    EgpEvent::Error(ErrMsg {
                        code: EgpErrorCode::Unsupported,
                        ..
                    })
                )
            })
            .collect();
        assert_eq!(errs.len(), 1, "0.99 must be UNSUPP: {evs:?}");
    }

    #[test]
    fn too_short_deadline_is_unsupported() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(10, false, 2);
        msg.max_time_us = 100; // 10 pairs in 100 µs is impossible
        let (_, evs) = h.egp_a.create(msg, 0);
        assert!(evs.iter().any(|e| matches!(
            e,
            EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::Unsupported,
                ..
            })
        )));
    }

    #[test]
    fn atomic_beyond_memory_is_memexceeded() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(3, true, 1);
        msg.flags.atomic = true;
        let (_, evs) = h.egp_a.create(msg, 0);
        assert!(evs.iter().any(|e| matches!(
            e,
            EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::MemExceeded,
                ..
            })
        )));
    }

    #[test]
    fn request_timeout_reports_err() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(1, false, 2);
        // Feasible per-FEU estimate but we kill the model's success.
        h.model = AttemptModel::synthetic(
            0.0,
            0.0,
            BellState::PsiPlus.state(),
            BellState::PsiMinus.state(),
            0.2,
        );
        msg.max_time_us = 2_000_000; // 2 s — generous but finite
        let (_, evs) = h.egp_a.create(msg, 0);
        h.dispatch(evs, vec![], 0);
        // Run past the timeout: 2 s / 10.12 µs ≈ 197_628 cycles. Run a
        // bit beyond.
        h.run(198_500);
        assert!(
            h.errors_a.iter().any(|e| e.code == EgpErrorCode::Timeout),
            "expected TIMEOUT, got {:?}",
            h.errors_a
        );
        assert_eq!(h.count_oks(true), 0);
    }

    #[test]
    fn lost_reply_triggers_expire_recovery() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = h.egp_a.create(create_msg(3, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        // Find the first successful cycle by running a probe harness
        // with the same seed: instead, simply drop A's replies for a
        // swath of early cycles, guaranteeing at least one success
        // reply is lost.
        h.drop_reply_a_cycles = (0..40).collect();
        h.run(600);
        // B (who saw the successes) eventually revokes or A expires;
        // the link must still complete all 3 pairs for both sides.
        assert_eq!(h.count_oks(true), 3, "A completes despite losses");
        assert!(
            h.egp_a.expires_sent() + h.egp_b.expires_received() > 0 || h.count_oks(false) >= 3,
            "recovery path exercised"
        );
        // Sequence expectations realign.
        assert_eq!(h.egp_a.seq_expected(), h.egp_b.seq_expected());
    }

    #[test]
    fn priorities_respected_by_wfq() {
        let mut h = Harness::new(SchedulerPolicy::nl_strict_wfq());
        // Queue an MD request first, then an NL one; NL must finish
        // first under strict priority despite arriving later.
        let (_, evs) = h.egp_a.create(create_msg(2, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        let mut nl = create_msg(2, true, 0);
        nl.flags.consecutive = true;
        let (_, evs) = h.egp_a.create(nl, 0);
        h.dispatch(evs, vec![], 0);
        h.run(2500);
        let order: Vec<&str> = h
            .oks_a
            .iter()
            .map(|e| match e {
                EgpEvent::OkKeep(_) => "K",
                EgpEvent::OkMeasure(_) => "M",
                _ => "?",
            })
            .collect();
        assert_eq!(h.count_oks(true), 4, "all four pairs: {order:?}");
        let first_k = order.iter().position(|s| *s == "K").unwrap();
        let first_m = order.iter().position(|s| *s == "M").unwrap();
        assert!(
            first_k < first_m,
            "NL (K, strict priority) must complete first: {order:?}"
        );
    }

    #[test]
    fn test_rounds_feed_qber_estimator() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        // Rebuild A and B with test rounds enabled.
        let scenario = ScenarioParams::lab();
        let mut cfg_a = EgpConfig::for_scenario(
            A,
            B,
            Role::Master,
            scenario.clone(),
            SchedulerPolicy::fcfs(),
        );
        cfg_a.shared_random = SharedRandomness::new(5, 0.3);
        let mut cfg_b =
            EgpConfig::for_scenario(B, A, Role::Slave, scenario, SchedulerPolicy::fcfs());
        cfg_b.shared_random = SharedRandomness::new(5, 0.3);
        h.egp_a = Egp::new(cfg_a);
        h.egp_b = Egp::new(cfg_b);
        let (_, evs) = h.egp_a.create(create_msg(5, true, 1), 0);
        h.dispatch(evs, vec![], 0);
        h.run(4000);
        assert_eq!(h.count_oks(true), 5, "request completes around test rounds");
    }

    #[test]
    fn seq_in_range_wraps() {
        assert!(seq_in_range(5, 3, 8));
        assert!(!seq_in_range(8, 3, 8));
        assert!(!seq_in_range(2, 3, 8));
        // Wrapped range [0xFFFE, 2): contains 0xFFFE, 0xFFFF, 0, 1.
        assert!(seq_in_range(0xFFFE, 0xFFFE, 2));
        assert!(seq_in_range(0, 0xFFFE, 2));
        assert!(seq_in_range(1, 0xFFFE, 2));
        assert!(!seq_in_range(2, 0xFFFE, 2));
        assert!(!seq_in_range(100, 0xFFFE, 2));
        // Empty range.
        assert!(!seq_in_range(0, 5, 5));
    }

    #[test]
    fn memory_advert_flow() {
        let (mut a, mut b) = lab_pair(SchedulerPolicy::fcfs());
        let req = Frame::MemoryAdvert(MemoryAdvertMsg {
            is_ack: false,
            comm_qubits: 1,
            storage_qubits: 0, // peer has no room
        });
        let evs = b.on_peer_frame(req, 0);
        // B answers with its own counts.
        assert!(matches!(
            evs[0],
            EgpEvent::SendPeer(Frame::MemoryAdvert(MemoryAdvertMsg { is_ack: true, .. }))
        ));
        // B now refuses to schedule K work (peer storage = 0).
        let (_, evs2) = b.create(create_msg(1, true, 1), 0);
        let mut all = evs2;
        for ev in all.drain(..) {
            if let EgpEvent::SendPeer(f) = ev {
                let back = a.on_peer_frame(f, 0);
                for bev in back {
                    if let EgpEvent::SendPeer(f) = bev {
                        b.on_peer_frame(f, 0);
                    }
                }
            }
        }
        // Give the queue time; B's poll must yield no attempt.
        let (spec, _) = b.poll(b.cfg.min_time_cycles + 1);
        assert!(spec.is_none(), "flow control must block K attempts");
    }
}
