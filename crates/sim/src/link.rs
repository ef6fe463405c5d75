//! The event-driven simulation of one quantum link.
//!
//! Wires two EGP+MHP nodes, the heralding station, classical channels
//! (with loss/corruption injection) and the quantum pair ledger onto
//! the deterministic event queue. This is the Rust analogue of the
//! paper's NetSquid setup of Appendix D.1.

use crate::config::{LinkConfig, RequestKind};
use crate::metrics::LinkMetrics;
use crate::workload::{GeneratedRequest, WorkloadGenerator};
use qlink_classical::channel::{ChannelModel, Transmission};
use qlink_des::{DetRng, EventQueue, SimDuration, SimTime};
use qlink_egp::dqueue::Role;
use qlink_egp::egp::{Egp, EgpConfig, EgpEvent, HwDirective};
use qlink_egp::shared_random::SharedRandomness;
use qlink_phys::attempt::{AttemptOutcome, ModelCache};
use qlink_phys::mhp::{AttemptKind, MhpResult, Midpoint, NodeMhp, PhotonSubmission};
use qlink_phys::pair::{PairState, Side};
use qlink_quantum::bell::BellState;
use qlink_quantum::Basis;
use qlink_wire::egp::{CreateMsg, EgpErrorCode, WireBasis};
use qlink_wire::fields::{Fidelity16, RequestFlags, RequestType};
use qlink_wire::Frame;
use std::collections::{HashMap, VecDeque};

/// Node IDs on the wire (A is the distributed-queue master).
pub const NODE_A: u32 = 1;
/// Node B's wire ID.
pub const NODE_B: u32 = 2;

#[derive(Debug)]
enum Event {
    /// Start of MHP cycle `c` at both nodes.
    Cycle(u64),
    /// The station closes detection window `c`.
    WindowClose(u64),
    /// A node-to-node classical frame arrives.
    PeerFrame { to: usize, bytes: Vec<u8> },
    /// A GEN frame arrives at the station.
    GenArrive { from: u32, bytes: Vec<u8> },
    /// A photon arrives at the station.
    PhotonArrive(PhotonSubmission),
    /// A station REPLY arrives at a node.
    ReplyArrive { to: usize, bytes: Vec<u8> },
    /// Node-side deadline for the reply to attempt `cycle`.
    ReplyTimeout { node: usize, cycle: u64 },
}

#[derive(Debug)]
struct LedgerEntry {
    pair: Option<PairState>,
    outcome: AttemptOutcome,
    bits: Option<(u8, u8)>,
    heralded_fidelity: f64,
    released: [bool; 2],
}

#[derive(Debug, Clone, Copy)]
struct RequestTracking {
    kind: RequestKind,
    submitted: SimTime,
    pairs: u16,
    pairs_seen: u16,
}

/// One pair delivered by the link layer, surfaced to an embedding
/// (network) layer via [`LinkSimulation::drain_deliveries`] once
/// recording is enabled with [`LinkSimulation::capture_deliveries`].
///
/// The link records the same information into its own
/// [`LinkMetrics`]; this record exists so a higher layer driving many
/// links on a shared clock can react to individual deliveries at the
/// simulated instant they happen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Request kind the pair was produced for.
    pub kind: RequestKind,
    /// Originating node (0 = A, 1 = B).
    pub origin: usize,
    /// The CREATE id returned by [`LinkSimulation::submit`].
    pub create_id: u16,
    /// Delivered fidelity (K-type: storage-decayed; M-type: heralded).
    pub fidelity: f64,
    /// Simulated delivery instant.
    pub at: SimTime,
    /// `true` when this pair completed its request.
    pub request_complete: bool,
}

/// One CREATE the link layer terminally rejected (UNSUPP, deadline
/// too tight, queue denial, memory exhaustion…): no pair will ever be
/// delivered for it. Surfaced to an embedding (network) layer via
/// [`LinkSimulation::drain_rejections`] once recording is enabled
/// with [`LinkSimulation::capture_rejections`] — the observation a
/// re-routing network layer needs to try another path instead of
/// waiting out a timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Node whose EGP rejected the CREATE (0 = A, 1 = B) — the same
    /// side the CREATE was submitted on.
    pub origin: usize,
    /// The CREATE id returned by [`LinkSimulation::submit`].
    pub create_id: u16,
    /// The protocol error that killed the request.
    pub code: EgpErrorCode,
    /// Simulated rejection instant.
    pub at: SimTime,
}

impl Rejection {
    /// `true` when the link refused the request as unserveable
    /// (UNSUPP: the FEU cannot reach the requested fidelity at all) —
    /// the class the telemetry layer counts per edge, as opposed to
    /// transient queue/deadline denials.
    pub fn is_unsupported(&self) -> bool {
        self.code == EgpErrorCode::Unsupported
    }
}

/// Events a link has fired, by kind (see
/// [`LinkSimulation::events_by_kind`]). The kinds partition
/// [`LinkSimulation::events_fired`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventKindCounts {
    /// MHP cycle ticks.
    pub cycle: u64,
    /// Detection windows closed at the station.
    pub window_close: u64,
    /// GEN frames arrived at the station.
    pub gen_arrive: u64,
    /// Photons arrived at the station.
    pub photon_arrive: u64,
    /// Station REPLYs arrived at a node.
    pub reply_arrive: u64,
    /// Node-side reply deadlines.
    pub reply_timeout: u64,
    /// Node-to-node classical frames arrived.
    pub peer_frame: u64,
}

impl EventKindCounts {
    /// The counts as `(kind, count)` pairs, in declaration order.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("cycle", self.cycle),
            ("window_close", self.window_close),
            ("gen_arrive", self.gen_arrive),
            ("photon_arrive", self.photon_arrive),
            ("reply_arrive", self.reply_arrive),
            ("reply_timeout", self.reply_timeout),
            ("peer_frame", self.peer_frame),
        ]
    }

    /// Events of every kind together.
    pub fn total(&self) -> u64 {
        self.named().iter().map(|(_, n)| n).sum()
    }
}

impl std::ops::AddAssign for EventKindCounts {
    fn add_assign(&mut self, o: EventKindCounts) {
        self.cycle += o.cycle;
        self.window_close += o.window_close;
        self.gen_arrive += o.gen_arrive;
        self.photon_arrive += o.photon_arrive;
        self.reply_arrive += o.reply_arrive;
        self.reply_timeout += o.reply_timeout;
        self.peer_frame += o.peer_frame;
    }
}

/// A fully wired two-node link simulation.
pub struct LinkSimulation {
    cfg: LinkConfig,
    queue: EventQueue<Event>,
    egps: [Egp; 2],
    mhps: [NodeMhp; 2],
    midpoint: Midpoint,
    cache: ModelCache,
    window_alpha: HashMap<u64, f64>,
    window_active: bool,
    ledger: HashMap<u64, LedgerEntry>,
    chan_ab: [ChannelModel; 2],
    chan_gen: [ChannelModel; 2],
    chan_reply: [ChannelModel; 2],
    rng_phys: DetRng,
    rng_chan: DetRng,
    workload: WorkloadGenerator,
    tracking: HashMap<(usize, u16), RequestTracking>,
    deliveries: Option<Vec<Delivery>>,
    rejections: Option<Vec<Rejection>>,
    /// The embedding layer's observation cursor: how far the link has
    /// been *observed* ([`LinkSimulation::advance_to`]), as opposed to
    /// how far its internal events have been *computed*
    /// ([`LinkSimulation::run_ahead`] may push computation past the
    /// cursor). Always equal to the internal clock outside run-ahead.
    visible: SimTime,
    /// Firing times of events computed ahead of `visible`, in firing
    /// order — replayed by [`LinkSimulation::next_event_time`] /
    /// [`LinkSimulation::advance_to`] so an embedding layer observes
    /// the same wake cadence whether or not the link ran ahead.
    replay: VecDeque<SimTime>,
    /// Metrics collected so far.
    pub metrics: LinkMetrics,
    /// `Some(c)` while the link is *parked*: its MHP clock stopped at
    /// cycle `c` because nothing could happen at a poll (see
    /// [`LinkSimulation::is_idle`]), no `Cycle` event is pending, and
    /// the periodic housekeeping has run through cycle `c`.
    parked: Option<u64>,
    event_counts: EventKindCounts,
    /// Test oracle: keep ticking through idle cycles, as the link did
    /// before it could park.
    #[cfg(test)]
    never_park: bool,
}

impl LinkSimulation {
    /// Builds the link from a configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        let root = DetRng::new(cfg.seed);
        let scenario = cfg.scenario.clone();

        let shared = SharedRandomness::new(cfg.seed ^ 0x7e57_0000, cfg.test_round_probability);
        let mk_egp = |node, peer, role| {
            let mut e =
                EgpConfig::for_scenario(node, peer, role, scenario.clone(), cfg.scheduler.policy());
            e.storage_qubits = cfg.storage_qubits;
            e.shared_random = shared;
            for (q, w) in cfg.scheduler.wfq_weights() {
                e.dq.wfq_weights.insert(q, w);
            }
            Egp::new(e)
        };
        let egp_a = mk_egp(NODE_A, NODE_B, Role::Master);
        let egp_b = mk_egp(NODE_B, NODE_A, Role::Slave);

        // Workload arrival scaling: psucc/E at the FEU's α per kind.
        let mut feu = qlink_egp::feu::FidelityEstimator::new(scenario.clone());
        let mut scale = [0.0f64; 3];
        for (i, kind) in RequestKind::ALL.iter().enumerate() {
            let load = cfg.workload.kind_load(*kind);
            if load.fraction <= 0.0 {
                continue;
            }
            let rtype = if kind.is_keep() {
                RequestType::Keep
            } else {
                RequestType::Measure
            };
            if let Some(choice) = feu.choose_alpha(load.fmin, rtype) {
                let e = match rtype {
                    RequestType::Keep => scenario.expected_cycles_per_attempt_keep(),
                    RequestType::Measure => scenario.expected_cycles_per_attempt_measure(),
                };
                scale[i] = feu.success_probability(choice.alpha) / e;
            }
        }
        let workload = WorkloadGenerator::new(cfg.workload, scale, root.substream("workload"));

        let node_to_node_km = scenario.arm_a_km + scenario.arm_b_km;
        let mk_chan = |km: f64| {
            ChannelModel::fiber(km, cfg.classical_loss).with_corruption(cfg.classical_corruption)
        };
        let mut sim = LinkSimulation {
            queue: EventQueue::new(),
            egps: [egp_a, egp_b],
            mhps: [NodeMhp::new(NODE_A), NodeMhp::new(NODE_B)],
            midpoint: Midpoint::new(NODE_A, NODE_B),
            cache: ModelCache::new(),
            window_alpha: HashMap::new(),
            window_active: false,
            ledger: HashMap::new(),
            chan_ab: [mk_chan(node_to_node_km), mk_chan(node_to_node_km)],
            chan_gen: [mk_chan(scenario.arm_a_km), mk_chan(scenario.arm_b_km)],
            chan_reply: [mk_chan(scenario.arm_a_km), mk_chan(scenario.arm_b_km)],
            rng_phys: root.substream("physics"),
            rng_chan: root.substream("channels"),
            workload,
            tracking: HashMap::new(),
            deliveries: None,
            rejections: None,
            visible: SimTime::ZERO,
            replay: VecDeque::new(),
            metrics: LinkMetrics::new(),
            parked: None,
            event_counts: EventKindCounts::default(),
            #[cfg(test)]
            never_park: false,
            cfg,
        };
        sim.queue.schedule_at(SimTime::ZERO, Event::Cycle(0));
        sim
    }

    /// Builds the link as [`LinkSimulation::new`] but with its first
    /// MHP cycle aligned to the first cycle boundary at or after
    /// `at` — how an embedding layer brings a repaired link into
    /// service mid-run. The link's internal clock still starts at
    /// zero (the simulation never computes anything before `at`; the
    /// embedder's next `advance_to` parks it at the shared time), no
    /// history is replayed, and no random draw happens for the
    /// skipped cycles, so the rebuild costs O(1) regardless of when
    /// the repair lands.
    pub fn new_starting_at(cfg: LinkConfig, at: SimTime) -> Self {
        let mut sim = Self::new(cfg);
        let c0 = at.as_ps().div_ceil(sim.cfg.scenario.mhp_cycle.as_ps());
        sim.queue.clear();
        sim.queue.schedule_at(sim.cycle_start(c0), Event::Cycle(c0));
        sim
    }

    /// The simulation's current time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed (run statistics).
    pub fn events_fired(&self) -> u64 {
        self.queue.events_fired()
    }

    /// Events processed so far, by kind. Counting draws no randomness
    /// and schedules nothing.
    pub fn events_by_kind(&self) -> EventKindCounts {
        self.event_counts
    }

    /// Restarts the event-count statistics (see
    /// [`EventQueue::reset_stats`]) and the per-kind counts; the
    /// simulation state and clock are untouched.
    pub fn reset_event_stats(&mut self) {
        self.queue.reset_stats();
        self.event_counts = EventKindCounts::default();
    }

    /// Borrow a node's EGP (0 = A, 1 = B) for inspection.
    pub fn egp(&self, node: usize) -> &Egp {
        &self.egps[node]
    }

    /// Submits a CREATE directly (besides the random workload); returns
    /// the create ID.
    pub fn submit(&mut self, origin: usize, req: GeneratedRequest) -> u16 {
        let now = self.queue.now();
        let cycle = self.current_cycle();
        // Re-arm even if the CREATE is refused on the spot: the tick is
        // the next event an embedding layer wakes for, and the wake is
        // when it drains the rejection.
        self.unpark(cycle + 1);
        let msg = Self::create_msg(&req, if origin == 0 { NODE_B } else { NODE_A });
        let (create_id, events) = self.egps[origin].create(msg, cycle);
        self.tracking.insert(
            (origin, create_id),
            RequestTracking {
                kind: req.kind,
                submitted: now,
                pairs: req.pairs,
                pairs_seen: 0,
            },
        );
        self.route(origin, events);
        create_id
    }

    /// Retracts a CREATE previously submitted on `origin` whose pairs
    /// the higher layer no longer wants: the EGP abandons the queued
    /// request locally, tells its peer to do the same (a RETRACT frame
    /// over the node-to-node channel, retransmitted until
    /// acknowledged), and stops spending attempt cycles on it. The
    /// observation a re-routing network layer needs so a failed
    /// attempt's backlog really leaves the link — without this, the
    /// orphaned CREATE keeps consuming cycles until it is served (and
    /// its pairs discarded on delivery).
    ///
    /// No-op for a CREATE already completed, rejected, or unknown.
    /// As for an embedding layer's [`LinkSimulation::submit`], the
    /// caller must have advanced the link to the retraction instant
    /// first (an embedding asserts this on its side: a link must
    /// never run ahead of an instant something will still be
    /// submitted at).
    pub fn expire_request(&mut self, origin: usize, create_id: u16) {
        let cycle = self.current_cycle();
        self.unpark(cycle + 1);
        self.tracking.remove(&(origin, create_id));
        let events = self.egps[origin].expire_request(create_id, cycle);
        self.route(origin, events);
    }

    /// Runs the simulation for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let horizon = self.queue.now() + duration;
        self.advance_to(horizon);
        self.metrics.elapsed += duration;
    }

    // ---- steppable embedding API ------------------------------------
    //
    // A network layer driving N links on one shared clock needs finer
    // control than `run_for`: it must know when each link's next event
    // fires, advance a link exactly to a global instant, and observe
    // the pairs delivered along the way. These three methods are that
    // contract; `run_for` is now a thin wrapper over `advance_to`.
    //
    // The contract distinguishes *computing* events from *observing*
    // them. `run_ahead` lets a parallel embedding (see `qlink-net`'s
    // `par` module) burn through a link's internal events up to a safe
    // horizon on a worker thread, while the coordinator keeps
    // observing — `next_event_time`, `advance_to`, the drains — at the
    // exact same instants it would have without the run-ahead: fired
    // times are replayed, and drains only surface records at or before
    // the observation cursor. A link that never runs ahead behaves
    // bit-identically to the pre-run-ahead implementation.

    /// Firing time of this link's next *observable* event: the next
    /// recorded firing when the link has run ahead of its observation
    /// cursor, the next pending internal event otherwise. `None` when
    /// the link is parked (its MHP clock stopped for lack of work) with
    /// nothing in flight: only a [`LinkSimulation::submit`] or
    /// [`LinkSimulation::expire_request`] wakes it again.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.replay
            .front()
            .copied()
            .or_else(|| self.queue.peek_time())
    }

    /// Moves the observation cursor to exactly `t`: replays recorded
    /// firings at or before `t`, then (if the link has not already
    /// computed past `t`) processes every pending event up to and
    /// including `t` and parks the link's clock at `t`.
    ///
    /// Does *not* advance [`LinkMetrics::elapsed`] — an embedding layer
    /// accounts elapsed time once, globally.
    ///
    /// # Panics
    /// Panics if `t` precedes the observation cursor (the DES never
    /// rewinds).
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.visible, "advance_to into the past");
        self.visible = t;
        while self.replay.front().is_some_and(|&rt| rt <= t) {
            self.replay.pop_front();
        }
        // No-op when run-ahead already computed past `t`: the internal
        // clock is at the last computed event and every event ≤ `t` has
        // fired (`pop_until` never rewinds the clock).
        while let Some((et, ev)) = self.queue.pop_until(t) {
            self.handle(et, ev);
        }
        // Observers read the housekeeping (queue-length samples) of
        // every cycle up to `t`, ticked or not.
        self.replay_housekeeping(t.as_ps() / self.cfg.scenario.mhp_cycle.as_ps());
    }

    /// Processes internal events up to and including `h` *ahead of*
    /// the observation cursor, recording each event's firing time for
    /// later replay. Safe exactly when nothing will be submitted to
    /// (or observed from) this link before the cursor reaches `h` —
    /// the conservative-lookahead guarantee a parallel embedding must
    /// establish before calling this from a worker thread.
    pub fn run_ahead(&mut self, h: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= h) {
            let (et, ev) = self.queue.pop().expect("event peeked above");
            self.replay.push_back(et);
            self.handle(et, ev);
        }
    }

    /// Starts recording per-pair [`Delivery`] records for
    /// [`LinkSimulation::drain_deliveries`]. Off by default so
    /// standalone links (benches, examples, long workload runs) don't
    /// accumulate an unbounded buffer nobody reads; an embedding layer
    /// switches it on and drains at every wake.
    pub fn capture_deliveries(&mut self) {
        if self.deliveries.is_none() {
            self.deliveries = Some(Vec::new());
        }
    }

    /// Takes every pair delivered up to the observation cursor since
    /// the last drain, in delivery order (empty unless
    /// [`LinkSimulation::capture_deliveries`] was called). Pairs a
    /// run-ahead computed *past* the cursor stay buffered until
    /// [`LinkSimulation::advance_to`] reaches their delivery instant.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        Self::take_through_cursor(&mut self.deliveries, self.visible, |d| d.at)
    }

    /// Splits a capture buffer at the observation cursor: entries at
    /// or before it are returned, later ones stay buffered. Buffer
    /// times are non-decreasing (push order is event order).
    fn take_through_cursor<T>(
        buf: &mut Option<Vec<T>>,
        cursor: SimTime,
        at: impl Fn(&T) -> SimTime,
    ) -> Vec<T> {
        let Some(buf) = buf.as_mut() else {
            return Vec::new();
        };
        let cut = buf.partition_point(|x| at(x) <= cursor);
        if cut == buf.len() {
            std::mem::take(buf)
        } else {
            let tail = buf.split_off(cut);
            std::mem::replace(buf, tail)
        }
    }

    /// Starts recording per-CREATE [`Rejection`] records for
    /// [`LinkSimulation::drain_rejections`]. Off by default for the
    /// same reason as [`LinkSimulation::capture_deliveries`]: nobody
    /// reads the buffer on a standalone link.
    pub fn capture_rejections(&mut self) {
        if self.rejections.is_none() {
            self.rejections = Some(Vec::new());
        }
    }

    /// Takes every terminal rejection up to the observation cursor
    /// since the last drain, in event order (empty unless
    /// [`LinkSimulation::capture_rejections`] was called). Rejections
    /// a run-ahead computed past the cursor stay buffered, as for
    /// [`LinkSimulation::drain_deliveries`].
    pub fn drain_rejections(&mut self) -> Vec<Rejection> {
        Self::take_through_cursor(&mut self.rejections, self.visible, |r| r.at)
    }

    fn current_cycle(&self) -> u64 {
        self.queue.now().as_ps() / self.cfg.scenario.mhp_cycle.as_ps()
    }

    fn cycle_start(&self, c: u64) -> SimTime {
        SimTime::from_ps(c * self.cfg.scenario.mhp_cycle.as_ps())
    }

    fn side_of(node: usize) -> Side {
        if node == 0 {
            Side::A
        } else {
            Side::B
        }
    }

    fn create_msg(req: &GeneratedRequest, remote: u32) -> CreateMsg {
        CreateMsg {
            remote_node_id: remote,
            min_fidelity: Fidelity16::from_f64(req.fmin),
            max_time_us: req.tmax_us,
            purpose_id: 10 + req.kind.priority() as u16,
            number: req.pairs,
            priority: req.kind.priority(),
            flags: RequestFlags {
                store: req.kind.is_keep(),
                measure_directly: !req.kind.is_keep(),
                consecutive: true,
                atomic: false,
                master_request: false,
            },
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        // When the event was queued: picks the tick a parked link
        // resumes at if this event leaves work behind.
        let mut queued = now;
        match ev {
            Event::Cycle(c) => {
                self.event_counts.cycle += 1;
                return self.on_cycle(now, c);
            }
            Event::WindowClose(c) => {
                self.event_counts.window_close += 1;
                self.on_window_close(now, c);
            }
            Event::PeerFrame { to, bytes } => {
                self.event_counts.peer_frame += 1;
                queued = now - self.chan_ab[1 - to].delay;
                match Frame::decode(&bytes) {
                    Ok(frame) => {
                        let cycle = self.current_cycle();
                        let evs = self.egps[to].on_peer_frame(frame, cycle);
                        self.route(to, evs);
                    }
                    Err(_) => self.metrics.decode_drops += 1,
                }
            }
            Event::GenArrive { from, bytes } => {
                self.event_counts.gen_arrive += 1;
                match Frame::decode(&bytes) {
                    Ok(Frame::Gen(msg)) => self.midpoint.on_gen(from, msg),
                    _ => self.metrics.decode_drops += 1,
                }
            }
            Event::PhotonArrive(p) => {
                self.event_counts.photon_arrive += 1;
                self.midpoint.on_photon(p);
            }
            Event::ReplyArrive { to, bytes } => {
                self.event_counts.reply_arrive += 1;
                match Frame::decode(&bytes) {
                    Ok(Frame::Reply(msg)) => {
                        if let Some(result) = self.mhps[to].on_reply(msg) {
                            self.process_result(to, result);
                        }
                    }
                    _ => self.metrics.decode_drops += 1,
                }
            }
            Event::ReplyTimeout { node, cycle } => {
                self.event_counts.reply_timeout += 1;
                if let Some(result) = self.mhps[node].on_reply_timeout(cycle) {
                    self.process_result(node, result);
                }
            }
        }
        if self.parked.is_some() && !self.is_idle() {
            self.unpark(self.resume_cycle(now, queued));
        }
    }

    /// `true` when an MHP poll can do nothing, now or at any later
    /// cycle, until something arrives from outside: the in-link
    /// workload never issues a request and both EGPs are quiescent
    /// ([`Egp::is_quiescent`]). Such a poll draws no randomness, so a
    /// cycle that finds the link idle parks the clock instead of
    /// ticking through cycles nobody reads.
    fn is_idle(&self) -> bool {
        #[cfg(test)]
        if self.never_park {
            return false;
        }
        self.workload.is_silent() && self.egps.iter().all(Egp::is_quiescent)
    }

    /// The cycle a parked link resumes at when work arrives at `now`
    /// through an event queued at `queued` (`now` itself for a
    /// submit): the first cycle whose tick, had the clock kept
    /// running, would still be pending. A running clock queues tick
    /// `c` while handling tick `c-1`, so an event landing exactly on
    /// the boundary of cycle `c` that was queued before that moment
    /// fires *before* tick `c`, and tick `c` must still run.
    fn resume_cycle(&self, now: SimTime, queued: SimTime) -> u64 {
        let period = self.cfg.scenario.mhp_cycle.as_ps();
        let c = now.as_ps() / period;
        if c > 0 && now.as_ps().is_multiple_of(period) && queued.as_ps() < (c - 1) * period {
            c
        } else {
            c + 1
        }
    }

    /// Restarts a parked clock at cycle `resume`, after running the
    /// housekeeping of the cycles it skipped. No-op on a ticking link.
    fn unpark(&mut self, resume: u64) {
        if self.parked.is_none() {
            return;
        }
        self.replay_housekeeping(resume - 1);
        self.parked = None;
        self.queue
            .schedule_at(self.cycle_start(resume), Event::Cycle(resume));
    }

    /// Runs the periodic housekeeping a parked link skipped, for every
    /// cycle through `through`. While parked the master's queue is
    /// empty, so each skipped queue-length sample is 0; pruning only
    /// drops entries older than its horizon, so the last skipped prune
    /// subsumes the earlier ones (and commutes with whatever a parked
    /// link's in-flight events did to the ledger: those touch recent
    /// cycles only). No-op on a ticking link.
    fn replay_housekeeping(&mut self, through: u64) {
        let Some(done) = self.parked else { return };
        if through <= done {
            return;
        }
        for _ in done / 256..through / 256 {
            self.metrics.queue_length.push(0.0);
        }
        let last_prune = through / 16_384 * 16_384;
        if last_prune > done {
            self.prune(last_prune);
        }
        self.parked = Some(through);
    }

    /// The housekeeping every cycle `c` runs after its poll.
    fn housekeeping(&mut self, c: u64) {
        if c.is_multiple_of(256) {
            self.metrics
                .queue_length
                .push(self.egps[0].queue_len() as f64);
        }
        if c.is_multiple_of(16_384) && c > 0 {
            self.prune(c);
        }
    }

    /// Forgets ledger entries and window α's older than 200,000 cycles
    /// before `c`.
    fn prune(&mut self, c: u64) {
        let horizon = c.saturating_sub(200_000);
        self.ledger.retain(|k, _| *k >= horizon);
        self.window_alpha.retain(|k, _| *k >= horizon);
    }

    fn on_cycle(&mut self, now: SimTime, c: u64) {
        if self.is_idle() {
            self.housekeeping(c);
            self.parked = Some(c);
            return;
        }
        // Keep the clock ticking.
        self.queue
            .schedule_at(self.cycle_start(c + 1), Event::Cycle(c + 1));

        // Workload arrivals.
        let arrivals = self.workload.sample_cycle();
        for req in arrivals {
            self.submit(req.origin, req);
        }

        // Poll both EGPs; trigger attempts.
        self.window_active = false;
        for i in 0..2 {
            let (spec, evs) = self.egps[i].poll(c);
            self.route(i, evs);
            let Some(spec) = spec else { continue };
            let actions = self.mhps[i].trigger(c, spec);
            self.window_alpha.entry(c).or_insert(spec.alpha);
            self.window_active = true;

            let prep = self.cfg.scenario.emission_prep;
            let photon_at = now + prep + self.arm_delay(i);
            self.queue
                .schedule_at(photon_at, Event::PhotonArrive(actions.photon));

            let bytes = Frame::Gen(actions.gen).encode();
            if let Transmission::Delivered { delay, bytes } =
                self.chan_gen[i].transmit(bytes, &mut self.rng_chan)
            {
                let from = if i == 0 { NODE_A } else { NODE_B };
                self.queue
                    .schedule_at(now + prep + delay, Event::GenArrive { from, bytes });
            }
            let timeout = self.cfg.scenario.mhp_cycle * (self.reply_timeout_cycles() + 2);
            self.queue
                .schedule_at(now + timeout, Event::ReplyTimeout { node: i, cycle: c });
        }

        if self.window_active {
            let close_at = now
                + self.cfg.scenario.emission_prep
                + self.max_arm_delay()
                + SimDuration::from_nanos(100);
            self.queue.schedule_at(close_at, Event::WindowClose(c));
        }

        self.housekeeping(c);
    }

    fn on_window_close(&mut self, now: SimTime, c: u64) {
        let alpha = self.window_alpha.remove(&c).unwrap_or(0.1);
        let model = self.cache.get(&self.cfg.scenario, alpha);
        let eval = self.midpoint.evaluate_window(c, &model, &mut self.rng_phys);

        if let Some(h) = &eval.herald {
            let emission = self.cycle_start(c) + self.cfg.scenario.emission_prep;
            let entry = LedgerEntry {
                pair: h
                    .measured_bits
                    .is_none()
                    .then(|| PairState::new(h.state.clone(), emission)),
                outcome: h.outcome,
                bits: h.measured_bits,
                heralded_fidelity: model.heralded_fidelity(h.outcome),
                released: [false, false],
            };
            self.ledger.insert(c, entry);
        }
        for (node, reply) in eval.replies {
            let idx = if node == NODE_A { 0 } else { 1 };
            let bytes = Frame::Reply(reply).encode();
            if let Transmission::Delivered { delay, bytes } =
                self.chan_reply[idx].transmit(bytes, &mut self.rng_chan)
            {
                self.queue
                    .schedule_at(now + delay, Event::ReplyArrive { to: idx, bytes });
            }
        }
    }

    fn process_result(&mut self, node: usize, result: MhpResult) {
        let cycle = self.current_cycle();
        // Bits for M-type attempts live in the ledger.
        let local_bit = match (&result.spec.kind, result.outcome()) {
            (AttemptKind::Measure { .. }, outcome) if outcome_is_success(outcome) => self
                .ledger
                .get(&result.cycle)
                .and_then(|e| e.bits)
                .map(|(a, b)| if node == 0 { a } else { b }),
            _ => None,
        };
        // Feed test rounds into the FEU's estimator.
        if result.spec.test_round && outcome_is_success(result.outcome()) {
            if let (AttemptKind::Measure { basis }, Some(entry)) =
                (&result.spec.kind, self.ledger.get(&result.cycle))
            {
                if let Some((a, b)) = entry.bits {
                    let bell = entry.outcome.bell_state();
                    self.egps[node].record_test_round(bell, *basis, a, b);
                }
            }
        }
        let evs = self.egps[node].on_mhp_result(&result, local_bit, cycle);
        self.route(node, evs);
    }

    /// Routes EGP outputs: frames into channels, OKs/errors into
    /// metrics, hardware directives into the pair ledger.
    fn route(&mut self, from: usize, events: Vec<EgpEvent>) {
        let mut work: Vec<(usize, EgpEvent)> = events.into_iter().map(|e| (from, e)).collect();
        while !work.is_empty() {
            let mut next = Vec::new();
            for (i, ev) in work {
                match ev {
                    EgpEvent::SendPeer(frame) => {
                        let now = self.queue.now();
                        let bytes = frame.encode();
                        if let Transmission::Delivered { delay, bytes } =
                            self.chan_ab[i].transmit(bytes, &mut self.rng_chan)
                        {
                            self.queue
                                .schedule_at(now + delay, Event::PeerFrame { to: 1 - i, bytes });
                        }
                    }
                    EgpEvent::OkKeep(ok) => {
                        let herald_cycle = ok.create_time_ps / self.cfg.scenario.mhp_cycle.as_ps();
                        if ok.origin_is_local {
                            let fidelity = self.keep_pair_fidelity(herald_cycle);
                            self.record_ok(i, ok.create_id, fidelity);
                        }
                        self.release_ledger(herald_cycle, i);
                    }
                    EgpEvent::OkMeasure(ok) => {
                        let herald_cycle = ok.create_time_ps / self.cfg.scenario.mhp_cycle.as_ps();
                        if ok.origin_is_local {
                            let fidelity = self
                                .ledger
                                .get(&herald_cycle)
                                .map(|e| e.heralded_fidelity)
                                .unwrap_or(0.0);
                            self.tally_qber(herald_cycle, ok.basis);
                            self.record_ok(i, ok.create_id, fidelity);
                        }
                        self.release_ledger(herald_cycle, i);
                    }
                    EgpEvent::Error(err) => {
                        self.metrics.record_error(error_label(err.code));
                        if err.code == EgpErrorCode::Expire && err.range_only {
                            // Partial expiry: the affected pairs no
                            // longer count as delivered.
                            let span = err.seq_high.wrapping_sub(err.seq_low).min(16);
                            if let Some(t) = self.tracking.get_mut(&(i, err.create_id)) {
                                t.pairs_seen = t.pairs_seen.saturating_sub(span);
                            }
                        } else if matches!(
                            err.code,
                            EgpErrorCode::Timeout
                                | EgpErrorCode::Unsupported
                                | EgpErrorCode::Denied
                                | EgpErrorCode::NoTime
                                | EgpErrorCode::MemExceeded
                                | EgpErrorCode::OutOfMem
                        ) {
                            self.tracking.remove(&(i, err.create_id));
                            if let Some(rejections) = &mut self.rejections {
                                rejections.push(Rejection {
                                    origin: i,
                                    create_id: err.create_id,
                                    code: err.code,
                                    at: self.queue.now(),
                                });
                            }
                        }
                    }
                    EgpEvent::Hw(directive) => self.apply_hw(i, directive),
                }
            }
            work = std::mem::take(&mut next);
        }
    }

    fn apply_hw(&mut self, node: usize, directive: HwDirective) {
        let now = self.queue.now();
        let nv = self.cfg.scenario.nv.clone();
        match directive {
            HwDirective::CorrectPsiMinus { cycle } => {
                if let Some(pair) = self.ledger.get_mut(&cycle).and_then(|e| e.pair.as_mut()) {
                    pair.apply_psi_minus_correction(Self::side_of(node));
                }
            }
            HwDirective::MoveToMemory { cycle, .. } => {
                let move_d = SimDuration::from_secs_f64(nv.move_duration_s);
                if let Some(pair) = self.ledger.get_mut(&cycle).and_then(|e| e.pair.as_mut()) {
                    // Catch up electron decoherence (the wait for the
                    // midpoint reply), then apply the move.
                    if now > pair.last_update() {
                        pair.advance_to(now, &nv);
                    }
                    pair.move_to_carbon(Self::side_of(node), &nv);
                    pair.skip_decoupled(now + move_d);
                }
            }
            HwDirective::Discard { cycle } => {
                self.release_ledger(cycle, node);
            }
        }
    }

    fn keep_pair_fidelity(&mut self, herald_cycle: u64) -> f64 {
        let now = self.queue.now();
        let nv = self.cfg.scenario.nv.clone();
        match self
            .ledger
            .get_mut(&herald_cycle)
            .and_then(|e| e.pair.as_mut())
        {
            Some(pair) => {
                if now > pair.last_update() {
                    pair.advance_to(now, &nv);
                }
                pair.fidelity(BellState::PsiPlus)
            }
            None => 0.0,
        }
    }

    fn tally_qber(&mut self, herald_cycle: u64, basis: WireBasis) {
        let Some(entry) = self.ledger.get(&herald_cycle) else {
            return;
        };
        let Some((a, b)) = entry.bits else { return };
        let bell = entry.outcome.bell_state();
        let basis = from_wire_basis(basis);
        let expect_equal = bell.correlation_sign(basis) > 0.0;
        let error = (a == b) != expect_equal;
        self.metrics.qber.record(basis, error);
    }

    fn record_ok(&mut self, origin: usize, create_id: u16, fidelity: f64) {
        let now = self.queue.now();
        let Some(t) = self.tracking.get_mut(&(origin, create_id)) else {
            return;
        };
        t.pairs_seen += 1;
        let kind = t.kind;
        let latency = now.saturating_since(t.submitted);
        let complete = t.pairs_seen >= t.pairs;
        let pairs = t.pairs;
        self.metrics
            .record_pair(kind, origin, fidelity, latency, now);
        if let Some(deliveries) = &mut self.deliveries {
            deliveries.push(Delivery {
                kind,
                origin,
                create_id,
                fidelity,
                at: now,
                request_complete: complete,
            });
        }
        if complete {
            self.metrics
                .record_request_complete(kind, origin, pairs, latency, now);
            self.tracking.remove(&(origin, create_id));
        }
    }

    fn release_ledger(&mut self, cycle: u64, node: usize) {
        if let Some(entry) = self.ledger.get_mut(&cycle) {
            entry.released[node] = true;
            if entry.released[0] && entry.released[1] {
                self.ledger.remove(&cycle);
            }
        }
    }

    fn arm_delay(&self, node: usize) -> SimDuration {
        if node == 0 {
            self.cfg.scenario.arm_a_delay()
        } else {
            self.cfg.scenario.arm_b_delay()
        }
    }

    fn max_arm_delay(&self) -> SimDuration {
        self.cfg
            .scenario
            .arm_a_delay()
            .max(self.cfg.scenario.arm_b_delay())
    }

    fn reply_timeout_cycles(&self) -> u64 {
        self.cfg
            .scenario
            .reply_latency()
            .as_ps()
            .div_ceil(self.cfg.scenario.mhp_cycle.as_ps())
            + 10
    }
}

fn outcome_is_success(outcome: qlink_wire::fields::ReplyOutcome) -> bool {
    matches!(
        outcome,
        qlink_wire::fields::ReplyOutcome::Attempt(o) if o.is_success()
    )
}

fn from_wire_basis(b: WireBasis) -> Basis {
    match b {
        WireBasis::X => Basis::X,
        WireBasis::Y => Basis::Y,
        WireBasis::Z => Basis::Z,
    }
}

fn error_label(code: EgpErrorCode) -> &'static str {
    match code {
        EgpErrorCode::Timeout => "TIMEOUT",
        EgpErrorCode::Unsupported => "UNSUPP",
        EgpErrorCode::MemExceeded => "MEMEXCEEDED",
        EgpErrorCode::OutOfMem => "OUTOFMEM",
        EgpErrorCode::Denied => "DENIED",
        EgpErrorCode::Expire => "EXPIRE",
        EgpErrorCode::NoTime => "NOTIME",
        EgpErrorCode::Rejected => "REJECTED",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, SchedulerChoice};
    use crate::workload::{GeneratedRequest, OriginPolicy, WorkloadSpec};

    fn manual_lab(seed: u64) -> LinkSimulation {
        LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), seed))
    }

    fn md_request(pairs: u16) -> GeneratedRequest {
        GeneratedRequest {
            kind: RequestKind::Md,
            pairs,
            origin: 0,
            fmin: 0.6,
            tmax_us: 0,
        }
    }

    fn nl_request(pairs: u16) -> GeneratedRequest {
        GeneratedRequest {
            kind: RequestKind::Nl,
            pairs,
            origin: 0,
            fmin: 0.6,
            tmax_us: 0,
        }
    }

    #[test]
    fn md_request_completes_with_plausible_fidelity() {
        let mut sim = manual_lab(42);
        sim.submit(0, md_request(2));
        // psucc ≈ 1.2e-4 per cycle at α≈0.2 → 2 pairs well within ~4 s.
        sim.run_for(SimDuration::from_secs(4));
        let m = sim.metrics.kind_total(RequestKind::Md);
        assert_eq!(m.pairs_delivered, 2, "MD request must complete");
        assert_eq!(m.requests_completed, 1);
        let f = m.fidelity.mean();
        assert!((0.6..0.95).contains(&f), "fidelity {f}");
    }

    #[test]
    fn nl_request_completes_with_storage_decay() {
        let mut sim = manual_lab(7);
        sim.submit(0, nl_request(1));
        sim.run_for(SimDuration::from_secs(6));
        let m = sim.metrics.kind_total(RequestKind::Nl);
        assert_eq!(m.pairs_delivered, 1, "NL request must complete");
        let f = m.fidelity.mean();
        // K-type delivered fidelity: heralded minus wait+move noise,
        // but at least the requested 0.6 on average.
        assert!((0.55..0.9).contains(&f), "fidelity {f}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = manual_lab(seed);
            sim.submit(0, md_request(3));
            sim.run_for(SimDuration::from_secs(3));
            (
                sim.metrics.total_pairs(),
                sim.events_fired(),
                sim.metrics.kind_total(RequestKind::Md).fidelity.mean(),
            )
        };
        assert_eq!(run(5), run(5), "same seed, same run");
        assert_ne!(run(5).1, run(6).1, "different seeds diverge");
    }

    #[test]
    fn workload_generates_and_completes_requests() {
        let spec = WorkloadSpec::single(RequestKind::Md, 0.7, 1).with_origin(OriginPolicy::Random);
        let mut sim = LinkSimulation::new(LinkConfig::lab(spec, 11));
        sim.run_for(SimDuration::from_secs(6));
        let m = sim.metrics.kind_total(RequestKind::Md);
        assert!(m.pairs_delivered >= 2, "delivered {}", m.pairs_delivered);
        assert!(sim.metrics.throughput(RequestKind::Md) > 0.0);
    }

    #[test]
    fn qber_accumulates_for_md() {
        let mut sim = manual_lab(13);
        sim.submit(0, md_request(5));
        sim.run_for(SimDuration::from_secs(8));
        let total = sim.metrics.qber.x.1 + sim.metrics.qber.y.1 + sim.metrics.qber.z.1;
        assert!(total >= 4, "QBER samples {total}");
    }

    #[test]
    fn classical_loss_does_not_wedge_the_link() {
        // §6.1: inflated loss, service still completes.
        let mut sim = LinkSimulation::new(
            LinkConfig::lab(WorkloadSpec::none(), 17).with_classical_loss(1e-3),
        );
        sim.submit(0, md_request(3));
        sim.run_for(SimDuration::from_secs(8));
        let m = sim.metrics.kind_total(RequestKind::Md);
        assert_eq!(m.pairs_delivered, 3, "completes despite loss");
    }

    #[test]
    fn ql2020_keep_slower_than_md() {
        let mut sim = LinkSimulation::new(LinkConfig::ql2020(WorkloadSpec::none(), 19));
        sim.submit(0, md_request(2));
        sim.submit(0, nl_request(1));
        sim.run_for(SimDuration::from_secs(12));
        let md = sim.metrics.kind_total(RequestKind::Md);
        let nl = sim.metrics.kind_total(RequestKind::Nl);
        assert!(md.pairs_delivered >= 1, "MD made progress");
        // NL needs ~16× more cycles per attempt on QL2020; with FCFS it
        // still gets served.
        assert!(nl.pairs_delivered <= md.pairs_delivered + 1);
    }

    /// The oracle: the same link, but its clock never parks.
    fn ticking(mut sim: LinkSimulation) -> LinkSimulation {
        sim.never_park = true;
        sim
    }

    /// Everything a run produced that does not count events, in a form
    /// that compares bit for bit (floats print their exact shortest
    /// representation; hash maps are sorted first).
    fn outcome(sim: &mut LinkSimulation) -> String {
        let deliveries = sim.drain_deliveries();
        let rejections = sim.drain_rejections();
        let m = &sim.metrics;
        let mut errors: Vec<_> = m.errors.iter().collect();
        errors.sort();
        let kinds: Vec<_> = RequestKind::ALL
            .iter()
            .map(|k| format!("{:?}", m.kind_total(*k)))
            .collect();
        format!(
            "{kinds:?} {errors:?} {:?} expires {} drops {} queue {} {:?} {:?} {:?} {:?}",
            m.qber,
            m.expires_sent,
            m.decode_drops,
            m.queue_length.count(),
            m.queue_length.mean().to_bits(),
            m.queue_length.max().to_bits(),
            deliveries,
            rejections,
        )
    }

    /// A script of CREATEs separated by idle stretches long enough to
    /// park in between: boundary and mid-cycle submits, both origins,
    /// an instantly refused CREATE and a retraction.
    fn scripted(mut sim: LinkSimulation) -> (String, EventKindCounts) {
        sim.capture_deliveries();
        sim.capture_rejections();
        let period = sim.cfg.scenario.mhp_cycle.as_ps();
        let at = |cycle: u64, offset_ps: u64| SimTime::from_ps(cycle * period + offset_ps);
        sim.advance_to(at(100, 1_234));
        sim.submit(0, md_request(2));
        sim.advance_to(at(60_000, 0));
        sim.submit(1, nl_request(1));
        sim.advance_to(at(120_000, 777));
        sim.submit(
            0,
            GeneratedRequest {
                fmin: 0.99,
                ..md_request(1)
            },
        );
        sim.advance_to(at(150_000, 0));
        let retracted = sim.submit(1, md_request(3));
        sim.advance_to(at(150_003, 5));
        sim.expire_request(1, retracted);
        sim.advance_to(at(210_000, 9));
        sim.submit(1, md_request(2));
        sim.advance_to(at(400_000, 0));
        (outcome(&mut sim), sim.events_by_kind())
    }

    #[test]
    fn parked_runs_match_ticking_runs_bit_for_bit() {
        let configs = [
            LinkConfig::lab(WorkloadSpec::none(), 3),
            LinkConfig::lab(WorkloadSpec::none(), 4).with_classical_loss(1e-3),
            LinkConfig {
                classical_corruption: 2e-3,
                ..LinkConfig::lab(WorkloadSpec::none(), 5)
            },
            LinkConfig::ql2020(WorkloadSpec::none(), 6),
        ];
        for cfg in configs {
            let (parked, parked_events) = scripted(LinkSimulation::new(cfg.clone()));
            let (ticked, ticked_events) = scripted(ticking(LinkSimulation::new(cfg)));
            assert_eq!(parked, ticked, "parking changed an outcome");
            assert!(
                parked.contains("Delivery {"),
                "the script delivers: {parked}"
            );
            assert_eq!(
                EventKindCounts {
                    cycle: 0,
                    ..parked_events
                },
                EventKindCounts {
                    cycle: 0,
                    ..ticked_events
                },
                "only cycle ticks may disappear"
            );
            assert!(
                parked_events.cycle < ticked_events.cycle,
                "{parked_events:?} vs {ticked_events:?}"
            );
        }
    }

    #[test]
    fn idle_link_parks_its_clock() {
        let mut parked = manual_lab(1);
        let mut ticked = ticking(manual_lab(1));
        for sim in [&mut parked, &mut ticked] {
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(sim.events_by_kind().total(), sim.events_fired());
        }
        // One tick finds the link idle and parks it for good.
        assert_eq!(parked.events_by_kind().cycle, 1);
        assert_eq!(parked.next_event_time(), None);
        assert_eq!(ticked.events_by_kind().cycle, 98_815);
        // The skipped cycles' queue-length samples are still taken.
        assert_eq!(parked.metrics.queue_length.count(), 386);
        assert_eq!(outcome(&mut parked), outcome(&mut ticked));
    }

    #[test]
    fn refused_create_on_a_parked_link_still_leaves_a_tick() {
        // The tick is the wake on which an embedding layer drains the
        // rejection; without it nothing would ever wake the network.
        let mut sim = manual_lab(2);
        sim.advance_to(SimTime::from_ps(1_000_000_000));
        assert_eq!(sim.next_event_time(), None, "parked");
        sim.submit(
            0,
            GeneratedRequest {
                fmin: 0.99,
                ..md_request(1)
            },
        );
        let period = sim.cfg.scenario.mhp_cycle.as_ps();
        let tick = SimTime::from_ps((1_000_000_000 / period + 1) * period);
        assert_eq!(sim.next_event_time(), Some(tick));
        sim.advance_to(tick);
        assert_eq!(sim.metrics.error_count("UNSUPP"), 1);
        assert_eq!(sim.next_event_time(), None, "parked again");
    }

    #[test]
    fn parked_link_translates_in_time() {
        // Shift by whole carbon re-initialisation periods: K-type
        // service is blacked out on a cycle-periodic schedule.
        let cfg = LinkConfig::lab(WorkloadSpec::none(), 8);
        let period = cfg.scenario.mhp_cycle;
        let reinit = (cfg.scenario.nv.carbon_reinit_period_s / period.as_secs_f64()).round() as u64;
        let shift = 40 * reinit;
        let deliveries = |submit: SimTime| {
            let mut sim = LinkSimulation::new(cfg.clone());
            sim.capture_deliveries();
            sim.advance_to(submit);
            sim.submit(0, nl_request(2));
            sim.advance_to(submit + SimDuration::from_secs(3));
            let cycles = sim.events_by_kind().cycle;
            (sim.drain_deliveries(), cycles)
        };
        for offset_ps in [0, 4_321] {
            let submit = SimTime::from_ps(500 * period.as_ps() + offset_ps);
            let (early, early_cycles) = deliveries(submit);
            let (late, late_cycles) = deliveries(submit + period * shift);
            assert_eq!(early.len(), 2, "the request completes");
            assert_eq!(early_cycles, late_cycles, "idle cycles are not ticked");
            for (e, l) in early.iter().zip(&late) {
                assert_eq!(l.at, e.at + period * shift);
                assert_eq!(l.fidelity.to_bits(), e.fidelity.to_bits());
                assert_eq!(
                    (l.create_id, l.request_complete),
                    (e.create_id, e.request_complete)
                );
            }
        }
    }

    #[test]
    fn frame_landing_on_a_boundary_after_a_long_flight_precedes_its_tick() {
        // QL2020's 25 km node-to-node flight lasts ~12 cycles. A frame
        // queued that long ago and landing exactly on the boundary of a
        // queue-length sampling cycle fires before that cycle's tick;
        // the resumed clock must still run the tick (and sample the
        // queue the frame just filled).
        let cfg = LinkConfig::ql2020(WorkloadSpec::none(), 9);
        let period = cfg.scenario.mhp_cycle;
        let flight = fiber_delay_of(&cfg);
        assert!(flight > period);
        let land = SimTime::from_ps(1024 * period.as_ps());
        let sent = land - flight;
        // A slave-originated DQP ADD, captured from a twin link.
        let mut twin = LinkSimulation::new(cfg.clone());
        twin.advance_to(sent);
        twin.submit(1, md_request(1));
        let bytes = loop {
            match twin.queue.pop() {
                Some((t, Event::PeerFrame { to: 0, bytes })) => {
                    assert_eq!(t, land);
                    break bytes;
                }
                Some(_) => continue,
                None => panic!("the ADD was sent"),
            }
        };
        let run = |mut sim: LinkSimulation| {
            sim.advance_to(sent);
            sim.queue.schedule_at(
                land,
                Event::PeerFrame {
                    to: 0,
                    bytes: bytes.clone(),
                },
            );
            sim.advance_to(land + period * 3);
            assert_eq!(
                sim.metrics.queue_length.max(),
                1.0,
                "tick 1024 saw the entry"
            );
            sim.advance_to(land + SimDuration::from_secs(1));
            (outcome(&mut sim), sim.events_by_kind().peer_frame)
        };
        assert_eq!(
            run(LinkSimulation::new(cfg.clone())),
            run(ticking(LinkSimulation::new(cfg)))
        );
    }

    fn fiber_delay_of(cfg: &LinkConfig) -> SimDuration {
        qlink_classical::channel::propagation_delay(cfg.scenario.arm_a_km + cfg.scenario.arm_b_km)
    }

    #[test]
    fn corrupted_frames_are_counted_as_decode_drops() {
        let run = |corruption| {
            let mut sim = LinkSimulation::new(LinkConfig {
                classical_corruption: corruption,
                ..LinkConfig::lab(WorkloadSpec::none(), 12)
            });
            sim.submit(0, md_request(3));
            sim.run_for(SimDuration::from_secs(2));
            sim.metrics.decode_drops
        };
        assert_eq!(run(0.0), 0);
        assert!(run(0.05) > 0);
    }

    #[test]
    fn scheduler_choice_changes_behaviour() {
        let spec = WorkloadSpec::from_pattern(&crate::config::UsagePattern::uniform(), 0.6);
        let run = |sched| {
            let mut sim = LinkSimulation::new(LinkConfig::lab(spec, 23).with_scheduler(sched));
            sim.run_for(SimDuration::from_secs(4));
            sim.metrics.total_pairs()
        };
        // Both run; totals need not match exactly but both make progress.
        assert!(run(SchedulerChoice::Fcfs) > 0);
        assert!(run(SchedulerChoice::HigherWfq) > 0);
    }
}
