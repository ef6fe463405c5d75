//! The three workloads: how each is built from a seed, set up, run,
//! checked and fingerprinted.
//!
//! Every workload is a set of independent sub-runs whose seeds derive
//! from the benchmark seed. One sub-run is one simulation, driven
//! through the public API exactly as `sweep::run_one` drives it (the
//! grids) or as a paper-table bench drives a link (`link_mixed`), with
//! set-up and run timed apart. Execution is pinned to
//! `ExecMode::Sequential` and telemetry is set explicitly, so neither
//! `QLINK_EXEC` nor `QLINK_TRACE` can change what is measured.

use crate::clock::{CpuTimer, RefClock};
use crate::stats::Fnv;
use qlink::des::{Histogram, TimeSeries};
use qlink::math::stats::RunningStats;
use qlink::net::fault::{FaultPlan, Flapping, PenaltyConfig};
use qlink::net::obs::{fidelity_histogram, latency_histogram, SpanStage, TelemetryConfig};
use qlink::net::ruleset::Policy;
use qlink::net::sweep::{run_one, LinkScenario, PolicyChoice, RunRecord, TopologyChoice};
use qlink::prelude::*;
use qlink::sim::config::RequestKind;
use std::collections::HashMap;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One Lab link under the paper's Table 2 `uniform` pattern.
    LinkMixed,
    /// The 16×16 `par/` grid with three corner-to-corner requests.
    GridSparse,
    /// A 4×4 grid under 500k arrivals/s, flapping links, RuleSet control.
    GridService,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::LinkMixed, Kind::GridSparse, Kind::GridService];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LinkMixed => "link_mixed",
            Kind::GridSparse => "grid_sparse",
            Kind::GridService => "grid_service",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn describe(self) -> &'static str {
        match self {
            Kind::LinkMixed => {
                "one Lab link, Table 2 uniform NL+CK+MD at fmin 0.64, HigherWFQ, \
                 1e-4 classical loss, 1 simulated s per sub-run"
            }
            Kind::GridSparse => {
                "16x16 Lab grid (480 links), 3 corner-to-corner LoadLatency requests, \
                 hard-coded SWAP-ASAP, closed loop to the last outcome"
            }
            Kind::GridService => {
                "4x4 Lab grid, open-loop Poisson 500k arrivals/s of two classes, retries 1, \
                 250 ms timeout, 9 flapping links, interpreted SWAP-ASAP, 2 simulated s"
            }
        }
    }

    /// Sub-runs per benchmark run: enough to fill `seconds` of host
    /// time on a 2-core reference host. The count depends only on
    /// `seconds`, never on the measured speed, so two builds compared
    /// with the same arguments simulate exactly the same inputs.
    pub fn sub_runs(self, seconds: u64) -> usize {
        let host_s_per_sub_run = match self {
            Kind::LinkMixed => 0.3,
            Kind::GridSparse => 9.0,
            Kind::GridService => 5.0,
        };
        ((seconds as f64 / host_s_per_sub_run).round() as usize).max(1)
    }

    /// Set-ups timed per sub-run; the last one is run. `grid_service`
    /// sets up in under 0.1 ms and has few sub-runs, so it times more
    /// set-ups to steady their median.
    pub fn setups(self) -> usize {
        match self {
            Kind::LinkMixed | Kind::GridSparse => 5,
            Kind::GridService => 25,
        }
    }

    /// The seed of sub-run `index` of a benchmark run seeded `seed`.
    pub fn sub_seed(self, seed: u64, index: usize) -> u64 {
        DetRng::new(seed)
            .substream(&format!("perfbench/{}/{index}", self.name()))
            .seed()
    }

    /// The longest step of a timed run: 15 to 20 ms of CPU time on the
    /// reference host, so that each step closes a slice of the clock
    /// and the 1 ms reference kernel between slices adds under a tenth.
    pub fn slice(self) -> SimDuration {
        match self {
            Kind::LinkMixed => SimDuration::from_millis(100),
            Kind::GridSparse => SimDuration::from_millis(2),
            Kind::GridService => SimDuration::from_millis(10),
        }
    }

    /// The `(src, dst)` pairs the workload asks the network for.
    pub fn pairs(self) -> Vec<(usize, usize)> {
        match self {
            Kind::LinkMixed => vec![(0, 1)],
            Kind::GridSparse => sparse_pairs(),
            Kind::GridService => service_classes()
                .into_iter()
                .flat_map(|c| c.pairs)
                .collect(),
        }
    }

    /// The grid scenario, as `sweep::run_one` takes it (`None` for the
    /// single link, which no `ScenarioSpec` describes: under `Network`
    /// a link's own workload generator is off).
    pub fn spec(self) -> Option<ScenarioSpec> {
        match self {
            Kind::LinkMixed => None,
            Kind::GridSparse => Some(
                ScenarioSpec::lab_grid("grid_sparse", SPARSE_SIDE, SPARSE_SIDE)
                    .with_pairs(sparse_pairs())
                    .with_metric(MetricChoice::LoadLatency)
                    .with_max_time(SimDuration::from_secs(2))
                    .with_exec(ExecChoice::Sequential),
            ),
            Kind::GridService => Some(
                ScenarioSpec::lab_grid("grid_service", SERVICE_SIDE, SERVICE_SIDE)
                    .with_metric(MetricChoice::LoadLatency)
                    .with_retries(1)
                    .with_request_timeout(SimDuration::from_millis(250))
                    .with_max_time(SimDuration::from_secs(2))
                    .with_workload(Workload::poisson(500_000.0, service_classes()))
                    .with_ruleset(Policy::SwapAsap)
                    .with_exec(ExecChoice::Sequential),
            ),
        }
    }

    /// Whether `sweep::run_one` can replay a sub-run: `grid_service`'s
    /// fault plan flaps only the edges off a fixed spanning tree, which
    /// no `FaultChoice` expresses.
    pub fn has_run_one_reference(self) -> bool {
        self == Kind::GridSparse
    }

    /// The link configuration of `link_mixed` (the `table3_4_mixed`
    /// Lab uniform row under HigherWFQ, with Table 5's stress loss).
    pub fn link_config(self, seed: u64) -> LinkConfig {
        let mut load = WorkloadSpec::from_pattern(&UsagePattern::uniform(), LINK_FMIN);
        load.md.kmax = load.md.kmax.min(10);
        LinkConfig::lab(load, seed)
            .with_scheduler(SchedulerChoice::HigherWfq)
            .with_classical_loss(1e-4)
    }

    /// Minimum fidelity the workload's requests ask for.
    pub fn fmin(self) -> f64 {
        self.spec().map_or(LINK_FMIN, |s| s.fmin)
    }
}

const SPARSE_SIDE: usize = 16;
const SERVICE_SIDE: usize = 4;
const LINK_FMIN: f64 = 0.64;
const LINK_SIM_TIME: SimDuration = SimDuration::from_secs(1);

fn sparse_pairs() -> Vec<(usize, usize)> {
    let n = SPARSE_SIDE;
    let last = n * n - 1;
    vec![(0, last), (n - 1, last + 1 - n), (n / 2, last - n / 2)]
}

/// `grid_service`'s fault plan: the horizontal edges below the top row
/// flap (900 ms mean up, 40 ms mean down, three cycles, penalty box
/// on). The vertical edges and the top row stay up: they span the
/// grid, so every class pair stays connected, which the fault layer
/// requires (an arrival for a disconnected pair panics at issue).
/// Flapping every edge, as `FaultChoice::Flapping` does, disconnects a
/// class pair on a large share of seeds.
fn service_fault_plan(topo: &Topology) -> FaultPlan {
    let mut plan = FaultPlan::new().with_penalty(PenaltyConfig::default());
    for (edge, e) in topo.edges().iter().enumerate() {
        let horizontal = e.b == e.a + 1;
        if horizontal && e.a >= SERVICE_SIDE {
            plan = plan.with_flapping(Flapping {
                edge,
                mean_up: SimDuration::from_millis(900),
                mean_down: SimDuration::from_millis(40),
                cycles: 3,
                degrade: None,
            });
        }
    }
    plan
}

/// The two traffic classes of `examples/service.rs`.
fn service_classes() -> Vec<UserClass> {
    vec![
        UserClass::new("qkd", RequestKind::Md, vec![(0, 1), (1, 2), (4, 5)])
            .with_weight(3.0)
            .with_priority(1)
            .with_admission(AdmissionControl::QueueBeyond {
                max_in_flight: 2,
                queue_cap: 16,
            })
            .with_latency_slo(SimDuration::from_millis(400))
            .with_fidelity_slo(0.4),
        UserClass::new("compute", RequestKind::Ck, vec![(8, 9), (12, 13)])
            .with_priority(0)
            .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 })
            .with_latency_slo(SimDuration::from_millis(300)),
    ]
}

/// A simulator set up and ready to run.
pub enum Ready {
    Link(Box<LinkSimulation>),
    Net {
        net: Box<Network>,
        /// Closed loop: the requests issued during set-up.
        requests: Vec<u64>,
    },
}

/// On-CPU time spent in the parts of one set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// `Network::new` alone (grids).
    pub network_new_s: Option<f64>,
    /// Each `request_entanglement` call (closed loop).
    pub issue_s: Vec<f64>,
}

/// Sets up sub-run `seed` with the given telemetry facets.
pub fn setup(kind: Kind, seed: u64, telemetry: TelemetryConfig) -> (Ready, SetupTimes) {
    let mut times = SetupTimes::default();
    let ready = match kind.spec() {
        None => Ready::Link(Box::new(LinkSimulation::new(kind.link_config(seed)))),
        Some(spec) => {
            let topo = grid_topology(&spec, seed);
            let t = CpuTimer::start();
            let mut net = Network::new(topo, seed);
            times.network_new_s = Some(t.elapsed_s());
            configure(&mut net, &spec, telemetry);
            if kind == Kind::GridService {
                net.set_fault_plan(&service_fault_plan(net.topology()));
            }
            net.reset_event_stats();
            let mut requests = Vec::new();
            match &spec.workload {
                Some(workload) => net.set_workload(workload.clone()),
                None => {
                    for &(src, dst) in &spec.pairs {
                        let t = CpuTimer::start();
                        requests.push(net.request_entanglement(src, dst, spec.fmin));
                        times.issue_s.push(t.elapsed_s());
                    }
                }
            }
            Ready::Net {
                net: Box::new(net),
                requests,
            }
        }
    };
    (ready, times)
}

/// The topology `sweep::run_one` builds for `spec` and `seed`:
/// per-edge link seeds from the run seed's `edge/{i}` substreams.
fn grid_topology(spec: &ScenarioSpec, seed: u64) -> Topology {
    assert_eq!(spec.scenario, LinkScenario::Lab, "the grids are Lab grids");
    assert!(spec.carbon_t2.is_none(), "the grids keep Table 6 memories");
    let root = DetRng::new(seed);
    let link = |i: usize| {
        let edge_seed = root.substream(&format!("edge/{i}")).seed();
        LinkConfig::lab(WorkloadSpec::none(), edge_seed)
            .with_scheduler(spec.scheduler)
            .with_classical_loss(spec.classical_loss)
    };
    match spec.topology {
        TopologyChoice::Grid { rows, cols } => Topology::grid(rows, cols, link),
        TopologyChoice::Chain => Topology::chain(spec.nodes, link),
    }
}

/// Applies `spec`'s knobs in `sweep::run_one`'s order, with execution
/// and telemetry set explicitly. A fault plan, armed next, is the last
/// knob `run_one` sets before it resets the event statistics.
fn configure(net: &mut Network, spec: &ScenarioSpec, telemetry: TelemetryConfig) {
    assert_eq!(
        spec.faults,
        FaultChoice::None,
        "fault plans are armed by the caller"
    );
    net.set_telemetry(telemetry);
    net.set_exec(ExecMode::Sequential);
    match spec.metric {
        MetricChoice::Hops => net.set_route_metric(HopCount),
        MetricChoice::Latency => net.set_route_metric(Latency),
        MetricChoice::Fidelity => net.set_route_metric(FidelityProduct),
        MetricChoice::LoadLatency => net.set_route_metric(LoadScaledLatency),
    }
    net.set_purify_policy(spec.purify);
    if let PolicyChoice::Rules(policy) = spec.ruleset {
        net.set_ruleset_policy(Some(policy));
    }
    net.set_retry_budget(spec.retries);
    net.set_request_timeout(spec.request_timeout);
}

/// Samples, from outside and at fixed simulated intervals, how many
/// links sit idle: both EGPs with an empty queue and no tracked request.
pub struct IdleSampler {
    every: SimDuration,
    next: SimTime,
    idle: u64,
    points: u64,
}

impl IdleSampler {
    pub fn new(every: SimDuration) -> IdleSampler {
        IdleSampler {
            every,
            next: SimTime::ZERO + every,
            idle: 0,
            points: 0,
        }
    }

    /// How far the simulation may run from `now` before the next sample.
    fn step(&self, now: SimTime, left: SimDuration) -> SimDuration {
        left.min(self.next.saturating_since(now))
    }

    fn sample_if_due(&mut self, now: SimTime, links: &mut dyn Iterator<Item = &LinkSimulation>) {
        if now < self.next {
            return;
        }
        for link in links {
            self.points += 1;
            let quiet =
                (0..2).all(|n| link.egp(n).queue_len() == 0 && link.egp(n).tracked_requests() == 0);
            self.idle += u64::from(quiet);
        }
        while self.next <= now {
            self.next += self.every;
        }
    }

    pub fn idle_share(&self) -> f64 {
        self.idle as f64 / self.points.max(1) as f64
    }
}

/// What a finished sub-run delivered, reduced to what the benchmark
/// reports and checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Hash of every simulated outcome (never of event counts).
    pub fingerprint: u64,
    /// Simulated seconds the run advanced.
    pub sim_s: f64,
    /// Delivered pairs: end-to-end on the grids, link pairs on the link.
    pub pairs: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests not delivered, by reason (reported, and hashed above).
    pub undelivered: Vec<(&'static str, u64)>,
    /// Failed attempts the network re-planned and re-issued.
    pub reroutes: u64,
    /// Edge failures the fault plan injected.
    pub faults: u64,
    /// Events fired (shared queue plus every link).
    pub events: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

/// A finished simulator, kept for the per-layer readouts.
pub enum Finished {
    Link(Box<LinkSimulation>),
    Net(Box<Network>),
}

/// How a run is driven: in one go, or in steps that end at every
/// idle-sample point and, when timed, at least every `Kind::slice`.
#[derive(Default)]
pub struct Driver<'a> {
    pub sampler: Option<&'a mut IdleSampler>,
    /// The clock that times the run, and the longest simulated step.
    pub clock: Option<(&'a mut RefClock, SimDuration)>,
}

impl Driver<'_> {
    /// How far the simulation may run from `now` in the next step.
    fn step(&self, now: SimTime, left: SimDuration) -> SimDuration {
        let mut step = self.sampler.as_ref().map_or(left, |s| s.step(now, left));
        if let Some((_, slice)) = &self.clock {
            step = step.min(*slice);
        }
        step
    }

    /// Runs one step, timed when there is a clock.
    fn advance<T>(&mut self, step: impl FnOnce() -> T) -> T {
        match &mut self.clock {
            Some((clock, _)) => clock.time(step),
            None => step(),
        }
    }

    fn sample(&mut self, now: SimTime, links: &mut dyn Iterator<Item = &LinkSimulation>) {
        if let Some(s) = self.sampler.as_deref_mut() {
            s.sample_if_due(now, links);
        }
    }

    fn sample_net(&mut self, net: &Network) {
        if self.sampler.is_some() {
            let edges = net.topology().edge_count();
            self.sample(net.now(), &mut (0..edges).map(|e| net.link(e)));
        }
    }
}

/// Runs a ready simulator to the end of its sub-run, as `driver` says.
pub fn run(kind: Kind, seed: u64, ready: Ready, mut driver: Driver) -> (Outcome, Finished) {
    match ready {
        Ready::Link(mut sim) => {
            let end = sim.now() + LINK_SIM_TIME;
            while sim.now() < end {
                let step = driver.step(sim.now(), end.saturating_since(sim.now()));
                driver.advance(|| sim.run_for(step));
                driver.sample(sim.now(), &mut std::iter::once(&*sim));
            }
            (link_outcome(&sim), Finished::Link(sim))
        }
        Ready::Net { mut net, requests } => {
            let spec = kind.spec().expect("grid workloads have a spec");
            let record = if spec.workload.is_some() {
                run_open_loop(&mut net, &spec, seed, driver)
            } else {
                run_closed_loop(&mut net, &spec, seed, requests, driver)
            };
            let mut outcome = record_outcome(&record);
            outcome.sim_s = net.now().since(SimTime::ZERO).as_secs_f64();
            outcome.events = net.events_fired();
            (outcome, Finished::Net(net))
        }
    }
}

fn empty_record(seed: u64) -> RunRecord {
    RunRecord {
        scenario: 0,
        seed,
        successes: 0,
        rounds: 0,
        fidelity: RunningStats::new(),
        latency_s: RunningStats::new(),
        pairs_consumed: 0,
        timeouts: 0,
        reroutes: 0,
        events: 0,
        faults: 0,
        repairs: 0,
        latency_hist: latency_histogram(),
        fidelity_hist: fidelity_histogram(),
        deliveries: TimeSeries::new(),
        classes: Vec::new(),
        open_loop_secs: 0.0,
    }
}

/// `sweep::run_one`'s open-loop branch.
fn run_open_loop(
    net: &mut Network,
    spec: &ScenarioSpec,
    seed: u64,
    mut driver: Driver,
) -> RunRecord {
    let end = net.now() + spec.max_time;
    while net.now() < end {
        let step = driver.step(net.now(), end.saturating_since(net.now()));
        driver.advance(|| net.run_for(step));
        driver.sample_net(net);
    }
    let mut record = empty_record(seed);
    let stats = net.workload_stats().expect("workload armed at set-up");
    record.classes = stats.classes.clone();
    record.open_loop_secs = spec.max_time.as_secs_f64();
    record.rounds = u32::try_from(stats.total_admitted()).unwrap_or(u32::MAX);
    record.successes = u32::try_from(stats.total_completed()).unwrap_or(u32::MAX);
    let abandoned: u64 = stats.classes.iter().map(|c| c.abandoned).sum();
    record.timeouts = u32::try_from(abandoned).unwrap_or(u32::MAX);
    for c in &stats.classes {
        record.latency_hist.merge(&c.latency);
        record.fidelity_hist.merge(&c.fidelity);
    }
    record.pairs_consumed = (0..net.topology().edge_count())
        .map(|e| net.pairs_delivered(e))
        .sum();
    record.reroutes = net.reroutes();
    record.events = net.events_fired();
    record.faults = net.faults();
    record.repairs = net.repairs();
    record
}

/// `sweep::run_one`'s closed-loop branch for a single round whose
/// requests were issued at set-up.
fn run_closed_loop(
    net: &mut Network,
    spec: &ScenarioSpec,
    seed: u64,
    requests: Vec<u64>,
    mut driver: Driver,
) -> RunRecord {
    assert_eq!(spec.rounds, 1, "the closed-loop workload is one round");
    let mut record = empty_record(seed);
    record.rounds = requests.len() as u32;
    let mut pending = requests.clone();
    let deadline = net.now() + spec.max_time;
    while !pending.is_empty() {
        let left = deadline.saturating_since(net.now());
        if left == SimDuration::ZERO {
            break;
        }
        let step = driver.step(net.now(), left);
        let out = driver.advance(|| net.run_until_outcome(step));
        driver.sample_net(net);
        // `None` means the step ended: at a sample point, a slice end,
        // or the deadline, which the next pass turns into the loop's exit.
        let Some(out) = out else { continue };
        let Some(at) = pending.iter().position(|&r| r == out.request) else {
            continue;
        };
        pending.swap_remove(at);
        record.successes += 1;
        record.fidelity.push(out.end_to_end_fidelity);
        record.latency_s.push(out.latency.as_secs_f64());
        record.latency_hist.record(out.latency.as_secs_f64());
        record.fidelity_hist.record(out.end_to_end_fidelity);
        record.deliveries.push(out.delivered_at, 1.0);
        record.pairs_consumed += u64::from(out.pairs_consumed);
    }
    record.timeouts += pending.len() as u32;
    for request in requests {
        net.cancel_request(request);
    }
    record.reroutes = net.reroutes();
    record.events = net.events_fired();
    record.faults = net.faults();
    record.repairs = net.repairs();
    record
}

/// The reference: the same sub-run through `sweep::run_one` where a
/// `ScenarioSpec` describes it, else set up and run once more.
pub fn reference(kind: Kind, seed: u64) -> Outcome {
    match kind.spec() {
        Some(spec) if kind.has_run_one_reference() => {
            let record = run_one(&spec, seed);
            let mut outcome = record_outcome(&record);
            outcome.sim_s = last_delivery_s(&record, &spec);
            outcome
        }
        _ => {
            let (ready, _) = setup(kind, seed, TelemetryConfig::OFF);
            run(kind, seed, ready, Driver::default()).0
        }
    }
}

/// Where a closed-loop run stops: at its last outcome, or at the
/// budget when a request never delivers.
fn last_delivery_s(record: &RunRecord, spec: &ScenarioSpec) -> f64 {
    if record.successes < record.rounds {
        return spec.max_time.as_secs_f64();
    }
    record
        .deliveries
        .samples()
        .last()
        .map_or(0.0, |&(t, _)| t.since(SimTime::ZERO).as_secs_f64())
}

fn hash_histogram(h: &mut Fnv, hist: &Histogram) {
    h.words(hist.counts());
    if hist.count() > 0 {
        h.f64(hist.min());
        h.f64(hist.max());
    }
}

fn hash_stats(h: &mut Fnv, s: &RunningStats) {
    h.word(s.count());
    if s.count() > 0 {
        h.f64(s.mean());
        h.f64(s.min());
        h.f64(s.max());
    }
}

/// Fingerprint, counts and checks of a grid sub-run's record.
fn record_outcome(r: &RunRecord) -> Outcome {
    let mut h = Fnv::new();
    for w in [
        u64::from(r.successes),
        u64::from(r.rounds),
        u64::from(r.timeouts),
        r.pairs_consumed,
        r.reroutes,
        r.faults,
        r.repairs,
    ] {
        h.word(w);
    }
    hash_stats(&mut h, &r.fidelity);
    hash_stats(&mut h, &r.latency_s);
    hash_histogram(&mut h, &r.latency_hist);
    hash_histogram(&mut h, &r.fidelity_hist);
    for &(t, v) in r.deliveries.samples() {
        h.word(t.since(SimTime::ZERO).as_ps());
        h.f64(v);
    }
    for c in &r.classes {
        h.str(&c.name);
        for w in [
            c.offered,
            c.admitted,
            c.dropped,
            c.completed,
            c.abandoned,
            c.queued,
            c.in_flight,
            c.slo_latency_met,
            c.slo_fidelity_met,
        ] {
            h.word(w);
        }
        hash_histogram(&mut h, &c.latency);
        hash_histogram(&mut h, &c.queue_wait);
        hash_histogram(&mut h, &c.fidelity);
    }

    let mut problems = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let delivered = u64::from(r.successes);
    check(
        r.successes <= r.rounds,
        format!("delivered {} > issued {}", r.successes, r.rounds),
    );
    check(
        r.latency_hist.count() == delivered,
        "one latency sample per delivery".into(),
    );
    check(
        r.fidelity_hist.count() == delivered,
        "one fidelity sample per delivery".into(),
    );
    if delivered > 0 {
        let (lo, hi) = (r.fidelity_hist.min(), r.fidelity_hist.max());
        check(
            (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi),
            format!("fidelity outside [0, 1]: {lo}..{hi}"),
        );
        check(r.latency_hist.min() >= 0.0, "negative latency".into());
    }
    let (offered, undelivered) = if r.classes.is_empty() {
        check(
            r.successes + r.timeouts == r.rounds,
            format!(
                "closed loop: {} + {} != {}",
                r.successes, r.timeouts, r.rounds
            ),
        );
        (
            u64::from(r.rounds),
            vec![("undelivered at the budget", u64::from(r.timeouts))],
        )
    } else {
        let mut completed = 0;
        for c in &r.classes {
            let n = &c.name;
            check(
                c.offered == c.admitted + c.dropped + c.queued,
                format!("{n}: offered != admitted + dropped + queued"),
            );
            check(
                c.admitted == c.completed + c.abandoned + c.in_flight,
                format!("{n}: admitted != completed + abandoned + in flight"),
            );
            check(
                c.completed <= c.offered,
                format!("{n}: completed > offered"),
            );
            check(
                c.latency.count() == c.completed,
                format!("{n}: latency samples"),
            );
            check(
                c.fidelity.count() == c.completed,
                format!("{n}: fidelity samples"),
            );
            check(
                c.queue_wait.count() == c.admitted,
                format!("{n}: queue-wait samples"),
            );
            check(
                c.slo_latency_met <= c.completed,
                format!("{n}: latency SLO count"),
            );
            check(
                c.slo_fidelity_met <= c.completed,
                format!("{n}: fidelity SLO count"),
            );
            completed += c.completed;
        }
        check(
            completed == delivered,
            "class completions != delivered".into(),
        );
        let sum = |f: fn(&ClassLoadStats) -> u64| r.classes.iter().map(f).sum::<u64>();
        (
            sum(|c| c.offered),
            vec![
                ("dropped by admission", sum(|c| c.dropped)),
                ("abandoned", sum(|c| c.abandoned)),
                ("queued at the horizon", sum(|c| c.queued)),
                ("in flight at the horizon", sum(|c| c.in_flight)),
            ],
        )
    };
    Outcome {
        fingerprint: h.finish(),
        sim_s: 0.0,
        pairs: delivered,
        offered,
        undelivered,
        reroutes: r.reroutes,
        faults: r.faults,
        events: r.events,
        problems,
    }
}

/// Fingerprint, counts and checks of the single link.
fn link_outcome(sim: &LinkSimulation) -> Outcome {
    let m = &sim.metrics;
    let mut h = Fnv::new();
    let mut problems = Vec::new();
    let mut completed = 0;
    for kind in [RequestKind::Nl, RequestKind::Ck, RequestKind::Md] {
        let k = m.kind_total(kind);
        h.word(k.pairs_delivered);
        h.word(k.requests_completed);
        hash_stats(&mut h, &k.fidelity);
        hash_stats(&mut h, &k.pair_latency);
        hash_stats(&mut h, &k.request_latency);
        completed += k.requests_completed;
        if k.fidelity.count() > 0 {
            let (lo, hi) = (k.fidelity.min(), k.fidelity.max());
            if !((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi)) {
                problems.push(format!("{kind:?}: fidelity outside [0, 1]: {lo}..{hi}"));
            }
        }
        if k.pair_latency.count() > 0 && k.pair_latency.min() < 0.0 {
            problems.push(format!("{kind:?}: negative latency"));
        }
        if k.requests_completed > k.pairs_delivered {
            problems.push(format!(
                "{kind:?}: more requests completed than pairs delivered"
            ));
        }
    }
    let mut errors: Vec<(&&str, &u64)> = m.errors.iter().collect();
    errors.sort();
    for (label, n) in &errors {
        h.str(label);
        h.word(**n);
    }
    h.word(m.expires_sent);
    for (errs, total) in [m.qber.x, m.qber.y, m.qber.z] {
        h.word(errs);
        h.word(total);
    }
    let error_total: u64 = m.errors.values().sum();
    // Requests still in the distributed queue at the horizon; the
    // master's queue holds both nodes' requests.
    let queued = sim.egp(0).queue_len() as u64;
    Outcome {
        fingerprint: h.finish(),
        sim_s: sim.now().since(SimTime::ZERO).as_secs_f64(),
        pairs: m.total_pairs(),
        offered: completed + error_total + queued,
        undelivered: vec![
            ("ended by an EGP error", error_total),
            ("queued at the horizon", queued),
        ],
        reroutes: 0,
        faults: 0,
        events: sim.events_fired(),
        problems,
    }
}

/// Per-layer counters read off a finished, traced sub-run.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub events: u64,
    pub shared_events: u64,
    pub queue_depth_hw: u64,
    pub link_pairs: u64,
    pub useful_pairs: u64,
    pub egp_expires: u64,
    pub egp_errors: u64,
    pub egp_creates: u64,
    pub egp_retracts: u64,
    pub egp_unsupp: u64,
    pub arrivals: u64,
    pub admission_drops: u64,
    pub admitted: u64,
    pub reroutes: u64,
    pub faults: u64,
    pub timeouts: u64,
}

pub fn layer_counts(finished: &Finished, outcome: &Outcome) -> LayerCounts {
    match finished {
        Finished::Link(sim) => {
            let m = &sim.metrics;
            LayerCounts {
                events: sim.events_fired(),
                link_pairs: m.total_pairs(),
                useful_pairs: m.total_pairs(),
                egp_expires: m.expires_sent,
                egp_errors: m.errors.values().sum(),
                egp_creates: outcome.offered,
                egp_unsupp: m.error_count("UNSUPP"),
                ..LayerCounts::default()
            }
        }
        Finished::Net(net) => {
            let edges = 0..net.topology().edge_count();
            let link_events: u64 = edges.clone().map(|e| net.link(e).events_fired()).sum();
            let tl = net.telemetry().expect("the traced run records telemetry");
            let metrics = tl.metrics();
            let stats = net.workload_stats();
            LayerCounts {
                events: net.events_fired(),
                shared_events: net.events_fired() - link_events,
                queue_depth_hw: tl.profile().queue_depth_high_water as u64,
                link_pairs: edges.clone().map(|e| net.pairs_delivered(e)).sum(),
                useful_pairs: useful_pairs(tl.spans()),
                egp_expires: edges
                    .clone()
                    .map(|e| net.link(e).metrics.expires_sent)
                    .sum(),
                egp_errors: edges
                    .map(|e| net.link(e).metrics.errors.values().sum::<u64>())
                    .sum(),
                egp_creates: metrics.creates.iter().sum(),
                egp_retracts: metrics.retracts.iter().sum(),
                egp_unsupp: metrics.unsupp.iter().sum(),
                arrivals: stats.map_or(outcome.offered, |s| s.total_offered()),
                admission_drops: stats.map_or(0, |s| s.total_dropped()),
                admitted: stats.map_or(outcome.offered, |s| s.total_admitted()),
                reroutes: net.reroutes(),
                faults: net.faults(),
                timeouts: net.timeouts(),
            }
        }
    }
}

/// Link pairs consumed by delivered requests: one per edge of the path
/// each delivered request was last planned onto (the workloads do not
/// purify, so every edge spends exactly one pair).
fn useful_pairs(spans: &[qlink::net::obs::SpanEvent]) -> u64 {
    let mut last_plan: HashMap<u64, u64> = HashMap::new();
    let mut useful = 0;
    for span in spans {
        match &span.stage {
            SpanStage::Plan { path } => {
                last_plan.insert(span.request, path.len().saturating_sub(1) as u64);
            }
            SpanStage::Deliver { .. } => {
                useful += last_plan.get(&span.request).copied().unwrap_or(0);
            }
            _ => {}
        }
    }
    useful
}
