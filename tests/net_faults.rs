//! Acceptance suite for deterministic fault injection
//! (`qlink::net::fault`, the PR 9 tentpole).
//!
//! The contracts under test:
//!
//! * **Engine invariance under adversity** — a flapping 4×4 grid
//!   (scheduled faults + seeded-stochastic flapping, armed timeouts,
//!   retries) runs **bit-identically** under `ExecMode::Sharded(2|4)`
//!   and `ExecMode::Sequential`: fault events are control-class, so
//!   every pending fail/repair bounds the conservative lookahead
//!   horizon exactly like a pending reissue or arrival;
//! * **The penalty box re-routes the network** — on a grid whose
//!   preferred corridor flaps on a fixed schedule, pricing recent
//!   failures into planning makes later requests detour around the
//!   flappy edge from the start: strictly fewer timeouts than the
//!   same schedule with the box disabled, per seed;
//! * **Degraded repair profiles steer planning** — an edge repaired
//!   under a profile whose fidelity ceiling sits below Fmin is
//!   avoided by the planner even though it is up;
//! * **Retry-budget exhaustion under flapping** (satellite) — a
//!   stream whose only edge flaps faster than it can deliver lands in
//!   exactly one of completed/abandoned, with every reservation
//!   released;
//! * **Zero-completion SLO accounting** (satellite) — a workload
//!   class that completes nothing reports 0.0 attainment (not NaN)
//!   and a NaN-free service CSV.
//! * **Disconnected arrivals** (regression) — an open-loop arrival
//!   for a pair the fault layer has cut off is abandoned, not a
//!   panic, and the workload accounting identities keep holding.

use qlink::net::sweep::{run_one, FaultChoice, RunRecord};
use qlink::net::MetricChoice;
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// A Lab link degraded far below spec (borrowed from
/// `net_routing.rs`): its FEU ceiling sits below Fmin 0.6.
fn noisy_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.optics.visibility = 0.4;
    cfg.scenario.optics.two_photon_prob = 0.2;
    cfg.scenario.optics.phase_sigma_rad *= 3.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 0.9;
    cfg
}

// ---- engine invariance under adversity ------------------------------

/// Every trajectory-determined field of a [`RunRecord`], f64s by bit
/// pattern (the `net_par.rs` fingerprint plus the fault counters).
fn fingerprint(r: &RunRecord) -> (u32, u32, u32, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.successes,
        r.rounds,
        r.timeouts,
        r.reroutes,
        r.events,
        r.faults,
        r.repairs,
        r.pairs_consumed,
        r.fidelity.mean().to_bits(),
        r.latency_s.mean().to_bits(),
        r.latency_s.variance().to_bits(),
    )
}

/// The acceptance scenario: the PR 4 contended 4×4 grid with armed
/// timeouts and retries, every edge flapping on seeded-stochastic
/// dwells realized from the run seed's `net/fault` substream.
fn flapping_grid_spec() -> ScenarioSpec {
    ScenarioSpec::lab_grid("flapping-grid", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)])
        .with_metric(MetricChoice::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2)
        .with_max_time(SimDuration::from_millis(700))
        .with_faults(FaultChoice::Flapping {
            mean_up: SimDuration::from_millis(250),
            mean_down: SimDuration::from_millis(60),
            cycles: 2,
            penalty_box: true,
        })
}

/// The acceptance criterion: `Sharded(2)` and `Sharded(4)` reproduce
/// `Sequential` bit-for-bit on the flapping grid — fault events ride
/// the shared queue as control-class events, so a repair (which
/// rebuilds a link) can never fire while other links have run ahead.
#[test]
fn sharded_matches_sequential_on_flapping_grid() {
    let spec = flapping_grid_spec();
    for seed in [1, 5] {
        let seq = run_one(&spec.clone().with_exec(ExecChoice::Sequential), seed);
        assert!(
            seq.faults > 0 && seq.repairs > 0,
            "seed {seed} must actually inject faults (got {} fails, {} repairs)",
            seq.faults,
            seq.repairs
        );
        for n in [2, 4] {
            let sh = run_one(&spec.clone().with_exec(ExecChoice::Sharded(n)), seed);
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&sh),
                "Sharded({n}) diverged from Sequential at seed {seed}"
            );
        }
    }
}

/// The realized fault schedule is a pure function of `(seed, plan)`:
/// same seed twice → identical records; a different seed realizes a
/// different flapping schedule.
#[test]
fn fault_schedules_are_reproducible_per_seed() {
    let spec = flapping_grid_spec();
    let a = run_one(&spec, 9);
    let b = run_one(&spec, 9);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let c = run_one(&spec, 10);
    assert_ne!(
        (a.faults, a.events),
        (c.faults, c.events),
        "different seeds should realize different schedules"
    );
}

/// Legacy isolation: `FaultChoice::None` (the default) arms no plan
/// and draws nothing from the `net/fault` substream, so a spec with
/// and without the explicit spelling are bit-identical.
#[test]
fn unarmed_specs_reproduce_without_fault_plumbing() {
    let base = ScenarioSpec::lab_grid("no-faults", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12)])
        .with_metric(MetricChoice::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(1)
        .with_max_time(SimDuration::from_millis(600));
    let implicit = run_one(&base, 4);
    let explicit = run_one(&base.clone().with_faults(FaultChoice::None), 4);
    assert_eq!(fingerprint(&implicit), fingerprint(&explicit));
    assert_eq!(implicit.faults, 0);
    assert_eq!(implicit.repairs, 0);
}

// ---- the penalty box ------------------------------------------------

/// One deterministic penalty-box A/B cell: a 4×4 grid where the
/// unique 3-hop corridor 0-1-2-3 flaps on a fixed 20 ms-down schedule
/// while three requests for (0, 3) are issued between the flaps, with
/// retry budget 0 (a fault on the path abandons the stream). Returns
/// `(timeouts, faults, repairs)`.
fn corridor_flap_run(seed: u64, penalty_box: bool) -> (u64, u64, u64) {
    let root = DetRng::new(seed);
    let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
    let flappy = topo.edge_between(1, 2).expect("grid edge 1-2");
    let mut net = Network::new(topo, seed);
    // Arm the timeout so faults are observed (reroute_enabled), but
    // far above every delivery time: budget 0 means a fault on the
    // path is the only way a stream can be abandoned.
    net.set_request_timeout(Some(SimDuration::from_secs(20)));
    let mut plan = FaultPlan::new().with_penalty(if penalty_box {
        PenaltyConfig::default()
    } else {
        PenaltyConfig::off()
    });
    for (fail_ms, repair_ms) in [(20, 40), (80, 100), (140, 160)] {
        plan = plan
            .with_event(
                SimDuration::from_millis(fail_ms),
                FaultKind::Fail { edge: flappy },
            )
            .with_event(
                SimDuration::from_millis(repair_ms),
                FaultKind::Repair {
                    edge: flappy,
                    profile: None,
                },
            );
    }
    net.set_fault_plan(&plan);
    // Three requests for the corridor pair, issued while the edge is
    // up: at 0 ms, 60 ms, and 120 ms — each 20 ms before the next
    // fail, far below any delivery latency.
    let mut requests = vec![net.request_entanglement(0, 3, 0.6)];
    net.run_for(SimDuration::from_millis(60));
    requests.push(net.request_entanglement(0, 3, 0.6));
    net.run_for(SimDuration::from_millis(60));
    requests.push(net.request_entanglement(0, 3, 0.6));
    net.run_for(SimDuration::from_secs(25));
    for r in requests {
        net.cancel_request(r);
    }
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "edge {e}: load released");
    }
    (net.timeouts(), net.faults(), net.repairs())
}

/// The acceptance criterion: pricing recent failures into planning
/// yields strictly fewer timeouts than the same fault schedule with
/// the box disabled, per seed. Without the box, every request plans
/// the unique 3-hop corridor and the next flap kills it; with it, the
/// first casualty's penalty makes requests issued after a flap pay
/// the detour up front and complete.
#[test]
fn penalty_box_times_out_strictly_less_per_seed() {
    for seed in [1, 2, 3] {
        let (with_box, faults_on, repairs_on) = corridor_flap_run(seed, true);
        let (without, faults_off, repairs_off) = corridor_flap_run(seed, false);
        assert_eq!(
            (faults_on, repairs_on),
            (3, 3),
            "seed {seed}: the scheduled flaps must all fire"
        );
        assert_eq!((faults_off, repairs_off), (3, 3));
        assert_eq!(
            with_box, 1,
            "seed {seed}: only the first request (issued before any \
             penalty exists) may be lost with the box on"
        );
        assert_eq!(
            without, 3,
            "seed {seed}: every corridor request is lost with the box off"
        );
        assert!(
            with_box < without,
            "seed {seed}: the penalty box must strictly reduce timeouts \
             ({with_box} vs {without})"
        );
    }
}

/// The surcharge decays: immediately after a failure the edge is
/// priced up, and a few half-lives later the penalty has decayed to a
/// fraction of the surcharge (the edge is re-admitted gradually, not
/// by a cliff).
#[test]
fn penalties_decay_between_observations() {
    let topo = Topology::grid(3, 3, |i| lab(50 + i as u64));
    let edge = topo.edge_between(0, 1).expect("grid edge 0-1");
    let mut net = Network::new(topo, 5);
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::Fail { edge })
        .with_event(
            SimDuration::from_millis(2),
            FaultKind::Repair {
                edge,
                profile: None,
            },
        );
    net.set_fault_plan(&plan);
    assert_eq!(net.penalty(edge), 0.0, "no penalty before the failure");
    net.run_for(SimDuration::from_millis(5));
    let fresh = net.penalty(edge);
    let surcharge = PenaltyConfig::default().surcharge;
    assert!(
        fresh > 0.9 * surcharge && fresh <= surcharge,
        "one bump, barely decayed: {fresh}"
    );
    // Four half-lives later the price has decayed ~16×.
    net.run_for(PenaltyConfig::default().half_life * 4);
    let later = net.penalty(edge);
    assert!(
        later < fresh / 8.0 && later > 0.0,
        "the surcharge must decay exponentially ({fresh} -> {later})"
    );
}

// ---- heterogeneous repair profiles ----------------------------------

/// Diamond with a short arm (0-1-4) and a long arm (0-2-3-4), all
/// clean: hop-count planning prefers the short arm.
fn clean_diamond() -> Topology {
    let mut t = Topology::new();
    for _ in 0..5 {
        t.add_node();
    }
    t.connect(0, 1, lab(10));
    t.connect(1, 4, lab(11));
    t.connect(0, 2, lab(12));
    t.connect(2, 3, lab(13));
    t.connect(3, 4, lab(14));
    t
}

/// An edge repaired under a degraded profile comes back *worse than
/// it left*: its new FEU ceiling sits below Fmin 0.6, so the planner
/// routes around an edge that is nominally up — and the edge still
/// carries its decayed penalty price.
#[test]
fn degraded_repair_profile_steers_planning_away() {
    let mut net = Network::new(clean_diamond(), 7);
    assert_eq!(
        net.plan_route(0, 4, 0.6)
            .expect("clean diamond serves")
            .nodes,
        vec![0, 1, 4],
        "hop count prefers the short arm before any fault"
    );
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::Fail { edge: 0 })
        .with_event(
            SimDuration::from_millis(2),
            FaultKind::Repair {
                edge: 0,
                profile: Some(Box::new(noisy_lab(99))),
            },
        );
    net.set_fault_plan(&plan);
    net.run_for(SimDuration::from_millis(5));
    assert_eq!(net.faults(), 1);
    assert_eq!(net.repairs(), 1);
    assert!(net.topology().edge_up(0), "the edge is up again");
    assert!(
        net.penalty(0) > 0.0,
        "repair must not clear the penalty box"
    );
    assert_eq!(
        net.plan_route(0, 4, 0.6)
            .expect("the long arm serves")
            .nodes,
        vec![0, 2, 3, 4],
        "the degraded ceiling bars the repaired edge at Fmin 0.6"
    );
    // A request at Fmin 0.6 delivers over the long arm.
    net.request_entanglement(0, 4, 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(60))
        .expect("the long arm must deliver");
    assert_eq!(out.path, vec![0, 2, 3, 4]);
}

/// Node churn: `NodeDown` fails every incident edge, `NodeUp` repairs
/// them; a request issued while the hub of a diamond is down routes
/// around it.
#[test]
fn node_churn_fails_and_repairs_incident_edges() {
    let mut net = Network::new(clean_diamond(), 3);
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::NodeDown { node: 1 })
        .with_event(SimDuration::from_secs(2), FaultKind::NodeUp { node: 1 });
    net.set_fault_plan(&plan);
    net.run_for(SimDuration::from_millis(10));
    assert_eq!(net.faults(), 2, "both edges at node 1 fail");
    assert!(!net.topology().edge_up(0) && !net.topology().edge_up(1));
    assert_eq!(
        net.plan_route(0, 4, 0.6).expect("long arm").nodes,
        vec![0, 2, 3, 4],
        "planning routes around the downed node"
    );
    net.run_for(SimDuration::from_secs(3));
    assert_eq!(net.repairs(), 2, "NodeUp repairs both edges");
    assert!(net.topology().edge_up(0) && net.topology().edge_up(1));
}

// ---- retry-budget exhaustion under flapping (satellite) -------------

/// A single-edge stream whose link flaps faster than it can deliver:
/// whatever the interleaving of fails, repairs, reissues, and backoff,
/// the stream lands in **exactly one** of completed/abandoned, and
/// every reservation is released — across seeds and retry budgets.
#[test]
fn flapping_stream_completes_or_abandons_exactly_once() {
    for seed in 0..6u64 {
        for retries in [0u32, 2, 5] {
            let topo = Topology::chain(2, |_| lab(30 + seed));
            let mut net = Network::new(topo, seed);
            net.set_retry_budget(retries);
            net.set_request_timeout(Some(SimDuration::from_millis(400)));
            // Up-dwells well below the one-hop delivery latency
            // (~100 ms): most attempts are cut down mid-flight, and a
            // reissue that lands while the edge is down finds no
            // route at all.
            net.set_fault_plan(&FaultPlan::new().with_flapping(Flapping {
                edge: 0,
                mean_up: SimDuration::from_millis(40),
                mean_down: SimDuration::from_millis(10),
                cycles: 12,
                degrade: None,
            }));
            let request = net.request_entanglement(0, 1, 0.6);
            let mut delivered = 0u64;
            let deadline = net.now() + SimDuration::from_secs(3);
            loop {
                let left = deadline.saturating_since(net.now());
                if left == SimDuration::ZERO {
                    break;
                }
                match net.run_until_outcome(left) {
                    Some(out) => {
                        assert_eq!(out.request, request);
                        delivered += 1;
                    }
                    None => break,
                }
            }
            assert_eq!(
                delivered + net.timeouts(),
                1,
                "seed {seed} retries {retries}: the stream must land in \
                 exactly one of completed/abandoned \
                 ({delivered} delivered, {} abandoned)",
                net.timeouts()
            );
            assert!(
                net.reroutes() <= u64::from(retries),
                "seed {seed}: reroutes within budget"
            );
            net.cancel_request(request);
            assert_eq!(net.edge_load(0), 0, "seed {seed}: load released");
            for n in 0..2 {
                assert!(
                    !net.node(n).is_reserved(request),
                    "seed {seed}: node {n} still reserved"
                );
            }
        }
    }
}

// ---- zero-completion SLO accounting (satellite) ---------------------

/// A class that completes nothing — its Fmin sits above the link's
/// ceiling, so every admitted request UNSUPPs and abandons — reports
/// 0.0 SLO attainment, not NaN, and the sweep's service CSV carries
/// no NaN anywhere.
#[test]
fn zero_completion_class_reports_zero_attainment_not_nan() {
    let classes = vec![UserClass::new("doomed", RequestKind::Md, vec![(0, 1)])
        .with_fmin(0.95)
        .with_latency_slo(SimDuration::from_millis(100))
        .with_fidelity_slo(0.9)];
    let spec = ScenarioSpec::lab_chain("zero-completions", 2)
        .with_max_time(SimDuration::from_millis(400))
        .with_request_timeout(SimDuration::from_millis(80))
        .with_workload(Workload::poisson(200.0, classes));
    let record = run_one(&spec, 13);
    let doomed = &record.classes[0];
    assert!(doomed.offered > 0, "the stream must actually offer load");
    assert_eq!(doomed.completed, 0, "nothing can complete at Fmin 0.95");
    assert!(doomed.abandoned > 0, "the timeout must abandon requests");
    assert_eq!(doomed.slo_latency_attainment(), 0.0);
    assert_eq!(doomed.slo_fidelity_attainment(), 0.0);
    assert!(
        doomed.slo_latency_attainment().is_finite(),
        "attainment must never be NaN"
    );
    let report = sweep(std::slice::from_ref(&spec), &[13, 14], 2);
    let csv = report.service_csv();
    assert!(csv.contains("doomed"), "the class must appear in the CSV");
    assert!(!csv.contains("NaN"), "service CSV must be NaN-free:\n{csv}");
}

// ---- disconnected arrivals (regression) -----------------------------

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

/// Regression: every edge of a 4×4 grid flaps under the service
/// classes, so the fault layer now and then takes down all edges of
/// a corner or a pair's every path. An arrival for a pair that is
/// disconnected at that instant — admitted on arrival or dequeued
/// when a slot frees — used to panic ("no path from 4 to 5"). It is
/// counted admitted and abandoned instead, and the workload
/// accounting identities hold per class.
#[test]
fn flapping_service_abandons_disconnected_arrivals() {
    let spec = ScenarioSpec::lab_grid("flapping-service", 4, 4)
        .with_metric(MetricChoice::LoadLatency)
        .with_retries(1)
        .with_request_timeout(SimDuration::from_millis(250))
        .with_max_time(SimDuration::from_millis(400))
        .with_workload(Workload::poisson(2_000.0, service_classes()))
        .with_faults(FaultChoice::Flapping {
            mean_up: SimDuration::from_millis(40),
            mean_down: SimDuration::from_millis(60),
            cycles: 4,
            penalty_box: true,
        });
    let record = run_one(&spec, 1);
    assert!(record.faults > 0, "the grid must actually flap");
    for c in &record.classes {
        assert_eq!(
            c.offered,
            c.admitted + c.dropped + c.queued,
            "{}: offered = admitted + dropped + queued",
            c.name
        );
        assert_eq!(
            c.admitted,
            c.completed + c.abandoned + c.in_flight,
            "{}: admitted = completed + abandoned + in_flight",
            c.name
        );
    }
    let abandoned: u64 = record.classes.iter().map(|c| c.abandoned).sum();
    assert!(abandoned > 0, "disconnected arrivals must be abandoned");
}
