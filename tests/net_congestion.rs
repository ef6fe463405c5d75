//! Contention test suite for congestion-aware routing and timeout
//! re-routing (the PR 4 tentpole), pinned deterministically per seed:
//!
//! * on a contended 4×4 grid, `LoadScaledLatency` times out strictly
//!   fewer requests than static `Latency` at equal seeds;
//! * a retry budget > 0 completes requests that time out at budget 0;
//! * a stream whose links UNSUPP re-routes onto a serving path
//!   instead of idling to its timeout;
//! * `edge_load` balances to zero through every request lifecycle
//!   (completion, timeout, rejection, re-route, cancellation);
//! * PR 3's scenario stats reproduce bit-identically under the new
//!   plumbing (re-route draws live on their own `net/reroute`
//!   substream and no timeout events exist unless armed).
//!
//! PR 5 adds two satellite families: the adaptive re-route backoff
//! (`BackoffPolicy` — default pinned to PR 4's jittered delay,
//! exponential growth and cap asserted against re-route span times) and
//! CREATE retraction (a timeout storm leaves both EGP queues empty,
//! so `edge_load` matches the links' true backlog).

use qlink::net::ruleset::Policy;
use qlink::net::sweep::{run_one, RunRecord};
use qlink::net::{MetricChoice, SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// Six concurrent cross-traffic pairs on the 4×4 grid (nodes
/// row-major): two corner-to-corner diagonals plus four cross-mesh
/// pairs. Under a static metric their deterministically tie-broken
/// shortest paths pile onto the low-index row/column edges.
fn contended_pairs() -> Vec<(usize, usize)> {
    vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)]
}

fn grid_spec(metric: MetricChoice, budget: SimDuration) -> ScenarioSpec {
    ScenarioSpec::lab_grid("contended-grid", 4, 4)
        .with_pairs(contended_pairs())
        .with_max_time(budget)
        .with_metric(metric)
}

/// The acceptance criterion's first half: at equal seeds, pricing the
/// live `edge_load` into the route metric strictly reduces timeouts
/// on the contended mesh — pinned per seed, with the exact counts.
#[test]
fn load_scaled_metric_times_out_strictly_less_on_contended_grid() {
    let budget = SimDuration::from_millis(500);
    // (seed, timeouts under static Latency, under LoadScaledLatency).
    for (seed, static_to, load_to) in [(1, 2, 0), (4, 1, 0), (6, 2, 0)] {
        let plain = run_one(&grid_spec(MetricChoice::Latency, budget), seed);
        let load = run_one(&grid_spec(MetricChoice::LoadLatency, budget), seed);
        assert_eq!(plain.rounds, 6, "six concurrent requests per round");
        assert_eq!(load.rounds, 6);
        assert_eq!(
            plain.timeouts, static_to,
            "seed {seed}: static Latency timeout count moved"
        );
        assert_eq!(
            load.timeouts, load_to,
            "seed {seed}: LoadScaledLatency timeout count moved"
        );
        assert!(
            load.timeouts < plain.timeouts,
            "seed {seed}: load-aware routing must time out strictly less \
             ({} vs {})",
            load.timeouts,
            plain.timeouts
        );
        // No re-routing was enabled: the gain is purely from planning.
        assert_eq!(plain.reroutes, 0);
        assert_eq!(load.reroutes, 0);
        assert_eq!(plain.successes + plain.timeouts, plain.rounds);
        assert_eq!(load.successes + load.timeouts, load.rounds);
    }
}

/// The acceptance criterion's second half: with a per-request timeout
/// armed, retry budget 0 abandons requests at their deadline, while
/// budget 2 re-plans them against current load (excluding the failed
/// path's edges) and completes requests that timed out at budget 0 —
/// exact per-seed counts pinned.
#[test]
fn retry_budget_completes_requests_that_time_out_at_budget_zero() {
    let run = |seed: u64, retries: u32| -> RunRecord {
        let spec = grid_spec(MetricChoice::Latency, SimDuration::from_millis(900))
            .with_request_timeout(SimDuration::from_millis(350))
            .with_retries(retries);
        run_one(&spec, seed)
    };
    // (seed, budget-0 (ok, to), budget-2 (ok, to, reroutes)).
    for (seed, zero, two) in [(1, (4, 2), (6, 0, 2)), (4, (3, 3), (6, 0, 3))] {
        let r0 = run(seed, 0);
        let r2 = run(seed, 2);
        assert_eq!((r0.successes, r0.timeouts), zero, "seed {seed} budget 0");
        assert_eq!(
            (r2.successes, r2.timeouts, r2.reroutes),
            two,
            "seed {seed} budget 2"
        );
        assert_eq!(r0.reroutes, 0, "budget 0 must never re-route");
        assert!(
            r2.successes > r0.successes,
            "seed {seed}: the retry budget must complete at least one \
             request that timed out at budget 0"
        );
        assert!(r2.timeouts < r0.timeouts);
        assert!(r2.reroutes > 0);
    }
}

/// Re-routed runs stay bit-reproducible: the jittered backoff draws
/// from the seeded `net/reroute` substream, so the whole record —
/// including which requests re-routed and what they delivered —
/// reproduces exactly.
#[test]
fn rerouted_runs_reproduce_bit_identically() {
    let spec = grid_spec(MetricChoice::LoadLatency, SimDuration::from_millis(700))
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2);
    let a = run_one(&spec, 5);
    let b = run_one(&spec, 5);
    assert!(a.reroutes > 0, "the seed must actually exercise re-routing");
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.timeouts, b.timeouts);
    assert_eq!(a.reroutes, b.reroutes);
    assert_eq!(a.events, b.events);
    assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
    assert_eq!(a.latency_s.mean().to_bits(), b.latency_s.mean().to_bits());
}

/// A Lab link degraded far below spec (borrowed from
/// `net_routing.rs`): its FEU ceiling sits below Fmin 0.6, so CREATEs
/// at that floor are rejected UNSUPP.
fn noisy_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.optics.visibility = 0.4;
    cfg.scenario.optics.two_photon_prob = 0.2;
    cfg.scenario.optics.phase_sigma_rad *= 3.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 0.9;
    cfg
}

/// Diamond with a short noisy arm (0-1-4) and a long clean arm
/// (0-2-3-4); only the clean arm can serve Fmin 0.6.
fn short_noisy_long_clean_diamond() -> Topology {
    let mut t = Topology::new();
    for _ in 0..5 {
        t.add_node();
    }
    t.connect(0, 1, noisy_lab(10));
    t.connect(1, 4, noisy_lab(11));
    t.connect(0, 2, lab(12));
    t.connect(2, 3, lab(13));
    t.connect(3, 4, lab(14));
    t
}

/// A stream pinned onto a path whose links UNSUPP re-routes onto the
/// serving arm as soon as the rejection is observed — ROADMAP's "a
/// stream whose links UNSUPP simply times out" gap, closed.
#[test]
fn unsupp_stream_reroutes_onto_the_serving_arm() {
    let mut net = Network::new(short_noisy_long_clean_diamond(), 7);
    net.set_retry_budget(1);
    assert_eq!(net.retry_budget(), 1);
    // Pin the request onto the noisy arm, bypassing the planner's
    // feasibility filter: both links reject the CREATEs as UNSUPP.
    let request = net.request_on_path(&[0, 1, 4], 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(60))
        .expect("the re-routed stream must deliver");
    assert_eq!(out.request, request, "same id across the re-route");
    assert_eq!(out.path, vec![0, 2, 3, 4], "re-planned onto the clean arm");
    assert_eq!(net.reroutes(), 1);
    assert_eq!(net.timeouts(), 0);
    assert!(out.end_to_end_fidelity > 0.25);
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "edge {e}: load released");
    }

    // Without a retry budget (and no timeout armed) the same pinned
    // stream behaves exactly as in PR 3: it idles, delivering nothing.
    let mut inert = Network::new(short_noisy_long_clean_diamond(), 7);
    inert.request_on_path(&[0, 1, 4], 0.6);
    assert!(inert
        .run_until_outcome(SimDuration::from_millis(50))
        .is_none());
    assert_eq!(inert.reroutes(), 0);
}

/// With the budget exhausted, an UNSUPP'd stream is abandoned and
/// counted, and its reservations are fully released.
#[test]
fn exhausted_budget_abandons_and_releases() {
    let mut net = Network::new(short_noisy_long_clean_diamond(), 3);
    net.set_request_timeout(Some(SimDuration::from_millis(80)));
    assert_eq!(net.request_timeout(), Some(SimDuration::from_millis(80)));
    // Fmin above every arm's ceiling: each re-plan lands on another
    // UNSUPP'ing path until the budget runs out.
    let request = net.request_entanglement(0, 4, 0.95);
    net.run_for(SimDuration::from_secs(2));
    assert_eq!(net.timeouts(), 1, "the stream must be abandoned");
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "edge {e}: load released on abandon");
    }
    for n in 0..net.topology().node_count() {
        assert!(!net.node(n).is_reserved(request), "node {n} still reserved");
    }
    // Cancelling an abandoned request is a harmless no-op.
    net.cancel_request(request);
    assert!((0..net.topology().edge_count()).all(|e| net.edge_load(e) == 0));
}

/// Seeded property test for the load ledger: at every observation
/// point `edge_load` agrees with both endpoint nodes' reservation
/// counts, and after every lifecycle — completion, timeout,
/// rejection, re-route, cancellation — every edge returns to exactly
/// zero. Trials mix purification policies, retry budgets, timeouts,
/// and an unachievable-fmin request (a rejection/re-route/abandon
/// exerciser).
#[test]
fn edge_load_balances_through_every_lifecycle() {
    let mut rng = DetRng::new(0xC0FFEE).substream("net-congestion/load");
    let policies = [
        PurifyPolicy::Off,
        PurifyPolicy::LinkLevel,
        PurifyPolicy::EndToEnd,
        PurifyPolicy::Off,
        PurifyPolicy::Off,
    ];
    for (trial, &policy) in policies.iter().enumerate() {
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let retries = rng.below(3) as u32;
        let timeout_ms = 60 + rng.below(240);
        let mut topo = Topology::grid(3, 3, |i| {
            let mut cfg = lab(link_seed + i as u64);
            // Long memory so LinkLevel/EndToEnd trials can progress.
            cfg.scenario.nv.carbon_t2 = 10.0;
            cfg
        });
        // A noisy shortcut across one corner: a candidate edge whose
        // UNSUPP rejections the re-route machinery must clean up.
        topo.connect(0, 4, noisy_lab(link_seed + 100));
        let noisy_edge = topo.edge_count() - 1;
        let mut net = Network::new(topo, net_seed);
        net.set_route_metric(LoadScaledLatency);
        net.set_purify_policy(policy);
        net.set_retry_budget(retries);
        net.set_request_timeout(Some(SimDuration::from_millis(timeout_ms)));

        let mut requests = vec![
            net.request_entanglement(0, 8, 0.6),
            net.request_entanglement(2, 6, 0.6),
            net.request_entanglement(3, 5, 0.6),
        ];
        // Unachievable floor: rejected wherever it lands, re-routed
        // while budget lasts, then abandoned.
        requests.push(net.request_entanglement(0, 8, 0.95));
        // Forced onto the noisy shortcut: UNSUPP at a feasible floor.
        requests.push(net.request_on_path(&[0, 4, 5, 8], 0.6));

        let check = |net: &Network, when: &str| {
            for e in 0..net.topology().edge_count() {
                let edge = net.topology().edge(e);
                let load = net.edge_load(e) as usize;
                assert_eq!(
                    load,
                    net.node(edge.a).reserved_on_edge(e),
                    "trial {trial} {when}: edge {e} vs node {}",
                    edge.a
                );
                assert_eq!(
                    load,
                    net.node(edge.b).reserved_on_edge(e),
                    "trial {trial} {when}: edge {e} vs node {}",
                    edge.b
                );
            }
        };

        check(&net, "after issue");
        let deadline = net.now() + SimDuration::from_millis(600);
        loop {
            let left = deadline.saturating_since(net.now());
            if left == SimDuration::ZERO {
                break;
            }
            let outcome = net.run_until_outcome(left);
            check(&net, "mid-run");
            if outcome.is_none() {
                break;
            }
        }
        for r in requests.drain(..) {
            net.cancel_request(r);
        }
        check(&net, "after cancel");
        for e in 0..net.topology().edge_count() {
            assert_eq!(
                net.edge_load(e),
                0,
                "trial {trial}: edge {e} leaked load (noisy edge is {noisy_edge})"
            );
        }
    }
}

/// The fault-injection extension of the ledger property (PR 9
/// satellite): with edges flapping underneath live traffic, every
/// fail-triggered teardown, repair-time CREATE drop, re-route, and
/// cancellation still leaves `edge_load` in agreement with both
/// endpoint nodes' reservation counts — and at zero once every
/// request is resolved. Release sites use checked subtraction
/// (`Network::release_edge_load`), so a double release from a
/// fail/release race would fail a debug assertion here rather than
/// silently corrupt (or, in debug builds, panic-underflow) the
/// ledger.
#[test]
fn edge_load_balances_through_fault_interleavings() {
    let mut rng = DetRng::new(0xFA17).substream("net-congestion/faults");
    for trial in 0..4 {
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let retries = rng.below(3) as u32;
        let timeout_ms = 80 + rng.below(200);
        let mut topo = Topology::grid(3, 3, |i| lab(link_seed + i as u64));
        topo.connect(0, 4, noisy_lab(link_seed + 100));
        let mut net = Network::new(topo, net_seed);
        net.set_route_metric(LoadScaledLatency);
        net.set_retry_budget(retries);
        net.set_request_timeout(Some(SimDuration::from_millis(timeout_ms)));
        // Three central edges flap fast underneath the traffic; the
        // noisy shortcut adds UNSUPP rejections to the interleaving.
        let mut plan = FaultPlan::new();
        for edge in [1, 4, 7] {
            plan = plan.with_flapping(Flapping {
                edge,
                mean_up: SimDuration::from_millis(60),
                mean_down: SimDuration::from_millis(20),
                cycles: 4,
                degrade: None,
            });
        }
        net.set_fault_plan(&plan);

        let mut requests = vec![
            net.request_entanglement(0, 8, 0.6),
            net.request_entanglement(2, 6, 0.6),
            net.request_entanglement(3, 5, 0.6),
            net.request_entanglement(0, 8, 0.95),
        ];
        requests.push(net.request_on_path(&[0, 4, 5, 8], 0.6));

        let check = |net: &Network, when: &str| {
            for e in 0..net.topology().edge_count() {
                let edge = net.topology().edge(e);
                let load = net.edge_load(e) as usize;
                assert_eq!(
                    load,
                    net.node(edge.a).reserved_on_edge(e),
                    "trial {trial} {when}: edge {e} vs node {}",
                    edge.a
                );
                assert_eq!(
                    load,
                    net.node(edge.b).reserved_on_edge(e),
                    "trial {trial} {when}: edge {e} vs node {}",
                    edge.b
                );
            }
        };

        check(&net, "after issue");
        let deadline = net.now() + SimDuration::from_millis(800);
        loop {
            let left = deadline.saturating_since(net.now());
            if left == SimDuration::ZERO {
                break;
            }
            let outcome = net.run_until_outcome(left);
            check(&net, "mid-run");
            if outcome.is_none() {
                break;
            }
        }
        assert!(
            net.faults() > 0,
            "trial {trial}: the flapping plan must actually fire"
        );
        for r in requests.drain(..) {
            net.cancel_request(r);
        }
        check(&net, "after cancel");
        for e in 0..net.topology().edge_count() {
            assert_eq!(net.edge_load(e), 0, "trial {trial}: edge {e} leaked load");
        }
    }
}

/// The interpreted extension of the ledger property (PR 10
/// satellite): with a RuleSet policy installed on every node, the
/// interpreter's purify claims (`SwapAsapNode::reserve` + `RuleState`
/// latches), pump-round regenerations, releases during pending
/// parities, and fault-triggered teardowns must all keep `edge_load`
/// in agreement with both endpoint nodes' reservation counts
/// (`reserved_on_edge` counts every installed arm by its role).
/// Trials mix every data-only
/// policy with flapping faults, seeded retries/timeouts, an
/// unachievable-fmin rejection exerciser, and a pinned noisy path;
/// after cancel-all every edge is back at exactly zero and no node
/// still holds a reservation.
#[test]
fn edge_load_balances_under_interpreted_rulesets() {
    let mut rng = DetRng::new(0x5E7).substream("net-congestion/ruleset");
    let policies = [
        Policy::SwapAsap,
        Policy::LinkPurify,
        Policy::ThresholdPurify { theta: 0.85 },
        Policy::PumpRounds { rounds: 2 },
        Policy::EndToEndPurify,
    ];
    for (trial, &policy) in policies.iter().enumerate() {
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let retries = rng.below(3) as u32;
        let timeout_ms = 80 + rng.below(200);
        let with_faults = trial % 2 == 0;
        let mut topo = Topology::grid(3, 3, |i| {
            let mut cfg = lab(link_seed + i as u64);
            // Long memory so purifying policies can progress.
            cfg.scenario.nv.carbon_t2 = 10.0;
            cfg
        });
        topo.connect(0, 4, noisy_lab(link_seed + 100));
        let mut net = Network::new(topo, net_seed);
        net.set_route_metric(LoadScaledLatency);
        net.set_ruleset_policy(Some(policy));
        net.set_retry_budget(retries);
        net.set_request_timeout(Some(SimDuration::from_millis(timeout_ms)));
        if with_faults {
            // Two central edges flap underneath the interpreted
            // traffic: releases must land mid-parity and mid-pump.
            let mut plan = FaultPlan::new();
            for edge in [1, 7] {
                plan = plan.with_flapping(Flapping {
                    edge,
                    mean_up: SimDuration::from_millis(60),
                    mean_down: SimDuration::from_millis(20),
                    cycles: 4,
                    degrade: None,
                });
            }
            net.set_fault_plan(&plan);
        }

        let mut requests = vec![
            net.request_entanglement(0, 8, 0.6),
            net.request_entanglement(2, 6, 0.6),
            net.request_entanglement(3, 5, 0.6),
            // Unachievable floor: rejected, re-routed, abandoned.
            net.request_entanglement(0, 8, 0.95),
        ];
        requests.push(net.request_on_path(&[0, 4, 5, 8], 0.6));

        let check = |net: &Network, when: &str| {
            for e in 0..net.topology().edge_count() {
                let edge = net.topology().edge(e);
                let load = net.edge_load(e) as usize;
                assert_eq!(
                    load,
                    net.node(edge.a).reserved_on_edge(e),
                    "trial {trial} ({}) {when}: edge {e} vs node {}",
                    policy.name(),
                    edge.a
                );
                assert_eq!(
                    load,
                    net.node(edge.b).reserved_on_edge(e),
                    "trial {trial} ({}) {when}: edge {e} vs node {}",
                    policy.name(),
                    edge.b
                );
            }
        };

        check(&net, "after issue");
        let deadline = net.now() + SimDuration::from_millis(800);
        loop {
            let left = deadline.saturating_since(net.now());
            if left == SimDuration::ZERO {
                break;
            }
            let outcome = net.run_until_outcome(left);
            check(&net, "mid-run");
            if outcome.is_none() {
                break;
            }
        }
        if with_faults {
            assert!(
                net.faults() > 0,
                "trial {trial}: the flapping plan must actually fire"
            );
        }
        for &r in &requests {
            net.cancel_request(r);
        }
        check(&net, "after cancel");
        for e in 0..net.topology().edge_count() {
            assert_eq!(
                net.edge_load(e),
                0,
                "trial {trial} ({}): edge {e} leaked load",
                policy.name()
            );
        }
        for n in 0..net.topology().node_count() {
            for &r in &requests {
                assert!(
                    !net.node(n).is_reserved(r),
                    "trial {trial} ({}): node {n} still reserved for {r}",
                    policy.name()
                );
            }
        }
    }
}

/// PR 3 regression anchors, captured before this PR's plumbing
/// landed: with retries = 0 and no request timeout (the defaults) the
/// new machinery schedules no events and draws no randomness, so
/// these scenario stats must reproduce **bit-identically** — the
/// contended multi-stream chain of `net_routing.rs` and the
/// purification sweep cells of `net_purify.rs`. (Event counts were
/// re-recorded once idle links stopped ticking their MHP clock; every
/// other field is the original anchor.)
#[test]
fn pr3_scenario_stats_reproduce_bit_identically() {
    struct Pin {
        successes: u32,
        rounds: u32,
        events: u64,
        fid_bits: u64,
        lat_bits: u64,
        pairs: u64,
    }
    let check = |r: &RunRecord, pin: &Pin, what: &str| {
        assert_eq!(r.successes, pin.successes, "{what}: successes");
        assert_eq!(r.rounds, pin.rounds, "{what}: rounds");
        assert_eq!(r.events, pin.events, "{what}: event count");
        assert_eq!(
            r.fidelity.mean().to_bits(),
            pin.fid_bits,
            "{what}: fidelity"
        );
        assert_eq!(
            r.latency_s.mean().to_bits(),
            pin.lat_bits,
            "{what}: latency"
        );
        assert_eq!(r.pairs_consumed, pin.pairs, "{what}: pairs");
        assert_eq!(r.timeouts, 0, "{what}: timeouts");
        assert_eq!(r.reroutes, 0, "{what}: reroutes");
    };

    // net_routing.rs: contended 3-node chain, Fidelity metric, two
    // streams, seed 3. `with_retries(0)` is the explicit spelling of
    // the default and must change nothing.
    let spec = ScenarioSpec::lab_chain("contended", 3)
        .with_max_time(SimDuration::from_secs(120))
        .with_metric(MetricChoice::Fidelity)
        .with_streams(2)
        .with_retries(0);
    check(
        &run_one(&spec, 3),
        &Pin {
            successes: 2,
            rounds: 2,
            events: 385622,
            fid_bits: 0x3fd52195dac57856,
            lat_bits: 0x3fc1f54e350f4050,
            pairs: 4,
        },
        "routing/contended",
    );

    // net_purify.rs: the Off vs LinkLevel sweep cells, seeds 1 and 2.
    let pins = [
        (
            PurifyPolicy::Off,
            1,
            1003059,
            0x3fd4c4c25b62f322,
            0x3fd0c1bc3219e844,
            8,
        ),
        (
            PurifyPolicy::Off,
            2,
            1022643,
            0x3fd4dd4546f6ff70,
            0x3fc55650e3bc46e4,
            8,
        ),
        (
            PurifyPolicy::LinkLevel,
            1,
            1997215,
            0x3fd61d31f71fd713,
            0x3fda87559e900d6a,
            20,
        ),
        (
            PurifyPolicy::LinkLevel,
            2,
            2461807,
            0x3fd5de38a4298a86,
            0x3fe0bc58ab38ddcd,
            18,
        ),
    ];
    for (policy, seed, events, fid_bits, lat_bits, pairs) in pins {
        let spec = ScenarioSpec::lab_chain(policy.name(), 5)
            .with_rounds(2)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
            .with_purify(policy);
        check(
            &run_one(&spec, seed),
            &Pin {
                successes: 2,
                rounds: 2,
                events,
                fid_bits,
                lat_bits,
                pairs,
            },
            &format!("purify/{} seed {seed}", policy.name()),
        );
    }
}

/// The sweep driver carries the congestion knobs and surfaces the new
/// counters deterministically through the merged report.
#[test]
fn sweep_merges_timeout_and_reroute_counters() {
    let specs = vec![
        grid_spec(MetricChoice::Latency, SimDuration::from_millis(500)),
        grid_spec(MetricChoice::LoadLatency, SimDuration::from_millis(500)),
    ];
    let seeds = [1, 4];
    let report = sweep(&specs, &seeds, 2);
    let plain = &report.scenarios[0];
    let load = &report.scenarios[1];
    assert_eq!(plain.rounds, 12, "2 seeds x 6 pairs");
    assert_eq!(plain.timeouts, 3, "seeds 1+4 under static Latency");
    assert_eq!(load.timeouts, 0, "load-aware spreads all requests");
    assert_eq!(plain.successes + plain.timeouts, plain.rounds);
    // Thread count never changes the merged numbers.
    let again = sweep(&specs, &seeds, 1);
    for (a, b) in report.runs.iter().zip(&again.runs) {
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.reroutes, b.reroutes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
    }
}

// ---- adaptive retry backoff (PR 5 satellite) ------------------------

/// The failure times of every re-route of a 1-edge stream whose link
/// UNSUPPs Fmin 0.6 forever: each attempt is rejected almost
/// instantly, so consecutive `Reroute` span times are dominated by
/// the backoff delays between them. The edge's control delay is
/// overridden to 120 µs (metropolitan scale) so backoff differences
/// dwarf the MHP-cycle-scale rejection-detection jitter.
fn reroute_times(policy: Option<BackoffPolicy>, retries: u32) -> (Vec<u64>, u64) {
    let mut topo = Topology::chain(2, |_| noisy_lab(21));
    topo.set_control_delay(0, SimDuration::from_micros(120));
    let mut net = Network::new(topo, 21);
    if let Some(p) = policy {
        net.set_backoff_policy(p);
        assert_eq!(net.backoff_policy(), p);
    }
    net.set_retry_budget(retries);
    net.set_telemetry(TelemetryConfig {
        spans: true,
        ..TelemetryConfig::OFF
    });
    net.request_on_path(&[0, 1], 0.6);
    net.run_for(SimDuration::from_millis(100));
    let times = net
        .telemetry()
        .expect("spans on")
        .spans()
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::Reroute { .. }))
        .map(|s| s.at.as_ps())
        .collect();
    (times, net.events_fired())
}

/// The default backoff is PR 4's single jittered control delay,
/// pinned: never touching the knob and explicitly selecting
/// `BackoffPolicy::Jittered` produce bit-identical runs.
#[test]
fn default_backoff_is_pinned_to_jittered() {
    let untouched = reroute_times(None, 3);
    let explicit = reroute_times(Some(BackoffPolicy::Jittered), 3);
    assert_eq!(untouched.0.len(), 3, "the stream must re-route 3 times");
    assert_eq!(untouched, explicit, "default must equal Jittered exactly");
}

/// Exponential backoff doubles the re-issue delay per failed attempt.
/// Both policies draw the same jitter values from the same substream,
/// so the first re-route (and the second: attempt 0's factor is
/// 2⁰ = 1) land at identical instants, after which the exponential
/// run falls measurably behind — by at least one extra control delay
/// per doubled attempt.
#[test]
fn exponential_backoff_spaces_retries_out() {
    let base_ps = SimDuration::from_micros(120).as_ps();
    let (jit, _) = reroute_times(Some(BackoffPolicy::Jittered), 3);
    let (exp, _) = reroute_times(
        Some(BackoffPolicy::Exponential {
            cap: SimDuration::from_secs(1),
        }),
        3,
    );
    assert_eq!(jit.len(), 3);
    assert_eq!(exp.len(), 3);
    assert_eq!(jit[0], exp[0], "first failure predates any backoff");
    assert_eq!(jit[1], exp[1], "attempt 0 backs off by the same 2⁰ delay");
    assert!(
        exp[2] >= jit[2] + base_ps,
        "attempt 1's doubled backoff must defer the third failure by \
         at least one control delay ({} vs {})",
        exp[2],
        jit[2]
    );
}

/// The cap clamps every exponential delay: with it at ~1.2 control
/// delays, consecutive failures stay tightly spaced however many
/// attempts have accumulated (each gap = capped backoff + detection,
/// both bounded), while the uncapped policy's gaps keep doubling.
#[test]
fn exponential_backoff_respects_cap() {
    let cap = SimDuration::from_micros(145);
    let (capped, _) = reroute_times(Some(BackoffPolicy::Exponential { cap }), 4);
    assert_eq!(capped.len(), 4);
    // Gap bound: capped backoff (≤ 145 µs) + UNSUPP detection (a few
    // MHP cycles ≈ 30 µs of slack).
    let bound = cap.as_ps() + SimDuration::from_micros(35).as_ps();
    for w in capped.windows(2) {
        assert!(
            w[1] - w[0] <= bound,
            "capped gap {} exceeds bound {bound}",
            w[1] - w[0]
        );
    }
    // The unit-level contract, including saturation far past the cap.
    let pol = BackoffPolicy::Exponential { cap };
    assert_eq!(
        pol.delay(120e-6, 0, 0.0),
        SimDuration::from_secs_f64(120e-6),
        "attempt 0 is one un-doubled control delay"
    );
    assert_eq!(pol.delay(120e-6, 1, 0.5), cap, "2 × 1.5 × 120 µs clamps");
    assert_eq!(pol.delay(120e-6, 63, 0.9), cap);
    assert_eq!(pol.delay(120e-6, 64, 0.9), cap, "factor saturates at 2⁶³");
    assert_eq!(
        BackoffPolicy::Jittered.delay(120e-6, 7, 0.25),
        SimDuration::from_secs_f64(120e-6 * 1.25),
        "jittered ignores the attempt number"
    );
}

// ---- CREATE retraction through timeout storms (PR 5 satellite) ------

/// ROADMAP's CREATE-retraction gap, closed: when a timeout storm
/// fails six concurrent streams on one edge, the link-layer EXPIRE
/// hook (`LinkSimulation::expire_request`) retracts their queued
/// CREATEs at *both* EGPs — the link stops spending attempt cycles on
/// orphaned requests, so `edge_load`'s zero matches the link's true
/// backlog instead of under-counting it. Before the hook, the six
/// CREATEs stayed committed until served (seconds later), their pairs
/// silently discarded on delivery.
#[test]
fn timeout_storm_retracts_queued_creates_from_links() {
    let topo = Topology::chain(2, |_| lab(77));
    let mut net = Network::new(topo, 77);
    net.set_request_timeout(Some(SimDuration::from_millis(20)));
    for _ in 0..6 {
        net.request_on_path(&[0, 1], 0.6);
    }
    assert!(net.link(0).egp(0).queue_len() > 0, "storm must queue up");
    // 20 ms timeouts + retraction notices crossing the control channel.
    net.run_for(SimDuration::from_millis(40));
    assert_eq!(net.timeouts(), 6, "every stream fails inside the storm");
    assert_eq!(net.edge_load(0), 0, "network-level load released");
    for side in 0..2 {
        assert_eq!(
            net.link(0).egp(side).queue_len(),
            0,
            "side {side}: orphaned CREATEs must leave the EGP queue"
        );
        assert_eq!(
            net.link(0).egp(side).tracked_requests(),
            0,
            "side {side}: no zombie request state"
        );
    }
    // The link is not wedged: a fresh (unarmed) request completes.
    net.set_request_timeout(None);
    net.request_on_path(&[0, 1], 0.6);
    assert!(
        net.run_until_outcome(SimDuration::from_secs(20)).is_some(),
        "post-storm request must still deliver"
    );
}
