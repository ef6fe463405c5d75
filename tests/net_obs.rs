//! Acceptance suite for the deterministic telemetry layer
//! (`qlink::net::obs`, the PR 6 tentpole) and the opt-in
//! retract-on-cancel knob.
//!
//! The contracts under test:
//!
//! * **Passivity** — telemetry on vs. off never moves a single bit of
//!   the simulation results (recording draws nothing from any RNG and
//!   schedules no events);
//! * **Engine invariance** — `ExecMode::Sharded(n)` records the exact
//!   same span stream as `ExecMode::Sequential`, byte for byte in the
//!   JSONL export, on the same scenario classes the PR 5 equivalence
//!   suite pins (chain, contended grid with re-routes);
//! * **Fidelity of the record** — a golden snapshot of the 3-node
//!   chain's stage sequence, structural chrome-trace invariants
//!   (B/E balance, monotone timestamps), and metric counters that
//!   reconcile exactly with the network's own counters;
//! * **Histogram percentiles** — within one bucket width of the exact
//!   order statistic, property-tested against sorted samples;
//! * **Retract-on-cancel** — default off leaves cancellation
//!   bit-identical to earlier revisions; opted in, a cancel expires
//!   the request's queued CREATEs through the links.

use qlink::des::Histogram;
use qlink::net::{chrome_trace_json, spans_jsonl, SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

fn chain(nodes: usize) -> Topology {
    Topology::chain(nodes, |i| lab(40 + i as u64))
}

/// The PR 4 contended grid as an explicit network: armed timeouts,
/// retries, load-aware routing — failures, retractions, and re-issues
/// all on the record. Link seeds and `fmin` mirror the sweep driver's
/// construction so the contention profile matches the PR 5
/// equivalence suite.
fn contended_grid(seed: u64, exec: ExecMode, config: TelemetryConfig) -> Network {
    let root = DetRng::new(seed);
    let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
    let mut net = Network::new(topo, seed);
    net.set_telemetry(config);
    net.set_exec(exec);
    net.set_route_metric(LoadScaledLatency);
    net.set_request_timeout(Some(SimDuration::from_millis(300)));
    net.set_retry_budget(2);
    for (src, dst) in [(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)] {
        net.request_entanglement(src, dst, 0.6);
    }
    net.run_for(SimDuration::from_millis(700));
    net
}

/// Everything a run determines, f64s compared by bit pattern.
fn results_fingerprint(net: &mut Network) -> Vec<(u64, u64, u64, u64)> {
    let mut out: Vec<_> = net
        .take_outcomes()
        .iter()
        .map(|o| {
            (
                o.request,
                o.end_to_end_fidelity.to_bits(),
                o.latency.as_ps(),
                o.delivered_at.as_ps(),
            )
        })
        .collect();
    out.push((net.reroutes(), net.timeouts(), net.events_fired(), 0));
    out
}

// ---- passivity ------------------------------------------------------

/// Telemetry off vs. every facet on: bit-identical results. This is
/// the guarantee that lets a CI leg rerun the whole suite under
/// `QLINK_TRACE=1` and expect zero drift.
#[test]
fn telemetry_is_passive_bit_identical_results() {
    let mut off = contended_grid(5, ExecMode::Sequential, TelemetryConfig::OFF);
    let mut on = contended_grid(5, ExecMode::Sequential, TelemetryConfig::all());
    assert!(off.telemetry().is_none(), "OFF config stores no telemetry");
    assert!(on.telemetry().is_some());
    assert_eq!(
        results_fingerprint(&mut off),
        results_fingerprint(&mut on),
        "recording must never perturb the run"
    );
}

// ---- engine invariance ----------------------------------------------

/// The ISSUE's headline criterion: with telemetry on, `Sharded(2)`
/// produces a span stream byte-identical to `Sequential` — compared on
/// the JSONL export, on both a plain chain and the contended grid
/// (whose re-routes and retractions are the hard part).
#[test]
fn sharded_span_stream_is_byte_identical_to_sequential() {
    // Chain: the happy path.
    let run_chain = |exec| {
        let mut net = Network::new(chain(4), 11);
        net.set_telemetry(TelemetryConfig::all());
        net.set_exec(exec);
        net.request_entanglement(0, 3, 0.5);
        net.run_until_outcome(SimDuration::from_secs(40));
        spans_jsonl(net.telemetry().expect("telemetry on").spans())
    };
    let seq = run_chain(ExecMode::Sequential);
    assert!(!seq.is_empty());
    for n in [2, 4] {
        assert_eq!(
            seq,
            run_chain(ExecMode::Sharded(n)),
            "chain span stream diverged under Sharded({n})"
        );
    }

    // Contended grid: timeouts, retractions, re-routes, abandons.
    for seed in [1, 5] {
        let seq = contended_grid(seed, ExecMode::Sequential, TelemetryConfig::all());
        let seq_spans = spans_jsonl(seq.telemetry().expect("telemetry on").spans());
        assert!(
            seq_spans.contains("\"stage\":\"reroute\""),
            "seed {seed} must exercise the failure arcs"
        );
        for n in [2, 4] {
            let sh = contended_grid(seed, ExecMode::Sharded(n), TelemetryConfig::all());
            let sh_spans = spans_jsonl(sh.telemetry().expect("telemetry on").spans());
            assert_eq!(
                seq_spans, sh_spans,
                "grid span stream diverged under Sharded({n}) at seed {seed}"
            );
        }
    }
}

// ---- golden snapshot ------------------------------------------------

/// Golden snapshot: the complete stage sequence of one request on the
/// 3-node lab chain, seed 7. A SWAP-ASAP story in 17 stages: plan onto
/// 0-1-2, CREATE on both edges, the first pair arrives and both its
/// endpoints' tables mark the edge ready, the second pair arrives and
/// the repeater's table swaps the instant it lands, the Bell frame
/// crosses to both ends and each end's table declares it ready,
/// deliver. Any change to emission order, hook placement, rule-table
/// order, or the simulation itself shows up here.
#[test]
fn three_node_chain_matches_golden_stage_sequence() {
    let mut net = Network::new(chain(3), 7);
    net.set_telemetry(TelemetryConfig::all());
    net.request_entanglement(0, 2, 0.5);
    let outcome = net
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("lab chain delivers");
    let tl = net.telemetry().expect("telemetry on");
    let stages: Vec<&str> = tl.spans().iter().map(|s| s.stage.name()).collect();
    assert_eq!(
        stages,
        [
            "issue",
            "plan",
            "create",
            "create",
            "add",
            "rule_fired",
            "rule_fired",
            "add",
            "rule_fired",
            "rule_fired",
            "rule_fired",
            "swap",
            "swap_result",
            "rule_fired",
            "swap_result",
            "rule_fired",
            "deliver",
        ],
        "golden stage sequence moved"
    );
    // The deliver span carries the outcome's exact numbers.
    let SpanStage::Deliver { fidelity, latency } = tl.spans().last().expect("non-empty").stage
    else {
        panic!("last span must be the delivery");
    };
    assert_eq!(fidelity.to_bits(), outcome.end_to_end_fidelity.to_bits());
    assert_eq!(latency, outcome.latency);
}

/// Structural invariants of the chrome-trace export on a run with
/// failure arcs: every `B` has exactly one `E`, timestamps never run
/// backwards, and the JSON is well-formed enough to count braces.
#[test]
fn chrome_trace_is_balanced_and_monotone() {
    let net = contended_grid(5, ExecMode::Sequential, TelemetryConfig::all());
    let tl = net.telemetry().expect("telemetry on");
    let json = chrome_trace_json(tl.spans());
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    let terminals = tl.spans().iter().filter(|s| s.stage.is_terminal()).count();
    assert!(begins > 0);
    assert_eq!(ends, terminals, "one E per deliver/abandon");
    assert!(
        ends <= begins,
        "a request may outlive the run, but never ends twice"
    );
    let mut last = None;
    for s in tl.spans() {
        assert!(last.is_none_or(|t| t <= s.at), "span timestamps regressed");
        last = Some(s.at);
    }
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "brace-balanced JSON"
    );
}

// ---- metrics --------------------------------------------------------

/// Metric counters reconcile exactly with the network's own public
/// counters and with each other.
#[test]
fn metrics_reconcile_with_network_counters() {
    let mut net = contended_grid(5, ExecMode::Sequential, TelemetryConfig::all());
    let reroutes = net.reroutes();
    let outcomes = net.take_outcomes().len() as u64;
    let m = net.telemetry().expect("telemetry on").metrics();
    assert_eq!(m.reroutes, reroutes);
    assert_eq!(m.completions, outcomes);
    assert_eq!(m.latency.count(), outcomes);
    assert_eq!(m.fidelity.count(), outcomes);
    assert_eq!(m.deliveries.len() as u64, outcomes);
    assert!(m.creates.iter().sum::<u64>() > 0, "CREATEs were counted");
    assert!(m.queue_wait.count() > 0, "queue waits were paired");
    assert!(
        m.queue_wait.count() <= m.creates.iter().sum::<u64>(),
        "at most one wait sample per CREATE"
    );
}

/// Classical frames a link discards as undecodable are counted per
/// edge: never on clean channels, on every edge once frames corrupt.
#[test]
fn decode_drops_are_counted_per_edge() {
    let run = |corruption: f64| {
        let topo = Topology::chain(3, |i| LinkConfig {
            classical_corruption: corruption,
            ..lab(60 + i as u64)
        });
        let mut net = Network::new(topo, 4);
        net.set_telemetry(TelemetryConfig {
            metrics: true,
            ..TelemetryConfig::OFF
        });
        net.request_entanglement(0, 2, 0.6);
        net.run_until_outcome(SimDuration::from_secs(5));
        let drops = net
            .telemetry()
            .expect("telemetry on")
            .metrics()
            .decode_drops
            .clone();
        for (e, &n) in drops.iter().enumerate() {
            assert_eq!(n, net.link(e).metrics.decode_drops, "edge {e}");
        }
        drops
    };
    assert_eq!(run(0.0), vec![0, 0]);
    let drops = run(0.01);
    assert!(drops.iter().all(|&n| n > 0), "{drops:?}");
}

// ---- histogram percentiles ------------------------------------------

/// Property: for seeded random samples, `Histogram::quantile` is
/// within one bucket width of the exact nearest-rank order statistic,
/// for every tested q.
#[test]
fn histogram_quantiles_match_exact_order_statistics() {
    let mut rng = DetRng::new(0x0b5e_0b5e);
    for case in 0..20 {
        let n = 10 + rng.below(400) as usize;
        let mut h = Histogram::new(0.0, 10.0, 64);
        let mut exact = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.uniform() * 10.0;
            h.record(v);
            exact.push(v);
        }
        exact.sort_by(f64::total_cmp);
        let width = h.bucket_width();
        for q in [0.01, 0.25, 0.50, 0.90, 0.99] {
            let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
            let err = (h.quantile(q) - exact[rank]).abs();
            assert!(
                err <= width + 1e-12,
                "case {case}: q={q} off by {err:.4} (> bucket width {width:.4}, n={n})"
            );
        }
    }
}

// ---- retract-on-cancel ----------------------------------------------

/// Cancels a request while its CREATEs are still queued inside the
/// links, under the given knob setting, and returns the network.
fn cancel_mid_flight(retract: bool) -> Network {
    let mut net = Network::new(chain(3), 7);
    net.set_telemetry(TelemetryConfig::all());
    net.set_retract_on_cancel(retract);
    let req = net.request_entanglement(0, 2, 0.5);
    // Long enough for the reservation to land and the CREATEs to be
    // submitted, far too short for a lab link to deliver a pair.
    net.run_for(SimDuration::from_micros(50));
    net.cancel_request(req);
    net.run_for(SimDuration::from_secs(5));
    net
}

/// Default off: cancellation drops the bookkeeping and nothing else —
/// no retraction traffic, bit-identical to the pre-knob behavior.
#[test]
fn cancel_without_retraction_stays_quiet() {
    let mut net = cancel_mid_flight(false);
    assert!(!net.retract_on_cancel(), "knob defaults off");
    let m = net.telemetry().expect("telemetry on").metrics();
    assert!(m.creates.iter().sum::<u64>() > 0, "CREATEs were in flight");
    assert_eq!(m.retracts.iter().sum::<u64>(), 0);
    assert_eq!(m.expires.iter().sum::<u64>(), 0);
    assert!(
        net.take_outcomes().is_empty(),
        "cancelled request delivers nothing"
    );
}

/// Opted in: the cancel expires the queued CREATEs through the links'
/// classical retraction path — visible as RETRACT then EXPIRE
/// counters and `retract` spans.
#[test]
fn cancel_with_retraction_expires_queued_creates() {
    let mut net = cancel_mid_flight(true);
    let m = net.telemetry().expect("telemetry on").metrics();
    let retracts = m.retracts.iter().sum::<u64>();
    let expires = m.expires.iter().sum::<u64>();
    assert!(retracts > 0, "queued CREATEs were retracted");
    assert_eq!(expires, retracts, "every retraction reached its link");
    let spans = spans_jsonl(net.telemetry().expect("telemetry on").spans());
    assert!(spans.contains("\"stage\":\"retract\""));
    assert!(net.take_outcomes().is_empty());
}

/// The knob is invisible to runs that never cancel: a full contended
/// grid run fingerprints identically with it on or off.
#[test]
fn retract_on_cancel_is_inert_without_cancels() {
    let mut plain = contended_grid(5, ExecMode::Sequential, TelemetryConfig::OFF);
    let mut knob = {
        let root = DetRng::new(5);
        let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
        let mut net = Network::new(topo, 5);
        net.set_retract_on_cancel(true);
        net.set_route_metric(LoadScaledLatency);
        net.set_request_timeout(Some(SimDuration::from_millis(300)));
        net.set_retry_budget(2);
        for (src, dst) in [(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)] {
            net.request_entanglement(src, dst, 0.6);
        }
        net.run_for(SimDuration::from_millis(700));
        net
    };
    assert_eq!(
        results_fingerprint(&mut plain),
        results_fingerprint(&mut knob),
    );
}

// ---- profiling ------------------------------------------------------

/// The profile facet fills in engine numbers without touching the
/// simulation, in both engines; sharded runs report per-shard busy
/// time.
#[test]
fn profile_reports_engine_numbers() {
    let seq = contended_grid(1, ExecMode::Sequential, TelemetryConfig::all());
    let p = seq.telemetry().expect("telemetry on").profile();
    assert!(p.wall_nanos > 0);
    // `events_handled` counts shared-queue events; the network's
    // public counter adds every link's internal events on top.
    assert!(p.events_handled > 0);
    assert!(p.events_handled <= seq.events_fired());
    assert!(p.queue_depth_high_water > 0);
    assert_eq!(p.windows, 0, "sequential engine runs no windows");
    // The per-kind link event counts make up the rest, exactly.
    assert!(p.link_events.cycle > 0 && p.link_events.peer_frame > 0);
    assert_eq!(p.events_handled + p.link_events.total(), seq.events_fired());
    assert!(p.to_json().contains("\"link_events\": {\"cycle\": "));

    let sh = contended_grid(1, ExecMode::Sharded(2), TelemetryConfig::all());
    let p = sh.telemetry().expect("telemetry on").profile();
    assert!(p.windows > 0, "sharded engine ran windows");
    assert_eq!(p.shard_busy_nanos.len(), 2, "one busy figure per shard");
    assert_eq!(p.events_handled + p.link_events.total(), sh.events_fired());
    assert_eq!(
        p.link_events,
        seq.telemetry().expect("telemetry on").profile().link_events,
        "both engines fire the same link events"
    );
    let json = p.to_json();
    assert!(json.contains("\"windows\""));
    assert!(json.contains("\"shard_busy_ns\""));
}
