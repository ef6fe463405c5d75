//! Golden suite for the RuleSet control plane (`qlink::net::ruleset`).
//!
//! The contract under test: the interpreter — the only node engine —
//! reproduces bit for bit the run records of the hard-coded
//! `SwapAsapNode` machine it replaced. Those records (outcomes, RNG
//! draws, latencies, event counts) were recorded from the hard-coded
//! engine before it was deleted, across the parallel-suite scenario
//! classes (chains, the contended 4×4 grid, both purification
//! policies, single-edge paths), and are pinned below. The event
//! counts alone were re-recorded once idle links stopped ticking their
//! MHP clock; every other field is still the deleted engine's. `Sharded(n)`
//! stays bit-identical to `Sequential` (byte-equal span streams) with
//! rule firing logged. The data-only policies — threshold-gated
//! purification and k-round entanglement pumping — are pinned
//! behaviourally: a gated-out threshold is indistinguishable from
//! plain SWAP-ASAP, one pump round is indistinguishable from
//! link-purify, and more rounds consume more pairs for more fidelity.

use qlink::net::ruleset::Policy;
use qlink::net::sweep::{run_one, ExecChoice, PolicyChoice, RunRecord};
use qlink::net::{spans_jsonl, MetricChoice, TelemetryConfig};
use qlink::prelude::*;

/// Every field of a [`RunRecord`] that a simulation trajectory
/// determines, f64s by bit pattern, space-separated: successes,
/// rounds, timeouts, reroutes, events, pairs consumed, then the bits
/// of the fidelity mean, latency mean and latency variance in hex.
fn fingerprint(r: &RunRecord) -> String {
    format!(
        "{} {} {} {} {} {} {:016x} {:016x} {:016x}",
        r.successes,
        r.rounds,
        r.timeouts,
        r.reroutes,
        r.events,
        r.pairs_consumed,
        r.fidelity.mean().to_bits(),
        r.latency_s.mean().to_bits(),
        r.latency_s.variance().to_bits(),
    )
}

/// Asserts that `spec` reproduces the golden record of each seed.
fn assert_golden(spec: &ScenarioSpec, seeds: &[u64], goldens: &[&str]) {
    for (&seed, &golden) in seeds.iter().zip(goldens) {
        assert_eq!(
            fingerprint(&run_one(spec, seed)),
            golden,
            "{}: diverged from the hard-coded golden at seed {seed}",
            spec.name
        );
    }
}

/// The link-purify chain's record at seed 3, recorded from the
/// hard-coded `PurifyPolicy::LinkLevel` engine.
const LINK_PURIFY_SEED_3: &str =
    "1 1 0 0 746515 6 3fda52e5429edf40 3fd1cfd55f0b9d8e 0000000000000000";

/// The purifying chain every link-purify golden runs on.
fn purify_chain(name: &str) -> ScenarioSpec {
    ScenarioSpec::lab_chain(name, 4)
        .with_carbon_t2(10.0)
        .with_max_time(SimDuration::from_secs(40))
}

#[test]
fn interpreted_swap_asap_matches_hardcoded_on_chains() {
    let spec = ScenarioSpec::lab_chain("chain-3", 3)
        .with_rounds(2)
        .with_max_time(SimDuration::from_secs(25));
    assert_golden(
        &spec,
        &[1, 7],
        &[
            "2 2 0 0 777477 4 3fd52195d5056871 3fd0c1bc27b70368 3f6b6d7a44459c7d",
            "2 2 0 0 267432 4 3fd5b98731efca5e 3fb082ba99bc6912 3ede5d5c3ba5a7ab",
        ],
    );
}

#[test]
fn interpreted_swap_asap_matches_hardcoded_on_one_hop() {
    // Single-edge paths: the short-request lookahead collapse, and the
    // only case where an end's table completes without swap results.
    let spec = ScenarioSpec::lab_chain("one-hop", 2)
        .with_rounds(3)
        .with_max_time(SimDuration::from_secs(10));
    assert_golden(
        &spec,
        &[2, 9],
        &[
            "3 3 0 0 365882 3 3fe5975e37da881a 3fb8d177c90101fb 3f5f355b01c8b627",
            "3 3 0 0 523882 3 3fe5975e37da881a 3fc1b775a2997282 3f8c8fd537d4ba6b",
        ],
    );
}

#[test]
fn interpreted_swap_asap_matches_hardcoded_on_contended_grid() {
    // The PR 4 contention scenario: armed timeouts, retries, re-routes
    // — attempts must release, park, re-plan (pricing through
    // Policy::price), and re-install tables exactly as the hard-coded
    // engine did (both seeds re-route).
    let spec = ScenarioSpec::lab_grid("contended-grid", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)])
        .with_metric(MetricChoice::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2)
        .with_max_time(SimDuration::from_millis(700));
    assert_golden(
        &spec,
        &[1, 5],
        &[
            "5 6 1 5 6591861 22 3fd16c086d885c25 3fd4c204e2742183 3fa0d38c7c50c5c6",
            "5 6 1 4 7500413 22 3fd16c086d885c25 3fd4041256ae8e9a 3f9e1e0f6337012c",
        ],
    );
}

#[test]
fn interpreted_link_purify_matches_hardcoded_link_level() {
    // The PurifyPolicy input names the link-purify table: double
    // CREATEs, distill, regenerate on reject, and the purified route
    // pricing of Policy::price.
    let spec = purify_chain("link-purify").with_purify(PurifyPolicy::LinkLevel);
    assert_golden(&spec, &[3], &[LINK_PURIFY_SEED_3]);
}

#[test]
fn interpreted_end_to_end_matches_hardcoded_end_to_end() {
    let spec = purify_chain("e2e-purify").with_purify(PurifyPolicy::EndToEnd);
    assert_golden(
        &spec,
        &[3],
        &["1 1 0 0 746518 6 3fd76a1cbf82a58e 3fd1cfd573d16748 0000000000000000"],
    );
}

// ---- engine invariance with rules enabled ---------------------------

fn chain(n: usize) -> Topology {
    Topology::chain(n, |i| LinkConfig::lab(WorkloadSpec::none(), 100 + i as u64))
}

/// With rulesets enabled and telemetry on, `Sharded(n)` produces a
/// span stream byte-identical to `Sequential` — including the new
/// `rule_fired` spans, whose emission points ride the same control
/// messages as the decisions they log.
#[test]
fn sharded_span_stream_is_byte_identical_with_rules() {
    for policy in [Policy::SwapAsap, Policy::LinkPurify] {
        let run = |exec| {
            let mut net = Network::new(chain(4), 11);
            net.set_telemetry(TelemetryConfig::all());
            net.set_exec(exec);
            net.set_ruleset_policy(Some(policy));
            net.request_entanglement(0, 3, 0.5);
            net.run_until_outcome(SimDuration::from_secs(40));
            spans_jsonl(net.telemetry().expect("telemetry on").spans())
        };
        let seq = run(ExecMode::Sequential);
        assert!(
            seq.contains("\"stage\":\"rule_fired\""),
            "{}: interpreted runs must log fired rules",
            policy.name()
        );
        for n in [2, 4] {
            assert_eq!(
                seq,
                run(ExecMode::Sharded(n)),
                "{}: span stream diverged under Sharded({n})",
                policy.name()
            );
        }
    }
}

/// Sweep-level engine equivalence with rules enabled, on the
/// contended grid (re-routes re-compiling tables mid-run).
#[test]
fn sharded_runs_match_sequential_with_rules() {
    let spec = ScenarioSpec::lab_grid("grid-rules", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11)])
        .with_metric(MetricChoice::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2)
        .with_max_time(SimDuration::from_millis(700))
        .with_ruleset(Policy::SwapAsap);
    for seed in [1, 5] {
        let seq = run_one(&spec.clone().with_exec(ExecChoice::Sequential), seed);
        for n in [2, 4] {
            let sh = run_one(&spec.clone().with_exec(ExecChoice::Sharded(n)), seed);
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&sh),
                "rules: Sharded({n}) diverged from Sequential at seed {seed}"
            );
        }
    }
}

// ---- passivity ------------------------------------------------------

/// `SpanStage::RuleFired` is observation, not behaviour: an
/// interpreted run produces bit-identical results with telemetry on
/// or off.
#[test]
fn rule_fired_telemetry_never_moves_a_bit() {
    let run = |telemetry: bool| {
        let mut net = Network::new(chain(4), 11);
        if telemetry {
            net.set_telemetry(TelemetryConfig::all());
        }
        net.set_ruleset_policy(Some(Policy::LinkPurify));
        net.request_entanglement(0, 3, 0.5);
        let out = net
            .run_until_outcome(SimDuration::from_secs(40))
            .expect("delivers");
        (
            out.end_to_end_fidelity.to_bits(),
            out.latency.as_ps(),
            net.events_fired(),
        )
    };
    assert_eq!(run(false), run(true), "telemetry moved an interpreted run");
}

// ---- the data-only policies -----------------------------------------

/// A threshold no edge is below compiles every edge to a zero-round
/// program: the run is bit-identical to plain SWAP-ASAP. A threshold
/// every edge is below is bit-identical to link-purify — whose
/// override (`Policy::LinkPurify` set directly) reproduces the pinned
/// link-purify golden.
#[test]
fn threshold_purify_degenerates_to_its_neighbours() {
    let base = purify_chain("threshold");
    let run =
        |policy: Policy, seed: u64| fingerprint(&run_one(&base.clone().with_ruleset(policy), seed));
    let seed = 3;
    assert_eq!(
        run(Policy::ThresholdPurify { theta: 0.0 }, seed),
        run(Policy::SwapAsap, seed),
        "theta below every edge must behave as SWAP-ASAP"
    );
    let link_purify = run(Policy::LinkPurify, seed);
    assert_eq!(
        link_purify, LINK_PURIFY_SEED_3,
        "the link-purify override diverged from the hard-coded golden"
    );
    assert_eq!(
        run(Policy::ThresholdPurify { theta: 1.0 }, seed),
        link_purify,
        "theta above every edge must behave as link-purify"
    );
}

/// Pumping degenerates correctly at its edges (0 rounds = SWAP-ASAP,
/// 1 round = link-purify) and a second round spends more link pairs
/// on the delivered outcome.
#[test]
fn pump_rounds_scale_pair_cost() {
    let base = purify_chain("pump");
    let run = |policy: Policy, seed: u64| run_one(&base.clone().with_ruleset(policy), seed);
    let seed = 3;
    let asap = run(Policy::SwapAsap, seed);
    let one = run(Policy::LinkPurify, seed);
    assert_eq!(
        fingerprint(&run(Policy::PumpRounds { rounds: 0 }, seed)),
        fingerprint(&asap),
        "0 rounds must behave as SWAP-ASAP"
    );
    assert_eq!(
        fingerprint(&run(Policy::PumpRounds { rounds: 1 }, seed)),
        fingerprint(&one),
        "1 round must behave as link-purify"
    );
    let two = run(Policy::PumpRounds { rounds: 2 }, seed);
    assert!(
        two.successes == 0 || asap.successes == 0 || two.pairs_consumed > asap.pairs_consumed,
        "a delivered two-round outcome must consume more pairs than SWAP-ASAP \
         (pump {} vs asap {})",
        two.pairs_consumed,
        asap.pairs_consumed
    );
}

/// The sweep matrix carries [`PolicyChoice`] end to end: a two-cell
/// sweep mixing the purify input and an explicit policy merges
/// deterministically and names the policies.
#[test]
fn sweep_matrix_carries_policy_choice() {
    let specs = vec![
        ScenarioSpec::lab_chain("input", 3).with_max_time(SimDuration::from_secs(25)),
        ScenarioSpec::lab_chain("override", 3)
            .with_max_time(SimDuration::from_secs(25))
            .with_ruleset(Policy::SwapAsap),
    ];
    assert_eq!(specs[0].ruleset.name(), "purify");
    assert_eq!(specs[1].ruleset.name(), "rs-swap-asap");
    assert_eq!(
        PolicyChoice::Rules(Policy::ThresholdPurify { theta: 0.9 }).name(),
        "rs-threshold"
    );
    let report = sweep(&specs, &[1], 2);
    assert_eq!(report.runs.len(), 2);
    // Same physics, same seed, same table: `PurifyPolicy::Off` names
    // SWAP-ASAP, so the override reproduces the input's record bit for
    // bit inside the sweep.
    assert_eq!(fingerprint(&report.runs[0]), fingerprint(&report.runs[1]));
}
