//! Network-layer scaling benches (ROADMAP item).
//!
//! Two families:
//!
//! * `chain/*` — end-to-end generation over growing SWAP-ASAP chains:
//!   how simulated hops scale the *wall-clock* cost of one delivered
//!   pair (the simulation-throughput figure the sweep driver cares
//!   about), with the delivered latency/fidelity printed once for
//!   orientation.
//! * `route/*` — routing overhead on a grid: requests/second of pure
//!   path computation for unit-cost Dijkstra (PR 1's BFS
//!   equivalent), profile-aware Dijkstra, and Yen K-shortest-paths.
//! * `purify/*` — simulation cost of the purification policies: one
//!   delivered end-to-end pair on a 3-node long-memory chain under
//!   Off vs LinkLevel (double pairs + parity exchanges per edge).
//! * `congestion/*` — the contended-mesh workload: six concurrent
//!   cross-traffic pairs on a 4×4 grid under static vs load-scaled
//!   latency routing (with and without timeout re-routing).
//! * `sweep/*` — sweep-driver throughput (ROADMAP item): runs/second
//!   of a fixed scenario × seed matrix vs worker-thread count.
//! * `par/*` — the conservative-lookahead intra-topology engine
//!   (`qlink::net::par`): wall-clock of one giant-grid run under
//!   `ExecMode::Sequential` vs `Sharded(n)` — bit-identical results,
//!   so the whole difference is engine overhead vs parallel speedup.
//!   Also writes the measurements to `BENCH_par.json` (override the
//!   path with `QLINK_BENCH_PAR_JSON`) as the perf-trajectory record;
//!   speedup depends on the host's core count, which is recorded
//!   alongside. With `QLINK_BENCH_BASELINE` set, every entry's event
//!   count must equal the one recorded there. Run just this family
//!   with `cargo bench --bench net_scaling -- par/`, and shrink the
//!   simulated horizon for smoke runs with `QLINK_BENCH_SCALE` (e.g.
//!   `=0.1`).
//! * `load/*` — the open-loop workload engine (`qlink::net::load`):
//!   wall-clock of one sustained-arrival grid run at a moderate rate
//!   (the full admit → serve → account path dominates) and at 100×
//!   that rate (admission drops dominate — the per-arrival overhead
//!   figure that bounds how far past the knee a capacity sweep can
//!   push).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qlink::net::route::{FidelityProduct, HopCount, Latency, RoutePlanner};
use qlink::net::sweep::{run_one, sweep, ExecChoice};
use qlink::net::MetricChoice;
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// An n × n Lab-link grid (row-major, per-edge seeds).
fn grid(n: usize) -> Topology {
    Topology::grid(n, n, |i| lab(1 + i as u64))
}

fn bench_chain_scaling(c: &mut Criterion) {
    if !c.matches("chain/") {
        return;
    }
    // Print the hops → latency/fidelity curve once so the bench log
    // doubles as the scaling table.
    for nodes in [2, 3, 4] {
        let spec = ScenarioSpec::lab_chain(format!("{}hop", nodes - 1), nodes)
            .with_max_time(SimDuration::from_secs(60));
        let r = run_one(&spec, 1);
        println!(
            "chain {} hop(s): {}/{} delivered, mean F = {:.4}, mean latency = {:.3} s",
            nodes - 1,
            r.successes,
            r.rounds,
            r.fidelity.mean(),
            r.latency_s.mean(),
        );
    }
    for nodes in [2, 3, 4] {
        let spec = ScenarioSpec::lab_chain(format!("{}hop", nodes - 1), nodes)
            .with_max_time(SimDuration::from_secs(60));
        c.bench_function(&format!("chain/end_to_end_{}hop", nodes - 1), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

fn bench_purify_policies(c: &mut Criterion) {
    if !c.matches("purify/") {
        return;
    }
    for policy in [PurifyPolicy::Off, PurifyPolicy::LinkLevel] {
        let spec = ScenarioSpec::lab_chain(policy.name(), 3)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
            .with_purify(policy);
        // Orientation line: the fidelity-vs-pair-cost tradeoff of the
        // exact scenario the bench below measures.
        let r = run_one(&spec, 1);
        println!(
            "purify {:<11}: {}/{} delivered, mean F = {:.4}, pairs/delivery = {:.1}",
            policy.name(),
            r.successes,
            r.rounds,
            r.fidelity.mean(),
            r.pairs_consumed as f64 / r.successes.max(1) as f64,
        );
        c.bench_function(&format!("purify/end_to_end_2hop_{}", policy.name()), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

fn bench_congested_mesh(c: &mut Criterion) {
    if !c.matches("congestion/") {
        return;
    }
    let pairs = vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)];
    let cells = [
        ("latency", MetricChoice::Latency, 0u32),
        ("load_latency", MetricChoice::LoadLatency, 0),
        ("latency_retry2", MetricChoice::Latency, 2),
    ];
    for (name, metric, retries) in cells {
        let mut spec = ScenarioSpec::lab_grid("grid", 4, 4)
            .with_pairs(pairs.clone())
            .with_max_time(SimDuration::from_millis(500))
            .with_metric(metric)
            .with_retries(retries);
        if retries > 0 {
            spec = spec.with_request_timeout(SimDuration::from_millis(250));
        }
        // Orientation line: what the contended cell actually delivers.
        let r = run_one(&spec, 1);
        println!(
            "congestion {name:<14}: {}/{} delivered, {} timeouts, {} reroutes",
            r.successes, r.rounds, r.timeouts, r.reroutes,
        );
        c.bench_function(&format!("congestion/grid4x4_6pairs_{name}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

fn bench_sweep_throughput(c: &mut Criterion) {
    if !c.matches("sweep/") {
        return;
    }
    // A fixed 2-scenario × 4-seed matrix of short chain runs; the
    // bench sweeps the worker-thread count (ROADMAP: runs/second vs
    // threads). Results are identical whatever the count — only the
    // wall clock moves.
    let specs = vec![
        ScenarioSpec::lab_chain("1-hop", 2).with_max_time(SimDuration::from_secs(5)),
        ScenarioSpec::lab_chain("2-hop", 3).with_max_time(SimDuration::from_secs(5)),
    ];
    let seeds: Vec<u64> = (1..=4).collect();
    let runs = (specs.len() * seeds.len()) as f64;
    for threads in [1usize, 2, 4] {
        // Orientation line: the runs/second figure the ROADMAP asks
        // for, measured over one warm sweep.
        let start = std::time::Instant::now();
        let report = sweep(&specs, &seeds, threads);
        let secs = start.elapsed().as_secs_f64();
        println!(
            "sweep {threads} thread(s): {:.1} runs/s ({} workers used)",
            runs / secs,
            report.threads_used,
        );
        c.bench_function(&format!("sweep/throughput_{threads}threads"), |b| {
            b.iter(|| black_box(sweep(black_box(&specs), black_box(&seeds), threads)))
        });
    }
}

fn bench_par_engine(c: &mut Criterion) {
    // `matches_prefix` so a sub-family filter (`par/grid_8x8`, as the
    // CI smoke job passes) still enters the group; each full name is
    // then matched individually below.
    if !c.matches_prefix("par/") {
        return;
    }
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sim = qlink_bench::scaled_secs(2.0);
    let modes = [
        ("seq", ExecChoice::Sequential, 1usize),
        ("t2", ExecChoice::Sharded(2), 2),
        ("t4", ExecChoice::Sharded(4), 4),
    ];
    let mut json_entries = Vec::new();
    let mut measured: Vec<(String, u64)> = Vec::new();
    for n in [8usize, 16] {
        // One corner-to-corner request plus cross traffic, re-routing
        // armed: the workload class the intra-topology engine exists
        // for. Results are bit-identical across modes (pinned by
        // tests/net_par.rs), so wall-clock is the whole story.
        let last = n * n - 1;
        let spec = ScenarioSpec::lab_grid(format!("par-grid-{n}"), n, n)
            .with_pairs(vec![
                (0, last),
                (n - 1, last + 1 - n),
                (n / 2, last - n / 2),
            ])
            .with_metric(MetricChoice::LoadLatency)
            .with_max_time(sim);
        let mut seq_secs = None;
        for (tag, exec, threads) in modes {
            let name = format!("par/grid_{n}x{n}_{tag}");
            if !c.matches(&name) {
                continue;
            }
            let spec = spec.clone().with_exec(exec);
            // Minimum of two runs: single-shot wall timing is noisy
            // (±10% run-to-run on a busy host), and the minimum is the
            // standard low-noise estimator. The runs are
            // bit-identical, so only the clock differs.
            let watch = qlink_bench::Stopwatch::new();
            let r = run_one(&spec, 1);
            let first = watch.secs();
            let watch = qlink_bench::Stopwatch::new();
            let r2 = run_one(&spec, 1);
            let secs = watch.secs().min(first);
            assert_eq!(r.events, r2.events, "{name}: runs must be bit-identical");
            // Simulator cost per handled event: comparable across grid
            // sizes, but it rises when cheap events (idle ticks) are
            // removed, so it is recorded, not gated.
            let per_event_ns = if r.events == 0 {
                0.0
            } else {
                secs * 1e9 / r.events as f64
            };
            let seq = *seq_secs.get_or_insert(secs);
            // A speedup needs real cores: on a single-core host the
            // sharded modes measure scheduling overhead, not
            // parallelism, so the ratio is suppressed rather than
            // published as noise.
            let speedup = (host > 1).then(|| seq / secs);
            let speedup_col =
                speedup.map_or("   (1-core host)".into(), |s| format!("speedup {s:>5.2}x"));
            println!(
                "{name:<24} {per_event_ns:>7.1} ns/event  {secs:>8.3} s  {speedup_col}  \
                 ({} events, {} ok, host has {host} core(s))",
                r.events, r.successes,
            );
            json_entries.push(format!(
                "    {{\"name\": \"{name}\", \"threads\": {threads}, \
                 \"per_event_ns\": {per_event_ns:.1}, \"wall_seconds\": {secs:.4}, \
                 \"speedup_vs_seq\": {}, \"events\": {}}}",
                speedup.map_or("null".to_string(), |s| format!("{s:.3}")),
                r.events
            ));
            measured.push((name, r.events));
        }
    }
    if json_entries.is_empty() {
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"net_scaling/par\",\n  \"host_parallelism\": {host},\n  \
         \"speedup_valid\": {},\n  \"sim_seconds\": {:.3},\n  \"entries\": [\n{}\n  ]\n}}\n",
        host > 1,
        sim.as_secs_f64(),
        json_entries.join(",\n"),
    );
    // Default into the workspace root: the committed perf-trajectory
    // record, refreshed by any plain `cargo bench -- par/`.
    let path = std::env::var("QLINK_BENCH_PAR_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par.json").into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    check_against_baseline(&measured, sim);
}

/// The CI regression gate: with `QLINK_BENCH_BASELINE` pointing at a
/// committed `BENCH_par.json`, every entry's event count must equal the
/// recorded one. Event counts are a deterministic function of the
/// scenario — identical across engines, hosts and runs — so a changed
/// count is a behaviour change, to be re-recorded on purpose. (Host
/// speed is gated by the same-host A/B job, `ci/ab_gate.py`: a
/// per-event cost recorded on another machine gates nothing.)
fn check_against_baseline(measured: &[(String, u64)], sim: SimDuration) {
    let Ok(path) = std::env::var("QLINK_BENCH_BASELINE") else {
        return;
    };
    let base = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("QLINK_BENCH_BASELINE {path}: {e}"));
    let recorded_sim = number_after(&base, "\"sim_seconds\": ");
    assert_eq!(
        recorded_sim,
        Some(format!("{:.3}", sim.as_secs_f64())),
        "{path} was recorded over a different simulated horizon"
    );
    let mut failed = false;
    for (name, got) in measured {
        let want = base
            .find(&format!("\"name\": \"{name}\""))
            .and_then(|at| number_after(&base[at..], "\"events\": "))
            .and_then(|n| n.parse::<u64>().ok());
        match want {
            Some(want) if want == *got => println!("baseline ok {name}: {got} events"),
            Some(want) => {
                eprintln!("EVENT COUNT CHANGED {name}: {got} events, recorded {want}");
                failed = true;
            }
            None => {
                eprintln!("NOT RECORDED {name}: {path} has no event count for it");
                failed = true;
            }
        }
    }
    assert!(!failed, "event counts differ from {path}");
}

/// The number following the first `key` in `json` (the format this
/// bench writes; a full JSON parser would be a dependency for two
/// fields).
fn number_after(json: &str, key: &str) -> Option<String> {
    let tail = &json[json.find(key)? + key.len()..];
    let digits: String = tail
        .chars()
        .take_while(|ch| ch.is_ascii_digit() || *ch == '.')
        .collect();
    (!digits.is_empty()).then_some(digits)
}

fn bench_routing_overhead(c: &mut Criterion) {
    if !c.matches("route/") {
        return;
    }
    let topo = grid(6);
    let (src, dst) = (0, topo.node_count() - 1);

    // Unit-cost Dijkstra — the hop-count routing every request pays.
    c.bench_function("route/hopcount_dijkstra_6x6", |b| {
        b.iter(|| black_box(topo.shortest_path(black_box(src), black_box(dst))))
    });

    // Profile construction is the one-off cost of metric routing.
    c.bench_function("route/profile_build_6x6", |b| {
        b.iter(|| black_box(RoutePlanner::new(black_box(&topo))))
    });

    // Metric-aware searches on a prebuilt planner.
    let planner = RoutePlanner::new(&topo);
    c.bench_function("route/latency_dijkstra_6x6", |b| {
        b.iter(|| black_box(planner.shortest_path(&topo, src, dst, &Latency, 0.6)))
    });
    c.bench_function("route/fidelity_dijkstra_6x6", |b| {
        b.iter(|| black_box(planner.shortest_path(&topo, src, dst, &FidelityProduct, 0.6)))
    });
    c.bench_function("route/yen_k4_hopcount_6x6", |b| {
        b.iter(|| black_box(planner.k_shortest_paths(&topo, src, dst, 4, &HopCount, 0.0)))
    });
    c.bench_function("route/yen_k4_fidelity_6x6", |b| {
        b.iter(|| black_box(planner.k_shortest_paths(&topo, src, dst, 4, &FidelityProduct, 0.6)))
    });
}

fn bench_open_loop_load(c: &mut Criterion) {
    if !c.matches("load/") {
        return;
    }
    let classes = || {
        vec![
            UserClass::new("qkd", RequestKind::Md, vec![(0, 1), (1, 2), (4, 5)])
                .with_weight(3.0)
                .with_priority(1)
                .with_admission(AdmissionControl::QueueBeyond {
                    max_in_flight: 2,
                    queue_cap: 16,
                }),
            UserClass::new("compute", RequestKind::Ck, vec![(8, 9), (12, 13)])
                .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 }),
        ]
    };
    for (name, rate_hz) in [("rate2k", 2_000.0), ("rate200k", 200_000.0)] {
        let spec = ScenarioSpec::lab_grid("load", 4, 4)
            .with_metric(MetricChoice::LoadLatency)
            .with_retries(1)
            .with_request_timeout(SimDuration::from_millis(250))
            .with_max_time(SimDuration::from_secs_f64(0.2))
            .with_exec(ExecChoice::Sequential)
            .with_workload(Workload::poisson(rate_hz, classes()));
        c.bench_function(&format!("load/grid4x4_{name}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_chain_scaling, bench_routing_overhead, bench_purify_policies, bench_congested_mesh, bench_sweep_throughput, bench_par_engine, bench_open_loop_load
}
criterion_main!(benches);
