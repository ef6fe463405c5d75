//! The qlink benchmark: host CPU seconds per simulated second and per
//! delivered pair on three workloads, set-up time and peak memory,
//! with a per-layer breakdown from a separate traced run. Host times
//! are on-CPU times scaled to a reference host speed (see `clock.rs`).
//!
//! ```sh
//! qlink-perfbench --workload grid_service --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a readable report, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. See `NOTE.md` for what each number means.

mod clock;
mod replay;
mod stats;
mod workload;

use clock::{CpuTimer, RefClock};
use qlink::net::obs::TelemetryConfig;
use qlink::prelude::*;
use stats::{median, Timing};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Driver, Finished, IdleSampler, Kind, Outcome, SetupTimes};

/// The queue depth the DES replay uses on `link_mixed`: a link's event
/// queue is private, so its high water cannot be read from outside.
/// One attempt keeps about ten events pending; this rounds up.
const LINK_REPLAY_DEPTH: usize = 16;

/// Environment variables the library or its benches read; cleared so
/// that nothing outside the arguments changes what is measured.
const ISOLATED_ENV: [&str; 3] = ["QLINK_EXEC", "QLINK_TRACE", "QLINK_BENCH_SCALE"];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One measured (untraced) sub-run.
struct SubRun {
    seed: u64,
    /// The parts of each set-up, in CPU seconds.
    setups: Vec<SetupTimes>,
    /// Each whole set-up, in reference seconds.
    setup_s: Vec<f64>,
    /// On-CPU seconds of the run, reported only.
    cpu_s: f64,
    /// The same in reference seconds: what the metrics are made of.
    ref_s: f64,
    outcome: Outcome,
}

/// Reference seconds per simulated second and reference µs per
/// delivered pair, pooled over the sub-runs: total run time over total
/// simulated time and over total pairs. Pooling weighs each sub-run by
/// its work; on ten seeds it spread less than the median of per-sub-run
/// ratios. The cost per pair is printed but is no metric: a run
/// delivers 9 (`grid_sparse`) to a few hundred pairs, so the count
/// alone moves it by 17–38% between seeds.
fn pooled_costs(runs: &[SubRun]) -> (f64, f64) {
    let ref_s: f64 = runs.iter().map(|r| r.ref_s).sum();
    let sim_s: f64 = runs.iter().map(|r| r.outcome.sim_s).sum();
    let pairs: u64 = runs.iter().map(|r| r.outcome.pairs).sum();
    let per_pair = if pairs == 0 {
        f64::INFINITY
    } else {
        ref_s * 1e6 / pairs as f64
    };
    (ref_s / sim_s, per_pair)
}

fn measure(kind: Kind, seed: u64, clock: &mut RefClock) -> SubRun {
    let mut setups = Vec::with_capacity(kind.setups());
    let mut setup_s = Vec::with_capacity(kind.setups());
    let mut ready = None;
    for _ in 0..kind.setups() {
        // Free the previous set-up first, so that at most one simulator
        // is alive and the peak RSS is that of one sub-run.
        drop(ready.take());
        let (sim, times) = clock.time(|| workload::setup(kind, seed, TelemetryConfig::OFF));
        setup_s.push(clock.take().ref_s);
        setups.push(times);
        ready = Some(sim);
    }
    let ready = ready.expect("at least one set-up");
    let driver = Driver {
        sampler: None,
        clock: Some((&mut *clock, kind.slice())),
    };
    let (outcome, finished) = workload::run(kind, seed, ready, driver);
    let spent = clock.take();
    drop(finished);
    SubRun {
        seed,
        setups,
        setup_s,
        cpu_s: spent.cpu_s,
        ref_s: spent.ref_s,
        outcome,
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("unreadable line {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Collects `(name, value, unit)` metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn add_timing(&mut self, name: &str, t: Timing, unit: &'static str) {
        self.add(name, t.p50, unit);
        self.add(&format!("{name}.p99"), t.p99, unit);
        self.add(&format!("{name}.n"), t.samples as f64, "count");
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The per-layer figures of one traced sub-run plus the replays.
fn per_layer(
    kind: Kind,
    args: &Args,
    checked: &SubRun,
    runs: &[SubRun],
    clock: &mut RefClock,
    problems: &mut Vec<String>,
) -> Metrics {
    let seed = checked.seed;
    let (ready, _) = workload::setup(kind, seed, TelemetryConfig::all());
    let mut sampler = IdleSampler::new(SimDuration::from_millis(1));
    let driver = Driver {
        sampler: Some(&mut sampler),
        clock: Some((&mut *clock, kind.slice())),
    };
    let (traced, mut finished) = workload::run(kind, seed, ready, driver);
    let traced_ref_s = clock.take().ref_s;
    if traced.fingerprint != checked.outcome.fingerprint {
        problems.push(format!(
            "traced run of sub-run seed {seed} changed the outcome: {:016x} != {:016x}",
            traced.fingerprint, checked.outcome.fingerprint
        ));
    }
    problems.extend(traced.problems.iter().cloned());
    let counts = workload::layer_counts(&finished, &traced);

    let fmin = kind.fmin();
    let alphas = replay::alphas(fmin);
    let (depth, loss) = match kind.spec() {
        None => (LINK_REPLAY_DEPTH, kind.link_config(seed).classical_loss),
        Some(spec) => (counts.queue_depth_hw as usize, spec.classical_loss),
    };
    let schedule_pop = replay::schedule_pop(depth, args.seed);
    let sample = replay::attempt_sample(alphas[0], args.seed);
    let build = replay::model_build(&alphas);
    let encode = replay::frame_encode();
    let decode = replay::frame_decode();
    let transmit = replay::channel_transmit(loss, args.seed);
    let (issue_us, network_new_ms) = issue_replay(kind, runs);
    let issue = Timing::of(&issue_us);
    let network_new = Timing::of(&network_new_ms);
    let plan = match &mut finished {
        Finished::Net(net) => replay::plan_routes(net, &kind.pairs(), fmin),
        Finished::Link(_) => {
            let mut net = one_edge_network(kind, seed);
            replay::plan_routes(&mut net, &kind.pairs(), fmin)
        }
    };
    let idle_share = sampler.idle_share();
    drop(finished);

    let run_ns = checked.ref_s * 1e9;
    let sub_run_ns = (checked.ref_s + median_setup_s(std::slice::from_ref(checked))) * 1e9;
    let ns_per_event: Vec<f64> = runs
        .iter()
        .map(|r| r.ref_s * 1e9 / r.outcome.events.max(1) as f64)
        .collect();
    let mut m = Metrics::default();
    m.add("des.events", counts.events as f64, "count");
    m.add("des.shared_events", counts.shared_events as f64, "count");
    m.add("des.ns_per_event", median(&ns_per_event), "ns");
    m.add_timing("des.schedule_pop_ns", schedule_pop, "ns");
    m.add(
        "des.schedule_pop.cpu_share",
        checked.outcome.events as f64 * schedule_pop.p50 / run_ns,
        "fraction",
    );
    m.add("des.queue_depth_hw", counts.queue_depth_hw as f64, "count");
    m.add("sim.idle_link_share", idle_share, "fraction");
    m.add(
        "sim.useful_pair_share",
        counts.useful_pairs as f64 / counts.link_pairs.max(1) as f64,
        "fraction",
    );
    m.add_timing("phys.sample_ns", sample, "ns");
    m.add_timing("phys.model_build_ms", build, "ms");
    m.add_timing("wire.encode_ns", encode, "ns");
    m.add_timing("wire.decode_ns", decode, "ns");
    m.add_timing("classical.transmit_ns", transmit, "ns");
    m.add("egp.creates", counts.egp_creates as f64, "count");
    m.add("egp.retracts", counts.egp_retracts as f64, "count");
    m.add("egp.unsupp", counts.egp_unsupp as f64, "count");
    m.add("egp.expires", counts.egp_expires as f64, "count");
    m.add("egp.errors", counts.egp_errors as f64, "count");
    m.add_timing("net.plan_us", plan, "us");
    m.add(
        "net.plan.cpu_share",
        (counts.admitted + counts.reroutes) as f64 * plan.p50 * 1e3 / sub_run_ns,
        "fraction",
    );
    m.add_timing("net.issue_us", issue, "us");
    m.add(
        "net.issue.cpu_share",
        counts.admitted as f64 * issue.p50 * 1e3 / sub_run_ns,
        "fraction",
    );
    m.add_timing("net.setup_ms", network_new, "ms");
    m.add("net.arrivals", counts.arrivals as f64, "count");
    m.add(
        "net.admission_drops",
        counts.admission_drops as f64,
        "count",
    );
    m.add("net.reroutes", counts.reroutes as f64, "count");
    m.add("net.faults", counts.faults as f64, "count");
    m.add("net.timeouts", counts.timeouts as f64, "count");
    m.add(
        "obs.trace_overhead",
        traced_ref_s / checked.ref_s - 1.0,
        "fraction",
    );
    m
}

/// A network over the one `link_mixed` edge (its own workload generator
/// off, as under any `Network`): what the network layer's replays run
/// on for the single-link workload.
fn one_edge_network(kind: Kind, seed: u64) -> Network {
    let cfg = kind.link_config(seed);
    let link = LinkConfig::lab(WorkloadSpec::none(), seed)
        .with_scheduler(cfg.scheduler)
        .with_classical_loss(cfg.classical_loss);
    let mut net = Network::new(Topology::chain(2, |_| link.clone()), seed);
    net.set_telemetry(TelemetryConfig::OFF);
    net.set_exec(ExecMode::Sequential);
    net
}

/// Host time of `request_entanglement` (µs) and `Network::new` (ms).
/// The closed-loop grid issues its requests during set-up, so its
/// measured set-ups already hold both; the others issue on fresh,
/// discarded networks.
fn issue_replay(kind: Kind, runs: &[SubRun]) -> (Vec<f64>, Vec<f64>) {
    let mut issue_us = Vec::new();
    let mut new_ms = Vec::new();
    for times in runs.iter().flat_map(|r| &r.setups) {
        issue_us.extend(times.issue_s.iter().map(|s| s * 1e6));
        new_ms.extend(times.network_new_s.map(|s| s * 1e3));
    }
    if !issue_us.is_empty() {
        return (issue_us, new_ms);
    }
    new_ms.clear();
    let fmin = kind.fmin();
    // Twenty fresh networks, cycling through the sub-runs' seeds.
    for run in runs.iter().cycle().take(20) {
        let mut net = match kind.spec() {
            None => {
                let t = CpuTimer::start();
                let net = one_edge_network(kind, run.seed);
                new_ms.push(t.elapsed_s() * 1e3);
                net
            }
            Some(_) => {
                let (ready, times) = workload::setup(kind, run.seed, TelemetryConfig::OFF);
                new_ms.extend(times.network_new_s.map(|s| s * 1e3));
                match ready {
                    workload::Ready::Net { net, .. } => *net,
                    workload::Ready::Link(_) => unreachable!("grids set up networks"),
                }
            }
        };
        for (src, dst) in kind.pairs() {
            let t = CpuTimer::start();
            std::hint::black_box(net.request_entanglement(src, dst, fmin));
            issue_us.push(t.elapsed_s() * 1e6);
        }
    }
    (issue_us, new_ms)
}

fn median_setup_s(runs: &[SubRun]) -> f64 {
    let all: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    median(&all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: qlink-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    for var in ISOLATED_ENV {
        std::env::remove_var(var);
    }
    let kind = args.kind;
    let count = kind.sub_runs(args.seconds);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} ({} sub-runs): {}",
        kind.name(),
        args.seed,
        count,
        kind.describe()
    );

    let mut clock = RefClock::new();
    let runs: Vec<SubRun> = (0..count)
        .map(|i| measure(kind, kind.sub_seed(args.seed, i), &mut clock))
        .collect();
    let mut problems: Vec<String> = Vec::new();
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        problems.push(format!("peak RSS unreadable: {e}"));
        f64::NAN
    });

    // The checked sub-run: run again through the reference path, and
    // (traced) once more with every telemetry facet on.
    let checked = &runs[(args.seed % count as u64) as usize];
    let cpu = CpuTimer::start();
    let reference = workload::reference(kind, checked.seed);
    let reference_cpu_s = cpu.elapsed_s();
    if reference.fingerprint != checked.outcome.fingerprint {
        problems.push(format!(
            "sub-run seed {} differs from its reference run: {:016x} != {:016x}",
            checked.seed, checked.outcome.fingerprint, reference.fingerprint
        ));
    }
    if reference.sim_s != checked.outcome.sim_s {
        problems.push(format!(
            "sub-run seed {} ended at {} simulated s, its reference at {}",
            checked.seed, checked.outcome.sim_s, reference.sim_s
        ));
    }
    problems.extend(reference.problems.iter().cloned());
    for run in &runs {
        problems.extend(
            run.outcome
                .problems
                .iter()
                .map(|p| format!("sub-run seed {}: {p}", run.seed)),
        );
    }

    let _ = writeln!(
        report,
        "  {:>20} {:>9} {:>9} {:>9} {:>7} {:>9} {:>11} {:>10}  fingerprint",
        "sub-run seed", "sim_s", "cpu_s", "ref_s", "pairs", "offered", "events", "setup_ms"
    );
    for run in &runs {
        let o = &run.outcome;
        let setup: Vec<f64> = run.setup_s.iter().map(|s| s * 1e3).collect();
        let _ = writeln!(
            report,
            "  {:>20} {:>9.4} {:>9.3} {:>9.3} {:>7} {:>9} {:>11} {:>10.3}  {:016x}{}",
            run.seed,
            o.sim_s,
            run.cpu_s,
            run.ref_s,
            o.pairs,
            o.offered,
            o.events,
            median(&setup),
            o.fingerprint,
            if std::ptr::eq(run, checked) {
                " (checked)"
            } else {
                ""
            }
        );
    }
    let mut undelivered: Vec<(&str, u64)> = Vec::new();
    for (reason, n) in runs.iter().flat_map(|r| &r.outcome.undelivered) {
        match undelivered.iter_mut().find(|(r, _)| r == reason) {
            Some(slot) => slot.1 += n,
            None => undelivered.push((reason, *n)),
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.outcome.offered).sum();
    let delivered: u64 = runs.iter().map(|r| r.outcome.pairs).sum();
    let reroutes: u64 = runs.iter().map(|r| r.outcome.reroutes).sum();
    let faults: u64 = runs.iter().map(|r| r.outcome.faults).sum();
    let _ = writeln!(
        report,
        "  requests offered {attempted}, pairs delivered {delivered}, re-routes {reroutes}, \
         faults {faults}; not delivered (simulated outcomes, fingerprinted): {}",
        undelivered
            .iter()
            .map(|(r, n)| format!("{r} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let (per_sim_s, per_pair) = pooled_costs(&runs);
    let _ = writeln!(
        report,
        "  cost per delivered pair (seed-dependent, so no metric): {per_pair:.1} us"
    );
    let _ = writeln!(
        report,
        "  reference ({}): {:016x}, {:.3} CPU s with its set-up",
        if kind.has_run_one_reference() {
            "sweep::run_one"
        } else {
            "set up and run again"
        },
        reference.fingerprint,
        reference_cpu_s
    );

    let mut metrics = Metrics::default();
    if args.trace {
        metrics = per_layer(kind, &args, checked, &runs, &mut clock, &mut problems);
    } else {
        metrics.add("cpu_s_per_sim_s", per_sim_s, "s/s");
        metrics.add("setup_s", median_setup_s(&runs), "s");
        metrics.add("peak_rss_mb", rss, "MB");
    }
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number ({value})"));
        }
    }
    let _ = writeln!(
        report,
        "  metrics ({count} sub-runs; set-up and replay times are medians):"
    );
    for (name, value, unit) in &metrics.0 {
        let _ = writeln!(report, "    {name:<30} {value:>16.6} {unit}");
    }
    let correct = problems.is_empty();
    if correct {
        let _ = writeln!(report, "  checks: all passed");
    } else {
        for p in &problems {
            let _ = writeln!(report, "  CHECK FAILED: {p}");
        }
    }
    for (name, value, _) in metrics.0.iter_mut() {
        if !value.is_finite() {
            eprintln!("{name}: reported as 0 because it was not finite");
            *value = 0.0;
        }
    }
    print!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        if correct { 0 } else { attempted },
        metrics.json()
    );
    ExitCode::SUCCESS
}
