//! The parallel scenario-sweep driver.
//!
//! The ROADMAP's scale goal needs many runs, not one: a sweep fans a
//! *scenario × seed* matrix across OS threads (`std::thread::scope`,
//! no external dependencies) and merges every run's statistics into
//! per-scenario aggregates. Each run is an independent, fully seeded
//! [`Network`], so the merged report is bit-identical whatever the
//! thread count — parallelism changes wall-clock time only, never
//! results.

use crate::fault::{FaultPlan, Flapping, PenaltyConfig};
use crate::load::{ClassLoadStats, Workload};
use crate::network::Network;
use crate::obs::{fidelity_histogram, latency_histogram};
use crate::par::ExecMode;
use crate::purify::PurifyPolicy;
use crate::route::{FidelityProduct, HopCount, Latency, LoadScaledLatency};
use crate::ruleset::Policy;
use crate::topology::Topology;
use qlink_des::{DetRng, Histogram, SimDuration, SimTime, TimeSeries};
use qlink_math::stats::RunningStats;
use qlink_sim::config::{LinkConfig, SchedulerChoice};
use qlink_sim::workload::WorkloadSpec;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which physical scenario a sweep run instantiates per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkScenario {
    /// The 2 m laboratory setup.
    Lab,
    /// The 25 km QL2020 metropolitan setup.
    Ql2020,
}

/// Which route metric a sweep run steers its network with (the
/// `Copy` stand-in for the [`crate::route::RouteMetric`] trait
/// objects, so specs stay data-only and `Send`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricChoice {
    /// Fewest hops (the default; PR 1's behaviour).
    #[default]
    Hops,
    /// Minimise summed expected generation latency.
    Latency,
    /// Maximise the product of link fidelities.
    Fidelity,
    /// Congestion-aware latency: expected generation latency scaled
    /// by each edge's live reservation count
    /// ([`crate::route::LoadScaledLatency`]).
    LoadLatency,
}

/// How each run of a sweep advances its network (the sweep-level
/// handle on [`ExecMode`]; results are bit-identical across all
/// choices — only wall-clock time changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecChoice {
    /// Let the sweep driver decide: when there are more worker threads
    /// than jobs and the topology is large enough to profit, the
    /// spare threads parallelise *within* each run
    /// ([`ExecMode::Sharded`]); otherwise runs stay sequential and
    /// parallelism comes from fanning runs across threads. A lone
    /// [`run_one`] call under `Auto` follows the `QLINK_EXEC`
    /// environment variable.
    #[default]
    Auto,
    /// Force the classic single-threaded engine per run.
    Sequential,
    /// Force intra-topology sharding on this many threads per run.
    Sharded(usize),
}

impl ExecChoice {
    /// The concrete mode for one run, given how many threads the
    /// scheduler grants it (`Auto` only).
    fn resolve(self, granted: usize) -> Option<ExecMode> {
        match self {
            ExecChoice::Auto if granted > 1 => Some(ExecMode::Sharded(granted)),
            // Leave the network on its env-derived default.
            ExecChoice::Auto => None,
            ExecChoice::Sequential => Some(ExecMode::Sequential),
            ExecChoice::Sharded(n) => Some(ExecMode::Sharded(n)),
        }
    }
}

/// Which adversity a sweep run is subjected to (the data-only `Copy`
/// stand-in for [`FaultPlan`], so specs stay trivially `Send` +
/// `Clone` across worker threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultChoice {
    /// No fault plan is armed: no fault events, no penalty box, no
    /// draws from the `"net/fault"` substream — earlier PRs' event
    /// streams reproduce bit-for-bit.
    #[default]
    None,
    /// Every edge flaps independently: `cycles` fail/repair pairs with
    /// exponential `mean_up`/`mean_down` dwells, realized at arm time
    /// from the run seed's `"net/fault"` substream (see [`Flapping`]).
    Flapping {
        /// Mean up-dwell before each failure.
        mean_up: SimDuration,
        /// Mean down-dwell before each repair.
        mean_down: SimDuration,
        /// Fail/repair cycles per edge.
        cycles: usize,
        /// Arm the penalty box ([`PenaltyConfig::default`]) or switch
        /// it off ([`PenaltyConfig::off`]) — the A/B knob behind the
        /// robustness bench.
        penalty_box: bool,
    },
}

/// Which RuleSet policy a sweep run's nodes execute (the data-only
/// `Copy` stand-in for [`Network::set_ruleset_policy`], so specs stay
/// trivially `Send` + `Clone` across worker threads).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PolicyChoice {
    /// The table the spec's [`ScenarioSpec::purify`] input names (the
    /// default): [`Policy::SwapAsap`], [`Policy::LinkPurify`] or
    /// [`Policy::EndToEndPurify`].
    #[default]
    Purify,
    /// The given [`Policy`], compiled at issue time
    /// ([`crate::ruleset`]); the spec's `purify` input is ignored.
    Rules(Policy),
}

impl PolicyChoice {
    /// Display name (reports, benches).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyChoice::Purify => "purify",
            PolicyChoice::Rules(p) => p.name(),
        }
    }
}

/// Which topology a sweep run instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChoice {
    /// A linear chain of [`ScenarioSpec::nodes`] nodes.
    Chain,
    /// A rows × cols mesh ([`Topology::grid`]) — the contended
    /// workload class: many equal-length paths between most pairs.
    Grid {
        /// Grid rows (≥ 2).
        rows: usize,
        /// Grid columns (≥ 2).
        cols: usize,
    },
}

/// A data-only description of one sweep scenario: a repeater chain
/// with homogeneous hops. (Data-only so specs are trivially `Send` +
/// `Clone` across worker threads.)
///
/// # Examples
///
/// ```
/// use qlink_des::SimDuration;
/// use qlink_net::sweep::{run_one, MetricChoice, ScenarioSpec};
///
/// // A 1-hop Lab chain, two rounds, fidelity-aware routing.
/// let spec = ScenarioSpec::lab_chain("demo", 2)
///     .with_rounds(2)
///     .with_max_time(SimDuration::from_secs(20))
///     .with_metric(MetricChoice::Fidelity);
/// assert_eq!(spec.rounds, 2);
///
/// // One (scenario, seed) cell of the matrix, fully deterministic.
/// let record = run_one(&spec, 7);
/// assert_eq!(record.seed, 7);
/// assert_eq!(record.rounds, 2);
/// assert!(record.successes <= record.rounds);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Display name for the report.
    pub name: String,
    /// Number of chain nodes (hops = nodes − 1).
    pub nodes: usize,
    /// Physical scenario of every hop.
    pub scenario: LinkScenario,
    /// Link-layer scheduler at every hop.
    pub scheduler: SchedulerChoice,
    /// Classical frame-loss probability on the link-layer channels.
    pub classical_loss: f64,
    /// Requested minimum link fidelity.
    pub fmin: f64,
    /// Simulated-time budget per end-to-end round.
    pub max_time: SimDuration,
    /// End-to-end rounds per run.
    pub rounds: u32,
    /// Route metric steering each round's path selection.
    pub metric: MetricChoice,
    /// Concurrent same-pair requests per round (1 = single path; more
    /// are split across routes by
    /// [`Network::request_entanglement_multipath`]). Ignored under
    /// [`PurifyPolicy::EndToEnd`], whose rounds are one *logical*
    /// request each (two internal streams distilled into one pair).
    pub streams: u32,
    /// Purification policy of every round's requests.
    pub purify: PurifyPolicy,
    /// Overrides the carbon-memory dephasing time `T2*` (seconds) of
    /// every hop — the knob that models dynamically decoupled
    /// long-lived memories, without which multi-hop pairs decay to
    /// the maximally mixed 1/4 long before a partner pair for
    /// distillation can be generated. `None` keeps the scenario's
    /// Table 6 hardware value.
    pub carbon_t2: Option<f64>,
    /// Shape of each run's topology (chain by default; grids open the
    /// contended-mesh workload class).
    pub topology: TopologyChoice,
    /// Explicit concurrent `(src, dst)` requests per round. Empty
    /// (the default) keeps the classic workload: `streams` same-pair
    /// requests between node 0 and the last node. Non-empty, each
    /// round issues one request per listed pair concurrently —
    /// network-wide contention rather than same-pair multipath — and
    /// `streams` is ignored.
    pub pairs: Vec<(usize, usize)>,
    /// Re-route budget per request
    /// ([`Network::set_retry_budget`](crate::network::Network::set_retry_budget)):
    /// how many times a timed-out or link-rejected attempt re-plans
    /// against live load and re-issues. 0 (the default) disables
    /// re-routing entirely.
    pub retries: u32,
    /// Per-attempt timeout
    /// ([`Network::set_request_timeout`](crate::network::Network::set_request_timeout)).
    /// `None` (the default) schedules no timeout events, reproducing
    /// earlier PRs' event streams bit-for-bit; re-route on *timeout*
    /// (rather than on link rejection) needs it set below
    /// [`ScenarioSpec::max_time`].
    pub request_timeout: Option<SimDuration>,
    /// Execution engine per run (see [`ExecChoice`]; results are
    /// bit-identical across all choices).
    pub exec: ExecChoice,
    /// Open-loop workload driving the run instead of the closed-loop
    /// round machinery. `None` (the default) keeps the classic
    /// behaviour — and draws nothing from the arrival substream, so
    /// legacy specs reproduce earlier PRs' results bit-for-bit. Set,
    /// the run arms [`Network::set_workload`] and advances the clock
    /// once for [`ScenarioSpec::max_time`] of sustained arrivals;
    /// `rounds`, `streams`, `pairs`, and `fmin` are ignored (each
    /// [`crate::load::UserClass`] carries its own pairs and fmin).
    pub workload: Option<Workload>,
    /// Adversity the run is subjected to ([`FaultChoice::None`] by
    /// default, which arms no plan and reproduces earlier PRs'
    /// results bit-for-bit).
    pub faults: FaultChoice,
    /// RuleSet policy of every round's requests
    /// ([`PolicyChoice::Purify`] by default: the table `purify`
    /// names). Under [`PolicyChoice::Rules`] the spec's `purify`
    /// input is ignored.
    pub ruleset: PolicyChoice,
}

impl ScenarioSpec {
    /// A Lab-scenario chain with sensible defaults: Fmin 0.6, 20
    /// simulated seconds per round, one round, hop-count routing, one
    /// stream.
    pub fn lab_chain(name: impl Into<String>, nodes: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            nodes,
            scenario: LinkScenario::Lab,
            scheduler: SchedulerChoice::Fcfs,
            classical_loss: 0.0,
            fmin: 0.6,
            max_time: SimDuration::from_secs(20),
            rounds: 1,
            metric: MetricChoice::Hops,
            streams: 1,
            purify: PurifyPolicy::Off,
            carbon_t2: None,
            topology: TopologyChoice::Chain,
            pairs: Vec::new(),
            retries: 0,
            request_timeout: None,
            exec: ExecChoice::Auto,
            workload: None,
            faults: FaultChoice::None,
            ruleset: PolicyChoice::Purify,
        }
    }

    /// A Lab-scenario rows × cols grid mesh with the same defaults as
    /// [`ScenarioSpec::lab_chain`]; pair the builder with
    /// [`ScenarioSpec::with_pairs`] to put concurrent cross-traffic
    /// on it.
    ///
    /// # Panics
    /// Panics unless both dimensions are at least 2.
    pub fn lab_grid(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "a grid needs both dimensions ≥ 2");
        let mut spec = Self::lab_chain(name, rows * cols);
        spec.topology = TopologyChoice::Grid { rows, cols };
        spec
    }

    /// Builder: rounds per run.
    ///
    /// Clamps to at least one round: a zero-round run would measure
    /// nothing, so `with_rounds(0)` silently becomes `1` rather than
    /// producing an empty record.
    ///
    /// ```
    /// use qlink_net::sweep::ScenarioSpec;
    ///
    /// assert_eq!(ScenarioSpec::lab_chain("r", 2).with_rounds(0).rounds, 1);
    /// assert_eq!(ScenarioSpec::lab_chain("r", 2).with_rounds(7).rounds, 7);
    /// ```
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Builder: per-round simulated-time budget.
    pub fn with_max_time(mut self, max_time: SimDuration) -> Self {
        self.max_time = max_time;
        self
    }

    /// Builder: route metric.
    pub fn with_metric(mut self, metric: MetricChoice) -> Self {
        self.metric = metric;
        self
    }

    /// Builder: concurrent same-pair streams per round.
    ///
    /// Clamps to at least one stream — a round with zero streams could
    /// never deliver, so `with_streams(0)` silently becomes `1` (the
    /// same guard the run driver applies to hand-built specs).
    ///
    /// ```
    /// use qlink_net::sweep::ScenarioSpec;
    ///
    /// assert_eq!(ScenarioSpec::lab_chain("s", 2).with_streams(0).streams, 1);
    /// assert_eq!(ScenarioSpec::lab_chain("s", 2).with_streams(3).streams, 3);
    /// ```
    pub fn with_streams(mut self, streams: u32) -> Self {
        self.streams = streams.max(1);
        self
    }

    /// Builder: purification policy.
    pub fn with_purify(mut self, purify: PurifyPolicy) -> Self {
        self.purify = purify;
        self
    }

    /// Builder: carbon-memory `T2*` override (seconds) on every hop.
    pub fn with_carbon_t2(mut self, t2: f64) -> Self {
        self.carbon_t2 = Some(t2);
        self
    }

    /// Builder: explicit concurrent `(src, dst)` requests per round
    /// (overrides the default node-0-to-last workload; `streams` is
    /// then ignored).
    pub fn with_pairs(mut self, pairs: Vec<(usize, usize)>) -> Self {
        self.pairs = pairs;
        self
    }

    /// Builder: per-request re-route budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Builder: per-attempt timeout (arming timeout-driven
    /// re-routing).
    pub fn with_request_timeout(mut self, timeout: SimDuration) -> Self {
        self.request_timeout = Some(timeout);
        self
    }

    /// Builder: execution engine per run ([`ExecChoice::Sharded`]
    /// forces intra-topology parallelism, [`ExecChoice::Sequential`]
    /// forces the classic engine, [`ExecChoice::Auto`] — the default —
    /// lets [`sweep`] split threads between run-level and
    /// intra-topology parallelism by topology size).
    pub fn with_exec(mut self, exec: ExecChoice) -> Self {
        self.exec = exec;
        self
    }

    /// Builder: drive the run open-loop with a sustained arrival
    /// workload instead of closed-loop rounds (see
    /// [`ScenarioSpec::workload`]).
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Builder: subject the run to adversity (see [`FaultChoice`]).
    pub fn with_faults(mut self, faults: FaultChoice) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: run the round requests under `policy` instead of the
    /// table `purify` names (see [`PolicyChoice`]).
    pub fn with_ruleset(mut self, policy: Policy) -> Self {
        self.ruleset = PolicyChoice::Rules(policy);
        self
    }

    /// Number of nodes in the run's topology, whatever its shape.
    pub fn node_count(&self) -> usize {
        match self.topology {
            TopologyChoice::Chain => self.nodes,
            TopologyChoice::Grid { rows, cols } => rows * cols,
        }
    }

    /// Builds the run's topology with per-edge seeds derived from the
    /// run seed (stable per edge index, independent across edges).
    fn topology(&self, run_seed: u64) -> Topology {
        let root = DetRng::new(run_seed);
        let mut link = |i: usize| {
            let seed = root.substream(&format!("edge/{i}")).seed();
            let mut cfg = match self.scenario {
                LinkScenario::Lab => LinkConfig::lab(WorkloadSpec::none(), seed),
                LinkScenario::Ql2020 => LinkConfig::ql2020(WorkloadSpec::none(), seed),
            };
            if let Some(t2) = self.carbon_t2 {
                cfg.scenario.nv.carbon_t2 = t2;
            }
            cfg.with_scheduler(self.scheduler)
                .with_classical_loss(self.classical_loss)
        };
        match self.topology {
            TopologyChoice::Chain => Topology::chain(self.nodes, link),
            TopologyChoice::Grid { rows, cols } => Topology::grid(rows, cols, &mut link),
        }
    }
}

/// The measurements of one (scenario, seed) run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Index into the sweep's scenario list.
    pub scenario: usize,
    /// The run's seed.
    pub seed: u64,
    /// Requests that delivered end-to-end entanglement.
    pub successes: u32,
    /// Logical requests attempted: counted as they are issued —
    /// `rounds × streams` of the spec normally, `rounds` under
    /// [`PurifyPolicy::EndToEnd`] (one distilled pair per round,
    /// however many internal streams feed it). An outcome can only
    /// ever be counted against the round that issued its request, so
    /// `successes ≤ rounds` holds even when a stream aborts on UNSUPP
    /// and a buffered outcome straddles a round boundary.
    pub rounds: u32,
    /// End-to-end fidelities of successful rounds.
    pub fidelity: RunningStats,
    /// End-to-end latencies (seconds) of successful rounds.
    pub latency_s: RunningStats,
    /// Link pairs consumed by the delivered outcomes (purification
    /// spends several per edge; see
    /// [`EndToEndOutcome::pairs_consumed`](crate::network::EndToEndOutcome)).
    pub pairs_consumed: u64,
    /// Requests that failed to deliver within their round's budget —
    /// abandoned by the network's own timeout/rejection handling or
    /// still pending when the round's simulated-time budget ran out.
    pub timeouts: u32,
    /// Failed attempts the network re-planned and re-issued
    /// ([`Network::reroutes`](crate::network::Network::reroutes)).
    pub reroutes: u64,
    /// Total events fired (shared queue + all links).
    pub events: u64,
    /// Edge failures injected by the run's fault plan
    /// ([`Network::faults`](crate::network::Network::faults); 0 with
    /// no plan armed).
    pub faults: u64,
    /// Edge repairs applied by the run's fault plan
    /// ([`Network::repairs`](crate::network::Network::repairs)).
    pub repairs: u64,
    /// Latency distribution of the delivered requests (seconds; the
    /// standard [`latency_histogram`] layout, so per-seed histograms
    /// merge exactly into [`ScenarioStats::latency_hist`]). Always
    /// recorded — the histogram is a pure projection of the run's
    /// deterministic outcomes, so it costs nothing in reproducibility.
    pub latency_hist: Histogram,
    /// Fidelity distribution of the delivered requests (the standard
    /// [`fidelity_histogram`] layout).
    pub fidelity_hist: Histogram,
    /// One sample per delivered request at its delivery time — the
    /// run's throughput-vs-time raw series.
    pub deliveries: TimeSeries,
    /// Open-loop runs only: per-class workload accounting, in workload
    /// class order (empty for closed-loop runs). The scalar fields
    /// above are projected from it — `rounds` is total admitted,
    /// `successes` total completed, `timeouts` total abandoned — so
    /// legacy report consumers keep working.
    pub classes: Vec<ClassLoadStats>,
    /// Open-loop runs only: simulated seconds of sustained arrivals
    /// (the spec's `max_time`; 0 for closed-loop runs). Offered and
    /// carried *rates* divide by this.
    pub open_loop_secs: f64,
}

/// Merged per-scenario aggregate over all seeds.
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Scenario display name.
    pub name: String,
    /// Runs merged (one per seed).
    pub runs: u32,
    /// Requests that delivered end-to-end entanglement, across runs.
    pub successes: u32,
    /// Logical requests attempted across runs (see
    /// [`RunRecord::rounds`]).
    pub rounds: u32,
    /// End-to-end fidelity across delivered requests.
    pub fidelity: RunningStats,
    /// End-to-end latency (seconds) across delivered requests.
    pub latency_s: RunningStats,
    /// Link pairs consumed by delivered outcomes across runs.
    pub pairs_consumed: u64,
    /// Requests that failed to deliver within budget, across runs
    /// (see [`RunRecord::timeouts`]).
    pub timeouts: u32,
    /// Re-planned and re-issued attempts across runs.
    pub reroutes: u64,
    /// Total events fired across runs.
    pub events: u64,
    /// Edge failures injected across runs.
    pub faults: u64,
    /// Edge repairs applied across runs.
    pub repairs: u64,
    /// Exact bucket-merge of every run's latency histogram; read
    /// percentiles off it via [`ScenarioStats::latency_percentiles`].
    pub latency_hist: Histogram,
    /// Exact bucket-merge of every run's fidelity histogram.
    pub fidelity_hist: Histogram,
    /// Every run's delivery series, time-merged
    /// ([`TimeSeries::merge`] — runs share the t = 0 origin, so
    /// per-seed series interleave) — the scenario's throughput-vs-time
    /// raw data, re-binned by [`SweepReport::throughput_csv`].
    pub deliveries: TimeSeries,
    /// Open-loop scenarios only: exact per-class merge of every run's
    /// workload accounting ([`ClassLoadStats::merge`]; empty for
    /// closed-loop scenarios).
    pub classes: Vec<ClassLoadStats>,
    /// Open-loop scenarios only: total simulated seconds of sustained
    /// arrivals across runs (the denominator for offered/carried rates
    /// in [`SweepReport::service_csv`]).
    pub open_loop_secs: f64,
}

impl ScenarioStats {
    /// `(p50, p90, p99)` end-to-end latency in seconds, read from the
    /// merged histogram (each within one bucket width — 100 ms — of
    /// the exact order statistic). Zeros when nothing delivered.
    pub fn latency_percentiles(&self) -> (f64, f64, f64) {
        (
            self.latency_hist.quantile(0.50),
            self.latency_hist.quantile(0.90),
            self.latency_hist.quantile(0.99),
        )
    }

    /// `(p50, p90, p99)` delivered fidelity, read from the merged
    /// histogram (each within one bucket width — 0.01 — of the exact
    /// order statistic). Zeros when nothing delivered.
    pub fn fidelity_percentiles(&self) -> (f64, f64, f64) {
        (
            self.fidelity_hist.quantile(0.50),
            self.fidelity_hist.quantile(0.90),
            self.fidelity_hist.quantile(0.99),
        )
    }
}

/// The merged result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-scenario aggregates, in scenario order.
    pub scenarios: Vec<ScenarioStats>,
    /// Worker threads spawned.
    pub threads_used: usize,
    /// Per-run records in deterministic (scenario-major) order.
    pub runs: Vec<RunRecord>,
}

impl SweepReport {
    /// Total delivered requests across every scenario.
    pub fn total_successes(&self) -> u32 {
        self.scenarios.iter().map(|s| s.successes).sum()
    }

    /// Per-scenario latency and fidelity percentiles as CSV (one row
    /// per scenario): `scenario, delivered, latency p50/p90/p99 in
    /// seconds, fidelity p50/p90/p99, injected edge faults and
    /// repairs`. Deterministic: a pure function of the merged
    /// histograms and counters.
    pub fn percentile_csv(&self) -> String {
        let mut out = String::from(
            "scenario,delivered,latency_p50_s,latency_p90_s,latency_p99_s,\
             fidelity_p50,fidelity_p90,fidelity_p99,faults,repairs\n",
        );
        for s in &self.scenarios {
            let (l50, l90, l99) = s.latency_percentiles();
            let (f50, f90, f99) = s.fidelity_percentiles();
            let _ = writeln!(
                out,
                "{},{},{l50:.6},{l90:.6},{l99:.6},{f50:.6},{f90:.6},{f99:.6},{},{}",
                s.name, s.successes, s.faults, s.repairs
            );
        }
        out
    }

    /// Per-class open-loop service report as CSV, one row per
    /// (scenario, class): exact offered/admitted/dropped/completed/
    /// abandoned/queued/in-flight counts, offered and carried load in
    /// requests per simulated second, SLO-attainment fractions, and
    /// latency p50/p90/p99 plus queue-wait p99 read off the merged
    /// class histograms. Closed-loop scenarios (no workload) emit no
    /// rows. Deterministic: a pure function of the merged accounting.
    pub fn service_csv(&self) -> String {
        let mut out = String::from(
            "scenario,class,offered,admitted,dropped,completed,abandoned,queued,in_flight,\
             offered_per_s,carried_per_s,slo_latency,slo_fidelity,\
             latency_p50_s,latency_p90_s,latency_p99_s,queue_wait_p99_s\n",
        );
        for s in &self.scenarios {
            let per_sec = if s.open_loop_secs > 0.0 {
                1.0 / s.open_loop_secs
            } else {
                0.0
            };
            for c in &s.classes {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.4},{:.4},{:.6},{:.6},{:.6},{:.6}",
                    s.name,
                    c.name,
                    c.offered,
                    c.admitted,
                    c.dropped,
                    c.completed,
                    c.abandoned,
                    c.queued,
                    c.in_flight,
                    c.offered as f64 * per_sec,
                    c.completed as f64 * per_sec,
                    c.slo_latency_attainment(),
                    c.slo_fidelity_attainment(),
                    c.latency.quantile(0.50),
                    c.latency.quantile(0.90),
                    c.latency.quantile(0.99),
                    c.queue_wait.quantile(0.99),
                );
            }
        }
        out
    }

    /// Per-scenario throughput-vs-time as CSV: each scenario's merged
    /// delivery series re-binned into windows of `width` (closed at
    /// the last delivery, [`TimeSeries::binned`] semantics), one row
    /// per window: `scenario, window start in seconds, deliveries in
    /// the window, rate per second`. Scenarios with no deliveries get
    /// a single zero row.
    ///
    /// # Panics
    /// Panics on a zero `width`.
    pub fn throughput_csv(&self, width: SimDuration) -> String {
        let mut out = String::from("scenario,window_start_s,deliveries,rate_per_s\n");
        let per_sec = 1.0 / width.as_secs_f64();
        for s in &self.scenarios {
            let end = s
                .deliveries
                .samples()
                .last()
                .map_or(SimTime::ZERO, |&(t, _)| t);
            for bin in s.deliveries.binned(width, end) {
                let _ = writeln!(
                    out,
                    "{},{:.6},{},{:.6}",
                    s.name,
                    bin.start.since(SimTime::ZERO).as_secs_f64(),
                    bin.count,
                    bin.count as f64 * per_sec
                );
            }
        }
        out
    }
}

/// Topologies below this node count never profit from intra-run
/// sharding (windows are too small to amortise the barrier), so the
/// hybrid scheduler leaves spare threads idle rather than forcing
/// them onto tiny runs.
const INTRA_NODES_MIN: usize = 16;

/// Executes one (scenario, seed) cell of the matrix.
pub fn run_one(spec: &ScenarioSpec, seed: u64) -> RunRecord {
    run_one_granted(spec, seed, 1)
}

/// [`run_one`] with `granted` compute threads at this run's disposal —
/// what the hybrid scheduler in [`sweep`] hands a job when there are
/// more worker threads than jobs. Results are independent of
/// `granted`.
fn run_one_granted(spec: &ScenarioSpec, seed: u64, granted: usize) -> RunRecord {
    let mut net = Network::new(spec.topology(seed), seed);
    if let Some(mode) = spec.exec.resolve(granted) {
        net.set_exec(mode);
    }
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
    if let FaultChoice::Flapping {
        mean_up,
        mean_down,
        cycles,
        penalty_box,
    } = spec.faults
    {
        let mut plan = FaultPlan::new().with_penalty(if penalty_box {
            PenaltyConfig::default()
        } else {
            PenaltyConfig::off()
        });
        for edge in 0..net.topology().edge_count() {
            plan = plan.with_flapping(Flapping {
                edge,
                mean_up,
                mean_down,
                cycles,
                degrade: None,
            });
        }
        net.set_fault_plan(&plan);
    }
    // Event statistics start at the run boundary: construction
    // pre-schedules wakes and link cycles, and a queue reused across
    // runs keeps its counters through `clear()` (see
    // `EventQueue::reset_stats`), so `record.events` must re-base here.
    net.reset_event_stats();
    let dst = spec.node_count() - 1;
    let streams = spec.streams.max(1);
    let mut record = RunRecord {
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
    };
    if let Some(workload) = &spec.workload {
        // Open-loop: arm the sustained arrival stream and advance the
        // clock once for the whole budget — the workload engine issues
        // and accounts every request itself.
        net.set_workload(workload.clone());
        net.run_for(spec.max_time);
        let stats = net.workload_stats().expect("workload armed above");
        record.classes = stats.classes.clone();
        record.open_loop_secs = spec.max_time.as_secs_f64();
        // Project the per-class accounting onto the legacy scalar
        // fields so closed-loop report consumers keep working.
        record.rounds = u32::try_from(stats.total_admitted()).unwrap_or(u32::MAX);
        record.successes = u32::try_from(stats.total_completed()).unwrap_or(u32::MAX);
        record.timeouts = {
            let abandoned: u64 = stats.classes.iter().map(|c| c.abandoned).sum();
            u32::try_from(abandoned).unwrap_or(u32::MAX)
        };
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
        return record;
    }
    for _ in 0..spec.rounds {
        // A round's requests: explicit cross-traffic pairs when
        // given, else `streams` same-pair requests 0 → last. Under
        // EndToEnd a round is one logical request per pair (two
        // internal streams distilled into one delivered pair).
        let requests: Vec<u64> = if spec.pairs.is_empty() {
            let policy = match spec.ruleset {
                PolicyChoice::Purify => Policy::from(spec.purify),
                PolicyChoice::Rules(p) => p,
            };
            let end_to_end = policy == Policy::EndToEndPurify;
            if streams == 1 || end_to_end {
                vec![net.request_entanglement(0, dst, spec.fmin)]
            } else {
                net.request_entanglement_multipath(0, dst, spec.fmin, streams as usize)
            }
        } else {
            spec.pairs
                .iter()
                .map(|&(src, dst)| net.request_entanglement(src, dst, spec.fmin))
                .collect()
        };
        // Count attempts as issued, and only ever credit an outcome to
        // the round that issued its request: a stream aborting on
        // UNSUPP must not let a buffered outcome from an earlier round
        // double-count into this round's quota.
        record.rounds += requests.len() as u32;
        let mut pending: Vec<u64> = requests.clone();
        // One shared time budget per round, however many streams.
        let deadline = net.now() + spec.max_time;
        while !pending.is_empty() {
            let left = deadline.saturating_since(net.now());
            if left == SimDuration::ZERO {
                break;
            }
            let Some(out) = net.run_until_outcome(left) else {
                break;
            };
            let Some(at) = pending.iter().position(|&r| r == out.request) else {
                continue; // an earlier round's stray outcome
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
        // Whatever did not make the budget timed out — whether the
        // network already abandoned it (retry budget exhausted) or it
        // was still limping along. Cancel is a no-op for the done.
        record.timeouts += pending.len() as u32;
        for request in requests {
            net.cancel_request(request);
        }
    }
    record.reroutes = net.reroutes();
    record.events = net.events_fired();
    record.faults = net.faults();
    record.repairs = net.repairs();
    record
}

/// Fans `specs × seeds` across up to `threads` OS threads and merges
/// the results. The merge order is deterministic (scenario-major, then
/// seed order), so the report is independent of scheduling — and
/// because the sharded engine is bit-identical to the sequential one,
/// it is independent of the execution split too.
///
/// **Hybrid scheduling:** run-level fan-out uses at most one thread
/// per job. When `threads` exceeds the job count, the spare threads
/// are divided evenly among the jobs and each `Auto`-exec run with a
/// large enough topology (≥ 16 nodes) advances its links under
/// [`ExecMode::Sharded`] on its share — few giant runs use the whole
/// machine, many small runs keep the classic one-run-per-thread
/// layout. [`ExecChoice::Sequential`]/[`ExecChoice::Sharded`] on a
/// spec override the split for its runs.
///
/// # Panics
/// Panics if `specs` or `seeds` is empty, or `threads == 0`.
pub fn sweep(specs: &[ScenarioSpec], seeds: &[u64], threads: usize) -> SweepReport {
    assert!(!specs.is_empty(), "no scenarios");
    assert!(!seeds.is_empty(), "no seeds");
    assert!(threads > 0, "no worker threads");

    let jobs: Vec<(usize, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, _)| seeds.iter().map(move |&s| (si, s)))
        .collect();
    let workers = threads.min(jobs.len());
    // Spare threads (more threads than jobs) parallelise *within*
    // runs whose topology is big enough to profit.
    let spare_share = (threads / jobs.len().max(1)).max(1);
    let granted: Vec<usize> = specs
        .iter()
        .map(|s| {
            if s.node_count() >= INTRA_NODES_MIN {
                spare_share
            } else {
                1
            }
        })
        .collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<RunRecord>>> = Mutex::new(vec![None; jobs.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(si, seed)) = jobs.get(job) else {
                    break;
                };
                let mut record = run_one_granted(&specs[si], seed, granted[si]);
                record.scenario = si;
                results.lock().expect("worker panicked holding results")[job] = Some(record);
            });
        }
    });

    let runs: Vec<RunRecord> = results
        .into_inner()
        .expect("worker panicked holding results")
        .into_iter()
        .map(|r| r.expect("job not executed"))
        .collect();

    let scenarios = specs
        .iter()
        .enumerate()
        .map(|(si, spec)| {
            let mut stats = ScenarioStats {
                name: spec.name.clone(),
                runs: 0,
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
            };
            for run in runs.iter().filter(|r| r.scenario == si) {
                stats.runs += 1;
                stats.successes += run.successes;
                stats.rounds += run.rounds;
                stats.fidelity.merge(&run.fidelity);
                stats.latency_s.merge(&run.latency_s);
                stats.pairs_consumed += run.pairs_consumed;
                stats.timeouts += run.timeouts;
                stats.reroutes += run.reroutes;
                stats.events += run.events;
                stats.faults += run.faults;
                stats.repairs += run.repairs;
                stats.latency_hist.merge(&run.latency_hist);
                stats.fidelity_hist.merge(&run.fidelity_hist);
                stats.deliveries.merge(&run.deliveries);
                stats.open_loop_secs += run.open_loop_secs;
                if stats.classes.is_empty() {
                    stats.classes = run.classes.clone();
                } else {
                    for (agg, c) in stats.classes.iter_mut().zip(&run.classes) {
                        agg.merge(c);
                    }
                }
            }
            stats
        })
        .collect();

    SweepReport {
        scenarios,
        threads_used: workers,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::lab_chain("1-hop", 2),
            ScenarioSpec::lab_chain("2-hop", 3).with_max_time(SimDuration::from_secs(25)),
        ]
    }

    #[test]
    fn sweep_covers_the_full_matrix() {
        let specs = tiny_specs();
        let report = sweep(&specs, &[1, 2], 2);
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.threads_used, 2);
        for s in &report.scenarios {
            assert_eq!(s.runs, 2);
        }
        // Deterministic order: scenario-major, then seed order.
        let order: Vec<(usize, u64)> = report.runs.iter().map(|r| (r.scenario, r.seed)).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 1), (1, 2)]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let specs = vec![ScenarioSpec::lab_chain("1-hop", 2)];
        let seeds = [3, 4, 5];
        let serial = sweep(&specs, &seeds, 1);
        let parallel = sweep(&specs, &seeds, 3);
        assert_eq!(serial.threads_used, 1);
        assert!(parallel.threads_used >= 2);
        assert_eq!(serial.total_successes(), parallel.total_successes());
        for (a, b) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.events, b.events, "seed {}: event counts diverged", a.seed);
            assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
            assert_eq!(a.latency_s.mean().to_bits(), b.latency_s.mean().to_bits());
        }
    }

    #[test]
    fn report_emits_percentiles_and_throughput_csv() {
        let specs = vec![ScenarioSpec::lab_chain("1-hop", 2).with_rounds(3)];
        let report = sweep(&specs, &[1, 2], 2);
        let s = &report.scenarios[0];
        assert!(s.successes > 0, "the 1-hop lab chain delivers");
        assert_eq!(s.latency_hist.count(), u64::from(s.successes));
        assert_eq!(s.fidelity_hist.count(), u64::from(s.successes));
        assert_eq!(s.deliveries.len(), s.successes as usize);
        let (p50, p90, p99) = s.latency_percentiles();
        assert!(p50 <= p90 && p90 <= p99);
        let pcsv = report.percentile_csv();
        assert_eq!(pcsv.lines().count(), 2, "header + one scenario row");
        assert!(pcsv.starts_with("scenario,delivered,latency_p50_s"));
        assert!(pcsv.contains("1-hop,"));
        let tcsv = report.throughput_csv(SimDuration::from_secs(1));
        assert!(tcsv.starts_with("scenario,window_start_s,deliveries,rate_per_s"));
        // Window counts re-add to the delivered total.
        let total: u64 = tcsv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, u64::from(s.successes));
    }

    #[test]
    fn workers_capped_by_job_count() {
        let specs = vec![ScenarioSpec::lab_chain("1-hop", 2)];
        let report = sweep(&specs, &[9], 8);
        assert_eq!(report.threads_used, 1);
    }
}
