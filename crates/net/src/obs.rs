//! Deterministic telemetry: request-lifecycle spans, histogram
//! metrics, and engine profiling.
//!
//! Observability for a deterministic simulator has one extra contract
//! ordinary tracing layers don't: **recording must never perturb the
//! run**. Everything in this module is passive — it draws nothing from
//! any RNG, schedules no events, and is only ever written from the
//! coordinating thread while it processes shared-queue events in
//! `(time, seq)` order. Consequences:
//!
//! * With telemetry off (the default), a run is bit-identical to the
//!   same run on any earlier revision: the hooks reduce to an
//!   `Option` check.
//! * With telemetry on, the run's *results* are still bit-identical
//!   to the telemetry-off run — spans and metrics are a projection of
//!   the event stream, not a participant in it.
//! * [`ExecMode::Sharded`] produces the **exact same span stream** as
//!   [`ExecMode::Sequential`]: the parallel engine only runs link
//!   internals ahead; every span is emitted while the coordinator
//!   drains the shared queue, whose order the engines share.
//!
//! Three facets, independently switchable via [`TelemetryConfig`]
//! (programmatic: [`Network::set_telemetry`]; environment:
//! `QLINK_TRACE=1` or `QLINK_TRACE=spans,metrics,profile` via
//! [`TelemetryConfig::from_env`], read at [`Network::new`] like
//! `QLINK_EXEC`):
//!
//! * **Spans** — the life of every request as timestamped
//!   [`SpanEvent`]s: issue → plan → per-edge CREATE → pair ADD →
//!   swap / swap-result hops → purify parity → deliver, or the
//!   failure arcs (reroute, retract, abandon). Exportable as
//!   [`chrome_trace_json`] (load in a Chromium `about://tracing` /
//!   Perfetto UI) or line-delimited [`spans_jsonl`].
//! * **Metrics** — fixed-bucket [`Histogram`]s (end-to-end latency,
//!   delivered fidelity, per-CREATE queue wait) and exact `u64`
//!   counters (per-edge CREATE / RETRACT / EXPIRE / UNSUPP, purify
//!   attempts and successes, reroutes, abandons, completions), plus a
//!   deliveries [`TimeSeries`] for throughput-vs-time re-binning.
//! * **Profile** — wall-clock engine introspection: run time, events
//!   drained, queue-depth high water, and (sharded mode) per-shard
//!   run-ahead busy time and coordinator idle time per window,
//!   exportable as a `BENCH_par.json`-style artifact via
//!   [`EngineProfile::to_json`]. Wall time is the *one* nondeterministic
//!   quantity here, which is why it lives in its own facet: spans and
//!   metrics stay byte-reproducible with profiling on or off.
//!
//! [`Network::set_telemetry`]: crate::network::Network::set_telemetry
//! [`Network::new`]: crate::network::Network::new
//! [`ExecMode::Sharded`]: crate::par::ExecMode::Sharded
//! [`ExecMode::Sequential`]: crate::par::ExecMode::Sequential

use qlink_des::{Histogram, SimDuration, SimTime, TimeSeries};
use qlink_sim::link::{EventKindCounts, LinkSimulation};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Which telemetry facets a [`Network`](crate::network::Network)
/// records. The default ([`TelemetryConfig::OFF`]) records nothing and
/// costs one branch per hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record request-lifecycle [`SpanEvent`]s.
    pub spans: bool,
    /// Record histogram metrics and per-edge counters.
    pub metrics: bool,
    /// Record wall-clock engine profiling (the only facet whose output
    /// is not bit-reproducible — it measures the host, not the
    /// simulation).
    pub profile: bool,
}

impl TelemetryConfig {
    /// Everything off — the default; runs reproduce earlier revisions
    /// bit-for-bit.
    pub const OFF: TelemetryConfig = TelemetryConfig {
        spans: false,
        metrics: false,
        profile: false,
    };

    /// Every facet on.
    pub fn all() -> TelemetryConfig {
        TelemetryConfig {
            spans: true,
            metrics: true,
            profile: true,
        }
    }

    /// `true` when no facet is enabled.
    pub fn is_off(&self) -> bool {
        *self == TelemetryConfig::OFF
    }

    /// The configuration requested by the `QLINK_TRACE` environment
    /// variable: unset, empty, or `0` means [`TelemetryConfig::OFF`];
    /// `1` or `all` means [`TelemetryConfig::all`]; otherwise a
    /// comma-separated subset of `spans`, `metrics`, `profile`
    /// (unknown words are ignored). This is how a whole test suite or
    /// CI leg switches telemetry on without touching call sites, the
    /// same pattern as `QLINK_EXEC`.
    pub fn from_env() -> TelemetryConfig {
        match std::env::var("QLINK_TRACE") {
            Ok(v) => Self::parse(&v),
            Err(_) => TelemetryConfig::OFF,
        }
    }

    /// Parses a `QLINK_TRACE` value; see [`TelemetryConfig::from_env`].
    pub fn parse(s: &str) -> TelemetryConfig {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "" | "0" => TelemetryConfig::OFF,
            "1" | "all" => TelemetryConfig::all(),
            _ => {
                let mut c = TelemetryConfig::OFF;
                for word in s.split(',') {
                    match word.trim() {
                        "spans" => c.spans = true,
                        "metrics" => c.metrics = true,
                        "profile" => c.profile = true,
                        _ => {}
                    }
                }
                c
            }
        }
    }
}

/// One stage in a request's life. Every variant corresponds to a
/// specific hook point in `crates/net/src/network.rs`; the stages of
/// one request, in timestamp order, read as its complete story.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanStage {
    /// The request entered the network (first attempt only).
    Issue { src: usize, dst: usize, fmin: f64 },
    /// An attempt was planned onto this node path (every attempt,
    /// re-routes included).
    Plan { path: Vec<usize> },
    /// An NL CREATE was submitted to a link's EGP.
    Create {
        edge: usize,
        side: usize,
        create_id: u16,
    },
    /// A link delivered an NL pair for the request.
    Add { edge: usize, fidelity: f64 },
    /// A repeater performed its Bell-state measurement.
    Swap { node: usize },
    /// A swap's Bell-outcome frame reached a path end.
    SwapResult { node: usize },
    /// Two pairs on an edge were measured for link-level 2→1
    /// distillation.
    Purify { edge: usize },
    /// A link-level distillation verdict arrived at a node over the
    /// edge's classical channel (one span per receiving endpoint).
    PurifyParity { edge: usize, accepted: bool },
    /// An end-to-end distillation group's parity verdict arrived.
    GroupParity { group: u64, accepted: bool },
    /// The request completed: both ends hold the pair and its Pauli
    /// frame. `latency` is measured from the *first* attempt's issue.
    Deliver { fidelity: f64, latency: SimDuration },
    /// The attempt failed (the rejecting edge when a link UNSUPP'd it,
    /// `None` on a timeout) and the request is parked for re-issue.
    Reroute { failed_edge: Option<usize> },
    /// A still-queued CREATE of a failed or cancelled request was
    /// retracted (the expire notice is in flight to the link).
    Retract { edge: usize },
    /// The request was abandoned: its retry budget is exhausted (same
    /// `failed_edge` convention as [`SpanStage::Reroute`]).
    Abandon { failed_edge: Option<usize> },
    /// A RuleSet rule fired at one of the request's path nodes
    /// (see [`crate::ruleset`]): the rule's index in its table and
    /// its action tag. Purely passive — the interpreter's decisions
    /// are identical whether or not the firing is recorded.
    RuleFired { rule: u32, action: &'static str },
    /// The fault layer took an edge's quantum link down (see
    /// [`crate::fault`]). Emitted under the reserved network-track
    /// span id (`u64::MAX`), not a request id.
    EdgeFail { edge: usize },
    /// The fault layer brought an edge back up (same reserved track
    /// as [`SpanStage::EdgeFail`]).
    EdgeRepair { edge: usize },
}

impl SpanStage {
    /// Short stable name, used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            SpanStage::Issue { .. } => "issue",
            SpanStage::Plan { .. } => "plan",
            SpanStage::Create { .. } => "create",
            SpanStage::Add { .. } => "add",
            SpanStage::Swap { .. } => "swap",
            SpanStage::SwapResult { .. } => "swap_result",
            SpanStage::Purify { .. } => "purify",
            SpanStage::PurifyParity { .. } => "purify_parity",
            SpanStage::GroupParity { .. } => "group_parity",
            SpanStage::Deliver { .. } => "deliver",
            SpanStage::Reroute { .. } => "reroute",
            SpanStage::Retract { .. } => "retract",
            SpanStage::Abandon { .. } => "abandon",
            SpanStage::RuleFired { .. } => "rule_fired",
            SpanStage::EdgeFail { .. } => "edge_fail",
            SpanStage::EdgeRepair { .. } => "edge_repair",
        }
    }

    /// `true` for the stages that end a request's span (deliver /
    /// abandon).
    pub fn is_terminal(&self) -> bool {
        matches!(self, SpanStage::Deliver { .. } | SpanStage::Abandon { .. })
    }

    /// The stage's payload as a JSON object body (no braces).
    fn args_json(&self) -> String {
        match self {
            SpanStage::Issue { src, dst, fmin } => {
                format!("\"src\":{src},\"dst\":{dst},\"fmin\":{fmin}")
            }
            SpanStage::Plan { path } => {
                let nodes: Vec<String> = path.iter().map(|n| n.to_string()).collect();
                format!("\"path\":[{}]", nodes.join(","))
            }
            SpanStage::Create {
                edge,
                side,
                create_id,
            } => format!("\"edge\":{edge},\"side\":{side},\"create_id\":{create_id}"),
            SpanStage::Add { edge, fidelity } => {
                format!("\"edge\":{edge},\"fidelity\":{fidelity}")
            }
            SpanStage::Swap { node } | SpanStage::SwapResult { node } => {
                format!("\"node\":{node}")
            }
            SpanStage::Purify { edge } => format!("\"edge\":{edge}"),
            SpanStage::PurifyParity { edge, accepted } => {
                format!("\"edge\":{edge},\"accepted\":{accepted}")
            }
            SpanStage::GroupParity { group, accepted } => {
                format!("\"group\":{group},\"accepted\":{accepted}")
            }
            SpanStage::Deliver { fidelity, latency } => format!(
                "\"fidelity\":{fidelity},\"latency_s\":{}",
                latency.as_secs_f64()
            ),
            SpanStage::Reroute { failed_edge } | SpanStage::Abandon { failed_edge } => {
                match failed_edge {
                    Some(e) => format!("\"failed_edge\":{e}"),
                    None => "\"failed_edge\":null".to_string(),
                }
            }
            SpanStage::RuleFired { rule, action } => {
                format!("\"rule\":{rule},\"action\":\"{action}\"")
            }
            SpanStage::Retract { edge }
            | SpanStage::EdgeFail { edge }
            | SpanStage::EdgeRepair { edge } => format!("\"edge\":{edge}"),
        }
    }
}

/// One timestamped lifecycle event of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Global simulated time of the stage.
    pub at: SimTime,
    /// The request (or, for [`SpanStage::GroupParity`] and the
    /// delivery of a distilled pair, the group) the stage belongs to.
    pub request: u64,
    /// The attempt number the request was on (0-based; re-routes bump
    /// it). Stages recorded after an attempt's state is torn down
    /// (retractions) carry the attempt that owned the CREATE.
    pub attempt: u64,
    /// What happened.
    pub stage: SpanStage,
}

/// Deterministic aggregate metrics of one run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// NL CREATEs submitted, per edge.
    pub creates: Vec<u64>,
    /// CREATE retractions scheduled, per edge.
    pub retracts: Vec<u64>,
    /// Expire notices that reached their link, per edge.
    pub expires: Vec<u64>,
    /// Terminal UNSUPP rejections observed, per edge.
    pub unsupp: Vec<u64>,
    /// Link-level 2→1 distillations attempted / accepted.
    pub purify_attempts: u64,
    /// See [`Metrics::purify_attempts`].
    pub purify_successes: u64,
    /// Failed attempts re-planned and re-issued.
    pub reroutes: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// End-to-end pairs delivered.
    pub completions: u64,
    /// End-to-end latency in seconds: `[0, 60)` s in 600 buckets of
    /// 100 ms.
    pub latency: Histogram,
    /// Delivered end-to-end fidelity: `[0, 1)` in 100 buckets.
    pub fidelity: Histogram,
    /// Per-CREATE queue wait in seconds (submission to pair delivery —
    /// the time a CREATE spent queued and attempting inside the EGP):
    /// `[0, 60)` s in 600 buckets.
    pub queue_wait: Histogram,
    /// One sample per completion, at its delivery time, value 1 —
    /// re-bin with [`TimeSeries::rate_per_second`] for the
    /// throughput-vs-time series.
    pub deliveries: TimeSeries,
    /// Open-loop workload only: arrivals rejected by admission
    /// control, per user class. Empty until a workload arms.
    pub class_drops: Vec<u64>,
    /// Open-loop workload only: end-to-end latency per user class
    /// (same axis as [`Metrics::latency`]).
    pub class_latency: Vec<Histogram>,
    /// Open-loop workload only: admission queue wait per user class
    /// (zero for arrivals admitted on the spot).
    pub class_queue_wait: Vec<Histogram>,
    /// Fault injection (see [`crate::fault`]): edge failures applied,
    /// per edge.
    pub edge_fails: Vec<u64>,
    /// Fault injection: edge repairs applied, per edge.
    pub edge_repairs: Vec<u64>,
    /// Fault injection: the highest penalty-box surcharge each edge
    /// reached (a gauge — the live value decays between bumps).
    pub penalty_high_water: Vec<f64>,
    /// Classical frames the edge's link discarded as undecodable
    /// (corrupted in flight), per edge, over every incarnation of the
    /// link. Read off the links when a run loop returns.
    pub decode_drops: Vec<u64>,
}

impl Metrics {
    fn new(edges: usize) -> Metrics {
        Metrics {
            creates: vec![0; edges],
            retracts: vec![0; edges],
            expires: vec![0; edges],
            unsupp: vec![0; edges],
            purify_attempts: 0,
            purify_successes: 0,
            reroutes: 0,
            abandoned: 0,
            completions: 0,
            latency: latency_histogram(),
            fidelity: fidelity_histogram(),
            queue_wait: latency_histogram(),
            deliveries: TimeSeries::new(),
            class_drops: Vec::new(),
            class_latency: Vec::new(),
            class_queue_wait: Vec::new(),
            edge_fails: vec![0; edges],
            edge_repairs: vec![0; edges],
            penalty_high_water: vec![0.0; edges],
            decode_drops: vec![0; edges],
        }
    }
}

/// The standard latency-axis histogram: `[0, 60)` seconds, 100 ms
/// buckets. Shared by the network telemetry and the sweep driver so
/// per-seed histograms merge exactly.
pub fn latency_histogram() -> Histogram {
    Histogram::new(0.0, 60.0, 600)
}

/// The standard fidelity-axis histogram: `[0, 1)`, 100 buckets.
pub fn fidelity_histogram() -> Histogram {
    Histogram::new(0.0, 1.0, 100)
}

/// Wall-clock engine profile of one run (the only telemetry facet
/// whose numbers vary run to run — it measures the host machine).
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Wall nanoseconds spent inside `run_for` / `run_until_outcome`.
    pub wall_nanos: u64,
    /// Shared-queue events fired so far (simulation metric, included
    /// here to normalise the wall figures into ns/event).
    pub events_handled: u64,
    /// Most shared-queue events ever pending at once.
    pub queue_depth_high_water: usize,
    /// Conservative-lookahead windows executed (sharded mode).
    pub windows: u64,
    /// Wall nanoseconds the coordinator spent in window run-ahead +
    /// barrier (a subset of [`EngineProfile::wall_nanos`]).
    pub window_nanos: u64,
    /// Link events fired, by kind, summed over the live link of every
    /// edge (the per-link counterpart of
    /// [`EngineProfile::events_handled`]; together they make up
    /// `Network::events_fired`).
    pub link_events: EventKindCounts,
    /// Cumulative run-ahead busy nanoseconds per shard (index 0 is the
    /// coordinator's own shard). A large spread means the round-robin
    /// link deal is imbalanced.
    pub shard_busy_nanos: Vec<u64>,
    /// Wall nanoseconds the coordinator spent waiting on the window
    /// barrier after finishing its own shard.
    pub coord_idle_nanos: u64,
}

impl EngineProfile {
    /// Serialises the profile as a small JSON object, the same artifact
    /// style as the scaling benchmark's `BENCH_par.json`.
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .shard_busy_nanos
            .iter()
            .map(|n| n.to_string())
            .collect();
        let link_events: Vec<String> = self
            .link_events
            .named()
            .iter()
            .map(|(kind, n)| format!("\"{kind}\": {n}"))
            .collect();
        format!(
            "{{\n  \"wall_ns\": {},\n  \"events_handled\": {},\n  \"ns_per_event\": {:.1},\n  \"queue_depth_high_water\": {},\n  \"link_events\": {{{}}},\n  \"windows\": {},\n  \"window_ns\": {},\n  \"shard_busy_ns\": [{}],\n  \"coord_idle_ns\": {}\n}}\n",
            self.wall_nanos,
            self.events_handled,
            if self.events_handled == 0 {
                0.0
            } else {
                self.wall_nanos as f64 / self.events_handled as f64
            },
            self.queue_depth_high_water,
            link_events.join(", "),
            self.windows,
            self.window_nanos,
            shards.join(", "),
            self.coord_idle_nanos,
        )
    }
}

/// A network's telemetry state: configuration plus whatever the
/// enabled facets have recorded. Owned by
/// [`Network`](crate::network::Network), written only from its
/// coordinator thread, readable any time.
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    spans: Vec<SpanEvent>,
    metrics: Metrics,
    profile: EngineProfile,
    /// Submission instant of each in-flight CREATE, for the
    /// queue-wait histogram (same key as the network's
    /// `pending_creates`).
    submit_times: HashMap<(usize, usize, u16), SimTime>,
    /// Decode drops of link incarnations a repair replaced, per edge.
    retired_decode_drops: Vec<u64>,
}

impl Telemetry {
    /// Fresh telemetry for a network with `edges` links.
    pub(crate) fn new(config: TelemetryConfig, edges: usize) -> Telemetry {
        Telemetry {
            config,
            spans: Vec::new(),
            metrics: Metrics::new(edges),
            profile: EngineProfile::default(),
            submit_times: HashMap::new(),
            retired_decode_drops: vec![0; edges],
        }
    }

    /// The configuration this telemetry was enabled with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Every recorded span, in emission (= shared-queue) order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// The aggregate metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The wall-clock engine profile.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    pub(crate) fn profile_mut(&mut self) -> &mut EngineProfile {
        &mut self.profile
    }

    /// `true` when the profiling facet is on (the network's run loops
    /// only reach for `Instant` then).
    pub(crate) fn profiling(&self) -> bool {
        self.config.profile
    }

    // ---- hook surface (called by network.rs; all passive) ------------

    pub(crate) fn emit(&mut self, at: SimTime, request: u64, attempt: u64, stage: SpanStage) {
        if self.config.spans {
            self.spans.push(SpanEvent {
                at,
                request,
                attempt,
                stage,
            });
        }
    }

    pub(crate) fn on_create(&mut self, at: SimTime, edge: usize, side: usize, create_id: u16) {
        if self.config.metrics {
            self.metrics.creates[edge] += 1;
            self.submit_times.insert((edge, side, create_id), at);
        }
    }

    pub(crate) fn on_add(&mut self, at: SimTime, edge: usize, side: usize, create_id: u16) {
        if self.config.metrics {
            if let Some(submitted) = self.submit_times.remove(&(edge, side, create_id)) {
                self.metrics
                    .queue_wait
                    .record(at.since(submitted).as_secs_f64());
            }
        }
    }

    pub(crate) fn on_retract(&mut self, edge: usize, side: usize, create_id: u16) {
        if self.config.metrics {
            self.metrics.retracts[edge] += 1;
            self.submit_times.remove(&(edge, side, create_id));
        }
    }

    pub(crate) fn on_expire(&mut self, edge: usize) {
        if self.config.metrics {
            self.metrics.expires[edge] += 1;
        }
    }

    /// A repair is about to replace `edge`'s link: keep its counters.
    pub(crate) fn on_link_retired(&mut self, edge: usize, link: &LinkSimulation) {
        if self.config.metrics {
            self.retired_decode_drops[edge] += link.metrics.decode_drops;
        }
    }

    /// A run loop returned: read the per-link counters off the live
    /// links (edge-indexed).
    pub(crate) fn on_run_end(&mut self, links: &[LinkSimulation]) {
        if self.config.metrics {
            for (edge, link) in links.iter().enumerate() {
                self.metrics.decode_drops[edge] =
                    self.retired_decode_drops[edge] + link.metrics.decode_drops;
            }
        }
        if self.config.profile {
            self.profile.link_events = EventKindCounts::default();
            for link in links {
                self.profile.link_events += link.events_by_kind();
            }
        }
    }

    pub(crate) fn on_unsupp(&mut self, edge: usize) {
        if self.config.metrics {
            self.metrics.unsupp[edge] += 1;
        }
    }

    pub(crate) fn on_purify(&mut self, accepted: bool) {
        if self.config.metrics {
            self.metrics.purify_attempts += 1;
            if accepted {
                self.metrics.purify_successes += 1;
            }
        }
    }

    pub(crate) fn on_reroute(&mut self) {
        if self.config.metrics {
            self.metrics.reroutes += 1;
        }
    }

    pub(crate) fn on_abandon(&mut self) {
        if self.config.metrics {
            self.metrics.abandoned += 1;
        }
    }

    pub(crate) fn on_complete(&mut self, at: SimTime, fidelity: f64, latency: SimDuration) {
        if self.config.metrics {
            self.metrics.completions += 1;
            self.metrics.latency.record(latency.as_secs_f64());
            self.metrics.fidelity.record(fidelity);
            self.metrics.deliveries.push(at, 1.0);
        }
    }

    /// An open-loop workload armed with `classes` user classes: size
    /// the per-class vectors so the class-indexed hooks below can
    /// record unconditionally.
    pub(crate) fn on_workload_armed(&mut self, classes: usize) {
        if self.config.metrics {
            self.metrics.class_drops = vec![0; classes];
            self.metrics.class_latency = vec![latency_histogram(); classes];
            self.metrics.class_queue_wait = vec![latency_histogram(); classes];
        }
    }

    pub(crate) fn on_admission_drop(&mut self, class: usize) {
        if self.config.metrics {
            self.metrics.class_drops[class] += 1;
        }
    }

    pub(crate) fn on_admit(&mut self, class: usize, wait_s: f64) {
        if self.config.metrics {
            self.metrics.class_queue_wait[class].record(wait_s);
        }
    }

    pub(crate) fn on_class_complete(&mut self, class: usize, latency_s: f64) {
        if self.config.metrics {
            self.metrics.class_latency[class].record(latency_s);
        }
    }

    pub(crate) fn on_edge_fail(&mut self, edge: usize) {
        if self.config.metrics {
            self.metrics.edge_fails[edge] += 1;
        }
    }

    pub(crate) fn on_edge_repair(&mut self, edge: usize) {
        if self.config.metrics {
            self.metrics.edge_repairs[edge] += 1;
        }
    }

    /// The penalty box was bumped to `value` on `edge` — track the
    /// high water. (A gauge of bumps, not of the decayed value: the
    /// maximum is always attained at a bump instant.)
    pub(crate) fn on_penalty(&mut self, edge: usize, value: f64) {
        if self.config.metrics {
            let g = &mut self.metrics.penalty_high_water[edge];
            *g = g.max(value);
        }
    }
}

/// Serialises spans in the Chrome trace event format (the JSON a
/// Chromium `about://tracing` or Perfetto UI loads directly): one
/// async `B`/`E` pair per request spanning issue to deliver / abandon,
/// with every stage in between as an instant (`"ph":"i"`) event.
/// `pid` is always 1; `tid` is the request id, so each request renders
/// as its own track. Timestamps are microseconds with picosecond
/// precision kept in the fraction.
///
/// The output is a pure function of the span list — byte-identical
/// across runs, seeds aside, and across [`ExecMode`] choices.
///
/// [`ExecMode`]: crate::par::ExecMode
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for s in spans {
        let ts = s.at.as_ps() as f64 / 1e6;
        let req = s.request;
        if matches!(s.stage, SpanStage::Issue { .. }) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"request-{req}\",\"cat\":\"request\",\"ph\":\"B\",\"ts\":{ts:.6},\"pid\":1,\"tid\":{req}}}"
            );
        }
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.6},\"pid\":1,\"tid\":{req},\"args\":{{{}}}}}",
            s.stage.name(),
            s.stage.args_json()
        );
        if s.stage.is_terminal() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"request-{req}\",\"cat\":\"request\",\"ph\":\"E\",\"ts\":{ts:.6},\"pid\":1,\"tid\":{req}}}"
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Serialises spans as JSON Lines: one self-contained object per span,
/// in emission order. The format the determinism tests compare
/// byte-for-byte across [`ExecMode`]s, and the handiest input for ad
/// hoc `grep`/`jq`-style analysis.
///
/// [`ExecMode`]: crate::par::ExecMode
pub fn spans_jsonl(spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"at_ps\":{},\"request\":{},\"attempt\":{},\"stage\":\"{}\",{}}}",
            s.at.as_ps(),
            s.request,
            s.attempt,
            s.stage.name(),
            s.stage.args_json()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_env_forms() {
        assert_eq!(TelemetryConfig::parse(""), TelemetryConfig::OFF);
        assert_eq!(TelemetryConfig::parse("0"), TelemetryConfig::OFF);
        assert_eq!(TelemetryConfig::parse("1"), TelemetryConfig::all());
        assert_eq!(TelemetryConfig::parse("all"), TelemetryConfig::all());
        assert_eq!(
            TelemetryConfig::parse("spans,profile"),
            TelemetryConfig {
                spans: true,
                metrics: false,
                profile: true,
            }
        );
        assert_eq!(
            TelemetryConfig::parse(" Metrics "),
            TelemetryConfig {
                spans: false,
                metrics: true,
                profile: false,
            }
        );
        assert!(TelemetryConfig::parse("nonsense").is_off());
    }

    #[test]
    fn facets_gate_recording() {
        let mut tl = Telemetry::new(
            TelemetryConfig {
                spans: true,
                metrics: false,
                profile: false,
            },
            2,
        );
        tl.emit(SimTime::ZERO, 0, 0, SpanStage::Swap { node: 1 });
        tl.on_create(SimTime::ZERO, 0, 0, 7);
        tl.on_complete(SimTime::ZERO, 0.9, SimDuration::from_micros(5));
        assert_eq!(tl.spans().len(), 1);
        assert_eq!(tl.metrics().creates, vec![0, 0], "metrics facet is off");
        assert_eq!(tl.metrics().completions, 0);
    }

    #[test]
    fn queue_wait_pairs_create_with_add() {
        let mut tl = Telemetry::new(TelemetryConfig::all(), 1);
        let t0 = SimTime::ZERO + SimDuration::from_micros(10);
        let t1 = t0 + SimDuration::from_secs_f64(0.25);
        tl.on_create(t0, 0, 1, 3);
        tl.on_add(t1, 0, 1, 3);
        // An ADD with no matching CREATE (completed request's stray
        // pair) records nothing.
        tl.on_add(t1, 0, 1, 99);
        assert_eq!(tl.metrics().queue_wait.count(), 1);
        assert!((tl.metrics().queue_wait.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exporters_are_pure_functions_of_the_span_list() {
        let spans = vec![
            SpanEvent {
                at: SimTime::ZERO,
                request: 0,
                attempt: 0,
                stage: SpanStage::Issue {
                    src: 0,
                    dst: 2,
                    fmin: 0.6,
                },
            },
            SpanEvent {
                at: SimTime::ZERO + SimDuration::from_micros(3),
                request: 0,
                attempt: 0,
                stage: SpanStage::Deliver {
                    fidelity: 0.8,
                    latency: SimDuration::from_micros(3),
                },
            },
        ];
        let a = chrome_trace_json(&spans);
        let b = chrome_trace_json(&spans);
        assert_eq!(a, b);
        // One B, one E, two instants.
        assert_eq!(a.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(a.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(a.matches("\"ph\":\"i\"").count(), 2);
        let l = spans_jsonl(&spans);
        assert_eq!(l.lines().count(), 2);
        assert!(l.starts_with("{\"at_ps\":0,\"request\":0,\"attempt\":0,\"stage\":\"issue\","));
    }

    #[test]
    fn profile_serialises_as_json() {
        let p = EngineProfile {
            wall_nanos: 1000,
            events_handled: 10,
            queue_depth_high_water: 4,
            link_events: EventKindCounts {
                cycle: 7,
                peer_frame: 2,
                ..EventKindCounts::default()
            },
            windows: 2,
            window_nanos: 600,
            shard_busy_nanos: vec![300, 280],
            coord_idle_nanos: 20,
        };
        let j = p.to_json();
        assert!(j.contains("\"ns_per_event\": 100.0"));
        assert!(j.contains("\"shard_busy_ns\": [300, 280]"));
        assert!(j.contains("\"link_events\": {\"cycle\": 7, \"window_close\": 0,"));
        assert!(j.contains("\"peer_frame\": 2}"));
    }
}
