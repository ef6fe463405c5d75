//! Evaluation metrics (§4.2, §6.2).
//!
//! Collected per request kind and per origin node so the paper's
//! fairness comparison (§6.2 "Fairness") and the appendix time-series
//! figures can be regenerated.

use crate::config::RequestKind;
use qlink_des::trace::TimeSeries;
use qlink_des::{SimDuration, SimTime};
use qlink_math::stats::RunningStats;
use qlink_quantum::Basis;
use std::collections::HashMap;

/// Per-(kind, origin) accumulator.
#[derive(Debug, Clone, Default)]
pub struct KindMetrics {
    /// Pairs delivered (OKs at the origin node).
    pub pairs_delivered: u64,
    /// Requests fully completed.
    pub requests_completed: u64,
    /// Fidelity of delivered pairs.
    pub fidelity: RunningStats,
    /// Latency from CREATE to each pair's OK (§4.2 "latency per pair").
    pub pair_latency: RunningStats,
    /// Latency from CREATE to request completion.
    pub request_latency: RunningStats,
    /// Request latency / pairs requested ("scaled latency").
    pub scaled_latency: RunningStats,
}

/// QBER tallies for MD runs (per basis: errors / total).
#[derive(Debug, Clone, Copy, Default)]
pub struct QberTally {
    /// `(errors, total)` for X.
    pub x: (u64, u64),
    /// `(errors, total)` for Y.
    pub y: (u64, u64),
    /// `(errors, total)` for Z.
    pub z: (u64, u64),
}

impl QberTally {
    /// Records one measured pair.
    pub fn record(&mut self, basis: Basis, error: bool) {
        let slot = match basis {
            Basis::X => &mut self.x,
            Basis::Y => &mut self.y,
            Basis::Z => &mut self.z,
        };
        slot.0 += error as u64;
        slot.1 += 1;
    }

    fn rate(slot: (u64, u64)) -> Option<f64> {
        if slot.1 == 0 {
            None
        } else {
            Some(slot.0 as f64 / slot.1 as f64)
        }
    }

    /// Fidelity from the measured QBERs via eq. (16) (the paper's
    /// "Fidelity MD extracted from QBER measurements").
    pub fn fidelity(&self) -> Option<f64> {
        let x = Self::rate(self.x)?;
        let y = Self::rate(self.y)?;
        let z = Self::rate(self.z)?;
        Some((1.0 - (x + y + z) / 2.0).clamp(0.0, 1.0))
    }
}

/// All measurements from one run.
#[derive(Debug, Default)]
pub struct LinkMetrics {
    per_kind: HashMap<(RequestKind, usize), KindMetrics>,
    /// QBER tallies for MD pairs.
    pub qber: QberTally,
    /// Error counts by wire code (TIMEOUT, UNSUPP, ...).
    pub errors: HashMap<&'static str, u64>,
    /// EXPIRE messages seen (sent, at either node).
    pub expires_sent: u64,
    /// Classical frames (node-to-node, GEN, REPLY) discarded on
    /// arrival because they failed to decode — corrupted in flight.
    pub decode_drops: u64,
    /// Queue-length samples.
    pub queue_length: RunningStats,
    /// Per-kind OK time series (for throughput-vs-time plots).
    pub ok_series: HashMap<RequestKind, TimeSeries>,
    /// Per-kind request-latency time series `(completion time, latency s)`.
    pub latency_series: HashMap<RequestKind, TimeSeries>,
    /// Simulated duration covered by the run (set by the harness).
    pub elapsed: SimDuration,
}

impl LinkMetrics {
    /// Creates an empty metrics collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn kind_mut(&mut self, kind: RequestKind, origin: usize) -> &mut KindMetrics {
        self.per_kind.entry((kind, origin)).or_default()
    }

    /// Records one delivered pair at the origin node.
    pub fn record_pair(
        &mut self,
        kind: RequestKind,
        origin: usize,
        fidelity: f64,
        latency: SimDuration,
        now: SimTime,
    ) {
        let m = self.kind_mut(kind, origin);
        m.pairs_delivered += 1;
        m.fidelity.push(fidelity);
        m.pair_latency.push(latency.as_secs_f64());
        self.ok_series.entry(kind).or_default().push(now, 1.0);
    }

    /// Records a completed request.
    pub fn record_request_complete(
        &mut self,
        kind: RequestKind,
        origin: usize,
        pairs: u16,
        latency: SimDuration,
        now: SimTime,
    ) {
        let m = self.kind_mut(kind, origin);
        m.requests_completed += 1;
        let lat = latency.as_secs_f64();
        m.request_latency.push(lat);
        m.scaled_latency.push(lat / pairs.max(1) as f64);
        self.latency_series.entry(kind).or_default().push(now, lat);
    }

    /// Records an EGP error by label.
    pub fn record_error(&mut self, label: &'static str) {
        *self.errors.entry(label).or_insert(0) += 1;
    }

    /// Aggregated view for one kind across both origins.
    pub fn kind_total(&self, kind: RequestKind) -> KindMetrics {
        let mut total = KindMetrics::default();
        for origin in [0usize, 1] {
            if let Some(m) = self.per_kind.get(&(kind, origin)) {
                total.pairs_delivered += m.pairs_delivered;
                total.requests_completed += m.requests_completed;
                total.fidelity.merge(&m.fidelity);
                total.pair_latency.merge(&m.pair_latency);
                total.request_latency.merge(&m.request_latency);
                total.scaled_latency.merge(&m.scaled_latency);
            }
        }
        total
    }

    /// Per-origin view (for the fairness comparison).
    pub fn kind_at_origin(&self, kind: RequestKind, origin: usize) -> Option<&KindMetrics> {
        self.per_kind.get(&(kind, origin))
    }

    /// Throughput in pairs/s for a kind over the recorded duration.
    pub fn throughput(&self, kind: RequestKind) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.kind_total(kind).pairs_delivered as f64 / secs
        }
    }

    /// Total pairs delivered across kinds.
    pub fn total_pairs(&self) -> u64 {
        RequestKind::ALL
            .iter()
            .map(|k| self.kind_total(*k).pairs_delivered)
            .sum()
    }

    /// Total error count for a label.
    pub fn error_count(&self, label: &str) -> u64 {
        self.errors.get(label).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn pair_and_request_accounting() {
        let mut m = LinkMetrics::new();
        m.record_pair(RequestKind::Md, 0, 0.7, SimDuration::from_millis(10), t(1));
        m.record_pair(RequestKind::Md, 1, 0.8, SimDuration::from_millis(20), t(2));
        m.record_request_complete(RequestKind::Md, 0, 2, SimDuration::from_millis(30), t(2));
        let total = m.kind_total(RequestKind::Md);
        assert_eq!(total.pairs_delivered, 2);
        assert_eq!(total.requests_completed, 1);
        assert!((total.fidelity.mean() - 0.75).abs() < 1e-12);
        assert!((total.scaled_latency.mean() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn throughput_uses_elapsed() {
        let mut m = LinkMetrics::new();
        for i in 0..10 {
            m.record_pair(RequestKind::Nl, 0, 0.7, SimDuration::ZERO, t(i));
        }
        m.elapsed = SimDuration::from_secs(5);
        assert!((m.throughput(RequestKind::Nl) - 2.0).abs() < 1e-12);
        assert_eq!(m.throughput(RequestKind::Ck), 0.0);
        assert_eq!(m.total_pairs(), 10);
    }

    #[test]
    fn fairness_split_by_origin() {
        let mut m = LinkMetrics::new();
        m.record_pair(RequestKind::Ck, 0, 0.7, SimDuration::from_millis(5), t(1));
        m.record_pair(RequestKind::Ck, 0, 0.7, SimDuration::from_millis(5), t(1));
        m.record_pair(RequestKind::Ck, 1, 0.7, SimDuration::from_millis(5), t(1));
        assert_eq!(
            m.kind_at_origin(RequestKind::Ck, 0)
                .unwrap()
                .pairs_delivered,
            2
        );
        assert_eq!(
            m.kind_at_origin(RequestKind::Ck, 1)
                .unwrap()
                .pairs_delivered,
            1
        );
    }

    #[test]
    fn qber_tally_fidelity() {
        let mut q = QberTally::default();
        // 10% error in each basis → F = 1 − 0.15 = 0.85.
        for basis in [Basis::X, Basis::Y, Basis::Z] {
            for i in 0..100 {
                q.record(basis, i < 10);
            }
        }
        assert!((q.fidelity().unwrap() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn qber_requires_all_bases() {
        let mut q = QberTally::default();
        q.record(Basis::X, false);
        assert!(q.fidelity().is_none());
    }

    #[test]
    fn error_counters() {
        let mut m = LinkMetrics::new();
        m.record_error("TIMEOUT");
        m.record_error("TIMEOUT");
        m.record_error("UNSUPP");
        assert_eq!(m.error_count("TIMEOUT"), 2);
        assert_eq!(m.error_count("UNSUPP"), 1);
        assert_eq!(m.error_count("DENIED"), 0);
    }
}
