//! Random CREATE-request generation (§6).
//!
//! "In each MHP cycle, we randomly issue a new CREATE request for a
//! random number of pairs k (max kmax), and random kind
//! P ∈ {NL, CK, MD} with probability fP·psucc/(E·k)" — where `psucc`
//! is the per-attempt success probability at the kind's operating α and
//! `E` the expected cycles per attempt. This normalisation makes `f`
//! the offered load as a fraction of link capacity: `f < 1` is
//! underload, `f > 1` (the paper's Ultra) intentionally overloads the
//! distributed queue.

use crate::config::RequestKind;
use qlink_des::DetRng;

/// Who submits a request (§6: "3 cases of CREATE origin").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OriginPolicy {
    /// Always node A (the distributed-queue master).
    AlwaysA,
    /// Always node B.
    AlwaysB,
    /// A or B with equal probability.
    Random,
}

/// Load specification for one request kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindLoad {
    /// Offered-load fraction `f` (0 disables the kind).
    pub fraction: f64,
    /// Maximum pairs per request (`kmax`).
    pub kmax: u16,
    /// When `true`, every request asks for exactly `kmax` pairs (as in
    /// Table 1's fixed 2/2/10 sizes); otherwise `k` is uniform in
    /// `1..=kmax`.
    pub fixed_pairs: bool,
    /// Requested minimum fidelity.
    pub fmin: f64,
    /// Request timeout in microseconds (0 = none).
    pub tmax_us: u64,
}

impl KindLoad {
    /// A disabled kind.
    pub fn off() -> Self {
        KindLoad {
            fraction: 0.0,
            kmax: 1,
            fixed_pairs: false,
            fmin: 0.64,
            tmax_us: 0,
        }
    }
}

/// Full workload description for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// NL load.
    pub nl: KindLoad,
    /// CK load.
    pub ck: KindLoad,
    /// MD load.
    pub md: KindLoad,
    /// Where requests originate.
    pub origin: OriginPolicy,
}

impl WorkloadSpec {
    /// No workload at all (requests driven manually).
    pub fn none() -> Self {
        WorkloadSpec {
            nl: KindLoad::off(),
            ck: KindLoad::off(),
            md: KindLoad::off(),
            origin: OriginPolicy::AlwaysA,
        }
    }

    /// Single-kind workload at load `f` with `kmax`, Fmin 0.64
    /// (the paper's long-run setup).
    pub fn single(kind: RequestKind, fraction: f64, kmax: u16) -> Self {
        let load = KindLoad {
            fraction,
            kmax,
            fixed_pairs: false,
            fmin: 0.64,
            tmax_us: 0,
        };
        let mut w = Self::none();
        match kind {
            RequestKind::Nl => w.nl = load,
            RequestKind::Ck => w.ck = load,
            RequestKind::Md => w.md = load,
        }
        w
    }

    /// From a Table 2 usage pattern with uniform Fmin.
    pub fn from_pattern(pattern: &crate::config::UsagePattern, fmin: f64) -> Self {
        let mk = |(fraction, kmax): (f64, u16)| KindLoad {
            fraction,
            kmax,
            fixed_pairs: false,
            fmin,
            tmax_us: 0,
        };
        WorkloadSpec {
            nl: mk(pattern.nl),
            ck: mk(pattern.ck),
            md: mk(pattern.md),
            origin: OriginPolicy::Random,
        }
    }

    /// Builder: set the origin policy.
    pub fn with_origin(mut self, origin: OriginPolicy) -> Self {
        self.origin = origin;
        self
    }

    /// Builder: override Fmin for every kind (Fig. 6 sweeps).
    pub fn with_fmin(mut self, fmin: f64) -> Self {
        self.nl.fmin = fmin;
        self.ck.fmin = fmin;
        self.md.fmin = fmin;
        self
    }

    /// Load parameters for a kind.
    pub fn kind_load(&self, kind: RequestKind) -> KindLoad {
        match kind {
            RequestKind::Nl => self.nl,
            RequestKind::Ck => self.ck,
            RequestKind::Md => self.md,
        }
    }
}

/// A request the generator decided to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedRequest {
    /// Kind (NL / CK / MD).
    pub kind: RequestKind,
    /// Number of pairs.
    pub pairs: u16,
    /// Origin node index (0 = A, 1 = B).
    pub origin: usize,
    /// Requested minimum fidelity.
    pub fmin: f64,
    /// Timeout in microseconds (0 = none).
    pub tmax_us: u64,
}

/// Per-cycle arrival sampling.
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    /// `psucc/E` per kind, fixed at setup from the FEU's α choice.
    rate_scale: [f64; 3],
    /// Kinds with a positive offered load, in [`RequestKind::ALL`]
    /// order, precomputed so the per-cycle sampler is a single branch
    /// when the workload is empty (manually driven links call it every
    /// MHP cycle) and touches only live kinds otherwise. Disabled kinds
    /// never drew randomness, so the RNG stream is unchanged.
    active: [(RequestKind, usize); 3],
    active_n: usize,
    rng: DetRng,
}

impl WorkloadGenerator {
    /// Creates a generator. `psucc_over_e` maps each kind to
    /// `psucc(α_kind)/E_kind` (computed by the harness from the FEU).
    pub fn new(spec: WorkloadSpec, psucc_over_e: [f64; 3], rng: DetRng) -> Self {
        let mut active = [(RequestKind::Nl, 0); 3];
        let mut active_n = 0;
        for (i, kind) in RequestKind::ALL.iter().enumerate() {
            if spec.kind_load(*kind).fraction > 0.0 {
                active[active_n] = (*kind, i);
                active_n += 1;
            }
        }
        WorkloadGenerator {
            spec,
            rate_scale: psucc_over_e,
            active,
            active_n,
            rng,
        }
    }

    /// The workload being generated.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// `true` when no request kind has any load: every
    /// [`WorkloadGenerator::sample_cycle`] returns nothing and draws no
    /// randomness.
    pub fn is_silent(&self) -> bool {
        self.active_n == 0
    }

    /// Samples this cycle's arrivals (0 or more — each kind draws
    /// independently, as in the paper's per-kind issue probability).
    #[inline]
    pub fn sample_cycle(&mut self) -> Vec<GeneratedRequest> {
        if self.active_n == 0 {
            return Vec::new();
        }
        self.sample_active()
    }

    fn sample_active(&mut self) -> Vec<GeneratedRequest> {
        let mut out = Vec::new();
        for &(kind, i) in &self.active[..self.active_n] {
            let load = self.spec.kind_load(kind);
            // k uniform in 1..=kmax (or fixed), issue with f·psucc/(E·k).
            let k = if load.fixed_pairs {
                load.kmax
            } else {
                1 + self.rng.below(load.kmax as u64) as u16
            };
            let p = (load.fraction * self.rate_scale[i] / k as f64).clamp(0.0, 1.0);
            if self.rng.bernoulli(p) {
                let origin = match self.spec.origin {
                    OriginPolicy::AlwaysA => 0,
                    OriginPolicy::AlwaysB => 1,
                    OriginPolicy::Random => self.rng.below(2) as usize,
                };
                out.push(GeneratedRequest {
                    kind,
                    pairs: k,
                    origin,
                    fmin: load.fmin,
                    tmax_us: load.tmax_us,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UsagePattern;

    #[test]
    fn disabled_workload_generates_nothing() {
        let mut g = WorkloadGenerator::new(WorkloadSpec::none(), [1e-4; 3], DetRng::new(1));
        for _ in 0..10_000 {
            assert!(g.sample_cycle().is_empty());
        }
    }

    #[test]
    fn arrival_rate_matches_formula() {
        // With kmax = 1, arrivals per cycle ≈ f · psucc/E.
        let spec = WorkloadSpec::single(RequestKind::Md, 0.99, 1);
        let scale = 2e-3; // exaggerated so the test is fast
        let mut g = WorkloadGenerator::new(spec, [0.0, 0.0, scale], DetRng::new(2));
        let cycles = 2_000_000u64;
        let mut n = 0u64;
        for _ in 0..cycles {
            n += g.sample_cycle().len() as u64;
        }
        let expected = 0.99 * scale * cycles as f64;
        let got = n as f64;
        assert!(
            (got - expected).abs() < 0.1 * expected,
            "arrivals {got} vs expected {expected}"
        );
    }

    #[test]
    fn pairs_bounded_by_kmax() {
        let spec = WorkloadSpec::single(RequestKind::Ck, 1.5, 3);
        let mut g = WorkloadGenerator::new(spec, [0.0, 0.5, 0.0], DetRng::new(3));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            for r in g.sample_cycle() {
                assert!(r.pairs >= 1 && r.pairs <= 3);
                assert_eq!(r.kind, RequestKind::Ck);
                seen.insert(r.pairs);
            }
        }
        assert_eq!(seen.len(), 3, "all k values occur: {seen:?}");
    }

    #[test]
    fn origin_policies() {
        let spec = WorkloadSpec::single(RequestKind::Md, 1.0, 1).with_origin(OriginPolicy::Random);
        let mut g = WorkloadGenerator::new(spec, [0.0, 0.0, 0.5], DetRng::new(4));
        let mut origins = [0u32; 2];
        for _ in 0..10_000 {
            for r in g.sample_cycle() {
                origins[r.origin] += 1;
            }
        }
        assert!(origins[0] > 1_000 && origins[1] > 1_000, "{origins:?}");

        let spec = WorkloadSpec::single(RequestKind::Md, 1.0, 1).with_origin(OriginPolicy::AlwaysB);
        let mut g = WorkloadGenerator::new(spec, [0.0, 0.0, 0.5], DetRng::new(5));
        for _ in 0..1_000 {
            for r in g.sample_cycle() {
                assert_eq!(r.origin, 1);
            }
        }
    }

    #[test]
    fn pattern_workload_covers_kinds() {
        let spec = WorkloadSpec::from_pattern(&UsagePattern::uniform(), 0.64);
        let mut g = WorkloadGenerator::new(spec, [0.01; 3], DetRng::new(6));
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..100_000 {
            for r in g.sample_cycle() {
                kinds.insert(r.kind);
            }
        }
        assert_eq!(kinds.len(), 3, "{kinds:?}");
    }

    #[test]
    fn fmin_override() {
        let spec = WorkloadSpec::from_pattern(&UsagePattern::uniform(), 0.64).with_fmin(0.7);
        assert_eq!(spec.nl.fmin, 0.7);
        assert_eq!(spec.md.fmin, 0.7);
    }
}
