//! Network-layer purification policies.
//!
//! SWAP-ASAP composition multiplies link fidelities, so every extra
//! hop pushes the end-to-end pair toward the maximally mixed 1/4. The
//! 2→1 distillation primitive
//! ([`qlink_quantum::purify::distill_werner`]) trades pairs for
//! fidelity; [`PurifyPolicy`] decides *where* on a path the network
//! spends that trade:
//!
//! * [`PurifyPolicy::Off`] — PR 2's behaviour: one pair per path
//!   edge, swap as soon as neighbours exist.
//! * [`PurifyPolicy::LinkLevel`] — every path edge generates **two**
//!   pairs; the edge's endpoints distill them into one boosted pair
//!   (exchanging the parity bits over the edge's classical control
//!   channel) before the SWAP-ASAP machines may swap it. A rejected
//!   parity check discards both pairs and regenerates.
//! * [`PurifyPolicy::EndToEnd`] — the request runs as two concurrent
//!   streams (edge-disjoint routes where the topology has them, via
//!   the multi-path splitter); the two delivered end-to-end pairs are
//!   distilled into one by the path ends, with the parity bits
//!   crossing the whole path's control channels.
//!
//! `PurifyPolicy` is an input only: at issue time the network
//! converts it into the RuleSet [`Policy`] that actually runs (one
//! `From` conversion) — `Off` is [`Policy::SwapAsap`], `LinkLevel` is
//! [`Policy::LinkPurify`], `EndToEnd` is [`Policy::EndToEndPurify`] —
//! and that table decides the pair counts, the distillation rules and
//! the route pricing (see [`crate::ruleset`], which also carries the
//! data-only variants: threshold-gated purification and nested
//! pumping).

use crate::ruleset::Policy;

/// Where a request applies 2→1 distillation.
///
/// # Examples
///
/// ```
/// use qlink_net::purify::PurifyPolicy;
/// use qlink_net::ruleset::Policy;
///
/// assert_eq!(PurifyPolicy::default(), PurifyPolicy::Off);
/// assert_eq!(Policy::from(PurifyPolicy::LinkLevel), Policy::LinkPurify);
/// assert_eq!(PurifyPolicy::EndToEnd.name(), "end-to-end");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PurifyPolicy {
    /// No distillation: one pair per edge, swap immediately.
    #[default]
    Off,
    /// Distill per link: two pairs per path edge become one boosted
    /// pair before it may be swapped.
    LinkLevel,
    /// Distill the delivered end-to-end pairs of two concurrent
    /// streams into one.
    EndToEnd,
}

impl PurifyPolicy {
    /// Display name (reports, sweep tables).
    pub fn name(self) -> &'static str {
        match self {
            PurifyPolicy::Off => "off",
            PurifyPolicy::LinkLevel => "link-level",
            PurifyPolicy::EndToEnd => "end-to-end",
        }
    }
}

impl From<PurifyPolicy> for Policy {
    fn from(purify: PurifyPolicy) -> Policy {
        match purify {
            PurifyPolicy::Off => Policy::SwapAsap,
            PurifyPolicy::LinkLevel => Policy::LinkPurify,
            PurifyPolicy::EndToEnd => Policy::EndToEndPurify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_surface() {
        assert_eq!(PurifyPolicy::default(), PurifyPolicy::Off);
        assert_eq!(Policy::from(PurifyPolicy::Off), Policy::SwapAsap);
        assert_eq!(Policy::from(PurifyPolicy::LinkLevel), Policy::LinkPurify);
        assert_eq!(Policy::from(PurifyPolicy::EndToEnd), Policy::EndToEndPurify);
        // The link-level table needs two pairs per edge, the others one.
        assert_eq!(Policy::LinkPurify.ruleset().edge_program(0.9).need(), 2);
        assert_eq!(Policy::SwapAsap.ruleset().edge_program(0.9).need(), 1);
        assert_eq!(PurifyPolicy::Off.name(), "off");
        assert_eq!(PurifyPolicy::LinkLevel.name(), "link-level");
    }
}
