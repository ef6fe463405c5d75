//! Repeater chains on the shared clock.
//!
//! Build from per-hop [`LinkConfig`]s and ask for one end-to-end pair
//! at a time. Every hop runs on **one** shared event queue under
//! SWAP-ASAP control: links interleave on a
//! global `SimTime` stream, intermediate nodes swap the instant both
//! their pairs exist, swap results travel classical control channels,
//! and the reported generation time is the true simulated latency from
//! CREATE to the last end learning its Pauli frame.

use crate::network::Network;
use crate::topology::Topology;
use qlink_des::SimDuration;
use qlink_sim::chain::ChainOutcome;
use qlink_sim::config::LinkConfig;

/// A repeater chain driven as one shared-clock network.
pub struct RepeaterChain {
    net: Network,
    hops: usize,
}

impl RepeaterChain {
    /// Builds a chain from per-hop link configurations (N configs =
    /// N + 1 nodes). Each hop keeps its config's own seed; the first
    /// hop's seed also drives the network layer's swap randomness.
    ///
    /// # Panics
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<LinkConfig>) -> Self {
        assert!(!configs.is_empty(), "a chain needs at least one hop");
        let hops = configs.len();
        let seed = configs[0].seed ^ 0xc4a1_u64;
        let topo = Topology::chain(hops + 1, |i| configs[i].clone());
        RepeaterChain {
            net: Network::new(topo, seed),
            hops,
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Borrow the underlying network (telemetry, metrics, nodes).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Produces one end-to-end pair: reserves the full path, issues NL
    /// CREATEs on every hop, swaps at intermediates as pairs arrive,
    /// and returns once both ends hold the pair (or `max_time` of
    /// simulated time passes — then `None`, and the request is
    /// cancelled).
    pub fn generate_end_to_end(
        &mut self,
        fmin: f64,
        max_time: SimDuration,
    ) -> Option<ChainOutcome> {
        let dst = self.hops;
        let request = self.net.request_entanglement(0, dst, fmin);
        match self.net.run_until_outcome(max_time) {
            Some(out) => Some(ChainOutcome {
                link_fidelities: out.link_fidelities,
                end_to_end_fidelity: out.end_to_end_fidelity,
                generation_time: out.latency,
            }),
            None => {
                self.net.cancel_request(request);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_sim::workload::WorkloadSpec;

    fn lab(seed: u64) -> LinkConfig {
        LinkConfig::lab(WorkloadSpec::none(), seed)
    }

    #[test]
    fn two_hop_chain_delivers_on_shared_clock() {
        let mut chain = RepeaterChain::new(vec![lab(31), lab(32)]);
        assert_eq!(chain.hops(), 2);
        let out = chain
            .generate_end_to_end(0.6, SimDuration::from_secs(30))
            .expect("both hops deliver in 30 s");
        assert_eq!(out.link_fidelities.len(), 2);
        for f in &out.link_fidelities {
            assert!(*f > 0.5, "link fidelity {f}");
        }
        let min_link = out
            .link_fidelities
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            out.end_to_end_fidelity < min_link,
            "swap must cost fidelity: {} vs min link {min_link}",
            out.end_to_end_fidelity
        );
        assert!(
            out.end_to_end_fidelity > 0.25,
            "{}",
            out.end_to_end_fidelity
        );
        assert!(out.generation_time > SimDuration::ZERO);
    }

    #[test]
    fn chain_times_out_when_a_hop_cannot_deliver() {
        let mut chain = RepeaterChain::new(vec![lab(41)]);
        // 1 ms is ~98 MHP cycles: no NL delivery is possible.
        let out = chain.generate_end_to_end(0.6, SimDuration::from_millis(1));
        assert!(out.is_none());
    }

    #[test]
    fn sequential_rounds_reuse_the_network() {
        let mut chain = RepeaterChain::new(vec![lab(51)]);
        let first = chain.generate_end_to_end(0.6, SimDuration::from_secs(20));
        let second = chain.generate_end_to_end(0.6, SimDuration::from_secs(20));
        let (first, second) = (first.expect("round 1"), second.expect("round 2"));
        assert!(first.end_to_end_fidelity > 0.5);
        assert!(second.end_to_end_fidelity > 0.5);
    }
}
