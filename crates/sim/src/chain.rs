//! Repeater-chain building blocks shared with the network layer.
//!
//! The pure fidelity-composition helper [`swap_chain`] and the
//! [`ChainOutcome`] record `qlink_net::chain::RepeaterChain` reports.
//! The chain itself — every hop on one shared discrete-event queue
//! under SWAP-ASAP control — lives in `qlink-net`.

use qlink_des::{DetRng, SimDuration};
use qlink_quantum::bell::{bell_fidelity, werner_from_fidelity, BellState};
use qlink_quantum::ops::entanglement_swap;
use qlink_quantum::QuantumState;

/// Result of one end-to-end entanglement generation over a chain.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// Fidelity of each link's delivered pair, in path order.
    pub link_fidelities: Vec<f64>,
    /// Fidelity of the end-to-end pair after all swaps.
    pub end_to_end_fidelity: f64,
    /// True simulated latency: CREATE submission until both ends
    /// hold the usable end-to-end pair.
    pub generation_time: SimDuration,
}

/// Fuses a path of link fidelities into one end-to-end fidelity by
/// sequential entanglement swapping of Werner pairs.
pub fn swap_chain(link_fidelities: &[f64], rng: &mut DetRng) -> f64 {
    assert!(!link_fidelities.is_empty(), "empty chain");
    let as_werner = |f: f64| werner_from_fidelity(BellState::PhiPlus, f);
    let mut current: QuantumState = as_werner(link_fidelities[0]);
    for &f in &link_fidelities[1..] {
        // Register: [a, b1, b2, c] — current pair ⊗ next hop's pair.
        let mut joint = current.tensor(&as_werner(f));
        entanglement_swap(&mut joint, 1, 2, 3, rng.raw());
        let fused = bell_fidelity(&joint, (0, 3), BellState::PhiPlus);
        current = as_werner(fused);
    }
    bell_fidelity(&current, (0, 1), BellState::PhiPlus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_chain_of_one_is_identity() {
        let mut rng = DetRng::new(1);
        let f = swap_chain(&[0.8], &mut rng);
        assert!((f - 0.8).abs() < 1e-9);
    }

    #[test]
    fn swap_chain_degrades_monotonically_with_hops() {
        let mut rng = DetRng::new(2);
        let f1 = swap_chain(&[0.9], &mut rng);
        let f2 = swap_chain(&[0.9, 0.9], &mut rng);
        let f3 = swap_chain(&[0.9, 0.9, 0.9], &mut rng);
        assert!(f1 > f2 && f2 > f3, "{f1} > {f2} > {f3} expected");
        assert!(f3 > 0.5, "three good hops stay useful: {f3}");
    }

    #[test]
    fn swap_chain_matches_werner_composition_law() {
        // For Werner inputs, p_out = p1·p2 exactly.
        let mut rng = DetRng::new(3);
        let (f1, f2) = (0.85, 0.75);
        let fused = swap_chain(&[f1, f2], &mut rng);
        let p1 = (4.0 * f1 - 1.0) / 3.0;
        let p2 = (4.0 * f2 - 1.0) / 3.0;
        let expected = p1 * p2 * 0.75 + 0.25;
        assert!((fused - expected).abs() < 1e-9, "{fused} vs {expected}");
    }

    #[test]
    fn weakest_link_dominates() {
        let mut rng = DetRng::new(4);
        let strong = swap_chain(&[0.9, 0.9], &mut rng);
        let weak = swap_chain(&[0.9, 0.6], &mut rng);
        assert!(weak < strong);
    }
}
