//! The analytic store-and-forward bound for finite-size transfers.
//!
//! The latency figures of the paper need only propagation delay, but state
//! migration between successive meetup-servers (§5 — "the high
//! inter-satellite bandwidth could accommodate this") needs *transfer
//! times* of finite-size data under finite link rates. This module gives
//! the closed-form, uncontended answer: each hop serializes the whole
//! message (store-and-forward) and adds its propagation delay. Contended
//! transfers, queueing and loss are the packet-level
//! [`congestion`](crate::congestion) engine's job.

/// A directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Transmission rate, bits per second.
    pub rate_bps: f64,
    /// Propagation delay, seconds.
    pub prop_delay_s: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    /// Panics on non-positive rate or negative delay.
    pub fn new(rate_bps: f64, prop_delay_s: f64) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive, got {rate_bps}");
        assert!(prop_delay_s >= 0.0, "negative delay {prop_delay_s}");
        Link {
            rate_bps,
            prop_delay_s,
        }
    }

    /// Serialization time of `bits` on this link, seconds.
    pub fn serialization_s(&self, bits: f64) -> f64 {
        bits / self.rate_bps
    }
}

/// Analytic store-and-forward time for an uncontended path: per-hop
/// serialization plus propagation, the whole message at a time. An upper
/// bound on the packetized
/// [`uncontended_packet_transfer_s`](crate::congestion::uncontended_packet_transfer_s).
pub fn uncontended_transfer_s(size_bits: f64, links: &[Link]) -> f64 {
    links
        .iter()
        .map(|l| l.serialization_s(size_bits) + l.prop_delay_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hop_is_serialization_plus_propagation() {
        // 1 Gbit over 1 Gbps = 1 s serialization + 5 ms propagation.
        let t = uncontended_transfer_s(1e9, &[Link::new(1e9, 0.005)]);
        assert!((t - 1.005).abs() < 1e-12);
    }

    #[test]
    fn multi_hop_store_and_forward_adds_per_hop_serialization() {
        let links = [
            Link::new(1e9, 0.002),
            Link::new(1e9, 0.003),
            Link::new(1e9, 0.004),
        ];
        // 3 × 0.1 s serialization + 9 ms propagation.
        assert!((uncontended_transfer_s(1e8, &links) - 0.309).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_link_dominates() {
        let links = [Link::new(1e10, 0.0), Link::new(1e7, 0.0)];
        assert!((uncontended_transfer_s(1e7, &links) - (0.001 + 1.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_links_are_rejected() {
        Link::new(0.0, 0.0);
    }
}
