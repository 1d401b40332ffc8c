//! Latency constants shared by the fleet simulator.
//!
//! The per-node processing figures are calibrated against two anchors in
//! the paper: Fig. 11's length-0 paths (a single node acting as both
//! producer and consumer) show a median CDN path delay around 120–150 ms —
//! so single-node processing, dominated by the producer's media pipeline,
//! is on that order; and Table 1's LiveNet median of 188 ms over mostly
//! 2-hop paths pins the incremental relay/consumer cost. The packet-level
//! simulation ([`crate::scenario`]) validates the recovery-latency terms.

use livenet_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Calibrated latency constants (milliseconds unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyConstants {
    /// Producer-node media processing (ingest, validation, re-packetize).
    pub producer_processing_ms: f64,
    /// Relay-node fast-path processing + pacer queueing.
    pub relay_processing_ms: f64,
    /// Consumer-node processing (per-client control, queueing).
    pub consumer_processing_ms: f64,
    /// NACK-based recovery: expected extra delay contributed per unit of
    /// link loss (multiplied by `loss × (scan/2 + RTT)` per hop).
    pub recovery_scan_ms: f64,
    /// First-mile (broadcaster→producer incl. encoding) median.
    pub first_mile_ms: f64,
    /// Last-mile (consumer→viewer incl. decoding) median.
    pub last_mile_ms: f64,
    /// Fixed client playback buffer (Taobao Live: 300 ms, §7.1).
    pub player_buffer_ms: f64,
    /// Brain path-lookup hash-table cost (paper §4.4: "a few ms").
    pub brain_lookup_ms: f64,
    /// Consumer-local processing when serving a request from cache.
    pub local_serve_ms: f64,
}

impl Default for LatencyConstants {
    fn default() -> Self {
        LatencyConstants {
            producer_processing_ms: 118.0,
            relay_processing_ms: 28.0,
            consumer_processing_ms: 36.0,
            recovery_scan_ms: 25.0, // half the 50 ms scan interval
            first_mile_ms: 160.0,
            last_mile_ms: 150.0,
            player_buffer_ms: 300.0,
            brain_lookup_ms: 5.0,
            local_serve_ms: 33.0,
        }
    }
}

impl LatencyConstants {
    /// Expected recovery penalty for one hop with the given loss and RTT:
    /// `loss × (scan/2 + RTT)` — a lost packet waits on average half a
    /// scan interval to be detected, then one RTT for the retransmission.
    pub fn recovery_penalty_ms(&self, loss: f64, rtt: SimDuration) -> f64 {
        loss.clamp(0.0, 1.0) * (self.recovery_scan_ms + rtt.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_path_sits_in_fig11_band() {
        // len-0 path: producer + consumer on one node.
        let c = LatencyConstants::default();
        let d = c.producer_processing_ms + c.consumer_processing_ms;
        assert!((100.0..160.0).contains(&d), "{d}");
    }

    #[test]
    fn two_hop_intra_path_near_table1_median() {
        let c = LatencyConstants::default();
        // Typical intra-national 2-hop: 2 links × ~10 ms one-way.
        let d = c.producer_processing_ms
            + c.relay_processing_ms
            + c.consumer_processing_ms
            + 2.0 * 10.0;
        assert!((150.0..220.0).contains(&d), "{d}");
    }

    #[test]
    fn recovery_penalty_scales_with_loss() {
        let c = LatencyConstants::default();
        assert_eq!(c.recovery_penalty_ms(0.0, SimDuration::from_millis(40)), 0.0);
        let p = c.recovery_penalty_ms(0.01, SimDuration::from_millis(40));
        assert!((p - 0.65).abs() < 1e-9, "{p}");
    }
}
