//! Golden fingerprints of the packet-level scenarios.
//!
//! Each fingerprint is an FNV-1a hash over the bits of every float and
//! every counter a scenario's harvest returns. The values were captured
//! from the per-experiment runners the declarative [`Scenario`] replaced,
//! so any change to `Scenario::run`, the emulator, the node or the client
//! model that moves a single output bit fails here.

use livenet_sim::scenario::bursty_loss;
use livenet_sim::{
    AutorecOutcome, PacketSimReport, RecoveryMode, RecoveryOutcome, Scenario, Viewer,
};
use livenet_types::{SimDuration, SimTime};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn f32(&mut self, x: f32) {
        self.u64(u64::from(x.to_bits()));
    }

    fn dur(&mut self, d: Option<SimDuration>) {
        self.u64(d.map_or(u64::MAX, SimDuration::as_nanos));
    }
}

fn chain_fp(r: &PacketSimReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.viewers.len() as u64);
    for (c, q) in &r.viewers {
        h.u64(c.raw());
        h.dur(q.startup);
        h.u64(u64::from(q.stalls));
        h.dur(Some(q.stall_time));
        h.u64(q.frames_rendered);
    }
    h.u64(r.recovery_latencies_ms.len() as u64);
    for &x in &r.recovery_latencies_ms {
        h.f64(x);
    }
    h.u64(r.frame_delays_ms.len() as u64);
    for &x in &r.frame_delays_ms {
        h.f64(x);
    }
    h.u64(r.node_stats.len() as u64);
    for s in &r.node_stats {
        for x in [
            s.forwarded,
            s.ingested,
            s.rtx_served,
            s.rtx_unavailable,
            s.nacks_sent,
            s.nack_batches,
            s.rtx_pending_expired,
            s.rtx_alternate_requests,
            s.rtx_alternate_recovered,
            s.rtx_alternate_exhausted,
            s.duplicates,
            s.subs_received,
            s.local_hits,
            s.upstream_failovers,
        ] {
            h.u64(x);
        }
    }
    h.u64(r.startup_bursts);
    h.u64(r.client_frames.len() as u64);
    for frames in &r.client_frames {
        h.u64(frames.len() as u64);
        for &(at, ts, d) in frames {
            h.u64(at.as_nanos());
            h.u64(u64::from(ts));
            h.dur(d);
        }
    }
    h.f64(r.link_loss_rate);
    h.0
}

fn recovery_fp(o: &RecoveryOutcome) -> u64 {
    let mut h = Fnv::new();
    h.f64(o.detect_ms);
    h.f64(o.restore_ms);
    h.u64(o.frames_lost);
    h.u64(o.frames_rendered);
    h.u64(u64::from(o.asked_brain));
    h.0
}

fn autorec_fp(o: &AutorecOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(o.records.len() as u64);
    for r in &o.records {
        h.f32(r.at_ms);
        h.f32(r.recover_ms);
        h.u64(u64::from(r.alternate));
    }
    for x in [
        o.alternate_requests,
        o.alternate_recovered,
        o.alternate_exhausted,
        o.primary_misses,
        o.primary_pending_expired,
        o.consumer_nack_seqs,
        o.consumer_nack_batches,
        o.frames_rendered,
    ] {
        h.u64(x);
    }
    h.0
}

#[test]
fn three_node_chain_matches_golden() {
    // (first-hop loss, bursty, NACK retry limit, fingerprint); a retry
    // limit of 0 is the fast-path-only ablation.
    let cases = [
        (0.0, false, 5, 0x0a12_e7e9_f6f3_9430_u64),
        (0.0, false, 0, 0x0a12_e7e9_f6f3_9430),
        (0.02, false, 5, 0x2e84_b80b_60ac_6ac0),
        (0.02, false, 0, 0x241b_8a1d_40f9_816b),
        (0.02, true, 5, 0xfd85_b92b_ae18_ad41),
        (0.02, true, 0, 0xd9d4_84ba_34f0_3b6f),
    ];
    for (loss, bursty, retry, golden) in cases {
        let mut sc = Scenario::three_node_chain(loss, 42);
        if bursty {
            sc.links[0].2.loss = bursty_loss(loss);
        }
        sc.node.nack_retry_limit = retry;
        let fp = chain_fp(&sc.run().report());
        assert_eq!(
            fp, golden,
            "loss {loss} bursty {bursty} retry {retry}: 0x{fp:016x}"
        );
    }
}

#[test]
fn late_joiner_without_burst_matches_golden() {
    let mut sc = Scenario::three_node_chain(0.0, 11);
    sc.node.startup_burst = false;
    sc.viewers.push(Viewer::joining(
        sc.nodes.clone(),
        SimTime::from_millis(4500),
    ));
    let fp = chain_fp(&sc.run().report());
    assert_eq!(fp, 0x73cb_59de_d080_bf03, "0x{fp:016x}");
}

#[test]
fn relay_crash_matches_golden() {
    for (mode, golden) in [
        (RecoveryMode::Fast, 0x65e9_9612_b57f_a4af_u64),
        (RecoveryMode::Slow, 0xc5dd_64d7_5781_a1f6),
    ] {
        let fp = recovery_fp(&Scenario::relay_crash(mode, 7).run().recovery());
        assert_eq!(fp, golden, "{mode:?}: 0x{fp:016x}");
    }
}

#[test]
fn autorec_smoke_matches_golden() {
    for (alts, golden) in [(0, 0xbf31_0b15_3ed3_1f29_u64), (1, 0x2025_d5cb_1751_3632)] {
        let mut sc = Scenario::autorec(alts, 5);
        sc.duration = SimDuration::from_secs(6);
        let fp = autorec_fp(&sc.run().autorec());
        assert_eq!(fp, golden, "alt_suppliers {alts}: 0x{fp:016x}");
    }
}
