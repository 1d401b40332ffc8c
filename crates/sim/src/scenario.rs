//! Packet-level scenarios: real overlay nodes over the emulator.
//!
//! A [`Scenario`] is plain data — nodes, links, producer, viewers, timed
//! faults and an optional scripted Brain reply — and [`Scenario::run`] is
//! the one loop that turns it into an emulator run. The paper's
//! transmission experiments are constructors that return such data:
//!
//! * [`Scenario::three_node_chain`] — the §3 A→B→C example: fast/slow-path
//!   recovery under injected loss, pacing, GoP-cache startup bursts, and
//!   the per-hop constants in [`crate::calibrate`];
//! * [`Scenario::relay_crash`] — the §6.5 diamond whose primary relay
//!   crashes, with fast (cached backup) or slow (Brain round trip)
//!   failover;
//! * [`Scenario::autorec`] — the multi-supplier RTX diamond (DESIGN.md
//!   §14): a degraded primary leg and a warm backup relay.
//!
//! Small harvest methods on [`Finished`] turn a run into each
//! experiment's result type.

use crate::adapter::{apply_node_actions, client_host_id, ClientHostState, EmuHost, NodeHostState};
use crate::viewer::ViewerQoe;
use bytes::Bytes;
use livenet_emu::{FaultKind, FaultPlan, LinkConfig, LossModel, NetSim};
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeConfig, NodeEvent, NodeStats, OverlayNode};
use livenet_types::{Bandwidth, ClientId, NodeId, SimDuration, SimTime, StreamId};

/// Capture time of the first frame.
const BROADCAST_START: SimTime = SimTime::from_millis(50);

/// A healthy 1 Gbps overlay link with the given one-way delay.
fn overlay_link(delay: SimDuration) -> LinkConfig {
    LinkConfig {
        delay,
        bandwidth: Bandwidth::from_gbps(1),
        queue_bytes: 4 << 20,
        loss: LossModel::None,
        jitter: SimDuration::ZERO,
    }
}

/// Gilbert–Elliott loss with long-run mean `mean` and bursts of 4 packets
/// on average.
pub fn bursty_loss(mean: f64) -> LossModel {
    // p_bg = 0.25 → mean burst length 4 packets; solve p_gb for the
    // requested long-run mean with loss_bad = 0.5: mean = pi_bad × 0.5.
    let pi_bad = (2.0 * mean).min(0.9);
    let p_bg = 0.25;
    LossModel::GilbertElliott {
        p_gb: p_bg * pi_bad / (1.0 - pi_bad),
        p_bg,
        loss_good: 0.0,
        loss_bad: 0.5,
    }
}

/// A viewer of the scenario's stream.
#[derive(Debug, Clone)]
pub struct Viewer {
    /// Overlay path, producer first, ending at the viewer's consumer node.
    pub path: Vec<NodeId>,
    /// Backup paths installed in the consumer's path cache at attach.
    pub backups: Vec<Vec<NodeId>>,
    /// When the viewer presses play (startup is measured from here).
    pub join_at: SimTime,
    /// When the consumer receives the viewer's request and subscribes.
    pub attach_at: SimTime,
    /// The consumer → viewer access link; its bandwidth is the downlink.
    pub access: LinkConfig,
}

impl Viewer {
    /// A 50 Mbps viewer over a 15 ms access link with 2 ms jitter that
    /// requests `path` at `join_at`.
    pub fn joining(path: Vec<NodeId>, join_at: SimTime) -> Self {
        Viewer {
            path,
            backups: Vec::new(),
            join_at,
            attach_at: join_at,
            access: LinkConfig {
                delay: SimDuration::from_millis(15),
                bandwidth: Bandwidth::from_mbps(50),
                queue_bytes: 1 << 20,
                loss: LossModel::None,
                jitter: SimDuration::from_millis(2),
            },
        }
    }

    /// A viewer whose consumer subscribes at t = 0 and whose player
    /// presses play at 100 ms; no access jitter.
    fn preattached(path: Vec<NodeId>) -> Self {
        let mut v = Viewer::joining(path, SimTime::from_millis(100));
        v.attach_at = SimTime::ZERO;
        v.access.jitter = SimDuration::ZERO;
        v
    }

    fn consumer(&self) -> NodeId {
        *self.path.last().expect("viewer path ends at its consumer")
    }
}

/// The Brain's answer to a consumer's `PathRequestNeeded`, played by
/// [`Scenario::run`]: `path` is switched to one `rtt` after the request.
#[derive(Debug, Clone)]
pub struct BrainReply {
    /// Control-plane round trip, request → new path installed.
    pub rtt: SimDuration,
    /// Path sent back; its last node is the consumer that asks.
    pub path: Vec<NodeId>,
}

impl BrainReply {
    fn asker(&self) -> NodeId {
        *self
            .path
            .last()
            .expect("reply path ends at the asking consumer")
    }
}

/// Emulator-side identity of viewer `i`.
fn client(i: usize) -> ClientId {
    ClientId::new(i as u64 + 1)
}

/// Which recovery path the relay-crash consumer exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Cached backup path: failover ≈ detection + one subscribe RTT.
    Fast,
    /// Brain round trip: failover waits out the control-plane latency.
    Slow,
}

/// One packet-level experiment, as data.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed of the emulator's loss and jitter draws.
    pub seed: u64,
    /// The broadcast stream.
    pub stream: StreamId,
    /// Configuration of every node; its `id` is replaced per node.
    pub node: NodeConfig,
    /// Overlay nodes.
    pub nodes: Vec<NodeId>,
    /// Duplex overlay links. Each endpoint's neighbour RTT is 2 × delay.
    pub links: Vec<(NodeId, NodeId, LinkConfig)>,
    /// Node the broadcaster publishes at.
    pub producer: NodeId,
    /// Viewers; viewer `i` is client `i + 1`.
    pub viewers: Vec<Viewer>,
    /// Timed infrastructure faults.
    pub faults: FaultPlan,
    /// Scripted Brain reply to a path request, if any.
    pub brain: Option<BrainReply>,
    /// Video configuration.
    pub gop: GopConfig,
    /// Stream bitrate.
    pub bitrate: Bandwidth,
    /// Broadcast duration (frames stop after this).
    pub duration: SimDuration,
    /// Extra run time after the last frame.
    pub drain: SimDuration,
    /// Client playback buffer.
    pub player_buffer: SimDuration,
}

impl Scenario {
    /// A chain 1 → 2 → … over links of the given one-way delays (ms),
    /// 10 s of 2 Mbps video, one viewer at the last node joining at
    /// 100 ms.
    pub fn chain(delays_ms: &[u64], seed: u64) -> Self {
        let nodes: Vec<NodeId> = (1..=delays_ms.len() as u64 + 1).map(NodeId::new).collect();
        let links = delays_ms
            .iter()
            .zip(nodes.windows(2))
            .map(|(&ms, w)| (w[0], w[1], overlay_link(SimDuration::from_millis(ms))))
            .collect();
        Scenario {
            seed,
            stream: StreamId::new(900),
            node: NodeConfig::new(nodes[0]),
            viewers: vec![Viewer::joining(nodes.clone(), SimTime::from_millis(100))],
            producer: nodes[0],
            nodes,
            links,
            faults: FaultPlan::new(),
            brain: None,
            gop: GopConfig::default(),
            bitrate: Bandwidth::from_mbps(2),
            duration: SimDuration::from_secs(10),
            drain: SimDuration::from_secs(2),
            player_buffer: SimDuration::from_millis(300),
        }
    }

    /// The §3 example: a 3-node chain A→B→C of 10 ms links, random loss
    /// on A→B, one viewer at C.
    pub fn three_node_chain(loss_on_first_hop: f64, seed: u64) -> Self {
        let mut sc = Scenario::chain(&[10, 10], seed);
        if loss_on_first_hop > 0.0 {
            sc.links[0].2.loss = LossModel::Bernoulli {
                p: loss_on_first_hop,
            };
        }
        sc
    }

    /// The diamond both failure experiments use: producer P (1) feeds
    /// primary relay B (2) and backup relay D (4) over 10 ms links, both
    /// relays reach consumer C (3), and one viewer at C streams over
    /// P→B→C for 20 s. Returns the scenario and the backup path P→D→C.
    fn diamond(seed: u64, stream: StreamId) -> (Self, Vec<NodeId>) {
        let [p, b, c, d] = [1, 2, 3, 4].map(NodeId::new);
        let mut sc = Scenario::chain(&[], seed);
        let link = overlay_link(SimDuration::from_millis(10));
        sc.stream = stream;
        sc.nodes = vec![p, b, c, d];
        sc.links = vec![(p, b, link), (b, c, link), (p, d, link), (d, c, link)];
        sc.viewers = vec![Viewer::preattached(vec![p, b, c])];
        sc.duration = SimDuration::from_secs(20);
        (sc, vec![p, d, c])
    }

    /// The §6.5 relay crash: B crashes at 5 s and C fails over to P→D→C,
    /// either from its path cache (`Fast`) or after asking the Brain,
    /// which answers 2.5 s later (`Slow`).
    pub fn relay_crash(mode: RecoveryMode, seed: u64) -> Self {
        let (mut sc, backup) = Scenario::diamond(seed, StreamId::new(901));
        sc.faults.crash(SimTime::from_secs(5), sc.nodes[1]);
        if mode == RecoveryMode::Fast {
            sc.viewers[0].backups = vec![backup.clone()];
        }
        sc.brain = Some(BrainReply {
            rtt: SimDuration::from_millis(2500),
            path: backup,
        });
        sc
    }

    /// The AutoRec diamond: the P–B leg is degraded (80 ms one way, 3 %
    /// loss both ways), C has P→D→C cached as its backup, and a second
    /// viewer at D keeps the alternate supplier warm. `alt_suppliers` is
    /// `NodeConfig::rtx_alt_suppliers`; `0` is the single-supplier
    /// baseline.
    pub fn autorec(alt_suppliers: usize, seed: u64) -> Self {
        let (mut sc, backup) = Scenario::diamond(seed, StreamId::new(902));
        sc.node.rtx_alt_suppliers = alt_suppliers;
        sc.links[0].2.delay = SimDuration::from_millis(80);
        sc.links[0].2.loss = LossModel::Bernoulli { p: 0.03 };
        sc.viewers[0].backups = vec![backup.clone()];
        sc.viewers.push(Viewer::preattached(backup[..2].to_vec()));
        sc
    }

    /// Run the scenario to the end of its drain.
    pub fn run(&self) -> Finished<'_> {
        let mut sim: NetSim<EmuHost> = NetSim::new(self.seed);
        for &id in &self.nodes {
            let mut node = OverlayNode::new(NodeConfig {
                id,
                ..self.node.clone()
            });
            for &(a, b, link) in &self.links {
                if a == id {
                    node.set_neighbor_rtt(b, link.delay * 2);
                } else if b == id {
                    node.set_neighbor_rtt(a, link.delay * 2);
                }
            }
            sim.add_host(id, EmuHost::node(node));
        }
        for &(a, b, link) in &self.links {
            sim.add_duplex(a, b, link);
        }
        sim.with_host(self.producer, |h, _| {
            if let Some(s) = h.as_node_mut() {
                s.node.register_producer(self.stream, None);
            }
        });
        for (i, v) in self.viewers.iter().enumerate() {
            let chost = client_host_id(client(i));
            sim.add_host(
                chost,
                EmuHost::client(client(i), v.join_at, self.gop.fps, self.player_buffer),
            );
            sim.add_duplex(v.consumer(), chost, v.access);
        }

        let mut pending: Vec<usize> = (0..self.viewers.len()).collect();
        pending.sort_by_key(|&i| self.viewers[i].attach_at);
        sim.schedule_fault_plan(&self.faults);

        // Encoder-driven loop. Attaches and the Brain reply due by the next
        // capture time go first. The loop plays the Brain: one control
        // RTT after the consumer asks, it switches it to the reply path.
        let mut encoder = VideoEncoder::new(self.stream, self.gop, self.bitrate, BROADCAST_START);
        let end = BROADCAST_START + self.duration;
        let mut frames_sent: u64 = 0;
        let mut asked_brain = false;
        let mut reply_due: Option<SimTime> = None;
        loop {
            let frame_at = encoder.next_capture_time();
            let attach_at = pending
                .first()
                .map(|&i| self.viewers[i].attach_at)
                .filter(|&t| t <= frame_at);
            let reply_at = reply_due.filter(|&t| t <= frame_at);
            let next = attach_at
                .into_iter()
                .chain(reply_at)
                .min()
                .unwrap_or(frame_at);
            if next >= end {
                break;
            }
            sim.run_until(next);
            if attach_at == Some(next) {
                let i = pending.remove(0);
                let v = &self.viewers[i];
                sim.with_host(v.consumer(), |h, ctx| {
                    if let Some(s) = h.as_node_mut() {
                        let mut actions = Vec::new();
                        s.node.client_attach(
                            ctx.now(),
                            client(i),
                            self.stream,
                            Some(v.access.bandwidth),
                            Some(&v.path),
                            &mut actions,
                        );
                        s.node.install_paths(self.stream, &v.backups);
                        apply_node_actions(s, ctx, actions);
                    }
                });
                continue;
            }
            if let Some(reply) = self.brain.as_ref().filter(|_| reply_at == Some(next)) {
                reply_due = None;
                sim.with_host(reply.asker(), |h, ctx| {
                    if let Some(s) = h.as_node_mut() {
                        let actions = s.node.switch_path(ctx.now(), self.stream, &reply.path);
                        apply_node_actions(s, ctx, actions);
                    }
                });
                continue;
            }
            let frame = encoder.next_frame();
            frames_sent += 1;
            let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
            sim.with_host(self.producer, |h, ctx| {
                if let Some(s) = h.as_node_mut() {
                    let actions = s.node.ingest_frame(ctx.now(), &frame, &payload);
                    apply_node_actions(s, ctx, actions);
                }
            });
            if let Some(reply) = self.brain.as_ref().filter(|_| !asked_brain) {
                asked_brain = sim
                    .host(reply.asker())
                    .and_then(EmuHost::as_node)
                    .is_some_and(|s| {
                        s.events
                            .iter()
                            .any(|(_, e)| matches!(e, NodeEvent::PathRequestNeeded { .. }))
                    });
                if asked_brain {
                    reply_due = Some(sim.now() + reply.rtt);
                }
            }
        }
        sim.run_until(end + self.drain);
        Finished {
            scenario: self,
            sim,
            frames_sent,
            asked_brain,
        }
    }
}

/// A completed run, ready to harvest.
pub struct Finished<'a> {
    scenario: &'a Scenario,
    /// The emulator at the end of the drain.
    sim: NetSim<EmuHost>,
    /// Frames the producer ingested.
    frames_sent: u64,
    /// A consumer requested a path from the Brain.
    asked_brain: bool,
}

/// Results of a chain run ([`Finished::report`]).
#[derive(Debug)]
pub struct PacketSimReport {
    /// Per-viewer QoE.
    pub viewers: Vec<(ClientId, ViewerQoe)>,
    /// Detection→recovery latencies observed at any node (ms).
    pub recovery_latencies_ms: Vec<f64>,
    /// Capture→render frame delays at clients (ms).
    pub frame_delays_ms: Vec<f64>,
    /// Cumulative node stats, in [`Scenario::nodes`] order.
    pub node_stats: Vec<NodeStats>,
    /// Startup bursts observed.
    pub startup_bursts: u64,
    /// Per-viewer completed-frame logs: (arrival, rtp timestamp, delay field).
    pub client_frames: Vec<Vec<(SimTime, u32, Option<SimDuration>)>>,
    /// Loss rate over every link (emulator counter).
    pub link_loss_rate: f64,
}

/// What happened during a relay-crash failover ([`Finished::recovery`]).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOutcome {
    /// Crash → consumer declares the upstream dead (liveness timeout).
    pub detect_ms: f64,
    /// Crash → first frame rendered over the new path.
    pub restore_ms: f64,
    /// Encoder frames never rendered at the viewer (lost to the outage).
    pub frames_lost: u64,
    /// Frames the viewer did render.
    pub frames_rendered: u64,
    /// The consumer re-requested a path from the Brain (slow path taken).
    pub asked_brain: bool,
}

/// One hole recovery observed at the AutoRec consumer.
#[derive(Debug, Clone, Copy)]
pub struct AutorecRecord {
    /// Sim time the hole closed, in ms.
    pub at_ms: f32,
    /// Detection-to-recovery latency, in ms.
    pub recover_ms: f32,
    /// The closing retransmission came from an alternate supplier.
    pub alternate: bool,
}

/// Everything harvested from one AutoRec run ([`Finished::autorec`]).
#[derive(Debug, Clone, Default)]
pub struct AutorecOutcome {
    /// Hole recoveries at the consumer, in event order.
    pub records: Vec<AutorecRecord>,
    /// Consumer: sequences re-NACKed to alternates after an RTX-miss.
    pub alternate_requests: u64,
    /// Consumer: holes closed by an alternate's retransmission.
    pub alternate_recovered: u64,
    /// Consumer: cache-missed sequences with no live alternate.
    pub alternate_exhausted: u64,
    /// Primary relay: NACKed sequences it could not serve.
    pub primary_misses: u64,
    /// Primary relay: parked waiters evicted by reset purge or TTL sweep.
    pub primary_pending_expired: u64,
    /// Consumer: lost sequences NACKed (per seq).
    pub consumer_nack_seqs: u64,
    /// Consumer: NACK messages sent.
    pub consumer_nack_batches: u64,
    /// Frames the viewer at the consumer rendered.
    pub frames_rendered: u64,
}

impl AutorecOutcome {
    /// Median detection-to-recovery latency over every record, `NaN` when
    /// there are none.
    pub fn median_recover_ms(&self) -> f64 {
        let mut v: Vec<f32> = self.records.iter().map(|r| r.recover_ms).collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        f64::from(v[(v.len() - 1) / 2])
    }

    /// Bit-exact equality — the determinism contract the bench asserts
    /// across worker-thread counts (floats compared via their bits).
    pub fn bit_identical(&self, other: &Self) -> bool {
        self.records.len() == other.records.len()
            && self.records.iter().zip(&other.records).all(|(a, b)| {
                a.at_ms.to_bits() == b.at_ms.to_bits()
                    && a.recover_ms.to_bits() == b.recover_ms.to_bits()
                    && a.alternate == b.alternate
            })
            && self.alternate_requests == other.alternate_requests
            && self.alternate_recovered == other.alternate_recovered
            && self.alternate_exhausted == other.alternate_exhausted
            && self.primary_misses == other.primary_misses
            && self.primary_pending_expired == other.primary_pending_expired
            && self.consumer_nack_seqs == other.consumer_nack_seqs
            && self.consumer_nack_batches == other.consumer_nack_batches
            && self.frames_rendered == other.frames_rendered
    }
}

impl Finished<'_> {
    fn node(&self, id: NodeId) -> &NodeHostState {
        self.sim
            .host(id)
            .and_then(EmuHost::as_node)
            .expect("node host")
    }

    fn viewer(&self, i: usize) -> &ClientHostState {
        self.sim
            .host(client_host_id(client(i)))
            .and_then(EmuHost::as_client)
            .expect("client host")
    }

    /// Per-viewer QoE, recoveries at every node, frame delays and node
    /// stats.
    pub fn report(mut self) -> PacketSimReport {
        let mut recovery = Vec::new();
        let mut bursts = 0;
        let mut stats = Vec::new();
        for &id in &self.scenario.nodes {
            let state = self.node(id);
            stats.push(state.node.stats);
            for (_, e) in &state.events {
                match e {
                    NodeEvent::HoleRecovered { after, .. } => {
                        recovery.push(after.as_millis_f64());
                    }
                    NodeEvent::StartupBurst { .. } => bursts += 1,
                    _ => {}
                }
            }
        }
        let mut frame_delays = Vec::new();
        let mut client_frames = Vec::new();
        let ticks_per_sec = 90_000.0;
        for i in 0..self.scenario.viewers.len() {
            let frames = &self.viewer(i).frames;
            for &(at, ts, _) in frames {
                let capture = BROADCAST_START.as_secs_f64() + f64::from(ts) / ticks_per_sec;
                let delay_ms = (at.as_secs_f64() - capture) * 1000.0;
                if delay_ms.is_finite() && delay_ms >= 0.0 {
                    frame_delays.push(delay_ms);
                }
            }
            client_frames.push(frames.clone());
        }
        // Finishing a client consumes its host.
        let finish = BROADCAST_START + self.scenario.duration + self.scenario.drain;
        let viewers = (0..self.scenario.viewers.len())
            .filter_map(|i| {
                let host = self.sim.remove_host(client_host_id(client(i)))?;
                host.finish_client(finish)
            })
            .collect();
        PacketSimReport {
            viewers,
            recovery_latencies_ms: recovery,
            frame_delays_ms: frame_delays,
            node_stats: stats,
            startup_bursts: bursts,
            client_frames,
            link_loss_rate: self.sim.total_link_stats().loss_rate(),
        }
    }

    /// Detection and restoration after the scenario's first node crash,
    /// seen from viewer 0.
    pub fn recovery(&self) -> RecoveryOutcome {
        let (crash_at, victim) = self
            .scenario
            .faults
            .events()
            .find_map(|ev| match ev.kind {
                FaultKind::NodeCrash { node } => Some((ev.at, node)),
                _ => None,
            })
            .expect("scenario crashes a node");
        // Detection from the consumer's UpstreamDead event, restoration
        // from the first client frame rendered after detection.
        let consumer = self.scenario.viewers[0].consumer();
        let detect_at = self
            .node(consumer)
            .events
            .iter()
            .find_map(|(at, e)| match e {
                NodeEvent::UpstreamDead { upstream, .. } if *upstream == victim => Some(*at),
                _ => None,
            })
            .unwrap_or(crash_at);
        let frames = &self.viewer(0).frames;
        let end = BROADCAST_START + self.scenario.duration;
        let restore_at = frames
            .iter()
            .map(|&(at, _, _)| at)
            .find(|&at| at > detect_at)
            .unwrap_or(end);
        let rendered = frames.len() as u64;
        let since_crash = |t: SimTime| (t.as_secs_f64() - crash_at.as_secs_f64()) * 1000.0;
        RecoveryOutcome {
            detect_ms: since_crash(detect_at),
            restore_ms: since_crash(restore_at),
            frames_lost: self.frames_sent.saturating_sub(rendered),
            frames_rendered: rendered,
            asked_brain: self.asked_brain,
        }
    }

    /// Hole recoveries and RTX counters at viewer 0's consumer, misses at
    /// its primary upstream.
    pub fn autorec(&self) -> AutorecOutcome {
        let path = &self.scenario.viewers[0].path;
        let consumer = self.node(path[path.len() - 1]);
        let primary = &self.node(path[path.len() - 2]).node.stats;
        let stats = &consumer.node.stats;
        AutorecOutcome {
            records: consumer
                .events
                .iter()
                .filter_map(|(at, e)| match e {
                    NodeEvent::HoleRecovered {
                        after, alternate, ..
                    } => Some(AutorecRecord {
                        at_ms: (at.as_secs_f64() * 1000.0) as f32,
                        recover_ms: (after.as_secs_f64() * 1000.0) as f32,
                        alternate: *alternate,
                    }),
                    _ => None,
                })
                .collect(),
            alternate_requests: stats.rtx_alternate_requests,
            alternate_recovered: stats.rtx_alternate_recovered,
            alternate_exhausted: stats.rtx_alternate_exhausted,
            primary_misses: primary.rtx_unavailable,
            primary_pending_expired: primary.rtx_pending_expired,
            consumer_nack_seqs: stats.nacks_sent,
            consumer_nack_batches: stats.nack_batches,
            frames_rendered: self.viewer(0).frames.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_chain_delivers_smoothly() {
        let report = Scenario::three_node_chain(0.0, 1).run().report();
        assert_eq!(report.viewers.len(), 1);
        let (_, qoe) = report.viewers[0];
        assert!(qoe.fast_startup(), "startup {:?}", qoe.startup);
        assert_eq!(qoe.stalls, 0);
        assert!(qoe.frames_rendered > 100, "{}", qoe.frames_rendered);
        assert!(report.recovery_latencies_ms.is_empty());
    }

    #[test]
    fn lossy_first_hop_recovers_via_slow_path() {
        let report = Scenario::three_node_chain(0.02, 2).run().report();
        let (_, qoe) = report.viewers[0];
        // Recovery happened at the relay (B NACKs A).
        assert!(
            !report.recovery_latencies_ms.is_empty(),
            "no recoveries observed"
        );
        assert!(report.node_stats[0].rtx_served > 0, "A served no RTX");
        // The viewer still plays through ≥95% of frames.
        assert!(qoe.frames_rendered > 130, "{}", qoe.frames_rendered);
        // Recovery latency ≈ scan wait + one hop RTT: well under 150 ms.
        let mean: f64 = report.recovery_latencies_ms.iter().sum::<f64>()
            / report.recovery_latencies_ms.len() as f64;
        assert!(mean < 150.0, "mean recovery {mean} ms");
    }

    #[test]
    fn mid_stream_joiner_gets_fast_startup_from_gop_cache() {
        let mut sc = Scenario::three_node_chain(0.0, 3);
        // Second viewer joins 6 s in; the consumer already carries the
        // stream, so startup is served from the GoP cache burst.
        sc.viewers
            .push(Viewer::joining(sc.nodes.clone(), SimTime::from_secs(6)));
        let report = sc.run().report();
        assert_eq!(report.viewers.len(), 2);
        let late = &report.viewers[1].1;
        assert!(
            late.fast_startup(),
            "late joiner startup {:?}",
            late.startup
        );
        assert!(report.startup_bursts >= 1);
        // The burst makes startup much faster than one full GoP (2 s).
        assert!(late.startup.unwrap() < SimDuration::from_millis(800));
    }

    #[test]
    fn frame_delay_is_consistent_with_hop_count() {
        let report = Scenario::three_node_chain(0.0, 4).run().report();
        assert!(!report.frame_delays_ms.is_empty());
        let mut sorted = report.frame_delays_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        // 2 overlay hops (10 ms each) + access 15 ms + pacing/processing;
        // must sit well under a GoP length but above raw propagation.
        assert!(median > 35.0, "median {median}");
        assert!(median < 600.0, "median {median}");
    }

    #[test]
    fn fast_recovery_is_detection_plus_one_rtt() {
        let out = Scenario::relay_crash(RecoveryMode::Fast, 7)
            .run()
            .recovery();
        assert!(!out.asked_brain, "fast path must not ask the Brain");
        // Detection is the liveness timeout (2.5 s ± one scan interval).
        assert!(
            out.detect_ms >= 2000.0 && out.detect_ms <= 3500.0,
            "{}",
            out.detect_ms
        );
        // Restoration trails detection by roughly one subscribe RTT plus
        // burst serving — well under half a second.
        assert!(
            out.restore_ms - out.detect_ms < 500.0,
            "fast gap {} ms",
            out.restore_ms - out.detect_ms
        );
        assert!(out.frames_rendered > 250, "{}", out.frames_rendered);
    }

    #[test]
    fn slow_recovery_waits_out_the_brain_round_trip() {
        let out = Scenario::relay_crash(RecoveryMode::Slow, 7)
            .run()
            .recovery();
        assert!(out.asked_brain, "slow path must ask the Brain");
        // Restoration trails detection by at least the control RTT.
        assert!(
            out.restore_ms - out.detect_ms >= 2000.0,
            "slow gap {} ms",
            out.restore_ms - out.detect_ms
        );
        assert!(out.frames_rendered > 200, "{}", out.frames_rendered);
    }

    #[test]
    fn fast_loses_fewer_frames_than_slow() {
        let fast = Scenario::relay_crash(RecoveryMode::Fast, 11)
            .run()
            .recovery();
        let slow = Scenario::relay_crash(RecoveryMode::Slow, 11)
            .run()
            .recovery();
        assert!(
            fast.frames_lost < slow.frames_lost,
            "fast {} vs slow {}",
            fast.frames_lost,
            slow.frames_lost
        );
    }

    #[test]
    fn recovery_outcomes_are_deterministic() {
        let sc = Scenario::relay_crash(RecoveryMode::Fast, 3);
        let a = sc.run().recovery();
        let b = sc.run().recovery();
        assert_eq!(a.detect_ms.to_bits(), b.detect_ms.to_bits());
        assert_eq!(a.restore_ms.to_bits(), b.restore_ms.to_bits());
        assert_eq!(a.frames_lost, b.frames_lost);
    }

    #[test]
    fn degraded_leg_produces_misses_and_recoveries() {
        let out = Scenario::autorec(1, 5).run().autorec();
        assert!(out.primary_misses > 0, "B never cache-missed");
        assert!(out.records.len() > 50, "too few recoveries at C");
        // 20 s at 15 fps = 300 frames; nearly all must survive the loss.
        assert!(out.frames_rendered > 290, "{}", out.frames_rendered);
    }

    #[test]
    fn alternate_supplier_beats_the_primary_round_trip() {
        let alt = Scenario::autorec(1, 5).run().autorec();
        let base = Scenario::autorec(0, 5).run().autorec();
        assert!(
            alt.alternate_recovered > 0,
            "multi-supplier mode never recovered via the alternate: {alt:?}"
        );
        assert_eq!(
            base.alternate_recovered, 0,
            "baseline must not chase alternates"
        );
        assert!(base.records.iter().all(|r| !r.alternate));
        // The chase over short clean links beats the primary's fat round
        // trip by a wide margin, not a hair.
        assert!(
            alt.median_recover_ms() < base.median_recover_ms() / 2.0,
            "alternate median {} !< half of baseline median {}",
            alt.median_recover_ms(),
            base.median_recover_ms()
        );
    }

    #[test]
    fn autorec_outcomes_are_deterministic() {
        for alts in [0usize, 1] {
            let sc = Scenario::autorec(alts, 9);
            assert!(
                sc.run().autorec().bit_identical(&sc.run().autorec()),
                "alts={alts} diverged"
            );
        }
    }
}
