//! `packet_lossy`: packet-level emulation of real overlay nodes in the
//! AutoRec shape (DESIGN.md §14).
//!
//! Producer P feeds a primary relay B over a degraded leg (80 ms one way,
//! 3 % Bernoulli loss in both directions for the whole broadcast) and a
//! warm backup relay D over clean 10 ms links; consumer C hangs off both
//! and may chase one alternate supplier (`rtx_alt_suppliers = 1`) when B
//! answers a NACK with an RTX miss. Three viewers watch at C, two at D. Every hole C sees is
//! also a hole at B, so the node's recovery path — loss scan, NACK, RTX
//! cache, `RtxMiss` chase — and the emulator's event loop do the work; no
//! fleet, brain or transport code runs.
//!
//! One scenario code path, generic over the emulator [`Host`]: the
//! untraced run drives plain [`EmuHost`]s, the traced run wraps every host
//! in [`Timed`], a shim that times each callback from outside the program.

use crate::out::{median, quantile, EndToEnd, Fnv, Outcome};
use bytes::Bytes;
use livenet_emu::{Ctx, FaultKind, Host, LinkConfig, LossModel, NetSim};
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeConfig, NodeEvent, OverlayNode};
use livenet_sim::adapter::{apply_node_actions, client_host_id, EmuHost};
use livenet_types::{Bandwidth, ClientId, DetRng, NodeId, SimDuration, SimTime, StreamId};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const STREAM: StreamId = StreamId(903);
/// Simulated broadcast per repetition.
const BROADCAST: SimDuration = SimDuration::from_secs(56);
/// Repetitions per requested second of measurement: one repetition takes
/// ~9 s of wall time on a 2-core x86 host, so `--seconds 20` runs three,
/// each at its own scenario seed (1038-1229 distinct holes at the consumer
/// over seeds 1..=10, enough for a p99 with ten samples beyond it). The
/// work is a function of `--seconds` alone, so a faster program does the
/// same work sooner rather than more of it.
const REPS_PER_SECOND: f64 = 0.15;
/// Set-ups per timed block, and blocks before each repetition and after the
/// last, for `setup_s`. One set-up takes ~17 µs, too short to time alone,
/// so each block times many and `setup_s` is the median over blocks of the
/// mean per set-up.
const SETUP_BLOCK: u32 = 1000;
const SETUP_BLOCKS_PER_GAP: usize = 2;
/// Broadcast start: the viewers attach at 0 and the slowest subscription
/// crosses the ~80 ms primary leg, so all are up well before this.
const START: SimTime = SimTime::from_millis(300);
/// Loss on the degraded primary leg, both directions. In the measured
/// scenario it starts with the broadcast, so every media packet and every
/// NACK crosses a lossy leg but the subscriptions come up on a clean one:
/// a SUBSCRIBE lost on the leg is never retried and starves the consumer's
/// whole subtree for the session. That defect is measured separately by
/// [`starved_probes`], with the leg lossy from t = 0 as `run_autorec` has
/// it, so it shows without failing the recovery measurement.
const PRIMARY_LOSS: f64 = 0.03;
/// Probes of the subscription defect per traced run, and the broadcast
/// each runs: enough for media to reach every viewer whose path is up.
const PROBES: u64 = 16;
const PROBE_BROADCAST: SimDuration = SimDuration::from_millis(500);
/// Simulated tail after the last frame, so in-flight recovery settles.
const TAIL: SimDuration = SimDuration::from_secs(2);
const P: NodeId = NodeId::new(1);
const B: NodeId = NodeId::new(2);
const C: NodeId = NodeId::new(3);
const D: NodeId = NodeId::new(4);
const NODES: [NodeId; 4] = [P, B, C, D];
/// Viewer clients at the consumer C and at the backup relay D.
const VIEWERS_AT_C: [u64; 3] = [1, 2, 3];
const VIEWERS_AT_D: [u64; 2] = [4, 5];

/// An emulator host the scenario can build from, and read back as, an
/// [`EmuHost`].
pub trait Shim: Host {
    fn wrap(host: EmuHost) -> Self;
    fn emu(&self) -> &EmuHost;
    fn emu_mut(&mut self) -> &mut EmuHost;
}

impl Shim for EmuHost {
    fn wrap(host: EmuHost) -> Self {
        host
    }
    fn emu(&self) -> &EmuHost {
        self
    }
    fn emu_mut(&mut self) -> &mut EmuHost {
        self
    }
}

/// Timing shim: records the wall time of every callback into the host.
pub struct Timed {
    inner: EmuHost,
    datagram_ns: Vec<u64>,
    timer_ns: Vec<u64>,
}

impl Timed {
    fn busy_ns(&self) -> u64 {
        self.datagram_ns.iter().chain(&self.timer_ns).sum()
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl Host for Timed {
    fn on_datagram(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
        let t = Instant::now();
        self.inner.on_datagram(ctx, from, payload);
        self.datagram_ns.push(nanos(t.elapsed()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, key);
        self.timer_ns.push(nanos(t.elapsed()));
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }
    fn on_crash(&mut self) {
        self.inner.on_crash();
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        self.inner.on_restart(ctx);
    }
}

impl Shim for Timed {
    fn wrap(host: EmuHost) -> Self {
        Timed {
            inner: host,
            datagram_ns: Vec::new(),
            timer_ns: Vec::new(),
        }
    }
    fn emu(&self) -> &EmuHost {
        &self.inner
    }
    fn emu_mut(&mut self) -> &mut EmuHost {
        &mut self.inner
    }
}

/// Everything harvested from one repetition.
struct Rep {
    /// Wall time of the encoder-driven emulation (after set-up).
    drive_s: f64,
    /// Wall time inside `NetSim::run_until`.
    run_until_s: f64,
    /// Wall time inside `OverlayNode::ingest_frame` at the producer.
    ingest_ns: Vec<u64>,
    sim_s: f64,
    /// Detection→recovery latencies at the consumer, ms.
    recover_ms: Vec<f64>,
    /// Holes recovered at any node.
    recovered_all: u64,
    /// Packets every D viewer received (D's links are clean, so this is
    /// the producer's full packet stream) minus what each C viewer
    /// received: the holes C never closed.
    unrecovered: u64,
    frames: Vec<u64>,
    stats: livenet_node::NodeStats,
    cc: livenet_cc::RateDecisionStats,
    delivered: u64,
    lost_random: u64,
    fingerprint: u64,
}

fn clean_link(delay: SimDuration) -> LinkConfig {
    LinkConfig {
        delay,
        bandwidth: Bandwidth::from_gbps(1),
        queue_bytes: 4 << 20,
        loss: LossModel::None,
        jitter: SimDuration::ZERO,
    }
}

fn node_mut<H: Shim>(h: &mut H) -> &mut livenet_sim::adapter::NodeHostState {
    h.emu_mut().as_node_mut().expect("overlay node host")
}

/// One-way delays of the overlay links, drawn from the seed: the degraded
/// primary leg P–B around 80 ms, the clean links B–C, P–D and D–C around
/// 10 ms, each within ±2 %. The spread keeps the recovery latencies of
/// different seeds apart; with every delay fixed they repeat to the
/// nanosecond.
fn link_delays(seed: u64) -> [(NodeId, NodeId, SimDuration); 4] {
    let mut rng = DetRng::seed(seed).fork("perfbench-packet-links");
    let mut around = |ms: u64| {
        let us = ms * 1000;
        SimDuration::from_micros(us - us / 50 + rng.range_u64(0, us / 25 + 1))
    };
    [
        (P, B, around(80)),
        (B, C, around(10)),
        (P, D, around(10)),
        (D, C, around(10)),
    ]
}

/// Build the diamond and attach the viewers. The primary leg is lossy from
/// t = 0 with `lossy_subscribe`, else from the broadcast start.
fn build<H: Shim>(seed: u64, lossy_subscribe: bool) -> NetSim<H> {
    let mut sim: NetSim<H> = NetSim::new(seed);
    let delays = link_delays(seed);
    let delay = |a: NodeId, b: NodeId| {
        delays
            .iter()
            .find(|&&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
            .map(|&(_, _, d)| d)
    };
    for &id in &NODES {
        let mut cfg = NodeConfig::new(id);
        cfg.rtx_alt_suppliers = 1;
        let mut node = OverlayNode::new(cfg);
        for &peer in &NODES {
            if peer != id {
                // Unwired pairs (P–C, B–D) get the nominal clean-link hint.
                let one_way = delay(id, peer).unwrap_or(SimDuration::from_millis(10));
                node.set_neighbor_rtt(peer, one_way * 2);
            }
        }
        sim.add_host(id, H::wrap(EmuHost::node(node)));
    }
    for &(a, b, d) in &delays {
        let mut link = clean_link(d);
        if (a, b) == (P, B) && lossy_subscribe {
            link.loss = LossModel::Bernoulli { p: PRIMARY_LOSS };
        }
        sim.add_duplex(a, b, link);
    }
    if !lossy_subscribe {
        for (from, to) in [(P, B), (B, P)] {
            sim.schedule_fault(
                START,
                FaultKind::LossBurst {
                    from,
                    to,
                    loss: PRIMARY_LOSS,
                },
            );
        }
    }
    sim.with_host(P, |h, _| node_mut(h).node.register_producer(STREAM, None));

    let gop = GopConfig::default();
    let access = LinkConfig {
        delay: SimDuration::from_millis(15),
        bandwidth: Bandwidth::from_mbps(50),
        queue_bytes: 1 << 20,
        loss: LossModel::None,
        jitter: SimDuration::ZERO,
    };
    let attach = |sim: &mut NetSim<H>, node: NodeId, client: u64, path: Vec<NodeId>| {
        let viewer = ClientId::new(client);
        let host = client_host_id(viewer);
        sim.add_host(
            host,
            H::wrap(EmuHost::client(
                viewer,
                SimTime::from_millis(100),
                gop.fps,
                SimDuration::from_millis(300),
            )),
        );
        sim.add_duplex(node, host, access);
        sim.with_host(node, |h, ctx| {
            let s = node_mut(h);
            let mut actions = Vec::new();
            s.node.client_attach(
                ctx.now(),
                viewer,
                STREAM,
                Some(Bandwidth::from_mbps(50)),
                Some(&path),
                &mut actions,
            );
            apply_node_actions(s, ctx, actions);
        });
    };
    for &v in &VIEWERS_AT_C {
        attach(&mut sim, C, v, vec![P, B, C]);
    }
    sim.with_host(C, |h, _| {
        node_mut(h).node.install_paths(STREAM, &[vec![P, D, C]]);
    });
    for &v in &VIEWERS_AT_D {
        attach(&mut sim, D, v, vec![P, D]);
    }
    sim
}

/// Set-up: build the diamond, attach the viewers and run the emulator to
/// the broadcast start, by which every subscription is established.
fn set_up<H: Shim>(seed: u64, lossy_subscribe: bool) -> NetSim<H> {
    let mut sim = build::<H>(seed, lossy_subscribe);
    sim.run_until(START);
    sim
}

/// Mean set-up time over a block of [`SETUP_BLOCK`] set-ups.
fn setup_block(seed: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BLOCK {
        drop(std::hint::black_box(set_up::<EmuHost>(seed, false)));
    }
    t.elapsed().as_secs_f64() / f64::from(SETUP_BLOCK)
}

/// Encoder-driven broadcast at the producer from [`START`] to `end`;
/// returns the wall time inside `run_until` and, with `timing`, that of
/// each `ingest_frame` call.
fn broadcast<H: Shim>(sim: &mut NetSim<H>, end: SimTime, timing: bool) -> (Duration, Vec<u64>) {
    let mut encoder =
        VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), START);
    let mut run_until = Duration::ZERO;
    let mut ingest_ns = Vec::new();
    loop {
        let next = encoder.next_capture_time();
        if next >= end {
            break;
        }
        let t = Instant::now();
        sim.run_until(next);
        run_until += t.elapsed();
        let frame = encoder.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        sim.with_host(P, |h, ctx| {
            let s = node_mut(h);
            let t = timing.then(Instant::now);
            let actions = s.node.ingest_frame(ctx.now(), &frame, &payload);
            if let Some(t) = t {
                ingest_ns.push(nanos(t.elapsed()));
            }
            apply_node_actions(s, ctx, actions);
        });
    }
    (run_until, ingest_ns)
}

/// Probes of the subscription defect: the scenario with the primary leg
/// lossy from t = 0, at [`PROBES`] seeds derived from `seed`, each cut to
/// a short broadcast. Returns how many left a consumer viewer without a
/// single packet.
fn starved_probes(seed: u64) -> u64 {
    (0..PROBES)
        .filter(|&k| {
            let mut sim = set_up::<EmuHost>(seed.wrapping_mul(PROBES) + k, true);
            broadcast(&mut sim, START + PROBE_BROADCAST, false);
            VIEWERS_AT_C.iter().any(|&v| {
                sim.host(client_host_id(ClientId::new(v)))
                    .and_then(EmuHost::as_client)
                    .is_none_or(|c| c.packets == 0)
            })
        })
        .count() as u64
}

/// Set up, broadcast, harvest. With `traced`, the hosts are moved out
/// into it after the harvest.
fn run_rep<H: Shim>(seed: u64, traced: &mut Option<&mut Vec<H>>) -> Rep {
    let mut sim = set_up::<H>(seed, false);
    let t_drive = Instant::now();
    let end = START + BROADCAST;
    let (mut run_until, ingest_ns) = broadcast(&mut sim, end, traced.is_some());
    let t = Instant::now();
    sim.run_until(end + TAIL);
    run_until += t.elapsed();
    let drive_s = t_drive.elapsed().as_secs_f64();

    // Harvest.
    let mut fp = Fnv::new();
    let mut recover_ms = Vec::new();
    let mut recovered_all = 0;
    let mut stats = livenet_node::NodeStats::default();
    let mut cc = livenet_cc::RateDecisionStats::default();
    for &id in &NODES {
        let s = sim
            .host(id)
            .and_then(|h| h.emu().as_node())
            .expect("node host");
        for (at, e) in &s.events {
            if let NodeEvent::HoleRecovered {
                after, alternate, ..
            } = e
            {
                recovered_all += 1;
                fp.u64(id.raw());
                fp.u64(at.as_nanos());
                fp.u64(after.as_nanos());
                fp.u64(u64::from(*alternate));
                if id == C {
                    recover_ms.push(after.as_millis_f64());
                }
            }
        }
        let n = &s.node.stats;
        for x in [
            n.forwarded,
            n.nacks_sent,
            n.nack_batches,
            n.rtx_served,
            n.rtx_unavailable,
            n.rtx_alternate_requests,
            n.rtx_alternate_recovered,
            n.rtx_pending_expired,
            n.duplicates,
        ] {
            fp.u64(x);
        }
        stats.forwarded += n.forwarded;
        stats.nacks_sent += n.nacks_sent;
        stats.nack_batches += n.nack_batches;
        stats.rtx_served += n.rtx_served;
        stats.rtx_unavailable += n.rtx_unavailable;
        stats.rtx_alternate_requests += n.rtx_alternate_requests;
        stats.rtx_alternate_recovered += n.rtx_alternate_recovered;
        stats.rtx_pending_expired += n.rtx_pending_expired;
        stats.duplicates += n.duplicates;
        let t = s.node.cc_decision_totals();
        cc.increases += t.increases;
        cc.decreases += t.decreases;
        cc.holds += t.holds;
    }
    let client = |v: u64| {
        sim.host(client_host_id(ClientId::new(v)))
            .and_then(|h| h.emu().as_client())
            .expect("viewer host")
    };
    let mut frames = Vec::new();
    for &v in VIEWERS_AT_C.iter().chain(&VIEWERS_AT_D) {
        let c = client(v);
        frames.push(c.frames.len() as u64);
        fp.u64(c.packets);
        fp.u64(c.frames.len() as u64);
    }
    let full = VIEWERS_AT_D
        .iter()
        .map(|&v| client(v).packets)
        .min()
        .unwrap_or(0);
    let unrecovered = VIEWERS_AT_C
        .iter()
        .map(|&v| full.saturating_sub(client(v).packets))
        .max()
        .unwrap_or(0);
    let links = sim.total_link_stats();
    fp.u64(links.delivered);
    fp.u64(links.lost_random);

    if let Some(out) = traced.as_deref_mut() {
        let ids: BTreeSet<NodeId> = NODES
            .iter()
            .copied()
            .chain(
                VIEWERS_AT_C
                    .iter()
                    .chain(&VIEWERS_AT_D)
                    .map(|&v| client_host_id(ClientId::new(v))),
            )
            .collect();
        for id in ids {
            out.push(sim.remove_host(id).expect("host present"));
        }
    }

    Rep {
        drive_s,
        run_until_s: run_until.as_secs_f64(),
        ingest_ns,
        sim_s: (end + TAIL).saturating_since(START).as_secs_f64(),
        recover_ms,
        recovered_all,
        unrecovered,
        frames,
        stats,
        cc,
        delivered: links.delivered,
        lost_random: links.lost_random,
        fingerprint: fp.finish(),
    }
}

fn distinct(reps: &[Rep]) -> usize {
    reps.iter()
        .map(|r| r.fingerprint)
        .collect::<BTreeSet<_>>()
        .len()
}

/// `reps` untraced repetitions (at least two), repetition `i` at scenario
/// seed `seed_of(i)`.
fn untraced_reps(reps: usize, seed_of: impl Fn(u64) -> u64) -> Vec<Rep> {
    (0..reps.max(2) as u64)
        .map(|i| run_rep::<EmuHost>(seed_of(i), &mut None))
        .collect()
}

fn reps_for(seconds: f64) -> usize {
    ((seconds * REPS_PER_SECOND).round() as usize).max(2)
}

/// Holes the consumer detected, and those it never closed.
fn holes(reps: &[Rep]) -> (u64, u64) {
    let recovered: u64 = reps.iter().map(|r| r.recover_ms.len() as u64).sum();
    let unrecovered: u64 = reps.iter().map(|r| r.unrecovered).sum();
    (recovered + unrecovered, unrecovered)
}

fn check_reps(out: &mut Outcome, reps: &[Rep]) {
    out.check(
        "packet.every_viewer_renders_frames",
        reps.iter().all(|r| r.frames.iter().all(|&f| f > 0)),
    );
    out.check(
        "packet.recovery_records_exist",
        reps.iter().all(|r| !r.recover_ms.is_empty()),
    );
    out.attempted = reps.iter().map(|r| r.frames.len() as u64).sum();
    out.failed = reps
        .iter()
        .map(|r| r.frames.iter().filter(|&&f| f == 0).count() as u64)
        .sum();
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup, reps) = crate::out::interleaved(
        reps_for(seconds),
        SETUP_BLOCKS_PER_GAP,
        || setup_block(seed),
        // Each repetition draws its own link delays and losses, so the
        // holes pooled over a run are distinct ones.
        |i| run_rep::<EmuHost>(crate::out::sub_seed(seed, i as u64), &mut None),
    );
    let mut out = Outcome::default();
    check_reps(&mut out, &reps);
    // One output fingerprint per run: runs at the same seed should print
    // the same one.
    let mut run_fp = Fnv::new();
    for r in &reps {
        run_fp.u64(r.fingerprint);
    }
    println!(
        "packet_lossy run output fingerprint: {:016x} over {} repetitions",
        run_fp.finish(),
        reps.len()
    );
    let mut rec: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.recover_ms.iter().copied())
        .collect();
    rec.sort_by(f64::total_cmp);
    let (detected, unrecovered) = holes(&reps);
    println!(
        "packet_lossy: {} repetitions x {:.0} simulated s; {detected} holes detected at the \
         consumer, {unrecovered} never recovered",
        reps.len(),
        reps[0].sim_s,
    );
    let realtime: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", r.sim_s / r.drive_s))
        .collect();
    println!(
        "packet_lossy realtime factor per repetition: [{}]",
        realtime.join(" ")
    );
    out.end_to_end(EndToEnd {
        setup_s: setup,
        // Datagrams the emulator delivered over every link, per wall second
        // of the drive: the simulated load is fixed, so this is the
        // realtime factor in packets.
        work_per_s: median(
            reps.iter()
                .map(|r| r.delivered as f64 / r.drive_s)
                .collect(),
        ),
        latency_p50_ms: quantile(&rec, 0.5),
        latency_tail_ms: quantile(&rec, 0.99),
        // Almost every hole closes, so the guard is the recovered share
        // (never 0); the unrecovered share is a per-layer figure.
        success_ratio: 1.0 - unrecovered as f64 / detected.max(1) as f64,
    });
    out
}

pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    // Untraced repetitions first (the overhead baseline), then as many
    // shimmed repetitions, all at one scenario seed so their outputs should
    // agree.
    let plain = untraced_reps(reps_for(seconds) / 2, |_| seed);
    let mut hosts: Vec<Vec<Timed>> = Vec::new();
    let mut reps = Vec::new();
    for _ in 0..plain.len() {
        let mut h = Vec::new();
        reps.push(run_rep::<Timed>(seed, &mut Some(&mut h)));
        hosts.push(h);
    }
    let mut out = Outcome::traced();
    check_reps(&mut out, &reps);
    let all: Vec<Rep> = plain.into_iter().chain(reps).collect();
    let (plain, reps) = all.split_at(all.len() / 2);
    let fps: Vec<String> = all
        .iter()
        .map(|r| format!("{:016x}", r.fingerprint))
        .collect();
    println!(
        "packet_lossy output fingerprints: {} distinct over {} repetitions at one seed [{}]",
        distinct(&all),
        all.len(),
        fps.join(" ")
    );
    out.layer("packet.distinct_fingerprints", distinct(&all) as f64);
    let starved = starved_probes(seed);
    println!(
        "packet_lossy subscription probes (primary leg lossy from t = 0): {starved} of {PROBES} \
         left the consumer's viewers without media"
    );
    out.layer("packet.probe_starved", starved as f64);
    let (detected, unrecovered) = holes(reps);
    out.layer(
        "packet.unrecovered_ratio",
        unrecovered as f64 / detected.max(1) as f64,
    );

    // Per-callback timings, pooled over every traced repetition.
    let (mut node_dg, mut node_tm, mut client_dg) = (Vec::new(), Vec::new(), Vec::new());
    let (mut node_busy, mut client_busy, mut events) = (0u64, 0u64, 0u64);
    for h in hosts.iter().flatten() {
        events += (h.datagram_ns.len() + h.timer_ns.len()) as u64;
        if matches!(h.inner, EmuHost::Node(_)) {
            node_dg.extend(h.datagram_ns.iter().map(|&n| n as f64));
            node_tm.extend(h.timer_ns.iter().map(|&n| n as f64));
            node_busy += h.busy_ns();
        } else {
            client_dg.extend(h.datagram_ns.iter().map(|&n| n as f64));
            client_busy += h.busy_ns();
        }
    }
    for v in [&mut node_dg, &mut node_tm, &mut client_dg] {
        v.sort_by(f64::total_cmp);
    }
    let n = reps.len() as f64;
    let per_rep = |x: u64| x as f64 / n;
    let host_s = (node_busy + client_busy) as f64 / 1e9;
    let run_until_s: f64 = reps.iter().map(|r| r.run_until_s).sum();
    let ingest: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.ingest_ns.iter().map(|&x| x as f64 / 1e3))
        .collect();
    let ingest_s: f64 = ingest.iter().sum::<f64>() / 1e6;
    let drive_s: f64 = reps.iter().map(|r| r.drive_s).sum();
    out.layer("emu.events", per_rep(events));
    out.layer("emu.self_s", (run_until_s - host_s) / n);
    out.layer(
        "emu.delivered",
        reps.iter().map(|r| r.delivered as f64).sum::<f64>() / n,
    );
    out.layer(
        "emu.lost_random",
        reps.iter().map(|r| r.lost_random as f64).sum::<f64>() / n,
    );
    out.layer("node.on_datagram_ns.p50", quantile(&node_dg, 0.5));
    out.layer("node.on_datagram_ns.p99", quantile(&node_dg, 0.99));
    out.layer("node.on_timer_ns.p50", quantile(&node_tm, 0.5));
    out.layer("node.on_timer_ns.p99", quantile(&node_tm, 0.99));
    out.layer("node.ingest_frame_us", median(ingest));
    out.layer("node.busy_s", node_busy as f64 / 1e9 / n);
    out.layer("client.on_datagram_ns.p50", quantile(&client_dg, 0.5));
    out.layer("client.busy_s", client_busy as f64 / 1e9 / n);
    let sum = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64 / n;
    out.layer("node.forwarded", sum(|r| r.stats.forwarded));
    out.layer("node.nacks_sent", sum(|r| r.stats.nacks_sent));
    out.layer("node.nack_batches", sum(|r| r.stats.nack_batches));
    out.layer("node.rtx_served", sum(|r| r.stats.rtx_served));
    out.layer("node.rtx_unavailable", sum(|r| r.stats.rtx_unavailable));
    out.layer(
        "node.rtx_alternate_requests",
        sum(|r| r.stats.rtx_alternate_requests),
    );
    out.layer(
        "node.rtx_alternate_recovered",
        sum(|r| r.stats.rtx_alternate_recovered),
    );
    out.layer(
        "node.rtx_pending_expired",
        sum(|r| r.stats.rtx_pending_expired),
    );
    out.layer("node.duplicates", sum(|r| r.stats.duplicates));
    let recovered = sum(|r| r.recovered_all);
    let nacked = sum(|r| r.stats.nacks_sent);
    println!(
        "node.rtx_useful_ratio base: holes recovered at any node ({recovered:.1} per repetition) \
         over sequences NACKed, retries included ({nacked:.1} per repetition)"
    );
    out.layer("node.rtx_useful_ratio", recovered / nacked.max(1.0));
    out.layer("cc.rate_increases", sum(|r| r.cc.increases));
    out.layer("cc.rate_decreases", sum(|r| r.cc.decreases));
    out.layer("cc.rate_holds", sum(|r| r.cc.holds));
    let plain_s: f64 = plain.iter().map(|r| r.drive_s).sum();
    out.layer("trace.overhead_ratio", drive_s / plain_s - 1.0);
    out.layer(
        "trace.unattributed_share",
        1.0 - (run_until_s + ingest_s) / drive_s,
    );
    out
}
