//! `fleet_double12` and `fleet_brainha`: the session-level fleet simulator
//! on the Double-12 surge day.
//!
//! Both use `FleetConfigBuilder::mega_scale` (paper-scale geography, 400
//! channels, 12 arrivals/s at peak) cut to its one surge day (2× demand)
//! and partitioned into [`SHARDS`] shards run by
//! `FleetRunner::run_parallel(nproc)`. `fleet_brainha` runs the same
//! sessions against a 3-replica Paxos Brain per shard
//! (`ReplicationConfig::default()`).

use crate::out::{median, quantile, EndToEnd, Fnv, Outcome};
use livenet_brain::StreamingBrain;
use livenet_sim::{
    FleetConfig, FleetConfigBuilder, FleetReport, FleetRunner, FleetSim, ReplicationConfig,
};
use livenet_topology::GeoTopology;
use livenet_types::{DetRng, NodeId, SimTime, StreamId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shards per run. The preset's 8 shards cost ~24 s per simulated day
/// single-Brain and ~90 s replicated on a 2-core host, beyond one run's
/// time limit; 2 shards keep the partition, the parallel runner and the
/// per-shard control planes while fitting the budget.
pub const SHARDS: usize = 2;
/// Repetitions per requested second of measurement, by control plane: one
/// repetition takes ~7 s single-Brain and ~19 s replicated on a 2-core x86
/// host, so `--seconds 20` runs three and two. The replicated repetition
/// cannot be made shorter: the Paxos lease renewals cost per simulated
/// minute, not per session (a quarter of the arrival rate still took
/// ~16 s), and the horizon is one whole day. Never fewer than two, so the
/// bit-identity check has a pair; with two, the median is their mean.
const REPS_PER_SECOND: [f64; 2] = [0.15, 0.1];
/// Set-ups timed for `setup_s` before each repetition and after the last,
/// by control plane (one takes ~0.04 s single-Brain and ~0.2 s
/// replicated), after one untimed warm-up.
const SETUP_PER_GAP: [usize; 2] = [4, 3];

pub fn config(seed: u64, replicated: bool) -> FleetConfig {
    let b = FleetConfigBuilder::mega_scale(seed)
        .days(1)
        .festival(vec![0], 2.0)
        .shards(SHARDS);
    let b = if replicated {
        b.replication(ReplicationConfig::default())
    } else {
        b
    };
    b.build().expect("benchmark fleet config is valid")
}

/// Set-up: validate the config and build every shard simulator (topology
/// generation, Brain or Brain cluster, workload) — the work
/// `run_parallel` does before its first event.
fn setup_once(seed: u64, replicated: bool) -> f64 {
    let t = Instant::now();
    let cfg = config(seed, replicated);
    let runner = FleetRunner::new(cfg.clone()).expect("valid");
    let shards: Vec<FleetSim> = runner
        .plans()
        .iter()
        .map(|p| FleetSim::new_shard(cfg.clone(), p))
        .collect();
    let s = t.elapsed().as_secs_f64();
    drop(shards);
    s
}

/// Fingerprint of the merged report, printed so sets of runs can be
/// compared across processes.
fn fingerprint(r: &FleetReport) -> u64 {
    let mut h = Fnv::new();
    for s in r.livenet.iter().chain(&r.hier) {
        h.u64(s.start.as_nanos());
        h.u64(u64::from(s.path_len));
        h.u64(u64::from(s.streaming_delay_ms.to_bits()));
        h.u64(u64::from(s.startup_ms.to_bits()));
        h.u64(u64::from(s.first_packet_ms.to_bits()));
        h.u64(u64::from(s.stalls));
    }
    h.u64(r.recompute_rounds);
    h.u64(r.chain_switches);
    h.bytes(r.telemetry.to_json().as_bytes());
    if let Some(rep) = &r.replication {
        h.u64(rep.decided_slots);
        h.u64(rep.msgs_sent);
    }
    h.finish()
}

fn give_ups(r: &FleetReport) -> u64 {
    r.replication.as_ref().map_or(0, |s| s.give_ups)
}

fn check_replication(out: &mut Outcome, r: &FleetReport) {
    if let Some(s) = &r.replication {
        out.check("fleet.log_divergences_zero", s.log_divergences == 0);
        out.check(
            "fleet.assignment_mismatches_zero",
            s.assignment_mismatches == 0,
        );
    }
}

pub fn run(seed: u64, seconds: f64, replicated: bool, threads: usize) -> Outcome {
    let k = usize::from(replicated);
    let reps = ((seconds * REPS_PER_SECOND[k]).round() as usize).max(2);
    let runner = FleetRunner::new(config(seed, replicated)).expect("valid");
    let mut first: Option<FleetReport> = None;
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut fps = Vec::new();
    let mut identical = true;
    let mut out = Outcome::default();
    // The first set-up also pays the process's one-time heap growth; it
    // is not timed.
    setup_once(seed, replicated);
    let (setup, _) = crate::out::interleaved(
        reps,
        SETUP_PER_GAP[k],
        || setup_once(seed, replicated),
        |_| {
            let t = Instant::now();
            let r = runner.run_parallel(threads);
            let wall = t.elapsed().as_secs_f64();
            rates.push(r.livenet.len() as f64 / wall);
            walls.push(format!("{wall:.3}"));
            fps.push(format!("{:016x}", fingerprint(&r)));
            out.attempted += r.livenet.len() as u64;
            out.failed += give_ups(&r);
            match &first {
                None => first = Some(r),
                Some(f) => identical &= f.bit_identical(&r),
            }
        },
    );
    let r = first.expect("at least one repetition ran");
    println!(
        "fleet fingerprints over {} repetitions: [{}]",
        fps.len(),
        fps.join(" ")
    );
    out.check("fleet.report_bit_identical_across_repetitions", identical);
    out.check("fleet.sessions_simulated", !r.livenet.is_empty());
    check_replication(&mut out, &r);
    let n = r.livenet.len() as f64;
    let mut delay: Vec<f64> = r
        .livenet
        .iter()
        .map(|s| f64::from(s.streaming_delay_ms))
        .collect();
    delay.sort_by(f64::total_cmp);
    let slow = r.livenet.iter().filter(|s| !s.fast_startup()).count() as f64;
    println!(
        "fleet: {} sessions per repetition, {} slow startups, {} replication give-ups; \
         repetition wall s [{}]",
        r.livenet.len(),
        slow,
        give_ups(&r),
        walls.join(" ")
    );
    out.end_to_end(EndToEnd {
        setup_s: setup,
        work_per_s: median(rates),
        latency_p50_ms: quantile(&delay, 0.5),
        latency_tail_ms: quantile(&delay, 0.99),
        success_ratio: 1.0 - (slow + give_ups(&r) as f64) / n.max(1.0),
    });
    out
}

/// One shard simulator's set-up and run, timed.
struct ShardRun {
    build_s: f64,
    run_s: f64,
    sessions: u64,
}

/// The instrumented counterpart of `run_parallel`: the same shard plans on
/// the same number of workers, each shard's construction and run timed
/// separately with two clock reads. The per-shard reports are not merged
/// (the merge is private to the runner), so `run_parallel` wall minus this
/// pass's wall estimates the merge.
fn shard_pass(cfg: &FleetConfig, threads: usize) -> (f64, Vec<ShardRun>) {
    let plans = FleetRunner::new(cfg.clone()).expect("valid").plans();
    let workers = threads.clamp(1, plans.len());
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, ShardRun)>> = Mutex::new(Vec::new());
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= plans.len() {
                    break;
                }
                let t0 = Instant::now();
                let sim = FleetSim::new_shard(cfg.clone(), &plans[i]);
                let t1 = Instant::now();
                let report = sim.run();
                let run = ShardRun {
                    build_s: (t1 - t0).as_secs_f64(),
                    run_s: t1.elapsed().as_secs_f64(),
                    sessions: report.livenet.len() as u64,
                };
                done.lock().expect("no worker panicked").push((i, run));
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let mut runs = done.into_inner().expect("no worker panicked");
    runs.sort_by_key(|(i, _)| *i);
    (wall, runs.into_iter().map(|(_, r)| r).collect())
}

pub fn run_traced(seed: u64, replicated: bool, threads: usize) -> Outcome {
    let cfg = config(seed, replicated);
    let mut out = Outcome::traced();

    // Untraced baseline: one merged run.
    let t = Instant::now();
    let r = FleetRunner::new(cfg.clone())
        .expect("valid")
        .run_parallel(threads);
    let wall = t.elapsed().as_secs_f64();
    check_replication(&mut out, &r);
    out.attempted = r.livenet.len() as u64;
    out.failed = give_ups(&r);

    let (pass_wall, shards) = shard_pass(&cfg, threads);
    let times: Vec<f64> = shards.iter().map(|s| s.build_s + s.run_s).collect();
    let slowest = times.iter().copied().fold(0.0, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let sessions: u64 = shards.iter().map(|s| s.sessions).sum();
    out.check(
        "fleet.shard_sessions_sum_to_merged_report",
        sessions == r.livenet.len() as u64,
    );
    out.layer("sim.shard_max_s", slowest);
    out.layer("sim.shard_skew", slowest / mean);
    // An estimate: the difference of two executions in this process, so
    // run-to-run noise (a few % of the wall) can take it below 0.
    out.layer("sim.merge_s", wall - pass_wall);
    out.layer("sim.sessions", sessions as f64);

    // Topology generation, once per shard in the run.
    let gen_ms = median(
        (0..5)
            .map(|_| {
                let t = Instant::now();
                let g = GeoTopology::generate(&cfg.geo);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(g);
                ms
            })
            .collect(),
    );
    out.layer("topology.generate_ms", gen_ms);

    // Brain: PIB recompute and path requests on the workload's topology.
    let geo = GeoTopology::generate(&cfg.geo);
    let mut brain = StreamingBrain::new(geo.topology.clone(), cfg.brain.clone());
    let recompute_ms = median(
        (1..=7u64)
            .map(|k| {
                let t = Instant::now();
                brain.force_recompute(SimTime::from_secs(600 * k));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    let nodes = &geo.node_ids;
    let mut rng = DetRng::seed(seed).fork("perfbench-brain");
    for s in 0..64u64 {
        let producer = nodes[rng.range_u64(0, nodes.len() as u64) as usize];
        brain.register_stream(StreamId(10_000 + s), producer);
    }
    let now = SimTime::from_secs(4200);
    let request_us = median(
        (0..20)
            .map(|_| {
                let reqs: Vec<(StreamId, NodeId)> = (0..100)
                    .map(|_| {
                        (
                            StreamId(10_000 + rng.range_u64(0, 64)),
                            nodes[rng.range_u64(0, nodes.len() as u64) as usize],
                        )
                    })
                    .collect();
                let t = Instant::now();
                for (stream, consumer) in reqs {
                    let _ = std::hint::black_box(brain.path_request(stream, consumer, now));
                }
                t.elapsed().as_secs_f64() * 1e6 / 100.0
            })
            .collect(),
    );
    let shard_run_s: f64 = shards.iter().map(|s| s.run_s).sum();
    out.layer("brain.recompute_ms", recompute_ms);
    out.layer("brain.recompute_rounds", r.recompute_rounds as f64);
    out.layer(
        "brain.recompute_share",
        r.recompute_rounds as f64 * recompute_ms / 1e3 / shard_run_s,
    );
    out.layer("brain.path_request_us", request_us);
    out.layer(
        "brain.requests_served",
        r.telemetry.counter("brain.requests_served") as f64,
    );
    out.layer(
        "brain.ksp_paths_computed",
        r.telemetry.counter("brain.ksp_paths_computed") as f64,
    );

    if let Some(rep) = &r.replication {
        // Replication's share of shard time: the same sessions with the
        // single in-process Brain, shard for shard.
        let (_, single) = shard_pass(&config(seed, false), threads);
        let single_s: f64 = single.iter().map(|s| s.run_s).sum();
        out.layer("replication.share", 1.0 - single_s / shard_run_s);
        out.layer("replication.decided_slots", rep.decided_slots as f64);
        out.layer("replication.lease_renewals", rep.lease_renewals as f64);
        out.layer("replication.msgs_sent", rep.msgs_sent as f64);
        out.layer("replication.client_retries", rep.client_retries as f64);
    }

    // The traced pass differs from the untraced one only by its two clock
    // reads per shard (and the merge it skips), so that is its overhead.
    let attributed: f64 = times.iter().sum();
    out.layer(
        "trace.overhead_ratio",
        2.0 * shards.len() as f64 * crate::out::clock_read_s() / pass_wall,
    );
    out.layer(
        "trace.unattributed_share",
        1.0 - attributed / (threads.clamp(1, shards.len()) as f64 * pass_wall),
    );
    out
}
