//! Result assembly: checks, metrics and the one-line JSON result.

use std::collections::BTreeMap;

/// Every per-layer metric the traced run reports, with its unit. A
/// workload that does not run a layer reports that layer's metrics as 0
/// (the layer did no work there).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.shard_max_s", "s"),
    ("sim.shard_skew", "ratio"),
    ("sim.merge_s", "s"),
    ("sim.sessions", "count"),
    ("topology.generate_ms", "ms"),
    ("brain.recompute_ms", "ms"),
    ("brain.recompute_rounds", "count"),
    ("brain.recompute_share", "ratio"),
    ("brain.path_request_us", "us"),
    ("brain.requests_served", "count"),
    ("brain.ksp_paths_computed", "count"),
    ("replication.share", "ratio"),
    ("replication.decided_slots", "count"),
    ("replication.lease_renewals", "count"),
    ("replication.msgs_sent", "count"),
    ("replication.client_retries", "count"),
    ("emu.events", "count"),
    ("emu.self_s", "s"),
    ("emu.delivered", "count"),
    ("emu.lost_random", "count"),
    ("node.on_datagram_ns.p50", "ns"),
    ("node.on_datagram_ns.p99", "ns"),
    ("node.on_timer_ns.p50", "ns"),
    ("node.on_timer_ns.p99", "ns"),
    ("node.ingest_frame_us", "us"),
    ("node.busy_s", "s"),
    ("node.forwarded", "count"),
    ("node.nacks_sent", "count"),
    ("node.nack_batches", "count"),
    ("node.rtx_served", "count"),
    ("node.rtx_unavailable", "count"),
    ("node.rtx_alternate_requests", "count"),
    ("node.rtx_alternate_recovered", "count"),
    ("node.rtx_pending_expired", "count"),
    ("node.duplicates", "count"),
    ("node.rtx_useful_ratio", "ratio"),
    ("node.dispatch_ms.p50", "ms"),
    ("node.dispatch_ms.p99", "ms"),
    ("client.on_datagram_ns.p50", "ns"),
    ("client.busy_s", "s"),
    ("cc.rate_increases", "count"),
    ("cc.rate_decreases", "count"),
    ("cc.rate_holds", "count"),
    ("transport.rx_datagrams", "count"),
    ("transport.tx_datagrams", "count"),
    ("transport.batch_rx_fill", "dgram/syscall"),
    ("transport.batch_tx_fill", "dgram/syscall"),
    ("transport.batch_tx_retries", "count"),
    ("transport.send_errors", "count"),
    ("transport.recv_truncated", "count"),
    ("transport.unknown_source_drops", "count"),
    ("transport.loadgen_dps", "1/s"),
    ("wire.first_packet_p50_ms", "ms"),
    ("bench.join_lag_p50_ms", "ms"),
    ("bench.join_lag_p95_ms", "ms"),
    ("packet.distinct_fingerprints", "count"),
    ("packet.probe_starved", "count"),
    ("packet.unrecovered_ratio", "ratio"),
    ("wire.frames_missed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The end-to-end figures of one untraced run. Every workload reports all
/// of them, each in the sense its workload gives it (`perfbench/README.md`
/// has the table), plus `peak_rss_mb`, which [`Outcome::end_to_end`] reads.
pub struct EndToEnd {
    /// Set-up time, s.
    pub setup_s: f64,
    /// Units of work completed per wall second: fleet sessions, emulated
    /// packets delivered, overlay datagrams dispatched.
    pub work_per_s: f64,
    /// The workload's headline latency, median, ms.
    pub latency_p50_ms: f64,
    /// The same latency's tail, ms.
    pub latency_tail_ms: f64,
    /// Share of the attempted work that succeeded.
    pub success_ratio: f64,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    checks: Vec<(String, bool)>,
    /// Operations the run attempted (sessions, viewer sessions).
    pub attempted: u64,
    /// Operations that failed outright.
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool) {
        println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
        self.checks.push((name.to_string(), ok));
    }

    /// Record every end-to-end metric.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        for (name, value, unit) in [
            ("setup_s", e.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("work_per_s", e.work_per_s, "1/s"),
            ("latency_p50_ms", e.latency_p50_ms, "ms"),
            ("latency_tail_ms", e.latency_tail_ms, "ms"),
            ("success_ratio", e.success_ratio, "ratio"),
        ] {
            self.metrics.insert(name.to_string(), (value, unit));
        }
    }

    /// Pre-fill every per-layer metric with 0, the value of a layer the
    /// workload does not run.
    pub fn traced() -> Outcome {
        let mut o = Outcome::default();
        for &(name, unit) in PER_LAYER {
            o.metrics.insert(name.to_string(), (0.0, unit));
        }
        o
    }

    /// Set a per-layer metric declared in [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
            .1;
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.values().all(|(v, _)| v.is_finite())
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank quantile of an ascending sample (`NaN` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Median of an unsorted sample (`NaN` when empty); the mean of the two
/// middle values when the sample is even, as Python's
/// `statistics.median` has it.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run `reps` repetitions (`rep(i)` for each `i`), timing `per_gap`
/// set-ups with `setup` before each repetition and after the last; returns
/// the median set-up time and the repetitions' results. The host's speed
/// shifts by up to half from one second to the next, so set-ups spread over
/// the run give a median that reflects the whole run rather than the phase
/// its first second fell in.
pub fn interleaved<R>(
    reps: usize,
    per_gap: usize,
    mut setup: impl FnMut() -> f64,
    mut rep: impl FnMut(usize) -> R,
) -> (f64, Vec<R>) {
    let mut setups = Vec::new();
    let mut results = Vec::new();
    for i in 0..=reps {
        setups.extend((0..per_gap).map(|_| setup()));
        if i < reps {
            results.push(rep(i));
        }
    }
    (median(setups), results)
}

/// The input seed of repetition `i` of a run at `seed`, for workloads
/// whose repetitions draw distinct inputs.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(i)
}

/// Wall time of one `Instant::now()` read, in seconds: the median over
/// blocks of reads. A traced run that adds only clock reads to the
/// measured work costs this much per read.
pub fn clock_read_s() -> f64 {
    const READS: u32 = 100_000;
    median(
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                for _ in 0..READS {
                    std::hint::black_box(std::time::Instant::now());
                }
                t.elapsed().as_secs_f64() / f64::from(READS)
            })
            .collect(),
    )
}

/// A fixed single-threaded job (FNV over 16 MiB, four passes), timed in
/// ms. It does not depend on the program, so it shows how fast the host
/// itself ran when two sets of runs disagree.
pub fn host_probe_ms() -> f64 {
    let buf: Vec<u8> = (0..16u32 << 20).map(|i| (i % 251) as u8).collect();
    let t = std::time::Instant::now();
    let mut h = Fnv::new();
    for _ in 0..4 {
        h.bytes(&buf);
    }
    std::hint::black_box(h.finish());
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, for output fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
