//! Fleet-runner throughput bench: serial vs parallel sharded execution.
//!
//! Default mode runs the paper-scale workload serial and parallel
//! (asserting the two reports are bit-identical), then the ≥1M-session
//! `mega_scale` stress preset parallel-only, and writes `BENCH_fleet.json`
//! (sessions/sec, speedup, host core count, peak RSS) to the current
//! directory:
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin bench_fleet [-- --threads 8]
//! ```
//!
//! `--smoke` is the CI gate: the smoke workload serial vs parallel,
//! asserting bit-identity always, and asserting parallel is no slower
//! than serial *only when the host has ≥ 2 cores* — wall-clock speedup on
//! a single-core runner is physically impossible, and pretending
//! otherwise would just make the gate flaky. No JSON is written.
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin bench_fleet -- --smoke --threads 4
//! ```

use livenet_bench::{Report, RunArgs, SEED};
use livenet_sim::{FleetConfigBuilder, FleetRunner};
use std::time::Instant;

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct Timed {
    sessions: usize,
    secs: f64,
    report: livenet_sim::FleetReport,
}

fn timed(label: &str, out: &mut Report, run: impl FnOnce() -> livenet_sim::FleetReport) -> Timed {
    let t0 = Instant::now();
    let report = run();
    let secs = t0.elapsed().as_secs_f64();
    let sessions = report.livenet.len();
    out.note(format!(
        "{label}: {sessions} sessions in {secs:.3}s ({:.0}/s)",
        sessions as f64 / secs
    ));
    Timed {
        sessions,
        secs,
        report,
    }
}

fn smoke_gate(threads: usize, out: &mut Report) {
    let cfg = FleetConfigBuilder::smoke(SEED)
        .build()
        .expect("smoke preset is valid");
    let runner = FleetRunner::new(cfg).expect("config already validated");
    let serial = timed("smoke serial", out, || runner.run_serial());
    let parallel = timed("smoke parallel", out, || runner.run_parallel(threads));
    assert!(
        serial.report.bit_identical(&parallel.report),
        "parallel run diverged from serial"
    );
    let speedup = serial.secs / parallel.secs;
    let ncores = cores();
    out.note(format!(
        "speedup: {speedup:.2}x on {ncores} core(s), bit-identical: true"
    ));
    if ncores >= 2 {
        assert!(
            speedup >= 1.0,
            "parallel ({:.3}s) slower than serial ({:.3}s) on {ncores} cores",
            parallel.secs,
            serial.secs
        );
    } else {
        out.note("single-core host: speedup gate skipped (only bit-identity checked)");
    }
}

fn main() {
    let RunArgs { threads, smoke } = RunArgs::parse(8);

    let mut out = Report::new("fleet-runner throughput (serial vs parallel)", "");
    out.meta("threads", threads.to_string());
    out.meta("cores", cores().to_string());

    if smoke {
        out.meta("workload", "smoke");
        smoke_gate(threads, &mut out);
        out.print();
        return;
    }

    // Paper-scale: serial vs parallel, the bit-identity + speedup headline.
    let cfg = FleetConfigBuilder::paper_scale(SEED)
        .build()
        .expect("paper_scale preset is valid");
    let shards = cfg.shards;
    out.meta("workload", "paper_scale + mega_scale");
    let runner = FleetRunner::new(cfg).expect("config already validated");
    let serial = timed("paper_scale serial", &mut out, || runner.run_serial());
    let parallel = timed("paper_scale parallel", &mut out, || {
        runner.run_parallel(threads)
    });
    let identical = serial.report.bit_identical(&parallel.report);
    assert!(identical, "parallel run diverged from serial");
    let speedup = serial.secs / parallel.secs;
    out.note(format!(
        "paper_scale speedup: {speedup:.2}x on {} core(s), bit-identical: {identical}",
        cores()
    ));

    // Mega-scale: ≥1M sessions with a Double-12 surge, parallel only.
    let mega_cfg = FleetConfigBuilder::mega_scale(SEED)
        .build()
        .expect("mega_scale preset is valid");
    let mega_shards = mega_cfg.shards;
    let mega_runner = FleetRunner::new(mega_cfg).expect("config already validated");
    let mega = timed("mega_scale parallel", &mut out, || {
        mega_runner.run_parallel(threads)
    });
    assert!(
        mega.sessions >= 1_000_000,
        "mega_scale produced only {} sessions",
        mega.sessions
    );

    let rss_kb = peak_rss_kb().unwrap_or(0);
    out.note(format!("peak RSS: {rss_kb} kB"));

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fleet_sharded\",\n",
            "  \"seed\": {seed},\n",
            "  \"cores\": {cores},\n",
            "  \"threads\": {threads},\n",
            "  \"paper_scale\": {{\n",
            "    \"shards\": {shards},\n",
            "    \"sessions\": {sessions},\n",
            "    \"serial_secs\": {serial_secs:.4},\n",
            "    \"parallel_secs\": {parallel_secs:.4},\n",
            "    \"serial_sessions_per_sec\": {serial_rate:.1},\n",
            "    \"parallel_sessions_per_sec\": {parallel_rate:.1},\n",
            "    \"speedup\": {speedup:.3},\n",
            "    \"bit_identical\": {identical}\n",
            "  }},\n",
            "  \"mega_scale\": {{\n",
            "    \"shards\": {mega_shards},\n",
            "    \"sessions\": {mega_sessions},\n",
            "    \"secs\": {mega_secs:.4},\n",
            "    \"sessions_per_sec\": {mega_rate:.1}\n",
            "  }},\n",
            "  \"peak_rss_kb\": {rss_kb}\n",
            "}}\n",
        ),
        seed = SEED,
        cores = cores(),
        threads = threads,
        shards = shards,
        sessions = serial.sessions,
        serial_secs = serial.secs,
        parallel_secs = parallel.secs,
        serial_rate = serial.sessions as f64 / serial.secs,
        parallel_rate = parallel.sessions as f64 / parallel.secs,
        speedup = speedup,
        identical = identical,
        mega_shards = mega_shards,
        mega_sessions = mega.sessions,
        mega_secs = mega.secs,
        mega_rate = mega.sessions as f64 / mega.secs,
        rss_kb = rss_kb,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    out.note("wrote BENCH_fleet.json");
    out.print();
}
