//! §6.5 failure recovery — fast vs slow path, packet level and fleet level.
//!
//! Two experiments in one binary:
//!
//! 1. **Packet level**: the diamond-overlay crash scenario
//!    ([`livenet_sim::Scenario::relay_crash`]) run in both modes over several seeds —
//!    LiveNet's fast path (cached backup, ≈1 subscribe RTT after
//!    detection) against the slow path (full Brain round trip,
//!    multi-second), with frames lost per failover.
//! 2. **Fleet level**: the Double-12-style region outage injected into the
//!    sharded fleet simulation; emits the fast/slow recovery distributions
//!    for LiveNet and the Hier baseline.
//!
//! Writes `BENCH_recovery.json`. `--shards N` sets only the *worker
//! thread* count; the shard partition itself is fixed by the config, so
//! the JSON is bit-identical for `--shards 1` and `--shards 8` (asserted
//! here via [`FleetReport::bit_identical`]).
//!
//! ```sh
//! cargo run --release --bin exp_recovery [-- --shards 8]
//! ```
//!
//! [`FleetReport::bit_identical`]: livenet_sim::FleetReport::bit_identical

use livenet_bench::{Report, SEED};
use livenet_sim::{
    FleetConfigBuilder, FleetFault, FleetRunner, RecoveryMode, RecoveryRecord, Scenario,
};

fn percentile(sorted: &[f32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    f64::from(sorted[idx])
}

fn dist_json(recs: &[&RecoveryRecord]) -> String {
    let mut v: Vec<f32> = recs.iter().map(|r| r.recover_ms).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let frames: u64 = recs.iter().map(|r| u64::from(r.frames_lost)).sum();
    let p = |q: f64| {
        let x = percentile(&v, q);
        if x.is_nan() {
            "null".to_string()
        } else {
            format!("{x:.1}")
        }
    };
    format!(
        "{{\"n\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"frames_lost_total\": {}}}",
        v.len(),
        p(0.5),
        p(0.9),
        p(0.99),
        frames,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut threads = 8usize;
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--shards" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                threads = v;
                i += 1;
            }
        }
        i += 1;
    }

    let mut out = Report::new("failure recovery (§6.5)", "§6.5");

    // ---------- Packet level: diamond-overlay relay crash ----------
    out.heading("Packet level: diamond-overlay relay crash");
    let seeds = [SEED, SEED + 1, SEED + 2];
    let mut rows = Vec::new();
    let mut packet_json = Vec::new();
    for mode in [RecoveryMode::Fast, RecoveryMode::Slow] {
        for &seed in &seeds {
            let rec = Scenario::relay_crash(mode, seed).run().recovery();
            rows.push(vec![
                format!("{mode:?}"),
                format!("{seed}"),
                format!("{:.0} ms", rec.detect_ms),
                format!("{:.0} ms", rec.restore_ms),
                format!("{:.0} ms", rec.restore_ms - rec.detect_ms),
                format!("{}", rec.frames_lost),
            ]);
            packet_json.push(format!(
                "    {{\"mode\": \"{mode:?}\", \"seed\": {seed}, \"detect_ms\": {:.2}, \"restore_ms\": {:.2}, \"frames_lost\": {}}}",
                rec.detect_ms, rec.restore_ms, rec.frames_lost,
            ));
        }
    }
    out.table(
        &["mode", "seed", "detect", "restore", "post-detect gap", "frames lost"],
        &rows,
    );
    out.note("");
    out.note("Expected shape: Fast restores ~1 subscribe RTT after detection;");
    out.note("Slow waits out the Brain round trip (multi-second).");

    // ---------- Fleet level: region outage over the sharded fleet ----------
    out.heading("Fleet level: region outage over the sharded fleet");
    let cfg = FleetConfigBuilder::smoke(SEED)
        .fault(FleetFault::RegionOutage {
            at_secs: 20 * 3600, // diurnal peak — many sessions in flight
            down_for_secs: 1800,
            country: 0,
        })
        .random_faults(3.0, (300, 1200))
        .build()
        .expect("recovery preset is valid");
    let shards = cfg.shards;
    let runner = FleetRunner::new(cfg).expect("config already validated");
    let report = runner.run_parallel(threads);
    // The determinism contract this binary's JSON relies on.
    assert!(
        report.bit_identical(&runner.run_serial()),
        "parallel fleet run diverged from serial"
    );

    let ln_fast: Vec<&RecoveryRecord> =
        report.recoveries_livenet.iter().filter(|r| r.fast).collect();
    let ln_slow: Vec<&RecoveryRecord> =
        report.recoveries_livenet.iter().filter(|r| !r.fast).collect();
    let hier: Vec<&RecoveryRecord> = report.recoveries_hier.iter().collect();
    out.note(format!(
        "fleet: {} faults injected, {} producers rehomed",
        report.faults_injected, report.producers_rehomed
    ));
    out.note(format!(
        "LiveNet failovers: {} fast / {} slow; Hier failovers: {}",
        ln_fast.len(),
        ln_slow.len(),
        hier.len()
    ));
    out.note(format!("LiveNet fast: {}", dist_json(&ln_fast)));
    out.note(format!("LiveNet slow: {}", dist_json(&ln_slow)));
    out.note(format!("Hier:         {}", dist_json(&hier)));

    let json = format!(
        "{{\n  \"experiment\": \"recovery\",\n  \"seed\": {SEED},\n  \"shards\": {shards},\n  \"packet_level\": [\n{}\n  ],\n  \"fleet\": {{\n    \"faults_injected\": {},\n    \"producers_rehomed\": {},\n    \"livenet_fast\": {},\n    \"livenet_slow\": {},\n    \"hier\": {}\n  }}\n}}\n",
        packet_json.join(",\n"),
        report.faults_injected,
        report.producers_rehomed,
        dist_json(&ln_fast),
        dist_json(&ln_slow),
        dist_json(&hier),
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    out.note("wrote BENCH_recovery.json");
    out.print();
}
