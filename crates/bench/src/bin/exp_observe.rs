//! Telemetry demonstration — per-stage latency attribution on the
//! Double-12 surge, with the determinism contract checked end to end.
//!
//! Runs a Double-12-style scenario (festival surge + region outage at the
//! surge peak) through [`FleetRunner`] at several shard widths. At each
//! width the merged per-shard [`livenet_telemetry::Snapshot`] from
//! `run_serial` is asserted **bit-identical** to `run_parallel` — the
//! unified metric hub obeys the same determinism contract as the session
//! records (DESIGN.md §9). The widest run's snapshot is rendered as the
//! per-stage latency attribution table (brain lookup → first packet →
//! startup → streaming → recovery) and written to `BENCH_observe.json`.
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin exp_observe [-- --threads 8]
//! ```

use livenet_bench::{render, Report, RunArgs, SEED};
use livenet_sim::{FleetConfigBuilder, FleetFault, FleetReport, FleetRunner};

/// Shard widths the determinism self-check runs at.
const WIDTHS: [usize; 2] = [2, 4];

fn double12_config(shards: usize) -> livenet_sim::FleetConfig {
    FleetConfigBuilder::smoke(SEED)
        .shards(shards)
        .tweak(|c| {
            // Two days with the Double-12 surge on day 1 (2× demand), plus
            // a region outage at the surge peak — the §6.5 stress shape.
            c.workload.days = 2;
            c.workload.festival_days = vec![1];
            c.workload.festival_factor = 2.0;
        })
        .fault(FleetFault::RegionOutage {
            at_secs: 44 * 3600, // hour 20 of the festival day
            down_for_secs: 1800,
            country: 0,
        })
        .build()
        .expect("observe preset is valid")
}

fn main() {
    let threads = RunArgs::parse(8).threads;

    let mut out = Report::new(
        "per-stage latency attribution (Double-12 surge, §6.1 telemetry)",
        "§6.1, §6.5; DESIGN.md §9",
    );
    out.meta("threads", threads.to_string());

    let mut last: Option<FleetReport> = None;
    for width in WIDTHS {
        let runner = FleetRunner::new(double12_config(width)).expect("config validated");
        let serial = runner.run_serial();
        let parallel = runner.run_parallel(threads);
        // The contract exp_observe exists to demonstrate: the merged
        // per-shard telemetry snapshot is bit-identical however the
        // shards are scheduled.
        assert!(
            serial.telemetry.bit_identical(&parallel.telemetry),
            "telemetry snapshot diverged between serial and parallel at {width} shards"
        );
        assert!(
            serial.bit_identical(&parallel),
            "fleet report diverged between serial and parallel at {width} shards"
        );
        out.note(format!(
            "shards={width}: serial ≡ parallel (telemetry bit-identical; \
             {} sessions, {} counters, {} histograms)",
            parallel.livenet.len(),
            parallel.telemetry.counters.len(),
            parallel.telemetry.hists.len(),
        ));
        last = Some(parallel);
    }
    let report = last.expect("at least one width ran");

    out.heading("Per-stage latency attribution (widest run)");
    render::telemetry(&report, &mut out);

    // Persist the snapshot next to the other BENCH_*.json artifacts.
    let snap_json = report.telemetry.to_json();
    let json = format!(
        "{{\n  \"experiment\": \"observe\",\n  \"seed\": {SEED},\n  \"widths\": [{}],\n  \"serial_parallel_bit_identical\": true,\n  \"sessions\": {},\n  \"telemetry\": {}}}\n",
        WIDTHS.map(|w| w.to_string()).join(", "),
        report.livenet.len(),
        snap_json.trim_end(),
    );
    std::fs::write("BENCH_observe.json", &json).expect("write BENCH_observe.json");
    out.note("wrote BENCH_observe.json");
    out.print();
}
