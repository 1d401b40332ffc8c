//! Figure/table regeneration harness, run by `cargo bench`.
//!
//! This "bench" (harness = false) regenerates a compact version of every
//! table and figure in the paper's evaluation at reduced scale, printing
//! measured-vs-paper values. The full-resolution output of every table and
//! figure comes from one `exp_all` run (see EXPERIMENTS.md):
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin exp_all
//! ```

use livenet_bench::{median, paper_config, ratio_pct, run};
use livenet_sim::{FleetReport, Scenario, SessionRecord};
use livenet_types::Ecdf;

fn check(label: &str, measured: f64, paper: f64, tolerance_pct: f64) {
    let err = 100.0 * (measured - paper).abs() / paper.abs().max(1e-9);
    let ok = if err <= tolerance_pct { "OK  " } else { "WARN" };
    println!("  [{ok}] {label:<48} measured {measured:>9.2}   paper {paper:>9.2}   ({err:.0}% off)");
}

fn dist(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> bool) -> [f64; 4] {
    let mut counts = [0u64; 4];
    let mut total = 0u64;
    for s in sessions.iter().filter(|s| f(s)) {
        counts[usize::from(s.path_len).min(3)] += 1;
        total += 1;
    }
    let mut pct = [0.0; 4];
    for (i, c) in counts.iter().enumerate() {
        pct[i] = 100.0 * *c as f64 / total.max(1) as f64;
    }
    pct
}

fn fleet_checks(report: &FleetReport) {
    let ln = &report.livenet;
    let h = &report.hier;

    println!("\nTable 1 (§6.2) — overall performance:");
    check("LiveNet median CDN delay (ms)", median(ln, |s| f64::from(s.cdn_delay_ms)), 188.0, 15.0);
    check("Hier median CDN delay (ms)", median(h, |s| f64::from(s.cdn_delay_ms)), 393.0, 15.0);
    check("LiveNet median path length", median(ln, |s| f64::from(s.path_len)), 2.0, 0.0);
    check("Hier median path length", median(h, |s| f64::from(s.path_len)), 4.0, 0.0);
    check("LiveNet median streaming delay (ms)", median(ln, |s| f64::from(s.streaming_delay_ms)), 948.0, 10.0);
    check("Hier median streaming delay (ms)", median(h, |s| f64::from(s.streaming_delay_ms)), 1151.0, 10.0);
    check("LiveNet 0-stall ratio (%)", ratio_pct(ln, |s| s.zero_stall()), 98.0, 2.0);
    check("Hier 0-stall ratio (%)", ratio_pct(h, |s| s.zero_stall()), 95.0, 3.0);
    check("LiveNet fast-startup ratio (%)", ratio_pct(ln, |s| s.fast_startup()), 95.0, 3.0);
    check("Hier fast-startup ratio (%)", ratio_pct(h, |s| s.fast_startup()), 92.0, 4.0);

    println!("\nFig. 8(a) (§6.3) — paired streaming-delay improvement:");
    let mut deltas = Ecdf::new();
    for (a, b) in ln.iter().zip(h.iter()) {
        deltas.push(f64::from(b.streaming_delay_ms - a.streaming_delay_ms));
    }
    check("views improved ≥200 ms (%)", 100.0 * (1.0 - deltas.cdf_at(200.0)), 60.0, 30.0);
    check("views improved ≥100 ms (%)", 100.0 * (1.0 - deltas.cdf_at(100.0)), 80.0, 20.0);

    println!("\nFig. 8(b) (§6.3) — stall distribution:");
    check("LiveNet views with ≥1 stall (%)", 100.0 - ratio_pct(ln, |s| s.zero_stall()), 2.0, 50.0);
    check("Hier views with ≥1 stall (%)", 100.0 - ratio_pct(h, |s| s.zero_stall()), 5.0, 40.0);

    println!("\nTable 2 (§6.4) — LiveNet path-length distribution (%):");
    let all = dist(ln, |_| true);
    check("len=0 share", all[0], 0.13, 400.0);
    check("len=1 share", all[1], 7.0, 60.0);
    check("len=2 share", all[2], 92.06, 10.0);
    check("len>=3 share", all[3], 0.81, 100.0);
    let inter = dist(ln, |s| s.international);
    check("inter-national len=2 share", inter[2], 73.83, 15.0);
    check("inter-national len>=3 share", inter[3], 26.16, 40.0);

    println!("\nFig. 11/12 (§6.4) — delay vs length and locality (medians, ms):");
    let med_len = |want: u8| {
        let subset: Vec<SessionRecord> =
            ln.iter().filter(|s| s.path_len == want).copied().collect();
        median(&subset, |s| f64::from(s.cdn_delay_ms))
    };
    check("LiveNet len=2 median", med_len(2), 190.0, 15.0);
    let intra: Vec<SessionRecord> = ln.iter().filter(|s| !s.international).copied().collect();
    let inter_s: Vec<SessionRecord> = ln.iter().filter(|s| s.international).copied().collect();
    check("LiveNet intra-national median", median(&intra, |s| f64::from(s.cdn_delay_ms)), 190.0, 15.0);
    check("LiveNet inter-national median", median(&inter_s, |s| f64::from(s.cdn_delay_ms)), 330.0, 25.0);

    println!("\nFig. 10 (§6.4) — control plane:");
    let mut resp = Ecdf::new();
    for s in ln.iter().filter_map(|s| s.outcome.response_ms()) {
        resp.push(f64::from(s));
    }
    check("Brain response median (ms)", resp.median(), 30.0, 60.0);
    check("local hit ratio (%)", ratio_pct(ln, |s| s.outcome.is_local_hit()), 55.0, 40.0);
    let mut fp = 0.0;
    for s in ln {
        fp += f64::from(s.first_packet_ms);
    }
    check("mean first-packet delay (ms)", fp / ln.len() as f64, 100.0, 50.0);

    println!("\nFig. 13 (§6.4) — link loss stays under the cap:");
    let max_loss = report
        .hourly_loss
        .iter()
        .filter(|l| !l.is_nan())
        .fold(0.0f64, |a, &b| a.max(b));
    check("peak hourly loss (%)", 100.0 * max_loss, 0.15, 30.0);
}

fn festival_checks(report: &FleetReport) {
    println!("\nFig. 14 + Table 3 (§6.5) — Double-12 festival:");
    let t = &report.daily_peak_throughput;
    if t.len() >= 13 {
        let festival = (t[10] + t[11]) / 2.0;
        let regular = t
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != 10 && *d != 11)
            .map(|(_, v)| v)
            .sum::<f64>()
            / (t.len() - 2) as f64;
        check("festival/regular peak throughput", festival / regular.max(1.0), 2.0, 25.0);
    }
    let fest: Vec<SessionRecord> = report
        .livenet
        .iter()
        .filter(|s| s.day == 10 || s.day == 11)
        .copied()
        .collect();
    check(
        "festival median CDN delay (ms)",
        median(&fest, |s| f64::from(s.cdn_delay_ms)),
        192.0,
        15.0,
    );
    check(
        "festival 0-stall ratio (%)",
        ratio_pct(&fest, |s| s.zero_stall()),
        97.0,
        3.0,
    );
    let u = &report.daily_unique_paths;
    if u.len() >= 13 {
        let festival = (u[10] + u[11]) as f64 / 2.0;
        let around = (u[9] + u[12]) as f64 / 2.0;
        check("festival unique-path growth (x)", festival / around.max(1.0), 1.2, 25.0);
    }
}

fn packet_level_checks() {
    println!("\n§3/§5 — fast/slow path recovery (packet level, A→B→C):");
    let with = Scenario::three_node_chain(0.02, 42).run().report();
    let mut without_sc = Scenario::three_node_chain(0.02, 42);
    without_sc.node.nack_retry_limit = 0;
    let without = without_sc.run().report();
    let full = with.viewers[0].1.frames_rendered as f64;
    let degraded = without.viewers[0].1.frames_rendered as f64;
    check("frames rendered with slow path", full, 150.0, 3.0);
    println!(
        "  [info] without slow path: {degraded:.0} frames, {} stalls (design ablation)",
        without.viewers[0].1.stalls
    );
    let mean_rec = with.recovery_latencies_ms.iter().sum::<f64>()
        / with.recovery_latencies_ms.len().max(1) as f64;
    check("mean recovery latency (ms) ≈ scan/2 + RTT", mean_rec, 65.0, 40.0);
}

fn main() {
    // `cargo bench` passes --bench; tolerate any args.
    println!("==================================================================");
    println!("LiveNet reproduction — evaluation shape checks (reduced scale)");
    println!("Full-resolution figures: cargo run --release -p livenet-bench --bin exp_*");
    println!("==================================================================");

    // Regular-week run (Figs 2, 8, 9, 10, 11, 12, 13; Tables 1, 2).
    let mut cfg = paper_config(0.6);
    cfg.workload.days = 7;
    cfg.workload.festival_days = vec![];
    let report = run(cfg);
    println!(
        "\nregular-week run: {} sessions over 7 days",
        report.livenet.len()
    );
    fleet_checks(&report);

    // Festival run (Fig 14, Table 3) — needs the 20-day window.
    let mut cfg = paper_config(0.4);
    cfg.workload.days = 14;
    let report = run(cfg);
    println!(
        "\nfestival run: {} sessions over 14 days (Double-12 on days 11-12)",
        report.livenet.len()
    );
    festival_checks(&report);

    packet_level_checks();
    println!("\nAll shape checks complete.");
}
