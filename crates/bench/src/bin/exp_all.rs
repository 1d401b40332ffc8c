//! Run the canonical 20-day evaluation ONCE and print every table and
//! figure of the paper's §6 from it, plus the packet-level experiments
//! and the telemetry snapshot that backs them.
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin exp_all              # full
//! cargo run --release -p livenet-bench --bin exp_all -- --scale 0.5
//! ```

use livenet_bench::{cli_config, render, run, Report};
use livenet_sim::Scenario;

fn main() {
    let report = run(cli_config());
    let mut out = Report::fleet(
        "full evaluation (every table & figure from one 20-day run)",
        "§6",
        &report,
    );

    out.heading("Table 1 — overall performance (§6.2)");
    render::table1(&report, &mut out);
    out.heading("Figure 2 — CDN path delay per day, first week (§2.3)");
    render::fig02(&report, &mut out);
    out.heading("Figure 8(a) — streaming delay CDF (§6.3)");
    render::fig08a(&report, &mut out);
    out.heading("Figure 8(b) — stall distribution (§6.3)");
    render::fig08b(&report, &mut out);
    out.heading("Figure 8(c) — daily fast-startup ratio (§6.3)");
    render::fig08c(&report, &mut out);
    out.heading("Figure 9 — fast startup vs streaming delay (§6.3)");
    render::fig09(&report, &mut out);
    out.heading("Figure 10(a) — Brain response time (§6.4)");
    render::fig10a(&report, &mut out);
    out.heading("Figure 10(b) — local hit ratio (§6.4)");
    render::fig10b(&report, &mut out);
    out.heading("Figure 10(c) — first-packet delay (§6.4)");
    render::fig10c(&report, &mut out);
    out.heading("Table 2 — path-length distribution (§6.4)");
    render::table2(&report, &mut out);
    out.heading("Figure 11 — delay vs path length (§6.4)");
    render::fig11(&report, &mut out);
    out.heading("Figure 12 — intra vs inter-national delay (§6.4)");
    render::fig12(&report, &mut out);
    out.heading("Figure 13 — diurnal link loss (§6.4)");
    render::fig13(&report, &mut out);
    out.heading("Figure 14 — daily peak throughput (§6.5)");
    render::fig14(&report, &mut out);
    out.heading("Table 3 — Double-12 festival (§6.5)");
    render::table3(&report, &mut out);

    out.heading("§3/§5 — fast/slow-path recovery (packet level)");
    for loss_pct in [0.5, 2.0] {
        for recovery in [true, false] {
            let mut sc = Scenario::three_node_chain(loss_pct / 100.0, 42);
            if !recovery {
                sc.node.nack_retry_limit = 0;
            }
            let r = sc.run().report();
            let (_, qoe) = r.viewers[0];
            out.note(format!(
                "loss {loss_pct:.1}% {}: {} frames, {} stalls, {} RTX served",
                if recovery { "fast+slow" } else { "fast only" },
                qoe.frames_rendered,
                qoe.stalls,
                r.node_stats[0].rtx_served,
            ));
        }
    }

    out.heading("Telemetry — unified metric snapshot (§6.1 log pipelines)");
    render::telemetry(&report, &mut out);

    out.note("");
    out.note("Done. Packet-level ablations: exp_fastslow_recovery, exp_ablation_….");
    out.print();
}
