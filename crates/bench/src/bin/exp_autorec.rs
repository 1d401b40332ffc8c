//! §5.3 multi-supplier RTX recovery — alternate-supplier chase vs the
//! single-supplier park-and-wait baseline.
//!
//! Runs the AutoRec diamond ([`livenet_sim::Scenario::autorec`]) — a degraded
//! primary leg (long RTT + loss) with a warm backup relay — in both modes
//! over several seeds and emits the detection-to-recovery latency
//! distributions. The multi-supplier mode chases the backup relay the
//! moment the primary answers a NACK with an RTX-miss; the baseline parks
//! on the primary and waits out its fat recovery round trip.
//!
//! Writes `BENCH_autorec.json`. Every (mode, seed) cell is an independent
//! simulation, so the cell set is fanned across worker threads; the run
//! repeats at 1, 2, and `--shards N` workers and asserts the outcomes are
//! bit-identical ([`AutorecOutcome::bit_identical`]) — the same
//! determinism contract the fleet benches enforce.
//!
//! `--smoke` shrinks the broadcast for CI and still asserts the headline
//! result: alternate median strictly below the baseline median, zero
//! determinism divergence.
//!
//! ```sh
//! cargo run --release --bin exp_autorec [-- --shards 4] [-- --smoke]
//! ```
//!
//! [`AutorecOutcome::bit_identical`]: livenet_sim::AutorecOutcome::bit_identical

use livenet_bench::{Report, SEED};
use livenet_sim::{AutorecOutcome, Scenario};
use livenet_types::SimDuration;

fn percentile(sorted: &[f32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    f64::from(sorted[idx])
}

/// Latency distribution plus headline counters over a set of outcomes
/// (one mode, all seeds pooled).
struct ModeSummary {
    n: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    alternate_recovered: u64,
    alternate_requests: u64,
    alternate_exhausted: u64,
    primary_misses: u64,
    frames_rendered: u64,
}

impl ModeSummary {
    fn pool(outcomes: &[&AutorecOutcome]) -> Self {
        let mut v: Vec<f32> = outcomes
            .iter()
            .flat_map(|o| o.records.iter().map(|r| r.recover_ms))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ModeSummary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p90: percentile(&v, 0.9),
            p99: percentile(&v, 0.99),
            alternate_recovered: outcomes.iter().map(|o| o.alternate_recovered).sum(),
            alternate_requests: outcomes.iter().map(|o| o.alternate_requests).sum(),
            alternate_exhausted: outcomes.iter().map(|o| o.alternate_exhausted).sum(),
            primary_misses: outcomes.iter().map(|o| o.primary_misses).sum(),
            frames_rendered: outcomes.iter().map(|o| o.frames_rendered).sum(),
        }
    }

    fn json(&self) -> String {
        let p = |x: f64| {
            if x.is_nan() {
                "null".to_string()
            } else {
                format!("{x:.2}")
            }
        };
        format!(
            "{{\"n\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
             \"alternate_recovered\": {}, \"alternate_requests\": {}, \
             \"alternate_exhausted\": {}, \"primary_misses\": {}, \
             \"frames_rendered\": {}}}",
            self.n,
            p(self.p50),
            p(self.p90),
            p(self.p99),
            self.alternate_recovered,
            self.alternate_requests,
            self.alternate_exhausted,
            self.primary_misses,
            self.frames_rendered,
        )
    }
}

/// Run every cell at the given worker-thread count, preserving cell order.
fn run_cells(cells: &[Scenario], workers: usize) -> Vec<AutorecOutcome> {
    let workers = workers.max(1);
    let mut out: Vec<Option<AutorecOutcome>> = vec![None; cells.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..workers {
            let cells = &cells;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                let mut i = tid;
                while i < cells.len() {
                    mine.push((i, cells[i].run().autorec()));
                    i += workers;
                }
                mine
            }));
        }
        for h in handles {
            for (i, o) in h.join().expect("autorec worker panicked") {
                out[i] = Some(o);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every cell assigned to exactly one worker"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut threads = 4usize;
    let mut smoke = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    threads = v;
                    i += 1;
                }
            }
            "--smoke" => smoke = true,
            _ => {}
        }
        i += 1;
    }

    let seeds: &[u64] = if smoke {
        &[SEED]
    } else {
        &[SEED, SEED + 1, SEED + 2]
    };
    let modes = [1usize, 0];
    let mut cells = Vec::new();
    for &alts in &modes {
        for &seed in seeds {
            let mut sc = Scenario::autorec(alts, seed);
            if smoke {
                sc.duration = SimDuration::from_secs(6);
            }
            cells.push(sc);
        }
    }

    let mut out = Report::new("multi-supplier RTX recovery (§5.3)", "§5.3");
    out.heading("AutoRec diamond: degraded primary leg, warm backup relay");

    // The determinism contract this binary's JSON relies on: the cell
    // fan-out must not change a single bit of any outcome.
    let outcomes = run_cells(&cells, threads);
    for workers in [1usize, 2] {
        if workers == threads {
            continue;
        }
        let again = run_cells(&cells, workers);
        for (idx, (a, b)) in outcomes.iter().zip(&again).enumerate() {
            assert!(
                a.bit_identical(b),
                "cell {idx} diverged between {threads} and {workers} workers"
            );
        }
    }
    out.note(format!(
        "{} cells × worker widths {{1, 2, {threads}}}: bit-identical",
        cells.len()
    ));

    let mut rows = Vec::new();
    for (sc, o) in cells.iter().zip(&outcomes) {
        rows.push(vec![
            if sc.node.rtx_alt_suppliers > 0 {
                format!("alternate ({})", sc.node.rtx_alt_suppliers)
            } else {
                "baseline".to_string()
            },
            format!("{}", sc.seed),
            format!("{}", o.records.len()),
            format!("{:.2} ms", o.median_recover_ms()),
            format!("{}", o.alternate_recovered),
            format!("{}", o.primary_misses),
            format!("{}", o.frames_rendered),
        ]);
    }
    out.table(
        &[
            "mode",
            "seed",
            "holes",
            "median recover",
            "alt recovered",
            "B misses",
            "frames",
        ],
        &rows,
    );

    let per_mode: Vec<ModeSummary> = modes
        .iter()
        .map(|&alts| {
            let sel: Vec<&AutorecOutcome> = cells
                .iter()
                .zip(&outcomes)
                .filter(|(sc, _)| sc.node.rtx_alt_suppliers == alts)
                .map(|(_, o)| o)
                .collect();
            ModeSummary::pool(&sel)
        })
        .collect();
    let (alt_sum, base_sum) = (&per_mode[0], &per_mode[1]);
    out.note("");
    out.note(format!("alternate: {}", alt_sum.json()));
    out.note(format!("baseline:  {}", base_sum.json()));
    out.note("");
    out.note("Expected shape: the alternate chase closes holes over short");
    out.note("clean hops while the baseline waits out the degraded leg's");
    out.note("recovery round trip, so the alternate median sits far below.");

    // The headline acceptance gate, enforced in CI via --smoke.
    assert!(
        alt_sum.p50 < base_sum.p50,
        "alternate median {} !< baseline median {}",
        alt_sum.p50,
        base_sum.p50
    );

    let json = format!(
        "{{\n  \"experiment\": \"autorec\",\n  \"seed\": {SEED},\n  \"smoke\": {smoke},\n  \"seeds\": {},\n  \"workers\": {threads},\n  \"alternate\": {},\n  \"baseline\": {}\n}}\n",
        seeds.len(),
        alt_sum.json(),
        base_sum.json(),
    );
    std::fs::write("BENCH_autorec.json", &json).expect("write BENCH_autorec.json");
    out.note("wrote BENCH_autorec.json");
    out.print();
}
