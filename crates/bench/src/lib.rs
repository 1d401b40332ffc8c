//! Shared experiment plumbing: canonical configurations, the cached
//! 20-day fleet run, and table/figure formatting helpers.
//!
//! `exp_all` regenerates every table and figure of the paper from one
//! fleet run through [`render`]; the other `exp_*` binaries run the
//! packet-level, ablation, recovery and wire experiments (DESIGN.md §3
//! maps them). Bins parse either [`cli_config`]'s workload flags or
//! [`RunArgs`]' execution flags, never both, so each flag has one meaning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;
pub mod report;

pub use report::Report;

use livenet_sim::{FleetConfig, FleetConfigBuilder, FleetReport, FleetRunner, SessionRecord};
use livenet_types::Ecdf;

/// The canonical experiment seed.
pub const SEED: u64 = 20221122;

/// Build the canonical paper-scale fleet configuration.
///
/// 20 days, Double-12 festival on days 10–11, 60 nodes / 12 countries
/// (the paper's 600+ nodes / 70+ countries scaled ~10×; DESIGN.md §1),
/// one shard and therefore one Brain, like the paper's single global
/// control loop (§4).
pub fn paper_config(scale: f64) -> FleetConfig {
    FleetConfigBuilder::paper_scale(SEED)
        .shards(1)
        .tweak(|c| c.workload.peak_arrivals_per_sec *= scale)
        .build()
        .expect("paper-scale preset is valid")
}

/// Parse `--scale <f>`, `--days <n>`, `--seed <s>` and `--shards <n>`
/// from argv onto the one-shard paper-scale preset, validating the result.
/// Panics on any other argument.
pub fn cli_config() -> FleetConfig {
    let mut b = FleetConfigBuilder::paper_scale(SEED).shards(1);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        b = match flag.as_str() {
            "--scale" => {
                let scale: f64 = flag_value(&flag, value);
                b.tweak(|c| c.workload.peak_arrivals_per_sec *= scale)
            }
            "--days" => b.days(flag_value(&flag, value)),
            "--seed" => b.seed(flag_value(&flag, value)),
            "--shards" => b.shards(flag_value(&flag, value)),
            _ => panic!("unknown argument {flag:?} (accepted: --scale, --days, --seed, --shards)"),
        };
    }
    b.build().expect("invalid command-line configuration")
}

/// Run the fleet simulation for a config on every available core.
///
/// The result depends on `cfg.shards` but not on the core count — see
/// [`FleetRunner`].
pub fn run(cfg: FleetConfig) -> FleetReport {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    FleetRunner::new(cfg)
        .expect("invalid fleet configuration")
        .run_parallel(cores)
}

/// Flags of the bins that run a fixed workload: `--threads` never changes
/// a result, `--smoke` picks the reduced CI run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// `--threads <n>`: worker threads.
    pub threads: usize,
    /// `--smoke`: the reduced CI run.
    pub smoke: bool,
}

impl RunArgs {
    /// Parse `--threads <n>` and `--smoke` from argv. Panics on any other
    /// argument, so a workload flag such as `--shards` fails loudly
    /// instead of being ignored.
    pub fn parse(default_threads: usize) -> RunArgs {
        RunArgs::from_args(std::env::args().skip(1), default_threads)
    }

    fn from_args(args: impl IntoIterator<Item = String>, default_threads: usize) -> RunArgs {
        let mut out = RunArgs {
            threads: default_threads,
            smoke: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--threads" => out.threads = flag_value(&flag, args.next()),
                "--smoke" => out.smoke = true,
                _ => panic!("unknown argument {flag:?} (accepted: --threads <n>, --smoke)"),
            }
        }
        out
    }
}

fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a valid value"))
}

/// Median of a session metric.
pub fn median(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> f64) -> f64 {
    let mut e = Ecdf::new();
    for s in sessions {
        e.push(f(s));
    }
    e.median()
}

/// Ratio of sessions satisfying a predicate, in percent.
pub fn ratio_pct(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> bool) -> f64 {
    if sessions.is_empty() {
        return f64::NAN;
    }
    100.0 * sessions.iter().filter(|s| f(s)).count() as f64 / sessions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::SimTime;

    fn rec(cdn: f32, fast: bool) -> SessionRecord {
        SessionRecord {
            start: SimTime::ZERO,
            day: 0,
            hour: 0,
            path_len: 2,
            international: false,
            cdn_delay_ms: cdn,
            streaming_delay_ms: 900.0,
            first_packet_ms: 50.0,
            startup_ms: if fast { 500.0 } else { 1500.0 },
            stalls: 0,
            outcome: livenet_sim::DecisionOutcome::Prefetched,
        }
    }

    #[test]
    fn median_and_ratio_helpers() {
        let sessions = vec![rec(100.0, true), rec(200.0, true), rec(300.0, false)];
        assert_eq!(median(&sessions, |s| f64::from(s.cdn_delay_ms)), 200.0);
        let pct = ratio_pct(&sessions, |s| s.fast_startup());
        assert!((pct - 66.666).abs() < 0.01);
    }

    #[test]
    fn run_args_parse_threads_and_smoke() {
        let args = |v: &[&str]| RunArgs::from_args(v.iter().map(|s| s.to_string()), 8);
        let (plain, ci) = (args(&[]), args(&["--smoke", "--threads", "4"]));
        assert_eq!((plain.threads, plain.smoke), (8, false));
        assert_eq!((ci.threads, ci.smoke), (4, true));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn run_args_reject_shards() {
        RunArgs::from_args(["--shards".to_string(), "2".to_string()], 8);
    }

    #[test]
    fn paper_config_scales_arrivals() {
        let base = paper_config(1.0);
        let half = paper_config(0.5);
        assert_eq!(base.shards, 1);
        assert!(
            (half.workload.peak_arrivals_per_sec - base.workload.peak_arrivals_per_sec / 2.0)
                .abs()
                < 1e-12
        );
    }
}
