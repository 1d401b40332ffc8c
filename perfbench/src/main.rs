//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_double12|fleet_brainha|packet_lossy|wire_geo> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, repeats its work for
//! about `--seconds` seconds, checks the outputs and prints, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that times calls into each crate from here and reports the
//! per-layer metrics. A failed output check prints `"correct": false` and
//! exits with code 1. See `perfbench/README.md` for the metric list and
//! what each per-layer metric is expected to move.

mod fleet;
mod out;
mod packet;
mod wire;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout when it is a git work tree (read from
/// `.git` directly, never by searching parent directories), plus a digest
/// of the program's sources, which identifies the code in a plain export
/// too.
fn code_identity() -> String {
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    let mut stack = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = out::Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!(
        "commit={commit} source_digest={:016x} ({} files under crates/)",
        h.finish(),
        files.len()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "host: nproc={nproc}; fleet workers={nproc}; wire executor=vendored tokio stub \
         (single-threaded, busy-polling); wire traffic=loopback 127.0.0.1 only, never a real link"
    );
    println!(
        "host probe: {:.1} ms for a fixed single-threaded job (compare across runs to tell \
         host drift from program change)",
        out::host_probe_ms()
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}; {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        code_identity()
    );
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fleet_double12", false) => fleet::run(args.seed, args.seconds, false, nproc),
        ("fleet_double12", true) => fleet::run_traced(args.seed, false, nproc),
        ("fleet_brainha", false) => fleet::run(args.seed, args.seconds, true, nproc),
        ("fleet_brainha", true) => fleet::run_traced(args.seed, true, nproc),
        ("packet_lossy", false) => packet::run(args.seed, args.seconds),
        ("packet_lossy", true) => packet::run_traced(args.seed, args.seconds),
        ("wire_geo", false) => wire::run(args.seed, args.seconds),
        ("wire_geo", true) => wire::run_traced(args.seed),
        (w, _) => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
