//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! homa-perfbench --workload <w4_160h|w1_160h|fig12_13_sweep> --seed N
//!                --seconds S --trace <0|1>
//! ```
//!
//! It repeats the workload through the program's public entry points for
//! at least `S` seconds and reports medians. `--trace 0` prints the
//! end-to-end metrics. `--trace 1` spends half of `S` on untraced repeats
//! and half on a traced pass that splits wall time by layer, and prints
//! the per-layer metrics instead. Every
//! run checks the simulator's outputs; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `README.md` beside this package maps layers to metrics and workloads.

mod oneway;
mod report;
mod sweep;
mod traced;

use homa::HomaConfig;
use homa_baselines::homa_sim::static_map_for_workload;
use homa_baselines::{HomaMeta, HomaSimTransport};
use homa_sim::{Network, NetworkConfig, Topology};
use homa_workloads::{MessageSizeDist, Workload};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// W4 (Hadoop) messages in `w4_160h`: perf-smoke's `w4_80_160h` shape.
const W4_MESSAGES: u64 = 4_800;
/// W1 (memcached) messages in `w1_160h`. The per-message transport cost
/// grows with the message count, so this stays fixed; it is large enough
/// for the one-way linger state to build up (see README.md).
const W1_MESSAGES: u64 = 100_000;
/// Repeats of the timed set-up; its median is `setup_s`.
const SETUP_REPEATS: usize = 101;

/// Time `static_map_for_workload` + `Network::new` for Homa on `topo`:
/// the median of [`SETUP_REPEATS`] repeats, in seconds.
fn time_setup(topo: &Topology, netcfg: &NetworkConfig, dist: &MessageSizeDist) -> f64 {
    let cfg = HomaConfig::default();
    let samples: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let (topo, netcfg) = (topo.clone(), netcfg.clone());
            let t0 = Instant::now();
            let map = static_map_for_workload(dist, &cfg);
            let net: Network<HomaMeta, HomaSimTransport> = Network::new(topo, netcfg, |h| {
                HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone())
            });
            let secs = t0.elapsed().as_secs_f64();
            black_box(&net);
            secs
        })
        .collect();
    report::median(&samples)
}

/// Call `body(repeat)` until `seconds` have passed (at least once) and
/// collect what it returns.
fn repeat_for<T>(seconds: Duration, mut body: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < seconds {
        let t0 = Instant::now();
        out.push(body(out.len()));
        eprintln!("repeat {}: {:.3} s", out.len() - 1, t0.elapsed().as_secs_f64());
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("homa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A traced run makes an untraced and a traced pass in the same time.
    let seconds = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    let mut report = match args.workload.as_str() {
        "w4_160h" => oneway::run(
            &oneway::spec("w4_160h", Workload::W4, W4_MESSAGES, args.seed),
            seconds,
            args.trace,
        ),
        "w1_160h" => oneway::run(
            &oneway::spec("w1_160h", Workload::W1, W1_MESSAGES, args.seed),
            seconds,
            args.trace,
        ),
        "fig12_13_sweep" => sweep::run(args.seed, seconds, args.trace),
        other => {
            eprintln!("homa-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let title = format!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced: per-layer split" } else { "end to end" }
    );
    print!("{}", report.table(&title, args.trace));
    println!("{}", report.json_line(args.trace));
    ExitCode::SUCCESS
}
