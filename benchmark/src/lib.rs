//! The repository's canonical benchmark: four fleet workloads, eight
//! end-to-end metrics, a per-layer cost table measured from outside. See
//! `benchmark/README.md`.
//!
//! ```text
//! mar-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! mar-benchmark [--smoke] [--seed <n>] [--seconds <s>] [--out <file>]
//! mar-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result object. The second runs the whole
//! suite, each workload and pass in a child process of its own. All forms
//! run from the repository root.

#![deny(unsafe_code)]

pub mod compare;
pub mod json;
pub mod metrics;
mod pin;
mod probes;
mod round;
pub mod run;
pub mod stats;
pub mod suite;
mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::RunCfg;
use workloads::Workload;

/// Scratch directory, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed command line of the run and suite forms.
pub struct Args {
    /// `--workload`: one pass of this workload instead of the suite.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`; `BENCHMARK.json`'s `run_seconds` when absent.
    pub seconds: Option<f64>,
    /// `--trace 1`.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `--out`: where the suite writes its result file.
    pub out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One run in this process. The human-readable table goes to stderr; stdout
/// carries a line of run details and, last, the result object.
fn single(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => suite::run_seconds(&suite::manifest()?)?,
    };
    if pin::pin_to_one_cpu().is_none() {
        eprintln!("mar-benchmark: could not pin to one CPU; wall-clock numbers will be noisier");
    }
    let result = run::run(&RunCfg {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: PathBuf::from(OUT_DIR),
    });
    for e in &result.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    eprintln!(
        "{name}: seed {} · {} measured rounds · {} agents launched · {} failed",
        args.seed, result.rounds, result.attempted, result.failed
    );
    for (metric, value, unit) in &result.metrics {
        eprintln!("  {metric:<42} {value:>16.4} {unit}");
    }
    let details = Json::obj([
        ("rounds", Json::Num(result.rounds as f64)),
        (
            "spread",
            Json::obj(result.spread.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "errors",
            Json::Arr(result.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("{}", details.encode());
    println!("{}", result.to_json().encode());
    Ok(ExitCode::SUCCESS)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !std::path::Path::new("benchmark").is_dir() {
        return Err("run from the repository root (no benchmark/ directory here)".to_owned());
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare <A.json> <B.json>".to_owned()),
        };
    }
    let parsed = parse_args(&args)?;
    match &parsed.workload {
        Some(name) => single(&parsed, name),
        None => suite::suite(&parsed),
    }
}

/// The command-line entry point.
pub fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
