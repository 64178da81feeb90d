//! The whole suite: every workload, untraced then traced, each pass in a
//! child process of its own, validated against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use crate::{Args, OUT_DIR};

const MANIFEST: &str = "BENCHMARK.json";

/// `BENCHMARK.json`, read from the repository root (the working directory).
pub fn manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))
}

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub fn run_seconds(manifest: &Json) -> Result<f64, String> {
    manifest
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{MANIFEST}: no run_seconds"))
}

/// Whether `name` is made of letters, digits, `_`, `.` and `-` only.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names_of(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{MANIFEST}: no {key} array"))?
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{MANIFEST}: a {key} entry has no name"))
        })
        .collect()
}

fn same_names(what: &str, manifest: &[String], table: &[&str]) -> Result<(), String> {
    for name in manifest {
        if !valid_name(name) {
            return Err(format!(
                "{what} name {name:?} has a character outside [A-Za-z0-9_.-]"
            ));
        }
        if !table.contains(&name.as_str()) {
            return Err(format!(
                "{MANIFEST} lists {what} {name:?}, the benchmark does not"
            ));
        }
    }
    for name in table {
        if !manifest.iter().any(|m| m == name) {
            return Err(format!(
                "the benchmark reports {what} {name:?}, {MANIFEST} does not list it"
            ));
        }
    }
    Ok(())
}

/// Checks that `BENCHMARK.json` and the tables compiled into this binary
/// name the same workloads and metrics, with the same units, directions
/// and bounds. A missing or extra name on either side fails.
pub fn validate_manifest(doc: &Json) -> Result<(), String> {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    same_names("workload", &names_of(doc, "workloads")?, &workloads)?;
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    same_names("end-to-end metric", &names_of(doc, "end_to_end")?, &e2e)?;
    let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    same_names("per-layer metric", &names_of(doc, "per_layer")?, &layer)?;

    let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_owned);
    let described = |key: &str, name: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .and_then(|a| {
                a.iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            })
            .cloned()
            .unwrap_or(Json::Null)
    };
    for m in &END_TO_END {
        let entry = described("end_to_end", m.name);
        let bound = entry.get("bound").and_then(Json::as_f64);
        if field(&entry, "unit").as_deref() != Some(m.unit)
            || field(&entry, "better").as_deref() != Some(m.better.as_str())
            || bound != Some(m.bound)
        {
            return Err(format!(
                "{MANIFEST}: {} must be unit {:?}, better {:?}, bound {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            ));
        }
    }
    for m in &PER_LAYER {
        let entry = described("per_layer", m.name);
        if field(&entry, "unit").as_deref() != Some(m.unit)
            || field(&entry, "better").as_deref() != Some(m.better.as_str())
        {
            return Err(format!(
                "{MANIFEST}: {} must be unit {:?}, better {:?}",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
    }
    Ok(())
}

/// One pass of one workload in a child process. Returns the run details
/// and the result object: the last two lines of the child's stdout.
fn child(
    args: &Args,
    workload: Workload,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let what = format!("{} --trace {}", workload.name(), u8::from(trace));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(details), true) = (lines.next(), lines.next(), output.status.success())
    else {
        return Err(format!(
            "{what} ended with {} and no result:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    };
    let result = Json::parse(result).map_err(|e| format!("{what}: result line: {e}"))?;
    let details = Json::parse(details).map_err(|e| format!("{what}: details line: {e}"))?;
    Ok((details, result))
}

/// Checks a child's result object: exactly the four keys, and exactly the
/// metrics of its pass, each name well-formed.
fn check_result(what: &str, result: &Json, expect: &[&str]) -> Result<(), String> {
    let keys: Vec<&str> = result
        .as_obj()
        .ok_or_else(|| format!("{what}: result is not an object"))?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{what}: result has keys {keys:?}"));
    }
    let reported: Vec<String> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{what}: metrics is not an object"))?
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    same_names(&format!("{what} metric"), &reported, expect)
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn row(name: &str, value: f64, unit: &str, better: Better, bound: Option<f64>) {
    let bound = bound.map_or("-".to_owned(), |b| format!("{:.1} %", b * 100.0));
    println!(
        "  {name:<42} {value:>16.4} {unit:<8} {:<7} {bound}",
        better.as_str()
    );
}

/// Runs the suite and writes its result file.
pub fn suite(args: &Args) -> Result<ExitCode, String> {
    let doc = manifest()?;
    validate_manifest(&doc)?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => run_seconds(&doc)?,
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "mar-benchmark: seed {} · {} · {nproc} cores · wall-clock numbers are this sandbox's; \
         fsync cost is its file system's, not a device's; virt_ms is simulated time",
        args.seed,
        if args.smoke {
            "smoke (1/20 size)".to_owned()
        } else {
            format!("{seconds} s per pass")
        }
    );
    let e2e_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let (details, e2e) = child(args, workload, seconds, false)?;
        check_result(name, &e2e, &e2e_names)?;
        let (traced_details, layers) = child(args, workload, seconds, true)?;
        check_result(name, &layers, &layer_names)?;
        let correct = [&e2e, &layers]
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        println!(
            "\n{name}: {} · {} rounds measured · {} agents launched · {} failed",
            if correct {
                "correct"
            } else {
                "OUTPUT CHECK FAILED"
            },
            details.get("rounds").and_then(Json::as_f64).unwrap_or(0.0),
            e2e.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
            e2e.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        );
        for d in [&details, &traced_details] {
            for e in d.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
                println!("  CHECK FAILED: {}", e.as_str().unwrap_or("?"));
            }
        }
        println!(
            "  {:<42} {:>16} {:<8} {:<7} bound",
            "metric", "value", "unit", "better"
        );
        for m in &END_TO_END {
            row(
                m.name,
                metric_value(&e2e, m.name),
                m.unit,
                m.better,
                Some(m.bound),
            );
        }
        for m in &PER_LAYER {
            row(
                m.name,
                metric_value(&layers, m.name),
                m.unit,
                m.better,
                None,
            );
        }
        let spread = |metric: &str| {
            details
                .get("spread")
                .and_then(|s| s.get(metric))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        workloads.push((
            name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                (
                    "rounds",
                    details.get("rounds").cloned().unwrap_or(Json::Null),
                ),
                (
                    "attempted",
                    e2e.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                ("failed", e2e.get("failed").cloned().unwrap_or(Json::Null)),
                (
                    "end_to_end",
                    Json::obj(END_TO_END.iter().map(|m| {
                        (
                            m.name,
                            Json::obj([
                                ("value", Json::Num(metric_value(&e2e, m.name))),
                                ("unit", Json::Str(m.unit.to_owned())),
                                ("spread", Json::Num(spread(m.name))),
                            ]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(PER_LAYER.iter().map(|m| {
                        (
                            m.name,
                            Json::obj([
                                ("value", Json::Num(metric_value(&layers, m.name))),
                                ("unit", Json::Str(m.unit.to_owned())),
                            ]),
                        )
                    })),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(seconds)),
        ("cores", Json::Num(nproc as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        let kind = if args.smoke { "smoke" } else { "suite" };
        PathBuf::from(OUT_DIR).join(format!("{kind}-seed{}.json", args.seed))
    });
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.encode() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresults written to {}", Path::new(&out).display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
