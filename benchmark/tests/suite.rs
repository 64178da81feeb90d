//! Drives the built `mar-benchmark` binary at smoke size, from the
//! repository root, the way `benchmark/run.sh` does.

use std::path::{Path, PathBuf};
use std::process::Command;

use mar_benchmark::json::Json;
use mar_benchmark::metrics::{END_TO_END, PER_LAYER};
use mar_benchmark::suite::validate_manifest;
use mar_benchmark::workloads::{generate, Workload};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mar-benchmark"));
    cmd.current_dir(repo_root());
    cmd
}

/// One smoke pass; returns the result object (the last stdout line).
fn smoke_pass(workload: &str, seed: u64, trace: bool) -> Json {
    let out = bench()
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .output()
        .expect("spawn mar-benchmark");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last stdout line is the result object")
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {metric}"))
}

fn assert_correct(workload: &str, result: &Json) {
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: an output check failed"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
}

#[test]
fn manifest_lists_exactly_the_benchmarks_names() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    validate_manifest(&Json::parse(&text).unwrap()).unwrap();
}

#[test]
fn generator_is_a_function_of_the_seed() {
    for workload in [Workload::FwdHop, Workload::RollbackMix, Workload::WalCrash] {
        let specs = |seed| format!("{:?}", generate(workload, true, seed).specs);
        assert_eq!(specs(7), specs(7), "{}", workload.name());
        assert_ne!(specs(7), specs(8), "{}", workload.name());
    }
}

#[test]
fn same_seed_repeats_every_count_and_virtual_time() {
    for workload in Workload::ALL {
        let name = workload.name();
        let (a, b) = (smoke_pass(name, 7, false), smoke_pass(name, 7, false));
        assert_correct(name, &a);
        for m in END_TO_END.iter().filter(|m| !m.wall) {
            assert_eq!(value(&a, m.name), value(&b, m.name), "{name} {}", m.name);
        }
        let (a, b) = (smoke_pass(name, 7, true), smoke_pass(name, 7, true));
        assert_correct(name, &a);
        for m in &PER_LAYER {
            if matches!(m.unit, "count" | "bytes" | "ratio") {
                assert_eq!(value(&a, m.name), value(&b, m.name), "{name} {}", m.name);
            }
        }
    }
}

#[test]
fn another_seed_still_passes_every_output_check() {
    for workload in Workload::ALL {
        let name = workload.name();
        assert_correct(name, &smoke_pass(name, 7_919, false));
        assert_correct(name, &smoke_pass(name, 7_919, true));
    }
}

#[test]
fn compare_applies_bounds_and_directions() {
    let dir = repo_root().join("benchmark/out");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, steps_per_s: f64| {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("spread", Json::Num(0.01))]);
        let workloads = Workload::ALL.iter().map(|w| {
            let e2e = END_TO_END.iter().map(|m| {
                let v = if m.name == "steps_per_s" {
                    steps_per_s
                } else {
                    10.0
                };
                (m.name, metric(v))
            });
            let doc = Json::obj([
                ("correct", Json::Bool(true)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(Vec::<(&str, Json)>::new())),
            ]);
            (w.name(), doc)
        });
        let path = dir.join(format!("compare-test-{}-{name}.json", std::process::id()));
        std::fs::write(
            &path,
            Json::obj([("workloads", Json::obj(workloads))]).encode(),
        )
        .unwrap();
        path
    };
    let base = file("base", 1000.0);
    let slower = file("slower", 700.0);
    let run = |a: &Path, b: &Path| bench().arg("compare").args([a, b]).output().unwrap();
    assert!(run(&base, &base).status.success());
    let out = run(&base, &slower);
    assert!(!out.status.success(), "a 30 % throughput loss must fail");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));
    // The other way round it is an improvement, not a regression.
    assert!(run(&slower, &base).status.success());
    for p in [base, slower] {
        let _ = std::fs::remove_file(p);
    }
}
