//! Minimal benchmarking harness for the `harness = false` bench targets.
//!
//! The offline build environment has no criterion, so the benches use this
//! deliberately small substitute: warmup, repeated timed samples, median
//! selection, and a hand-rolled JSON report (`BENCH_log.json`,
//! `BENCH_macro.json`). It reports one median and no spread: what decides a
//! performance change is the canonical benchmark under `benchmark/`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`group/name/param`).
    pub name: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per timed sample.
    pub ops_per_sample: u64,
    /// Number of samples taken.
    pub samples: u32,
}

/// Collects measurements and writes the report.
#[derive(Debug, Default)]
pub struct Bench {
    results: Vec<Measurement>,
    derived: Vec<(String, f64)>,
}

impl Bench {
    /// Creates an empty collector.
    pub fn new() -> Bench {
        Bench::default()
    }

    /// Median ns/op of a finished benchmark, by exact name.
    pub fn ns_per_op(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_op)
    }

    /// Records a derived quantity (e.g. a speedup ratio) for the report.
    pub fn derive(&mut self, name: impl Into<String>, value: f64) {
        self.derived.push((name.into(), value));
    }

    /// All derived quantities recorded so far.
    pub fn derived(&self) -> &[(String, f64)] {
        &self.derived
    }

    /// Times `op` (called in a loop) against fresh state from `setup` per
    /// sample. Reports the median over `samples` samples of `ops` calls.
    pub fn run_batched<S>(
        &mut self,
        name: impl Into<String>,
        samples: u32,
        ops: u64,
        mut setup: impl FnMut() -> S,
        mut op: impl FnMut(&mut S),
    ) {
        let name = name.into();
        // Warmup: one untimed sample.
        let mut state = setup();
        for _ in 0..ops.min(16) {
            op(&mut state);
        }
        let mut timings: Vec<f64> = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let mut state = setup();
            let start = Instant::now();
            for _ in 0..ops {
                op(&mut state);
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            black_box(&state);
            timings.push(elapsed / ops as f64);
        }
        timings.sort_by(f64::total_cmp);
        let median = timings[timings.len() / 2];
        eprintln!("{name:<48} {median:>14.1} ns/op   ({samples} samples x {ops} ops)");
        self.results.push(Measurement {
            name,
            ns_per_op: median,
            ops_per_sample: ops,
            samples,
        });
    }

    /// Times a self-contained operation (no per-sample state).
    pub fn run(&mut self, name: impl Into<String>, samples: u32, ops: u64, mut op: impl FnMut()) {
        self.run_batched(name, samples, ops, || (), |()| op());
    }

    /// Serializes the report as JSON (hand-rolled; no JSON crate offline).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"ns_per_op\": {:.2}, \"ops_per_sample\": {}, \"samples\": {}}}{}",
                esc(&m.name),
                m.ns_per_op,
                m.ops_per_sample,
                m.samples,
                if i + 1 == self.results.len() { "" } else { "," },
            );
        }
        out.push_str("  ],\n  \"derived\": {\n");
        for (i, (k, v)) in self.derived.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {:.3}{}",
                esc(k),
                v,
                if i + 1 == self.derived.len() { "" } else { "," },
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes the JSON report into the workspace root (cargo runs benches
    /// with the package directory as cwd) and prints where it went.
    pub fn write_report(&self, name: &str) {
        let path = match std::env::var("CARGO_MANIFEST_DIR") {
            // crates/bench/../.. = workspace root.
            Ok(dir) => format!("{dir}/../../{name}"),
            Err(_) => name.to_owned(),
        };
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("wrote {name} ({path})"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
