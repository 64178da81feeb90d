//! One benchmark run: one workload, one seed, one pass (untraced or
//! traced), in this process.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, Traced, END_TO_END, PER_LAYER};
use crate::probes::{self, Probed};
use crate::round::{run_round, RoundCfg, RoundOutcome};
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// What to run.
pub struct RunCfg {
    /// The workload.
    pub workload: Workload,
    /// Base seed; round `r` runs on `seed + r % cycle`.
    pub seed: u64,
    /// Measuring time. A run measures whole rounds, at least one seed
    /// cycle, until this much host time has passed.
    pub seconds: f64,
    /// Traced pass: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// 1/20-size fleets and a fixed, small round count.
    pub smoke: bool,
    /// Scratch directory (WAL files, sockets, trace files).
    pub out_dir: PathBuf,
}

/// A run's result: the line the driver reads.
pub struct RunResult {
    /// Every output check of every round passed.
    pub correct: bool,
    /// Agents launched, warm-up included.
    pub attempted: usize,
    /// Agents that did not complete, or belonged to a round whose output
    /// check failed.
    pub failed: usize,
    /// `(name, value, unit)` of every metric of this pass.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Round-to-round spread (IQR / median) of the wall-clock metrics.
    pub spread: Vec<(&'static str, f64)>,
    /// Measured rounds.
    pub rounds: usize,
    /// Failed checks.
    pub errors: Vec<String>,
}

impl RunResult {
    /// The result as the JSON object printed on the last line of stdout.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str((*unit).to_owned())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

struct Rounds<'a> {
    cfg: &'a RunCfg,
    cycle: usize,
    tracer: Tracer,
    /// Fingerprints of the first cycle: a later round on the same seed must
    /// reproduce its counts and virtual times exactly.
    prints: Vec<u64>,
    next: usize,
    errors: Vec<String>,
}

impl Rounds<'_> {
    fn round(&mut self, index: usize, twin: bool, traced: bool) -> RoundOutcome {
        let slot = index % self.cycle;
        self.tracer.set_enabled(traced);
        self.tracer.set_round(index as u32);
        let mut outcome = run_round(
            &RoundCfg {
                workload: self.cfg.workload,
                smoke: self.cfg.smoke,
                round_seed: self.cfg.seed.wrapping_add(slot as u64),
                shards: 1,
                profile: false,
                twin,
                out_dir: &self.cfg.out_dir,
            },
            &mut self.tracer,
        );
        self.tracer.set_enabled(false);
        // The traced pass drains mailboxes on a finer tick, which changes
        // driver poll counts but nothing an agent can observe.
        if !traced {
            let print = outcome.fingerprint();
            match self.prints.get(slot) {
                None => self.prints.push(print),
                Some(first) if *first != print => {
                    outcome.failed = outcome.agents;
                    outcome.errors.push(format!(
                        "counts or virtual times differ from the first round on seed slot {slot}"
                    ));
                }
                Some(_) => {}
            }
        }
        for e in &outcome.errors {
            self.errors
                .push(format!("{} round {index}: {e}", self.cfg.workload.name()));
        }
        outcome
    }

    /// The next measured round.
    fn next(&mut self, twin: bool, traced: bool) -> RoundOutcome {
        let index = self.next;
        self.next += 1;
        self.round(index, twin, traced)
    }
}

/// What a pass measured: its metric values, the round-to-round spread of
/// the wall-clock ones, and every measured round.
type Pass = (Vec<f64>, Vec<(&'static str, f64)>, Vec<RoundOutcome>);

/// Runs `cfg`.
pub fn run(cfg: &RunCfg) -> RunResult {
    std::fs::create_dir_all(&cfg.out_dir).expect("create benchmark/out");
    let is_net = cfg.workload == Workload::NetTravel;
    let mut rounds = Rounds {
        cfg,
        cycle: cfg.workload.cycle(cfg.smoke),
        tracer: Tracer::new(false),
        prints: Vec::new(),
        next: 0,
        errors: Vec::new(),
    };
    // One untimed warm-up round: allocator, page cache, lazy statics. On
    // `net_travel` it is also the round checked against its in-process twin.
    let warmup = rounds.round(0, is_net, false);
    rounds.prints.clear();

    let (values, spread, measured) = if cfg.trace {
        traced_pass(&mut rounds, &warmup)
    } else {
        untraced_pass(&mut rounds, &warmup)
    };
    let names: Vec<(&'static str, &'static str)> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let all = || std::iter::once(&warmup).chain(&measured);
    let failed: usize = all().map(|r| r.failed).sum();
    RunResult {
        correct: rounds.errors.is_empty() && failed == 0,
        attempted: all().map(|r| r.agents).sum(),
        failed,
        metrics: names
            .into_iter()
            .zip(values)
            .map(|((name, unit), v)| (name, v, unit))
            .collect(),
        spread,
        rounds: measured.len(),
        errors: rounds.errors,
    }
}

/// Whole rounds, at least one seed cycle, until `--seconds` have passed
/// (smoke: exactly one cycle).
fn untraced_pass(rounds: &mut Rounds<'_>, warmup: &RoundOutcome) -> Pass {
    let (cfg, cycle) = (rounds.cfg, rounds.cycle);
    let start = Instant::now();
    let mut measured = Vec::new();
    while measured.len() < cycle || (!cfg.smoke && start.elapsed().as_secs_f64() < cfg.seconds) {
        measured.push(rounds.next(false, false));
    }
    let (values, spread) = metrics::end_to_end(warmup, &measured, cycle);
    (values, spread, measured)
}

/// First half of the time: untraced rounds, for the counts and the
/// untraced throughput the tracing overhead is taken against. Second half:
/// traced rounds, each followed by its probes. Smoke runs one cycle
/// untraced and a quarter of one traced.
fn traced_pass(rounds: &mut Rounds<'_>, warmup: &RoundOutcome) -> Pass {
    let (cfg, cycle) = (rounds.cfg, rounds.cycle);
    let workload = cfg.workload;
    let start = Instant::now();
    let spent = || start.elapsed().as_secs_f64();
    let mut untraced = Vec::new();
    while untraced.len() < cycle || (!cfg.smoke && spent() < cfg.seconds / 2.0) {
        untraced.push(rounds.next(false, false));
    }
    // Traced rounds start again at seed slot 0, so what the first one
    // samples does not depend on how many untraced rounds fitted.
    rounds.next = 0;
    let mut traced = Vec::new();
    let mut probed: Vec<Probed> = Vec::new();
    while traced.is_empty()
        || if cfg.smoke {
            traced.len() < (cycle / 4).max(1)
        } else {
            spent() < cfg.seconds
        }
    {
        // On `net_travel` the twin supplies the in-flight record samples
        // and the in-process round time `net.overhead_x` is taken against.
        let outcome = rounds.next(workload == Workload::NetTravel, true);
        rounds.tracer.set_enabled(true);
        probed.push(probes::run(
            workload,
            &outcome,
            &cfg.out_dir,
            &mut rounds.tracer,
        ));
        rounds.tracer.set_enabled(false);
        traced.push(outcome);
    }
    let shards2_x = if workload == Workload::FwdHop {
        shards2_critical_path_x(cfg, rounds)
    } else {
        0.0
    };
    let all: Vec<&RoundOutcome> = std::iter::once(warmup)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let values = metrics::per_layer(
        workload,
        &Traced {
            untraced: &untraced,
            cycle,
            traced: &traced,
            probes: &probed,
            tracer: &rounds.tracer,
            shards2_x,
            failed_share: metrics::failed_share(&all),
        },
    );
    let trace_file = cfg.out_dir.join(format!("trace-{}.json", workload.name()));
    if let Err(e) = std::fs::write(&trace_file, rounds.tracer.to_json()) {
        rounds
            .errors
            .push(format!("cannot write {}: {e}", trace_file.display()));
    }
    untraced.append(&mut traced);
    (values, Vec::new(), untraced)
}

/// One extra `fwd_hop` round per shard count with shard profiling on: the
/// 1-shard critical path over the 2-shard one (base = 1 shard). Profiling
/// times shards one at a time, so the figure holds on any core count.
fn shards2_critical_path_x(cfg: &RunCfg, rounds: &mut Rounds<'_>) -> f64 {
    let mut critical = [0.0f64; 2];
    for (slot, shards) in [1usize, 2].into_iter().enumerate() {
        let outcome = run_round(
            &RoundCfg {
                workload: cfg.workload,
                smoke: cfg.smoke,
                round_seed: cfg.seed,
                shards,
                profile: true,
                twin: false,
                out_dir: &cfg.out_dir,
            },
            &mut rounds.tracer,
        );
        for e in &outcome.errors {
            rounds.errors.push(format!("fwd_hop shards({shards}): {e}"));
        }
        critical[slot] = outcome.critical_ns as f64;
    }
    ratio(critical[0], critical[1])
}
