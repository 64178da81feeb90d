//! The metric tables — names, units, directions, bounds — and how each
//! value is computed from the rounds of a run.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the suite
//! fails when the two disagree.

use crate::probes::Probed;
use crate::round::RoundOutcome;
use crate::stats::{fast_quarter_mean, iqr_share, median, quantile, ratio};
use crate::trace::Tracer;
use crate::workloads::{Workload, NET_HOSTS};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric.
pub struct EndToEnd {
    /// Name, the same on every workload.
    pub name: &'static str,
    /// Unit. `virt_ms` is simulated time, every other time is host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` declares a regression.
    pub bound: f64,
    /// Measured on the host clock (or host memory): has run-to-run spread.
    /// The others are counts and virtual times, exact per seed.
    pub wall: bool,
}

/// The eight end-to-end metrics.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "steps_per_s",
        unit: "steps/s",
        better: Better::Higher,
        bound: 0.25,
        wall: true,
    },
    EndToEnd {
        name: "settle_virt_ms_p50",
        unit: "virt_ms",
        better: Better::Lower,
        bound: 0.10,
        wall: false,
    },
    EndToEnd {
        name: "settle_virt_ms_p99",
        unit: "virt_ms",
        better: Better::Lower,
        bound: 0.10,
        wall: false,
    },
    EndToEnd {
        name: "wire_bytes_per_step",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
        wall: false,
    },
    EndToEnd {
        name: "stable_bytes_per_step",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
        wall: false,
    },
    EndToEnd {
        name: "agents_completed_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        wall: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        wall: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        wall: true,
    },
];

/// A per-layer metric: `<layer>.<name>`, layers are the crate names.
pub struct PerLayer {
    /// Name.
    pub name: &'static str,
    /// Unit. `count`, `bytes` and `ratio` are made of counters and sizes
    /// only and repeat exactly per seed; every other unit holds host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric. A run reports all of them; a metric whose layer
/// the workload bypasses reads 0.
pub const PER_LAYER: [PerLayer; 73] = [
    lower("wire.encode_ns_per_kib", "ns/KiB"),
    lower("wire.decode_ns_per_kib", "ns/KiB"),
    lower("wire.decode_encode_ratio", "x"),
    lower("wire.frame_write_ns", "ns"),
    lower("wire.frame_read_ns", "ns"),
    lower("wire.hash_ns_per_kib", "ns/KiB"),
    lower("core.record_bytes_p50", "bytes"),
    lower("core.log_bytes_share", "ratio"),
    lower("core.record_encode_ns", "ns"),
    lower("core.record_decode_ns", "ns"),
    lower("core.lazy_parse_ns", "ns"),
    lower("core.transfer_encode_ns", "ns"),
    lower("core.compact_ns", "ns"),
    lower("core.plan_ns_per_round", "ns"),
    lower("core.compactions_per_step", "count"),
    higher("core.compaction_saved_bytes_per_step", "bytes"),
    lower("core.batched_rounds_per_rollback", "count"),
    higher("core.rounds_saved_share", "ratio"),
    lower("itinerary.decode_ns", "ns"),
    higher("itinerary.cache_hit_share", "ratio"),
    higher("itinerary.ref_transfer_share", "ratio"),
    higher("itinerary.wire_bytes_saved_per_step", "bytes"),
    lower("txn.commits_per_step", "count"),
    lower("txn.abort_share", "ratio"),
    lower("txn.msgs_per_step", "count"),
    lower("txn.lock_ns", "ns"),
    lower("txn.store_snapshot_ns_per_kib", "ns/KiB"),
    lower("resources.snapshot_bytes_p50", "bytes"),
    lower("resources.snapshot_ns", "ns"),
    lower("resources.invoke_commit_ns", "ns"),
    lower("resources.comp_ops_per_rollback", "count"),
    lower("resources.comp_fail_share", "ratio"),
    lower("simnet.events_per_step", "count"),
    lower("simnet.timers_per_step", "count"),
    lower("simnet.stable_commits_per_step", "count"),
    higher("simnet.stable_writes_per_commit", "count"),
    lower("simnet.stable_put_ns_per_kib", "ns/KiB"),
    lower("simnet.stable_commit_ns", "ns"),
    lower("simnet.fsync_ns_p50", "ns"),
    lower("simnet.wal_bytes_per_step", "bytes"),
    lower("simnet.wal_checkpoints_per_round", "count"),
    lower("simnet.wal_checkpoint_bytes_per_step", "bytes"),
    lower("simnet.wal_replayed_bytes_per_round", "bytes"),
    lower("simnet.wal_reopen_ms_p50", "ms"),
    higher("simnet.shards2_critical_path_x", "x"),
    lower("platform.launch_ns_per_agent", "ns"),
    higher("platform.run_wall_share", "time_share"),
    lower("platform.report_ns_per_agent", "ns"),
    lower("platform.round_wall_ms_p50", "ms"),
    higher("platform.resident_hit_share", "ratio"),
    lower("platform.mbox_scans_per_agent", "count"),
    lower("platform.transfers_per_step", "count"),
    lower("platform.transfer_bytes_per_hop", "bytes"),
    lower("platform.rollback_transfers_per_rollback", "count"),
    lower("platform.rce_shipped_per_rollback", "count"),
    lower("platform.rce_bytes_per_rollback", "bytes"),
    lower("platform.report_retransmits", "count"),
    lower("net.round_wall_ms_p50", "ms"),
    lower("net.round_wall_ms_p95", "ms"),
    lower("net.start_ms_p50", "ms"),
    lower("net.shutdown_ms_p50", "ms"),
    lower("net.windows_per_step", "count"),
    lower("net.frames_per_window", "count"),
    lower("net.relay_bytes_per_step", "bytes"),
    lower("net.events_relayed_per_step", "count"),
    lower("net.window_wall_us", "us"),
    lower("net.uds_frame_rtt_us", "us"),
    lower("net.peer_send_recv_ns", "ns"),
    higher("net.lockstep_floor_share", "time_share"),
    lower("net.overhead_x", "x"),
    higher("bench.tracing_overhead_x", "x"),
    lower("bench.unattributed_share", "time_share"),
    lower("bench.agents_failed_share", "ratio"),
];

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn steps_per_s(r: &RoundOutcome) -> f64 {
    ratio(r.steps as f64, r.timed_ns as f64 / 1e9)
}

/// Committed steps per timed second on the undisturbed machine: the
/// fastest quarter of the rounds (see [`fast_quarter_mean`]).
fn undisturbed_steps_per_s(rounds: &[RoundOutcome]) -> f64 {
    let s_per_step: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.timed_ns as f64 / 1e9, r.steps as f64))
        .collect();
    ratio(1.0, fast_quarter_mean(&s_per_step))
}

fn sum(rounds: &[RoundOutcome], key: &str) -> f64 {
    rounds.iter().map(|r| r.counter(key)).sum::<u64>() as f64
}

/// Share of launched agents that failed, over every round run.
pub fn failed_share(rounds: &[&RoundOutcome]) -> f64 {
    let attempted: usize = rounds.iter().map(|r| r.agents).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    ratio(failed as f64, attempted as f64)
}

/// End-to-end values, in [`END_TO_END`] order, plus the round-to-round
/// spread of `steps_per_s` and `setup_s`.
///
/// Throughput and set-up time are taken over the fastest quarter of all
/// measured rounds; counts and virtual times are taken over the first
/// `cycle` rounds, so they do not depend on how many rounds fit into the
/// measuring time.
pub fn end_to_end(
    warmup: &RoundOutcome,
    rounds: &[RoundOutcome],
    cycle: usize,
) -> (Vec<f64>, Vec<(&'static str, f64)>) {
    let first = &rounds[..cycle.min(rounds.len())];
    let rates: Vec<f64> = rounds.iter().map(steps_per_s).collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let settle_ms: Vec<f64> = first
        .iter()
        .flat_map(|r| r.settle_us.iter().map(|us| *us as f64 / 1e3))
        .collect();
    let steps = sum(first, "steps.committed");
    let all: Vec<&RoundOutcome> = std::iter::once(warmup).chain(rounds).collect();
    let values = vec![
        undisturbed_steps_per_s(rounds),
        quantile(&settle_ms, 0.50),
        quantile(&settle_ms, 0.99),
        ratio(sum(first, "net.bytes_sent"), steps),
        ratio(sum(first, "stable.bytes_written"), steps),
        1.0 - failed_share(&all),
        fast_quarter_mean(&setups),
        peak_rss_mb(),
    ];
    let spread = vec![
        ("steps_per_s", iqr_share(&rates)),
        ("setup_s", iqr_share(&setups)),
    ];
    (values, spread)
}

/// What the traced pass hands to [`per_layer`].
pub struct Traced<'a> {
    /// Untraced rounds: counts (over the first seed cycle, as for the
    /// end-to-end metrics) and the untraced throughput (over all of them).
    pub untraced: &'a [RoundOutcome],
    /// Rounds in a seed cycle.
    pub cycle: usize,
    /// Traced rounds, starting at seed slot 0.
    pub traced: &'a [RoundOutcome],
    /// Probe results, one per traced round.
    pub probes: &'a [Probed],
    /// The spans.
    pub tracer: &'a Tracer,
    /// 1-shard / 2-shard critical path (`fwd_hop` only, else 0).
    pub shards2_x: f64,
    /// Failed share over every round of the run.
    pub failed_share: f64,
}

/// Per-layer values, in [`PER_LAYER`] order.
pub fn per_layer(workload: Workload, t: &Traced<'_>) -> Vec<f64> {
    let u = t.untraced;
    let first = &u[..t.cycle.min(u.len())];
    let c = |key: &str| sum(first, key);
    let steps = c("steps.committed");
    let rollbacks = c("rollback.completed");
    let rounds = first.len() as f64;
    let agents: f64 = first.iter().map(|r| r.agents as f64).sum();
    let transfers = c("agent.transfers.forward") + c("agent.transfers.rollback");
    let transfer_bytes = c("agent.transfer_bytes.forward") + c("agent.transfer_bytes.rollback");
    let probe = |name: &str| {
        let samples: Vec<f64> = t
            .probes
            .iter()
            .filter_map(|p| p.get(name).copied())
            .collect();
        median(&samples)
    };
    // Sizes of sampled artefacts: exact per seed, so taken from the first
    // traced round alone, whatever number of traced rounds fitted.
    let first_probe = |name: &str| {
        t.probes
            .first()
            .and_then(|p| p.get(name).copied())
            .unwrap_or(0.0)
    };
    let stable = |f: fn(&RoundOutcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let is_net = workload == Workload::NetTravel;
    let span_ns =
        |inproc: &str, net: &str| t.tracer.total_ns(if is_net { net } else { inproc }) as f64;
    let traced_agents: f64 = t.traced.iter().map(|r| r.agents as f64).sum();
    let traced_wall: f64 = t.traced.iter().map(|r| r.timed_ns as f64).sum();
    let wall_ms: Vec<f64> = u.iter().map(|r| r.timed_ns as f64 / 1e6).collect();
    let net_only = |v: f64| if is_net { v } else { 0.0 };
    let windows = c("net.windows");
    let frames = c("net.frames_sent") + c("net.frames_received");
    let rtt_us = probe("net.uds_frame_rtt_us");
    let twin_ms: Vec<f64> = t
        .traced
        .iter()
        .map(|r| r.artefacts.twin_ns as f64 / 1e6)
        .filter(|ms| *ms > 0.0)
        .collect();
    let ms_p50 = |f: fn(&RoundOutcome) -> u64| {
        let v: Vec<f64> = u
            .iter()
            .chain(t.traced)
            .map(|r| f(r) as f64 / 1e6)
            .collect();
        median(&v)
    };
    let untraced_rate = undisturbed_steps_per_s(u);
    let traced_rate = undisturbed_steps_per_s(t.traced);

    let by_name = |name: &str| -> f64 {
        match name {
            "core.compactions_per_step" => ratio(c("log.compactions"), steps),
            "core.compaction_saved_bytes_per_step" => ratio(c("log.compaction_saved_bytes"), steps),
            "core.batched_rounds_per_rollback" => ratio(c("rollback.batched_rounds"), rollbacks),
            "core.rounds_saved_share" => ratio(c("rollback.rounds_saved"), c("rollback.rounds")),
            "itinerary.cache_hit_share" => ratio(
                c("itinerary.cache_hits"),
                c("itinerary.cache_hits") + c("itinerary.cache_misses"),
            ),
            "itinerary.ref_transfer_share" => ratio(c("itinerary.ref_transfers"), transfers),
            "itinerary.wire_bytes_saved_per_step" => ratio(c("itinerary.wire_bytes_saved"), steps),
            "txn.commits_per_step" => ratio(c("txn.committed"), steps),
            "txn.abort_share" => ratio(
                c("steps.aborted_transient"),
                steps + c("steps.aborted_transient"),
            ),
            "txn.msgs_per_step" => ratio(c("net.msgs_delivered"), steps),
            "resources.comp_ops_per_rollback" => ratio(c("comp.ops"), rollbacks),
            "resources.comp_fail_share" => {
                let failures = c("comp.failures_transient") + c("comp.failures_permanent");
                ratio(failures, c("comp.ops") + failures)
            }
            "simnet.events_per_step" => ratio(c("kernel.events"), steps),
            "simnet.timers_per_step" => ratio(c("kernel.timers_fired"), steps),
            "simnet.stable_commits_per_step" => ratio(c("stable.commits"), steps),
            "simnet.stable_writes_per_commit" => ratio(c("stable.writes"), c("stable.commits")),
            "simnet.wal_bytes_per_step" => ratio(stable(|r| r.stable.wal_bytes), steps),
            "simnet.wal_checkpoints_per_round" => ratio(stable(|r| r.stable.checkpoints), rounds),
            "simnet.wal_checkpoint_bytes_per_step" => {
                ratio(stable(|r| r.stable.checkpoint_bytes), steps)
            }
            "simnet.wal_replayed_bytes_per_round" => {
                ratio(stable(|r| r.stable.replayed_bytes), rounds)
            }
            "simnet.shards2_critical_path_x" => t.shards2_x,
            "platform.launch_ns_per_agent" => ratio(
                span_ns("platform.launch_fleet", "net.launch_fleet"),
                traced_agents,
            ),
            "platform.run_wall_share" => ratio(
                span_ns("platform.run_for", "net.run_until_settled"),
                traced_wall,
            ),
            "platform.report_ns_per_agent" => {
                ratio(span_ns("platform.report", "net.report"), traced_agents)
            }
            "platform.round_wall_ms_p50" => median(&wall_ms),
            "platform.resident_hit_share" => ratio(
                c("resident.hits"),
                c("resident.hits") + c("resident.misses"),
            ),
            "platform.mbox_scans_per_agent" => ratio(c("driver.mbox_scans"), agents),
            "platform.transfers_per_step" => ratio(transfers, steps),
            "platform.transfer_bytes_per_hop" => ratio(transfer_bytes, transfers),
            "platform.rollback_transfers_per_rollback" => {
                ratio(c("agent.transfers.rollback"), rollbacks)
            }
            "platform.rce_shipped_per_rollback" => ratio(c("rollback.rce_shipped"), rollbacks),
            "platform.rce_bytes_per_rollback" => ratio(c("rollback.rce_bytes"), rollbacks),
            "platform.report_retransmits" => ratio(c("report.retransmits"), rounds),
            "net.round_wall_ms_p50" => net_only(median(&wall_ms)),
            "net.round_wall_ms_p95" => net_only(quantile(&wall_ms, 0.95)),
            "net.start_ms_p50" => ms_p50(|r| r.artefacts.net_start_ns),
            "net.shutdown_ms_p50" => ms_p50(|r| r.artefacts.net_shutdown_ns),
            "net.windows_per_step" => ratio(windows, steps),
            "net.frames_per_window" => ratio(frames, windows),
            "net.relay_bytes_per_step" => ratio(c("net.billed_bytes"), steps),
            "net.events_relayed_per_step" => ratio(c("net.events_relayed"), steps),
            "net.window_wall_us" => net_only(ratio(
                u.iter().map(|r| r.timed_ns as f64 / 1e3).sum(),
                sum(u, "net.windows"),
            )),
            "net.lockstep_floor_share" => ratio(
                ratio(windows, rounds) * f64::from(NET_HOSTS) * rtt_us,
                median(&wall_ms) * 1e3,
            ),
            "net.overhead_x" => net_only(ratio(median(&wall_ms), median(&twin_ms))),
            "bench.tracing_overhead_x" => ratio(traced_rate, untraced_rate),
            "bench.unattributed_share" => {
                1.0 - ratio(attributed_ns(workload, t, &probe), traced_wall)
            }
            "bench.agents_failed_share" => t.failed_share,
            "core.record_bytes_p50" | "core.log_bytes_share" | "resources.snapshot_bytes_p50" => {
                first_probe(name)
            }
            timed => probe(timed),
        }
    };
    PER_LAYER.iter().map(|m| by_name(m.name)).collect()
}

/// The cost model: each layer's estimated busy time over the traced rounds
/// is its probe's ns per operation times the operation count the rounds'
/// own counters report. What the sum leaves of the traced wall time is the
/// share outside-in timing cannot reach.
///
/// - wire: every billed message byte that is not an agent record is
///   encoded once and decoded once; on sockets, every frame is written and
///   read once.
/// - core: a lazy parse per resident-cache miss, a record encode per
///   committed step, a transfer encode per agent transfer, a compaction
///   per compaction pass, a plan per compensation round.
/// - itinerary: a tree decode per intern-table miss.
/// - txn: a lock pair per committed step.
/// - resources: an invoke + commit per step, a snapshot per committed
///   transaction (`persist_rms` runs at every local commit).
/// - simnet: every stable byte through `put`, every commit barrier (the
///   file-backed barrier on `wal_crash`).
/// - platform: the launch, drain and report spans themselves.
/// - net: one socket round trip per window per host.
fn attributed_ns(workload: Workload, t: &Traced<'_>, probe: &dyn Fn(&str) -> f64) -> f64 {
    let c = |key: &str| sum(t.traced, key);
    let steps = c("steps.committed");
    let kib = |bytes: f64| bytes / 1024.0;
    let record_bytes = c("agent.transfer_bytes.forward") + c("agent.transfer_bytes.rollback");
    let message_kib = kib((c("net.bytes_sent") - record_bytes).max(0.0));
    let frames = c("net.frames_sent") + c("net.frames_received");
    let wire = message_kib * (probe("wire.encode_ns_per_kib") + probe("wire.decode_ns_per_kib"))
        + frames * (probe("wire.frame_write_ns") + probe("wire.frame_read_ns"));
    let core = c("resident.misses") * probe("core.lazy_parse_ns")
        + steps * probe("core.record_encode_ns")
        + (c("agent.transfers.forward") + c("agent.transfers.rollback"))
            * probe("core.transfer_encode_ns")
        + c("log.compactions") * probe("core.compact_ns")
        + c("rollback.rounds") * probe("core.plan_ns_per_round");
    let itinerary = c("itinerary.cache_misses") * probe("itinerary.decode_ns");
    let txn = steps * probe("txn.lock_ns");
    let resources = steps * probe("resources.invoke_commit_ns")
        + c("txn.committed") * probe("resources.snapshot_ns");
    let barrier = if workload == Workload::WalCrash {
        probe("simnet.fsync_ns_p50")
    } else {
        probe("simnet.stable_commit_ns")
    };
    let simnet = kib(c("stable.bytes_written")) * probe("simnet.stable_put_ns_per_kib")
        + c("stable.commits") * barrier;
    let platform: u64 = [
        "platform.launch_fleet",
        "platform.drain_reports",
        "platform.report",
        "net.launch_fleet",
        "net.report",
    ]
    .iter()
    .map(|name| t.tracer.self_ns(name))
    .sum();
    let net = c("net.windows") * f64::from(NET_HOSTS) * probe("net.uds_frame_rtt_us") * 1e3;
    wire + core + itinerary + txn + resources + simnet + platform as f64 + net
}
