//! Backend equivalence at the trait boundary, on the full platform stack:
//! the WAL backend must be *observationally invisible* — random fleets with
//! rollbacks and crash schedules, run at 1, 2, and 4 shards, produce
//! byte-identical per-node stable dumps, agent reports, counters, and
//! traces whichever conformant backend sits behind [`mar_simnet::StableStore`].
//!
//! Counters are compared in full — including `stable.writes`,
//! `stable.bytes_written`, and the group-commit barrier count
//! `stable.commits` — so a backend that commits more or fewer batches than
//! the reference model fails loudly.
//!
//! A pinned fleet also runs on a *file-backed* WAL, whose barriers reach
//! the device only at the kernel's output-commit syncs: the run must still
//! be byte-identical, and each node's files must hold exactly what a
//! simulated crash keeps.
//!
//! The second half extends the PR 5 step-boundary crash sweep across the
//! trait boundary: at every step boundary the node holding the agent gets a
//! random torn-WAL suffix injected (a partially flushed record marked
//! durable) and is then crashed. Recovery must discard the torn tail, so
//! the run stays byte-identical to the reference-backend run with the
//! identical crash schedule.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::{
    build_platform, gen_agents, gen_crashes, launch_agents, schedule_crashes, stable_dump,
    step_name, strip_engine_counters, GenAgent, GenCrash, GenStep,
};
use mar_core::{LoggingMode, RollbackMode};
use mar_platform::{AgentHandle, AgentSpec, Platform, ReportOutcome};
use mar_simnet::stable::wal::encode_put_frame;
use mar_simnet::{NodeId, SimDuration, StableBackend, StableFactory, WalBackend, WalConfig};
use mar_wire::Value;

const NODES: u32 = 6;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Everything observable about a finished fleet run.
#[derive(Debug, PartialEq)]
struct FleetFingerprint {
    reports: Vec<(String, u64, u64, Vec<u8>)>,
    stable: Vec<BTreeMap<String, Vec<u8>>>,
    counters: BTreeMap<String, u64>,
    trace: Vec<mar_simnet::TraceRecord>,
}

fn run_fleet(
    seed: u64,
    agents: &[GenAgent],
    crashes: &[GenCrash],
    shards: usize,
    stable: &StableFactory,
) -> FleetFingerprint {
    let (mut p, handles) = settle_fleet(seed, agents, crashes, shards, stable);
    fingerprint(&mut p, &handles)
}

/// Builds the fleet, runs it to settlement, and hands the platform back.
fn settle_fleet(
    seed: u64,
    agents: &[GenAgent],
    crashes: &[GenCrash],
    shards: usize,
    stable: &StableFactory,
) -> (Platform, Vec<AgentHandle>) {
    let mut p = build_platform(NODES, seed, shards, true, stable);
    schedule_crashes(&mut p, NODES, crashes);
    let handles = launch_agents(&mut p, NODES, agents);
    assert!(
        p.run_until_settled(&handles, SimDuration::from_secs(600)),
        "scenario must settle (shards={shards}, backend={})",
        stable.name()
    );
    (p, handles)
}

fn fingerprint(p: &mut Platform, handles: &[AgentHandle]) -> FleetFingerprint {
    let reports = handles
        .iter()
        .map(|&h| {
            let r = p.report(h).expect("settled agent has a report");
            (
                format!("{:?}", r.outcome),
                r.steps_committed,
                r.finished_at_us,
                r.record.to_bytes().expect("record encodes"),
            )
        })
        .collect();
    FleetFingerprint {
        reports,
        stable: stable_dump(p),
        counters: strip_engine_counters(p.snapshot().counters),
        trace: p.world().trace().records().to_vec(),
    }
}

/// Asserts the WAL run is byte-identical to the reference run at every
/// shard count.
fn assert_backend_invariant(seed: u64, agents: &[GenAgent], crashes: &[GenCrash]) {
    let wal = StableFactory::wal(WalConfig::default());
    let reference = StableFactory::reference();
    for shards in SHARD_COUNTS {
        let a = run_fleet(seed, agents, crashes, shards, &reference);
        let b = run_fleet(seed, agents, crashes, shards, &wal);
        assert_eq!(
            a.reports, b.reports,
            "agent reports diverge across backends at shards={shards}"
        );
        assert_eq!(
            a.counters, b.counters,
            "counters diverge across backends at shards={shards}"
        );
        assert_eq!(
            a.trace, b.trace,
            "trace diverges across backends at shards={shards}"
        );
        for (i, (ra, rb)) in a.stable.iter().zip(&b.stable).enumerate() {
            assert_eq!(
                ra, rb,
                "stable store diverges on node {i} across backends at shards={shards}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fleets with rollbacks and crash schedules: reference and WAL
    /// backends are byte-identical at shards 1, 2, and 4.
    #[test]
    fn wal_backend_is_observationally_invisible(
        seed in 0u64..1_000,
        agents in gen_agents(NODES),
        crashes in gen_crashes(NODES),
    ) {
        assert_backend_invariant(seed, &agents, &crashes);
    }
}

fn dump_backend(b: &dyn StableBackend) -> BTreeMap<String, Vec<u8>> {
    b.iter().map(|(k, v)| (k.to_owned(), v.to_vec())).collect()
}

/// Pinned fleet: rollbacks + two crashes, one on an agent's home.
fn pinned_fleet() -> (Vec<GenAgent>, Vec<GenCrash>) {
    let agents = vec![
        GenAgent {
            home: 0,
            steps: vec![(0, 0), (1, 2), (0, 4), (2, 1)],
            rollback: true,
        },
        GenAgent {
            home: 2,
            steps: vec![(1, 3), (0, 0), (2, 2)],
            rollback: false,
        },
    ];
    let crashes = vec![
        GenCrash {
            node: 1,
            at_ms: 8,
            down_ms: 25,
        },
        GenCrash {
            node: 3,
            at_ms: 15,
            down_ms: 40,
        },
    ];
    (agents, crashes)
}

/// The pinned fleet, so a backend regression reproduces without shrinking;
/// also pins tiny WAL segments, forcing several rolls and cleans mid-run.
#[test]
fn pinned_fleet_is_backend_invariant_including_rollovers() {
    let (agents, crashes) = pinned_fleet();
    assert_backend_invariant(4321, &agents, &crashes);
    // Tiny segments: same fingerprint as the reference at 1 shard.
    let small = StableFactory::wal(WalConfig {
        checkpoint_bytes: 256,
        path: None,
    });
    let a = run_fleet(4321, &agents, &crashes, 1, &StableFactory::reference());
    let b = run_fleet(4321, &agents, &crashes, 1, &small);
    assert_eq!(a, b, "tiny-checkpoint WAL diverges from reference");
}

/// The pinned fleet on a file-backed WAL at 1 and 2 shards, where a barrier
/// is written to its log file at once and synced by the kernel's
/// output-commit rule: the run is byte-identical to the reference run, and
/// after settlement each node's files, reopened, recover exactly what a
/// simulated crash of the node keeps — the deferred sync never leaves a
/// committed frame out of a file — and, after the graceful shutdown's
/// flush, exactly the store's view.
#[test]
fn pinned_fleet_on_a_file_backed_wal_is_invariant_and_recovers_from_its_files() {
    let (agents, crashes) = pinned_fleet();
    let reference = run_fleet(4321, &agents, &crashes, 1, &StableFactory::reference());
    for shards in [1, 2] {
        let dir =
            std::env::temp_dir().join(format!("mar-file-fleet-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WalConfig {
            path: Some(dir.clone()),
            ..WalConfig::default()
        };
        let (mut p, handles) = settle_fleet(
            4321,
            &agents,
            &crashes,
            shards,
            &StableFactory::wal(cfg.clone()),
        );
        assert_eq!(
            fingerprint(&mut p, &handles),
            reference,
            "file-backed WAL diverges from reference at shards={shards}"
        );
        assert!(p.world().stable_totals().syncs > 0);
        let nodes = p.world().node_ids();
        let reopen_all = || -> Vec<BTreeMap<String, Vec<u8>>> {
            nodes
                .iter()
                .map(|&n| dump_backend(&WalBackend::open(cfg.clone(), n)))
                .collect()
        };
        // Unforced deletes still pending are in neither the files nor what
        // a crash keeps.
        let durable: Vec<_> = nodes
            .iter()
            .map(|&n| {
                let mut crashed = p.world_mut().stable_mut(n).backend_mut().clone_backend();
                crashed.crash();
                dump_backend(&*crashed)
            })
            .collect();
        assert_eq!(reopen_all(), durable, "shards={shards}");
        p.world_mut().flush_stable();
        assert_eq!(reopen_all(), stable_dump(&p), "shards={shards}, flushed");
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Torn-tail injection at every step boundary (extends the PR 5 sweep
// across the trait boundary).
// ---------------------------------------------------------------------------

/// Durable outcome of a single-agent run driven with a crash (and, on the
/// WAL arm, a torn-tail injection) at one step boundary.
#[derive(Debug, PartialEq)]
struct BoundaryFingerprint {
    outcome: ReportOutcome,
    steps_committed: u64,
    finished_at_us: u64,
    record_bytes: Vec<u8>,
    stable: Vec<BTreeMap<String, Vec<u8>>>,
    counters: BTreeMap<String, u64>,
}

/// Runs the fixed sweep itinerary; after `boundary` step commits the node
/// holding the agent is crashed for 300 ms. With `torn: Some((key, cut))`
/// (WAL arm only) a partial put frame for `key` cut at `cut` bytes is
/// injected into the holder's durable log right before the crash.
fn run_boundary(
    steps: &[GenStep],
    boundary: u64,
    stable: &StableFactory,
    torn: Option<(&str, usize)>,
) -> BoundaryFingerprint {
    let mut p = build_platform(NODES, 7, 1, true, stable);
    let it = {
        let mut b = mar_itinerary::ItineraryBuilder::main("I");
        b = b.sub("S", |s| {
            for (i, g) in steps.iter().enumerate() {
                s.step(step_name(g.kind, i), g.node);
            }
        });
        b.build().expect("valid itinerary")
    };
    let mut spec = AgentSpec::new("scripted", NodeId(0), it);
    spec.logging = LoggingMode::State;
    spec.mode = RollbackMode::Optimized;
    spec.data.set_sro("notes", Value::list([]));
    let agent = p.launch(spec);

    let mut crashed = false;
    for _ in 0..3_000 {
        p.run_for(SimDuration::from_millis(2));
        if !crashed && p.snapshot().counter("steps.committed") >= boundary {
            let holder = p
                .queued_agents()
                .iter()
                .find(|(_, id)| *id == agent.id())
                .map(|(n, _)| *n);
            if let Some(n) = holder {
                if let Some((key, cut)) = torn {
                    // A flush of `key` was interrupted mid-frame: the torn
                    // prefix sits in the durable log when the node dies.
                    let mut frame = Vec::new();
                    encode_put_frame(&mut frame, key, &[0xAB; 64]);
                    let cut = cut % frame.len();
                    p.world_mut()
                        .stable_mut(n)
                        .backend_mut()
                        .as_any_mut()
                        .downcast_mut::<WalBackend>()
                        .expect("wal arm runs on WalBackend")
                        .inject_torn_tail(&frame[..cut]);
                }
                p.world_mut().crash_for(n, SimDuration::from_millis(300));
                crashed = true;
            }
        }
        if p.report(agent).is_some() {
            break;
        }
    }
    assert!(
        p.run_until_settled(&[agent], SimDuration::from_secs(600)),
        "boundary {boundary} must settle ({})",
        stable.name()
    );
    let report = p.report(agent).expect("report");
    BoundaryFingerprint {
        outcome: report.outcome,
        steps_committed: report.steps_committed,
        finished_at_us: report.finished_at_us,
        record_bytes: report.record.to_bytes().expect("record encodes"),
        stable: stable_dump(&p),
        counters: strip_engine_counters(p.snapshot().counters),
    }
}

fn sweep_steps() -> Vec<GenStep> {
    [(0u8, 1u32), (2, 1), (0, 1), (1, 2), (0, 2), (0, 3)]
        .iter()
        .map(|&(kind, node)| GenStep { kind, node })
        .collect()
}

/// Kill the holder at every step boundary with a torn-WAL suffix: the
/// recovered WAL view must be byte-identical to the reference backend under
/// the identical crash schedule — the torn record is as if it never
/// happened.
#[test]
fn torn_tail_at_every_step_boundary_is_invisible() {
    let steps = sweep_steps();
    // Deterministic per-boundary cut offsets: early, mid-varint, mid-key,
    // mid-value, end-minus-one.
    let cuts = [0usize, 1, 5, 17, 40, 68, 71];
    for boundary in 0..=(steps.len() as u64) {
        let cut = cuts[boundary as usize % cuts.len()];
        let reference = run_boundary(&steps, boundary, &StableFactory::reference(), None);
        let wal = run_boundary(
            &steps,
            boundary,
            &StableFactory::wal(WalConfig::default()),
            Some(("q/torn-victim", cut)),
        );
        assert_eq!(
            reference, wal,
            "torn tail leaked at boundary {boundary} (cut {cut})"
        );
        assert_eq!(
            reference.outcome,
            ReportOutcome::Completed,
            "boundary {boundary}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Proptest arm of the same sweep: random boundary × random cut offset
    /// × random itinerary suffix.
    #[test]
    fn random_torn_tails_at_step_boundaries_are_invisible(
        boundary in 0u64..6,
        cut in 0usize..72,
        extra in proptest::collection::vec((0u8..4, 1u32..NODES), 0..3),
    ) {
        let mut steps = sweep_steps();
        steps.extend(extra.iter().map(|&(kind, node)| GenStep { kind, node }));
        let reference = run_boundary(&steps, boundary, &StableFactory::reference(), None);
        let wal = run_boundary(
            &steps,
            boundary,
            &StableFactory::wal(WalConfig::default()),
            Some(("q/torn-victim", cut)),
        );
        prop_assert_eq!(reference, wal);
    }
}
