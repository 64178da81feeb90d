//! Satellite: property coverage for [`FaultPlan`] on [`Loopback`].
//!
//! Random fault plans (drop/duplicate/delay/partition — everything short
//! of process death) are injected on every driver⇄host link of an
//! in-process fleet. The session layer must absorb all of it: reports,
//! money audit, and kernel counters stay **byte-identical** to the
//! fault-free control; only the `net.*` transport diagnostics may differ.
//! A scripted-kill test rides along, exercising volatile crash +
//! WAL recovery through the same harness.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use mar_net::fault::{FaultHandle, FaultPlan, FaultStats};
use mar_net::host::{HostExit, HostRuntime, ServeCtl};
use mar_net::scenarios::{self, TRAVEL};
use mar_net::transport::{ChannelAcceptor, Endpoint, Loopback, Transport};
use mar_net::{netkeys, NetCfg, NetPlatform};
use mar_platform::AgentReport;
use mar_simnet::{MetricsSnapshot, SimDuration};

const SEED: u64 = 11;
const AGENTS: u32 = 4;
const DEADLINE: SimDuration = SimDuration::from_secs(600);
/// Driver-silence watchdog on both sides — short, so a swallowed frame
/// costs a fraction of a second, not the production 30 s.
const IO_TIMEOUT: Duration = Duration::from_millis(200);
/// Host-side poll tick (term-flag checks while idle).
const POLL: Duration = Duration::from_millis(25);

type RunOutput = (Vec<AgentReport>, BTreeMap<String, i64>, MetricsSnapshot);

fn control() -> &'static RunOutput {
    static CONTROL: OnceLock<RunOutput> = OnceLock::new();
    CONTROL.get_or_init(|| {
        let mut p = scenarios::builder(TRAVEL, SEED).unwrap().build();
        let handles = p.launch_fleet(scenarios::fleet(TRAVEL, AGENTS).unwrap());
        assert!(
            p.run_until_settled(&handles, DEADLINE),
            "control run failed to settle"
        );
        let reports = handles
            .iter()
            .map(|h| p.report(*h).expect("control report"))
            .collect();
        let audit = p.money_audit(&[]);
        (reports, audit, p.snapshot())
    })
}

/// One host's life under a fault plan: dial (a fresh loopback pair pushed
/// at the driver's acceptor), serve, and on any connection death dial
/// again — resuming the session, or rebuilding from the WAL if the kill
/// trigger took the process's volatile state.
fn host_loop(
    host_id: u32,
    plan: FaultPlan,
    handle: FaultHandle,
    wal_dir: Option<PathBuf>,
    tx: mpsc::Sender<Box<dyn Transport>>,
) {
    let mut rt = HostRuntime::new(
        host_id,
        wal_dir,
        ServeCtl {
            term: None,
            io_timeout: Some(IO_TIMEOUT),
            log: false,
        },
    );
    for conn in 0..10_000u64 {
        if handle.killed() {
            // The fault layer "SIGKILLed" us: volatile state is gone, the
            // supervisor restarts the process against the same WAL.
            rt.crash_volatile();
            handle.revive();
        }
        let (driver_end, host_end) = Loopback::pair();
        let (driver_end, mut host_end) = plan.wrap_pair(&handle, driver_end, host_end, conn);
        host_end.set_read_timeout(Some(POLL)).unwrap();
        if tx.send(Box::new(driver_end)).is_err() {
            // Driver gone (run over and acceptor dropped).
            return;
        }
        match rt.run_conn(Box::new(host_end)) {
            Ok(HostExit::Shutdown) => return,
            Ok(_) => {}
            // A fault can corrupt the handshake itself (e.g. a delayed
            // control frame arriving out of order). In-process that is
            // still just a dead connection: world and session survive, so
            // redial rather than die.
            Err(_) => {}
        }
    }
    panic!("host {host_id} never reached shutdown");
}

/// A full fleet run with one fault plan per driver⇄host link. Returns the
/// observables plus each link's fault tallies (proof the run actually
/// injected something).
fn faulted_run(plans: &[FaultPlan], wal_dirs: &[Option<PathBuf>]) -> (RunOutput, Vec<FaultStats>) {
    let hosts = plans.len() as u32;
    let (tx, acceptor) = ChannelAcceptor::new();
    let mut handles = Vec::new();
    let mut joins = Vec::new();
    for (h, plan) in plans.iter().enumerate() {
        let handle = FaultHandle::new();
        handles.push(handle.clone());
        let tx = tx.clone();
        let plan = plan.clone();
        let wal = wal_dirs.get(h).cloned().flatten();
        joins.push(std::thread::spawn(move || {
            host_loop(h as u32, plan, handle, wal, tx);
        }));
    }
    drop(tx);
    // The endpoint is unused with an explicit acceptor.
    let mut cfg = NetCfg::new(Endpoint::Tcp("127.0.0.1:0".into()), hosts, TRAVEL, SEED);
    cfg.io_timeout = IO_TIMEOUT;
    cfg.down_grace = Duration::from_secs(10);
    cfg.accept_deadline = Duration::from_secs(30);
    let mut p = NetPlatform::start_with(Box::new(acceptor), cfg).expect("driver start");
    let agent_handles = p.launch_fleet(scenarios::fleet(TRAVEL, AGENTS).unwrap());
    assert!(
        p.run_until_settled(&agent_handles, DEADLINE),
        "faulted run failed to settle"
    );
    let reports: Vec<AgentReport> = agent_handles
        .iter()
        .map(|h| p.report(*h).expect("faulted report"))
        .collect();
    let audit = p.money_audit(&[]);
    let snap = p.snapshot();
    assert!(
        p.failed_hosts().is_empty(),
        "no host should be given up on under recoverable faults"
    );
    p.shutdown();
    drop(p);
    for j in joins {
        j.join().expect("host thread");
    }
    (
        (reports, audit, snap),
        handles.iter().map(FaultHandle::stats).collect(),
    )
}

/// Counters minus the transport diagnostics that faults legitimately
/// perturb.
fn kernel_counters(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| !netkeys::is_transport_diag(k))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn counter(snap: &MetricsSnapshot, key: &str) -> u64 {
    snap.counters.get(key).copied().unwrap_or(0)
}

/// Full byte-equality: the contract for every fault class the session
/// layer absorbs without losing process state.
fn assert_byte_identical(faulted: &RunOutput) {
    let control = control();
    assert_eq!(control.0, faulted.0, "agent reports diverged");
    assert_eq!(control.1, faulted.1, "money audit diverged");
    assert_eq!(
        kernel_counters(&control.2),
        kernel_counters(&faulted.2),
        "kernel metric counters diverged"
    );
    // No process died, so nothing may look like a restart or a give-up.
    assert_eq!(counter(&faulted.2, netkeys::RESTARTS.name()), 0);
    assert_eq!(counter(&faulted.2, netkeys::SUPERVISOR_GAVE_UP.name()), 0);
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u16..=20,
        0u16..=30,
        0u16..=30,
        proptest::collection::vec((0u64..500, 1u64..6), 0..3),
    )
        .prop_map(|(seed, drop, dup, delay, partitions)| FaultPlan {
            seed,
            drop_per_mille: drop,
            dup_per_mille: dup,
            delay_per_mille: delay,
            partitions,
            kill_at_frame: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random drop/dup/delay/partition plans on both links of a two-host
    /// fleet: the run settles and is byte-identical to the fault-free
    /// control. Only `net.*` diagnostics may differ.
    #[test]
    fn random_fault_plans_are_byte_invisible(
        plan0 in plan_strategy(),
        plan1 in plan_strategy(),
    ) {
        let (out, _stats) = faulted_run(&[plan0, plan1], &[None, None]);
        assert_byte_identical(&out);
    }
}

/// Deterministic partition schedules: both links go dark for scripted
/// frame windows. The sessions must resume (net.partitions_healed), the
/// reconnects must be counted, and the run stays byte-identical.
#[test]
fn scripted_partitions_heal_and_stay_byte_identical() {
    let mk = |seed: u64, partitions: Vec<(u64, u64)>| FaultPlan {
        partitions,
        ..FaultPlan::clean(seed)
    };
    let plans = [mk(1, vec![(40, 4), (200, 3)]), mk(2, vec![(90, 5)])];
    let (out, stats) = faulted_run(&plans, &[None, None]);
    assert_byte_identical(&out);
    let eaten: u64 = stats.iter().map(|s| s.partition_drops).sum();
    assert!(eaten > 0, "partitions never ate a frame: {stats:?}");
    assert!(
        counter(&out.2, netkeys::RECONNECTS.name()) > 0,
        "partition recovery must reconnect"
    );
    assert!(
        counter(&out.2, netkeys::PARTITIONS_HEALED.name()) > 0,
        "resumed sessions must be counted as healed partitions"
    );
}

/// Scripted kill: the fault layer severs host 1's link at a fixed frame,
/// the host loop drops all volatile state (as SIGKILL would) and rebuilds
/// from its WAL. Outcomes and money match the control — virtual timings
/// may shift once recovery retransmissions enter, exactly as in the
/// real-process kill test.
#[test]
fn scripted_kill_recovers_from_wal_in_process() {
    let base = std::env::temp_dir().join(format!("mar-faultprop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let plans = [
        FaultPlan::clean(7),
        FaultPlan {
            kill_at_frame: Some(120),
            ..FaultPlan::clean(8)
        },
    ];
    let wal_dirs = [Some(base.join("h0")), Some(base.join("h1"))];
    let (out, stats) = faulted_run(&plans, &wal_dirs);
    let _ = std::fs::remove_dir_all(&base);
    assert_eq!(stats[1].kills, 1, "the kill trigger must have fired");
    let control = control();
    let brief = |reports: &[AgentReport]| -> BTreeSet<(u64, String, u64)> {
        reports
            .iter()
            .map(|r| (r.id.0, format!("{:?}", r.outcome), r.steps_committed))
            .collect()
    };
    assert_eq!(brief(&control.0), brief(&out.0), "outcomes diverged");
    assert_eq!(control.1, out.1, "money audit diverged");
    assert!(
        counter(&out.2, netkeys::RESTARTS.name()) >= 1,
        "a fresh session after process death must be counted as a restart"
    );
    assert_eq!(counter(&out.2, netkeys::SUPERVISOR_GAVE_UP.name()), 0);
}
