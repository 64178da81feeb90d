//! The tentpole acceptance test: a supervised fleet of real processes
//! under scripted chaos — SIGKILL, SIGSTOP/SIGCONT partitions, SIGTERM,
//! and budget exhaustion — driven by [`mar_net::Fleet`]. A fault lands
//! after a given lockstep window, where the driver holds with every host
//! idle, so no arm depends on how fast the machine is.
//!
//! Three equivalence classes:
//!
//! * **Partitions** (a host frozen mid-protocol and thawed later) are
//!   fully absorbed by session replay: the counter/report/money dump is
//!   **byte-identical** to a chaos-free, hold-free control, minus `net.*`
//!   transport diagnostics.
//! * **Process deaths** (SIGKILL, graceful SIGTERM) recover through the
//!   WAL: outcomes, committed steps, and the money audit match the
//!   control; virtual timings may legitimately shift once recovery
//!   retransmissions enter.
//! * **Replay**: the same kill script is the same run — byte-identical
//!   dumps and rejoin times, twice on UDS and once on TCP.
//!
//! A budget-exhaustion arm pins graceful degradation: when the victim is
//! never restarted, the driver gives up after `down_grace`, drains what
//! settled, reports the failed host, and exits nonzero — it does not hang.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use mar_net::scenarios::{self, TRAVEL};
use mar_net::supervisor::{ChaosAction, ChaosEvent, Fleet, FleetConfig, FleetSummary};
use mar_simnet::SimDuration;

const SEED: u64 = 11;
const AGENTS: u32 = 6;
const HOSTS: u32 = 2;

/// `(agent id, outcome, steps committed)` — the run identity that is
/// stable across crash recovery.
type Outcomes = BTreeSet<(u64, String, u64)>;

fn control_outcomes() -> &'static (Outcomes, i64) {
    static CONTROL: OnceLock<(Outcomes, i64)> = OnceLock::new();
    CONTROL.get_or_init(|| {
        let mut p = scenarios::builder(TRAVEL, SEED).unwrap().build();
        let handles = p.launch_fleet(scenarios::fleet(TRAVEL, AGENTS).unwrap());
        assert!(p.run_until_settled(&handles, SimDuration::from_secs(600)));
        let outcomes = handles
            .iter()
            .map(|h| {
                let r = p.report(*h).unwrap();
                (h.id().0, format!("{:?}", r.outcome), r.steps_committed)
            })
            .collect();
        let usd = *p.money_audit(&[]).get("USD").unwrap();
        (outcomes, usd)
    })
}

struct Arm {
    base: PathBuf,
    cfg: FleetConfig,
    dump: PathBuf,
}

/// A fleet over `socket` with per-host WAL dirs under a fresh temp base.
fn arm(tag: &str, socket_of: impl Fn(&Path) -> String) -> Arm {
    let base = std::env::temp_dir().join(format!("mar-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let socket = socket_of(&base);
    let dump = base.join("dump.txt");
    let mut cfg = FleetConfig::new(
        PathBuf::from(env!("CARGO_BIN_EXE_mar-driver")),
        PathBuf::from(env!("CARGO_BIN_EXE_mar-node-host")),
        HOSTS,
    );
    cfg.driver_args = vec![
        "--socket".into(),
        socket.clone(),
        "--hosts".into(),
        HOSTS.to_string(),
        "--scenario".into(),
        TRAVEL.into(),
        "--seed".into(),
        SEED.to_string(),
        "--agents".into(),
        AGENTS.to_string(),
        "--deadline-secs".into(),
        "600".into(),
        "--io-timeout-secs".into(),
        "1".into(),
        "--dump".into(),
        dump.display().to_string(),
    ];
    cfg.host_args = vec![
        "--socket".into(),
        socket.clone(),
        "--host-id".into(),
        "{host_id}".into(),
        "--wal-dir".into(),
        base.join("host{host_id}").display().to_string(),
        "--io-timeout-secs".into(),
        "1".into(),
    ];
    // Generous: the four tests here run concurrently, each driving
    // multi-process fleets — under full-CI load a single run can take
    // minutes of wall clock. The deadline only exists to catch hangs.
    cfg.deadline = Duration::from_secs(180);
    Arm { base, cfg, dump }
}

fn uds(base: &Path) -> String {
    format!("unix:{}", base.join("driver.sock").display())
}

fn tcp(_base: &Path) -> String {
    // Port 0 is not an option (hosts need the address before bind
    // returns), so grab a free port first — race-free enough for CI.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    format!("tcp:{addr}")
}

fn parse_outcomes(stdout: &[String]) -> (Outcomes, Option<i64>, bool, bool) {
    let mut outcomes = Outcomes::new();
    let mut usd = None;
    let mut settled = false;
    let mut degraded = false;
    for line in stdout {
        if let Some(rest) = line.strip_prefix("report ") {
            let (head, steps) = rest.split_once(" steps=").expect("report line");
            let (id, outcome) = head.split_once(' ').expect("report head");
            outcomes.insert((
                id.parse().unwrap(),
                outcome.to_owned(),
                steps.parse().unwrap(),
            ));
        } else if let Some(rest) = line.strip_prefix("money ") {
            for pair in rest.split(' ') {
                if let Some(v) = pair.strip_prefix("USD=") {
                    usd = v.parse().ok();
                }
            }
        } else if line == "settled=true" {
            settled = true;
        } else if line.starts_with("failed_hosts=") {
            degraded = true;
        }
    }
    (outcomes, usd, settled, degraded)
}

/// The dump minus `net.*` diagnostics — the byte-comparison surface for
/// fault classes the session layer absorbs completely.
fn kernel_dump(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("dump {} unreadable: {e}", path.display()))
        .lines()
        .filter(|l| !l.starts_with("counter net."))
        .map(str::to_owned)
        .collect()
}

/// The control dump: one chaos-free supervised run. Virtual state is
/// transport-independent, so a single UDS control serves every arm.
fn control_dump() -> &'static Vec<String> {
    static CONTROL: OnceLock<Vec<String>> = OnceLock::new();
    CONTROL.get_or_init(|| {
        let a = arm("control", uds);
        let summary = Fleet::new(a.cfg.clone()).run().expect("control fleet");
        assert_eq!(summary.driver_code, Some(0), "control fleet failed");
        let (outcomes, usd, settled, degraded) = parse_outcomes(&summary.driver_stdout);
        assert!(settled && !degraded);
        let control = control_outcomes();
        assert_eq!(
            outcomes, control.0,
            "supervised control diverged from in-process"
        );
        assert_eq!(usd, Some(control.1));
        let dump = kernel_dump(&a.dump);
        let _ = std::fs::remove_dir_all(&a.base);
        dump
    })
}

fn on_host_1(at_window: u64, action: ChaosAction) -> ChaosEvent {
    ChaosEvent {
        at_window,
        host: 1,
        action,
    }
}

/// Runs `a` under `script` and checks what every recovered run owes: the
/// control's outcomes and money, nobody abandoned, every fault fired.
fn run_recovering(a: &Arm, script: &[ChaosEvent], what: &str) -> FleetSummary {
    let control = control_outcomes();
    let mut cfg = a.cfg.clone();
    cfg.chaos = script.to_vec();
    let summary = Fleet::new(cfg).run().expect("fleet runs");
    let (outcomes, usd, settled, degraded) = parse_outcomes(&summary.driver_stdout);
    assert_eq!(
        summary.driver_code,
        Some(0),
        "{what}: {:?}",
        summary.driver_stdout
    );
    assert!(settled && !degraded, "{what}");
    assert_eq!(outcomes, control.0, "{what}: outcomes diverged");
    assert_eq!(usd, Some(control.1), "{what}: money diverged");
    assert!(summary.gave_up.is_empty(), "{what}: {:?}", summary.gave_up);
    assert_eq!(summary.unfired, [], "{what}: a scripted fault never landed");
    summary
}

#[test]
fn a_kill_script_replays() {
    // Host 1 dies after windows spread over the ~119 of the run, alone and
    // all three in one script.
    let scripts = [&[17u64][..], &[59], &[101], &[17, 59, 101]];
    for (i, windows) in scripts.into_iter().enumerate() {
        let script: Vec<_> = windows
            .iter()
            .map(|&w| on_host_1(w, ChaosAction::Kill))
            .collect();
        let mut runs = Vec::new();
        for (flavor, socket_of) in [
            ("uds-a", uds as fn(&Path) -> String),
            ("uds-b", uds),
            ("tcp", tcp),
        ] {
            let what = format!("{flavor} kills after {windows:?}");
            let a = arm(&format!("kill-{flavor}-{i}"), socket_of);
            let summary = run_recovering(&a, &script, &what);
            // Every kill landed and was healed exactly once, each with an
            // MTTR sample and a WAL that had something to replay.
            assert_eq!(summary.restarts[&1], windows.len() as u32, "{what}");
            assert_eq!(summary.restarts[&0], 0, "{what}");
            assert_eq!(summary.recoveries.len(), windows.len(), "{what}");
            assert!(
                summary.recoveries.iter().all(|r| r.wal_replayed_bytes > 0),
                "{what}: {:?}",
                summary.recoveries
            );
            let rejoined_at: Vec<u64> = summary.recoveries.iter().map(|r| r.at_us).collect();
            runs.push((what, rejoined_at, kernel_dump(&a.dump)));
            let _ = std::fs::remove_dir_all(&a.base);
        }
        for (what, rejoined_at, dump) in &runs[1..] {
            assert_eq!(&runs[0].1, rejoined_at, "{what}: rejoin times moved");
            assert_eq!(&runs[0].2, dump, "{what}: kernel dump moved");
        }
    }
}

#[test]
fn partition_campaign_is_byte_identical_on_uds_and_tcp() {
    // Two partition shapes: one the watchdogs absorb in place (the frozen
    // host thaws before any timeout), one that trips the 1 s watchdogs and
    // forces a disconnect + session-resume cycle.
    for (flavor, socket_of) in [("uds", uds as fn(&Path) -> String), ("tcp", tcp)] {
        for (name, thaw_ms) in [("absorbed", 350), ("resumed", 1500)] {
            let what = format!("{flavor}/{name}");
            let a = arm(&format!("part-{flavor}-{name}"), socket_of);
            let thaw_after = Duration::from_millis(thaw_ms);
            let script = [on_host_1(60, ChaosAction::Pause { thaw_after })];
            let summary = run_recovering(&a, &script, &what);
            // No process died: the supervisor must not have restarted
            // anything, and neither the hold nor the outage may move a
            // counter against the hold-free control.
            assert!(summary.restarts.values().all(|&r| r == 0), "{what}");
            assert!(
                summary.elapsed >= thaw_after,
                "{what}: the pause never held"
            );
            // Which side of the watchdog the thaw fell on is the arm.
            let healed = std::fs::read_to_string(&a.dump)
                .unwrap()
                .contains("counter net.partitions_healed ");
            assert_eq!(healed, name == "resumed", "{what}");
            let dump = kernel_dump(&a.dump);
            let _ = std::fs::remove_dir_all(&a.base);
            assert_eq!(control_dump(), &dump, "{what}: kernel dump diverged");
        }
    }
}

#[test]
fn sigterm_graceful_restart_matches_control() {
    let a = arm("term", uds);
    let summary = run_recovering(&a, &[on_host_1(60, ChaosAction::Term)], "term");
    let _ = std::fs::remove_dir_all(&a.base);
    // The SIGTERM'd host exits cleanly, and the supervisor treats any
    // child exit as a death to heal: it must have restarted host 1.
    assert_eq!(summary.restarts[&1], 1);
}

#[test]
fn budget_exhaustion_degrades_cleanly_instead_of_hanging() {
    let mut a = arm("budget", uds);
    // A short virtual deadline bounds the post-degrade spin: the healthy
    // host's agents settle around 0.2 virtual seconds.
    let pos = a
        .cfg
        .driver_args
        .iter()
        .position(|s| s == "--deadline-secs")
        .unwrap();
    a.cfg.driver_args[pos + 1] = "3".into();
    a.cfg.driver_args.push("--down-grace-secs".into());
    a.cfg.driver_args.push("2".into());
    a.cfg.restart.budget = 0;
    a.cfg.chaos = vec![on_host_1(60, ChaosAction::Kill)];
    let summary = Fleet::new(a.cfg.clone())
        .run()
        .expect("degraded fleet must exit, not hang");
    let (outcomes, usd, settled, degraded) = parse_outcomes(&summary.driver_stdout);
    let _ = std::fs::remove_dir_all(&a.base);
    // The driver exited on its own (nonzero), well inside the supervisor
    // deadline, with a structured failure summary and partial results.
    assert_ne!(
        summary.driver_code,
        Some(0),
        "a degraded run must not claim success"
    );
    assert!(summary.driver_code.is_some(), "driver died to a signal");
    assert!(
        summary.elapsed < Duration::from_secs(120),
        "took {:?}",
        summary.elapsed
    );
    assert_eq!(summary.gave_up, [1], "exactly the killed host is abandoned");
    assert_eq!(summary.unfired, []);
    assert!(
        degraded,
        "driver must print failed_hosts=…: {:?}",
        summary.driver_stdout
    );
    assert!(!settled, "a partial fleet cannot settle fully");
    // Partial results drained: every agent got a report line, and the
    // money audit over the surviving host still printed.
    assert_eq!(outcomes.len(), AGENTS as usize);
    assert!(usd.is_some(), "partial money audit missing");
}
