//! The tentpole acceptance test: a driver plus two node-host processes
//! (threads here, real sockets between them) must be observationally
//! identical to the single-process control — same reports, same metric
//! counters, same money audit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use mar_net::host::run_host;
use mar_net::scenarios::{self, TRAVEL};
use mar_net::{netkeys, Endpoint, HostConfig, HostExit, NetCfg, NetPlatform};
use mar_platform::AgentReport;
use mar_simnet::{MetricsSnapshot, SimDuration};

const SEED: u64 = 11;
const AGENTS: u32 = 4;
const DEADLINE: SimDuration = SimDuration::from_secs(600);

fn control_run() -> (Vec<AgentReport>, BTreeMap<String, i64>, MetricsSnapshot) {
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
}

fn distributed_run(
    endpoint: Endpoint,
    hosts: u32,
) -> (Vec<AgentReport>, BTreeMap<String, i64>, MetricsSnapshot) {
    let mut joins = Vec::new();
    for host_id in 0..hosts {
        let cfg = HostConfig::new(host_id, endpoint.clone());
        joins.push(std::thread::spawn(move || run_host(&cfg)));
    }
    let mut cfg = NetCfg::new(endpoint, hosts, TRAVEL, SEED);
    cfg.accept_deadline = Duration::from_secs(20);
    let mut p = NetPlatform::start(cfg).expect("driver start");
    let handles = p.launch_fleet(scenarios::fleet(TRAVEL, AGENTS).unwrap());
    assert!(
        p.run_until_settled(&handles, DEADLINE),
        "distributed run failed to settle"
    );
    let reports: Vec<AgentReport> = handles
        .iter()
        .map(|h| p.report(*h).expect("distributed report"))
        .collect();
    let audit = p.money_audit(&[]);
    let snap = p.snapshot();
    p.shutdown();
    for j in joins {
        assert_eq!(j.join().unwrap().unwrap(), HostExit::Shutdown);
    }
    (reports, audit, snap)
}

/// Counters minus the transport diagnostics that only exist in
/// distributed runs.
fn kernel_counters(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| !netkeys::is_transport_diag(k))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn assert_equivalent(
    control: &(Vec<AgentReport>, BTreeMap<String, i64>, MetricsSnapshot),
    dist: &(Vec<AgentReport>, BTreeMap<String, i64>, MetricsSnapshot),
) {
    assert_eq!(control.0, dist.0, "agent reports diverged");
    assert_eq!(control.1, dist.1, "money audit diverged");
    assert_eq!(
        kernel_counters(&control.2),
        kernel_counters(&dist.2),
        "kernel metric counters diverged"
    );
    // And the distributed run really used the network: relayed deliveries
    // carry exactly their simulator-billed cost, so the relay subset can
    // never exceed what the kernel billed in total.
    let c = |k: &str| dist.2.counters.get(k).copied().unwrap_or(0);
    assert!(c(netkeys::EVENTS_RELAYED.name()) > 0);
    assert!(c(netkeys::WINDOWS.name()) > 0);
    assert!(c(netkeys::BILLED_BYTES.name()) > 0);
    assert!(c(netkeys::BILLED_BYTES.name()) <= c("net.bytes_sent"));
}

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mar-eq-{tag}-{}.sock", std::process::id()))
}

#[test]
fn two_hosts_over_uds_match_in_process_control() {
    let control = control_run();
    let path = uds_path("uds2");
    let dist = distributed_run(Endpoint::Unix(path.clone()), 2);
    let _ = std::fs::remove_file(&path);
    assert_equivalent(&control, &dist);
    // The money invariant the paper's compensation machinery guarantees.
    assert_eq!(dist.1.get("USD"), Some(&12_000));
}

#[test]
fn three_hosts_over_tcp_match_in_process_control() {
    let control = control_run();
    // Port 0 is not an option (hosts need the address before bind returns),
    // so grab a free port first and race-free enough for CI.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    let dist = distributed_run(Endpoint::Tcp(addr.to_string()), 3);
    assert_equivalent(&control, &dist);
}

/// The driver's billing must match in-process launch costs exactly: the
/// byte counters the simulator charged are byte-identical, which pins the
/// "socket bytes = simulator-billed bytes" property at the fleet level.
#[test]
fn single_host_owns_everything_and_still_matches() {
    let control = control_run();
    let path = uds_path("uds1");
    let dist = distributed_run(Endpoint::Unix(path.clone()), 1);
    let _ = std::fs::remove_file(&path);
    assert_equivalent(&control, &dist);
}
