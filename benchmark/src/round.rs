//! One round of a workload: build a fresh world, launch the fleet in one
//! batch, run to settlement, read every report, check the outputs.
//!
//! Only launch → last report read is timed; world construction, WAL
//! directories, socket setup and teardown, snapshots, audits and checks are
//! set-up time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mar_net::scenarios::{self as netsc, TRAVEL};
use mar_net::transport::{Listener, SocketTransport};
use mar_net::{netkeys, Endpoint, HostExit, HostRuntime, NetCfg, NetPlatform, ServeCtl};
use mar_platform::{AgentHandle, AgentReport, Platform, ReportOutcome};
use mar_simnet::{BackendStats, NodeId, SimDuration, SimTime, WalBackend};

use crate::trace::Tracer;
use crate::workloads::{builder, generate, wal_config, Workload, NET_HOSTS, NODES};

/// Virtual-time budget of one round; a fleet that has not settled by then
/// counts as failed.
const DEADLINE: SimDuration = SimDuration::from_secs(600);
/// Virtual length of one `run_for` slice of the traced pass.
const SLICE: SimDuration = SimDuration::from_millis(10);
/// Every `SAMPLE_EVERY`-th slice samples in-flight records, starting at the
/// fourth, so even a round of a dozen slices is sampled mid-flight.
const SAMPLE_EVERY: u32 = 8;
/// Records kept per sampling point.
const SAMPLE_MAX: usize = 64;
/// `wal_crash`: node 2 crashes at 20 virtual ms and recovers at 60.
const CRASH_NODE: NodeId = NodeId(2);
const CRASH_AT_US: u64 = 20_000;
const RECOVER_AT_US: u64 = 60_000;
/// The node host's watchdog and poll tick, as `mar_net::run_host` sets them.
const HOST_IO_TIMEOUT: Duration = Duration::from_secs(30);
const HOST_POLL_TICK: Duration = Duration::from_millis(100);

/// What the traced pass keeps of a round for the layer probes.
#[derive(Default)]
pub struct Artefacts {
    /// Encoded in-flight agent records sampled from the stable queues.
    pub records: Vec<Vec<u8>>,
    /// Sizes of the `rm/<name>` snapshots in stable storage at round end.
    pub rm_snapshot_bytes: Vec<u64>,
    /// Cold `WalBackend::open` times, one per node directory.
    pub wal_reopen_ns: Vec<u64>,
    /// `net.start` / `net.shutdown`+join wall times.
    pub net_start_ns: u64,
    /// See `net_start_ns`.
    pub net_shutdown_ns: u64,
    /// Wall time of the in-process twin of a `net_travel` round.
    pub twin_ns: u64,
}

/// The measured and checked result of one round.
pub struct RoundOutcome {
    /// Agents launched.
    pub agents: usize,
    /// Agents that did not complete — every agent of a round whose output
    /// check failed.
    pub failed: usize,
    /// Failed output checks, human-readable.
    pub errors: Vec<String>,
    /// Launch → last report read, host nanoseconds.
    pub timed_ns: u64,
    /// Everything else in the round, host nanoseconds.
    pub setup_ns: u64,
    /// `steps.committed`.
    pub steps: u64,
    /// Per agent, `finished_at_us` − launch time (virtual microseconds).
    pub settle_us: Vec<u64>,
    /// Counters at round end, summed over processes for `net_travel`.
    pub counters: BTreeMap<String, u64>,
    /// Backend totals over all nodes (zero for `net_travel`).
    pub stable: BackendStats,
    /// Critical path of the shard profile (0 unless profiled).
    pub critical_ns: u64,
    /// Probe inputs (traced pass only).
    pub artefacts: Artefacts,
}

impl RoundOutcome {
    /// A counter by name, 0 if absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A digest of everything that must repeat exactly for one seed:
    /// every counter that is not a transport diagnostic or a driver poll
    /// count, and every settle time.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        for (k, v) in &self.counters {
            if !netkeys::is_transport_diag(k) && !k.starts_with("driver.mbox_scans") {
                text.push_str(&format!("{k}={v};"));
            }
        }
        for s in &self.settle_us {
            text.push_str(&format!("{s},"));
        }
        mar_wire::content_hash64(text.as_bytes())
    }
}

fn check(errors: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        errors.push(what());
    }
}

/// Checks shared by every workload: all reports present and `Completed`,
/// the closed-form step count, conserved money. A round with any failed
/// check counts every agent as failed.
fn common_checks(
    workload: Workload,
    agents: usize,
    reports: &[Option<AgentReport>],
    steps: u64,
    audit: &BTreeMap<String, i64>,
    money: &[(&'static str, i64)],
    errors: &mut Vec<String>,
) {
    let incomplete = reports
        .iter()
        .filter(|r| !matches!(r, Some(r) if r.outcome == ReportOutcome::Completed))
        .count();
    check(errors, incomplete == 0, || {
        format!("{incomplete} of {agents} agents did not complete")
    });
    let want = workload.steps_per_agent() * agents as u64;
    check(errors, steps == want, || {
        format!("steps.committed = {steps}, closed form says {want}")
    });
    let want_audit: BTreeMap<String, i64> =
        money.iter().map(|(c, v)| ((*c).to_owned(), *v)).collect();
    check(errors, *audit == want_audit, || {
        format!("money audit {audit:?}, expected {want_audit:?}")
    });
}

fn settle_times(reports: &[Option<AgentReport>], launch_us: u64) -> Vec<u64> {
    reports
        .iter()
        .flatten()
        .map(|r| r.finished_at_us.saturating_sub(launch_us))
        .collect()
}

/// Drives an in-process fleet to settlement. Untraced this is
/// `run_until_settled`; traced it is the same loop in 10 ms slices with a
/// span per call, sampling in-flight records every eighth slice. Returns
/// the host time spent sampling, which is not the platform's.
fn settle_inproc(
    p: &mut Platform,
    handles: &[AgentHandle],
    tracer: &mut Tracer,
    samples: &mut Vec<Vec<u8>>,
) -> u64 {
    if !tracer.enabled() {
        p.run_until_settled(handles, DEADLINE);
        return 0;
    }
    let mut sampling_ns = 0;
    let mut done = 0;
    let end = p.world().now() + DEADLINE;
    let mut slice = 0u32;
    while done < handles.len() && p.world().now() < end {
        let s = tracer.enter("platform.run_for");
        p.run_for(SLICE);
        tracer.exit(s);
        let s = tracer.enter("platform.drain_reports");
        done += p.drain_reports().len();
        tracer.exit(s);
        slice += 1;
        if slice % SAMPLE_EVERY == SAMPLE_EVERY / 2 {
            let t = Instant::now();
            let s = tracer.enter("bench.sample_records");
            for (_, rec) in p.queued_records().into_iter().take(SAMPLE_MAX) {
                samples.push(rec.to_bytes().expect("sampled record encodes"));
            }
            tracer.exit(s);
            sampling_ns += t.elapsed().as_nanos() as u64;
        }
    }
    sampling_ns
}

/// What one round runs on.
pub struct RoundCfg<'a> {
    /// The workload.
    pub workload: Workload,
    /// 1/20-size fleets.
    pub smoke: bool,
    /// The generator's and the world's seed.
    pub round_seed: u64,
    /// Kernel shards (1 = the sequential engine). In-process only.
    pub shards: usize,
    /// Record the shard profile's critical path. In-process only.
    pub profile: bool,
    /// `net_travel`: also run the fleet in-process and compare.
    pub twin: bool,
    /// Scratch directory for WAL files and sockets.
    pub out_dir: &'a Path,
}

/// Runs one round.
pub fn run_round(cfg: &RoundCfg<'_>, tracer: &mut Tracer) -> RoundOutcome {
    if cfg.workload == Workload::NetTravel {
        run_net(cfg, tracer)
    } else {
        run_inproc(cfg, tracer)
    }
}

fn run_inproc(cfg: &RoundCfg<'_>, tracer: &mut Tracer) -> RoundOutcome {
    let &RoundCfg {
        workload,
        smoke,
        round_seed,
        shards,
        out_dir,
        ..
    } = cfg;
    let t0 = Instant::now();
    let round_span = tracer.enter("bench.round");
    let mut input = generate(workload, smoke, round_seed);
    let wal_dir = (workload == Workload::WalCrash).then(|| {
        let dir = out_dir.join(format!("wal-{}-{round_seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create WAL directory");
        dir
    });
    let s = tracer.enter("platform.build");
    let mut p = builder(workload, &input, shards, wal_dir.clone()).build();
    tracer.exit(s);
    if cfg.profile {
        p.world_mut().set_shard_profiling(true);
    }
    if workload == Workload::WalCrash {
        let w = p.world_mut();
        w.schedule_crash(SimTime::from_micros(CRASH_AT_US), CRASH_NODE);
        w.schedule_recover(SimTime::from_micros(RECOVER_AT_US), CRASH_NODE);
    }
    let specs = std::mem::take(&mut input.specs);
    let launch_us = p.world().now().as_micros();
    let mut artefacts = Artefacts::default();

    let t1 = Instant::now();
    let s = tracer.enter("platform.launch_fleet");
    let handles = p.launch_fleet(specs);
    tracer.exit(s);
    let sampling_ns = settle_inproc(&mut p, &handles, tracer, &mut artefacts.records);
    let reports: Vec<Option<AgentReport>> = handles
        .iter()
        .map(|h| {
            let s = tracer.enter("platform.report");
            let r = p.report(*h);
            tracer.exit(s);
            r
        })
        .collect();
    let timed_ns = (t1.elapsed().as_nanos() as u64).saturating_sub(sampling_ns);

    let s = tracer.enter("platform.snapshot");
    let snap = p.snapshot();
    tracer.exit(s);
    let s = tracer.enter("platform.money_audit");
    let audit = p.money_audit(&["wallet"]);
    tracer.exit(s);
    let stable = p.world().stable_totals();
    let steps = snap.counter("steps.committed");

    let mut errors = Vec::new();
    common_checks(
        workload,
        input.agents,
        &reports,
        steps,
        &audit,
        &input.money,
        &mut errors,
    );
    match workload {
        Workload::RollbackMix => {
            let completed = snap.counter("rollback.completed");
            check(&mut errors, completed == input.agents as u64, || {
                format!(
                    "rollback.completed = {completed}, expected {}",
                    input.agents
                )
            });
            check(&mut errors, snap.counter("log.compactions") > 0, || {
                "log.compactions = 0".to_owned()
            });
        }
        Workload::WalCrash => {
            check(&mut errors, stable.recoveries >= 1, || {
                "no WAL recovery pass ran".to_owned()
            });
            check(&mut errors, stable.replayed_bytes > 0, || {
                "WAL recovery replayed 0 bytes".to_owned()
            });
        }
        Workload::FwdHop | Workload::NetTravel => {}
    }

    if tracer.enabled() {
        for node in p.world().node_ids() {
            for (key, value) in p.world().stable(node).iter() {
                if key.starts_with("rm/") {
                    artefacts.rm_snapshot_bytes.push(value.len() as u64);
                }
            }
        }
    }
    let critical_ns = p.world().shard_profile().critical_ns;
    drop(p);
    if let Some(dir) = &wal_dir {
        if tracer.enabled() {
            artefacts.wal_reopen_ns = reopen_wal(dir, tracer);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    tracer.exit(round_span);
    let total_ns = t0.elapsed().as_nanos() as u64;
    RoundOutcome {
        agents: input.agents,
        failed: if errors.is_empty() { 0 } else { input.agents },
        errors,
        timed_ns,
        setup_ns: total_ns.saturating_sub(timed_ns + sampling_ns),
        steps,
        settle_us: settle_times(&reports, launch_us),
        counters: snap.counters,
        stable,
        critical_ns,
        artefacts,
    }
}

/// Cold re-open of every node's WAL directory: what a restarted process
/// pays before it can serve.
fn reopen_wal(dir: &Path, tracer: &mut Tracer) -> Vec<u64> {
    (0..NODES)
        .map(|n| {
            let cfg = wal_config(dir.to_path_buf());
            let t = Instant::now();
            let s = tracer.enter("simnet.wal_open");
            let backend = WalBackend::open(cfg, NodeId(n));
            tracer.exit(s);
            let ns = t.elapsed().as_nanos() as u64;
            drop(backend);
            ns
        })
        .collect()
}

/// Reports, money audit and counters of the travel fleet run in-process:
/// the control every `net_travel` round must be observationally equal to.
pub struct Twin {
    reports: Vec<Option<AgentReport>>,
    audit: BTreeMap<String, i64>,
    counters: BTreeMap<String, u64>,
    /// Launch → last report read, host nanoseconds.
    pub timed_ns: u64,
    /// In-flight records sampled on the way (traced pass).
    pub records: Vec<Vec<u8>>,
}

/// Runs the travel fleet in one process.
fn run_twin(round_seed: u64, agents: usize, tracer: &mut Tracer) -> Twin {
    let mut p = netsc::builder(TRAVEL, round_seed)
        .expect("travel scenario")
        .build();
    let specs = netsc::fleet(TRAVEL, agents as u32).expect("travel fleet");
    let mut records = Vec::new();
    let t1 = Instant::now();
    let handles = p.launch_fleet(specs);
    let sampling_ns = settle_inproc(&mut p, &handles, tracer, &mut records);
    let reports = handles.iter().map(|h| p.report(*h)).collect();
    let timed_ns = (t1.elapsed().as_nanos() as u64).saturating_sub(sampling_ns);
    Twin {
        reports,
        audit: p.money_audit(&[]),
        counters: p.snapshot().counters,
        timed_ns,
        records,
    }
}

fn kernel_counters(counters: &BTreeMap<String, u64>) -> BTreeMap<&str, u64> {
    counters
        .iter()
        .filter(|(k, _)| !netkeys::is_transport_diag(k))
        .map(|(k, v)| (k.as_str(), *v))
        .collect()
}

/// One node host: `mar_net::run_host` without the redial loop and without
/// its per-session stderr line (two lines a round would flood the output).
fn serve_host(host_id: u32, endpoint: &Endpoint) -> std::io::Result<HostExit> {
    let mut transport = SocketTransport::connect(endpoint)?;
    transport.set_read_timeout(Some(HOST_IO_TIMEOUT))?;
    transport.set_poll_interval(Some(HOST_POLL_TICK))?;
    let ctl = ServeCtl {
        term: None,
        io_timeout: Some(HOST_IO_TIMEOUT),
        log: false,
    };
    HostRuntime::new(host_id, None, ctl).run_conn(Box::new(transport))
}

/// Runs one round of `net_travel`: a driver on this thread, two node hosts
/// on threads of their own, one Unix-socket connection each, a fresh
/// session per round. With `twin`, the same fleet also runs in-process and
/// the two must agree.
fn run_net(cfg: &RoundCfg<'_>, tracer: &mut Tracer) -> RoundOutcome {
    let &RoundCfg {
        workload,
        smoke,
        round_seed,
        twin,
        out_dir,
        ..
    } = cfg;
    let t0 = Instant::now();
    let round_span = tracer.enter("bench.round");
    let input = generate(workload, smoke, round_seed);
    let socket: PathBuf = out_dir.join(format!("n{}-{round_seed}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(socket.clone());

    // Bind before the hosts dial, so no host sleeps in its retry back-off.
    let s = tracer.enter("net.start");
    let listener = Listener::bind(&endpoint).expect("bind benchmark socket");
    listener
        .set_nonblocking(true)
        .expect("non-blocking listener");
    let hosts: Vec<_> = (0..NET_HOSTS)
        .map(|host_id| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || serve_host(host_id, &endpoint))
        })
        .collect();
    let cfg = NetCfg::new(endpoint, NET_HOSTS, TRAVEL, input.world_seed);
    let mut p = NetPlatform::start_with(Box::new(listener), cfg).expect("driver start");
    tracer.exit(s);
    let net_start_ns = t0.elapsed().as_nanos() as u64;
    let specs = netsc::fleet(TRAVEL, input.agents as u32).expect("travel fleet");
    let launch_us = p.now().as_micros();

    let t1 = Instant::now();
    let s = tracer.enter("net.launch_fleet");
    let handles = p.launch_fleet(specs);
    tracer.exit(s);
    let s = tracer.enter("net.run_until_settled");
    p.run_until_settled(&handles, DEADLINE);
    tracer.exit(s);
    let s = tracer.enter("net.report");
    let reports: Vec<Option<AgentReport>> = handles.iter().map(|h| p.report(*h)).collect();
    tracer.exit(s);
    let timed_ns = t1.elapsed().as_nanos() as u64;

    let s = tracer.enter("net.snapshot");
    let snap = p.snapshot();
    tracer.exit(s);
    let s = tracer.enter("net.money_audit");
    let audit = p.money_audit(&[]);
    tracer.exit(s);
    let t_down = Instant::now();
    let s = tracer.enter("net.shutdown");
    p.shutdown();
    tracer.exit(s);
    let s = tracer.enter("net.join");
    let mut errors = Vec::new();
    for (id, host) in hosts.into_iter().enumerate() {
        let exit = host.join();
        check(&mut errors, matches!(exit, Ok(Ok(_))), || {
            format!("host {id} ended with {exit:?}")
        });
    }
    tracer.exit(s);
    drop(p);
    let net_shutdown_ns = t_down.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_file(&socket);

    let steps = snap.counter("steps.committed");
    common_checks(
        workload,
        input.agents,
        &reports,
        steps,
        &audit,
        &input.money,
        &mut errors,
    );
    let mut artefacts = Artefacts {
        net_start_ns,
        net_shutdown_ns,
        ..Artefacts::default()
    };
    if twin {
        let s = tracer.enter("bench.twin");
        let control = run_twin(round_seed, input.agents, tracer);
        tracer.exit(s);
        // The traced twin drains its mailboxes every slice, which moves
        // driver poll counts; the equality check belongs to the untraced
        // warm-up round.
        if !tracer.enabled() {
            check(&mut errors, control.reports == reports, || {
                "reports differ from the in-process twin".to_owned()
            });
            check(&mut errors, control.audit == audit, || {
                format!(
                    "money audit {audit:?} differs from the twin's {:?}",
                    control.audit
                )
            });
            check(
                &mut errors,
                kernel_counters(&control.counters) == kernel_counters(&snap.counters),
                || "non-transport counters differ from the in-process twin".to_owned(),
            );
        }
        artefacts.twin_ns = control.timed_ns;
        artefacts.records = control.records;
    }
    tracer.exit(round_span);
    let total_ns = t0.elapsed().as_nanos() as u64;
    RoundOutcome {
        agents: input.agents,
        failed: if errors.is_empty() { 0 } else { input.agents },
        errors,
        timed_ns,
        setup_ns: total_ns.saturating_sub(timed_ns + artefacts.twin_ns),
        steps,
        settle_us: settle_times(&reports, launch_us),
        counters: snap.counters,
        stable: BackendStats::default(),
        critical_ns: 0,
        artefacts,
    }
}
