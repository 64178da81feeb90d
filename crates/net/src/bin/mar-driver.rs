//! The fleet coordinator binary.
//!
//! Listens on `--socket`, waits for `--hosts` node-host processes,
//! launches `--agents` agents of `--scenario`, runs the fleet to
//! settlement, and prints one machine-parseable line per result:
//!
//! ```text
//! report <agent-id> <outcome> steps=<steps_committed>
//! money USD=12000
//! settled=true
//! ```
//!
//! With `--dump <file>` it also writes a byte-comparison dump: every
//! merged counter, each report's exact wire encoding in hex, and the money
//! audit — the artifact the chaos campaign diffs against a fault-free
//! control run.
//!
//! With `--hold-at-window K` (repeatable) the driver stops after its K-th
//! lockstep window, every host idle: it prints `hold K` and waits for one
//! line on stdin. That is where a supervisor's fault script strikes.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use mar_net::{Endpoint, NetCfg, NetPlatform};
use mar_simnet::SimDuration;

struct Args {
    socket: String,
    hosts: u32,
    scenario: String,
    seed: u64,
    agents: u32,
    deadline_secs: u64,
    hold_at_windows: Vec<u64>,
    io_timeout_secs: u64,
    down_grace_secs: u64,
    dump: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: String::new(),
        hosts: 2,
        scenario: "travel".to_owned(),
        seed: 11,
        agents: 4,
        deadline_secs: 600,
        hold_at_windows: Vec::new(),
        io_timeout_secs: 30,
        down_grace_secs: 20,
        dump: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--socket" => args.socket = val("--socket")?,
            "--hosts" => args.hosts = parse(&val("--hosts")?)?,
            "--scenario" => args.scenario = val("--scenario")?,
            "--seed" => args.seed = parse(&val("--seed")?)?,
            "--agents" => args.agents = parse(&val("--agents")?)?,
            "--deadline-secs" => args.deadline_secs = parse(&val("--deadline-secs")?)?,
            "--hold-at-window" => args.hold_at_windows.push(parse(&val("--hold-at-window")?)?),
            "--io-timeout-secs" => args.io_timeout_secs = parse(&val("--io-timeout-secs")?)?,
            "--down-grace-secs" => args.down_grace_secs = parse(&val("--down-grace-secs")?)?,
            "--dump" => args.dump = Some(val("--dump")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.socket.is_empty() {
        return Err("--socket is required (unix:<path> or tcp:<addr>)".to_owned());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("mar-driver: {e}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let endpoint = Endpoint::parse(&args.socket)?;
    let specs = mar_net::scenarios::fleet(&args.scenario, args.agents)
        .ok_or_else(|| format!("unknown scenario {:?}", args.scenario))?;
    let mut cfg = NetCfg::new(endpoint, args.hosts, args.scenario.clone(), args.seed);
    cfg.io_timeout = Duration::from_secs(args.io_timeout_secs);
    cfg.down_grace = Duration::from_secs(args.down_grace_secs);
    let mut platform = NetPlatform::start(cfg).map_err(|e| format!("startup failed: {e}"))?;
    eprintln!(
        "mar-driver: {} hosts connected, launching {} agents",
        args.hosts, args.agents
    );
    let holds = args.hold_at_windows;
    if !holds.is_empty() {
        platform.on_window(move |window| {
            if holds.contains(&window) {
                println!("hold {window}");
                // Any line releases the hold; so does a closed stdin.
                let _ = std::io::stdin().lock().read_line(&mut String::new());
            }
        });
    }
    let handles = platform.launch_fleet(specs);
    let settled = platform.run_until_settled(&handles, SimDuration::from_secs(args.deadline_secs));
    let mut reports = Vec::new();
    for h in &handles {
        match platform.report(*h) {
            Some(r) => {
                println!(
                    "report {} {:?} steps={}",
                    h.id().0,
                    r.outcome,
                    r.steps_committed
                );
                reports.push(r);
            }
            None => println!("report {} Missing steps=0", h.id().0),
        }
    }
    let audit = platform.money_audit(&[]);
    let money: Vec<String> = audit.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("money {}", money.join(" "));
    let failed = platform.failed_hosts();
    if !failed.is_empty() {
        let list: Vec<String> = failed.iter().map(u32::to_string).collect();
        println!("failed_hosts={}", list.join(","));
        eprintln!(
            "mar-driver: degraded fleet — gave up on host(s) {}; results are partial",
            list.join(",")
        );
    }
    println!("settled={settled}");
    if let Some(path) = &args.dump {
        let snap = platform.snapshot();
        let mut out = String::new();
        for (k, v) in &snap.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for r in &reports {
            let bytes = mar_wire::to_bytes(r).unwrap_or_default();
            out.push_str(&format!("reporthex {} {}\n", r.id.0, hex(&bytes)));
        }
        out.push_str(&format!("money {}\n", money.join(" ")));
        let write = std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes()));
        if let Err(e) = write {
            eprintln!("mar-driver: dump to {path} failed: {e}");
        }
    }
    let m = platform.driver_world().metrics();
    eprintln!(
        "mar-driver: windows={} relayed={} reconnects={} restarts={} partitions_healed={} gave_up={} host_down_drops={}",
        m.counter(mar_net::netkeys::WINDOWS),
        m.counter(mar_net::netkeys::EVENTS_RELAYED),
        m.counter(mar_net::netkeys::RECONNECTS),
        m.counter(mar_net::netkeys::RESTARTS),
        m.counter(mar_net::netkeys::PARTITIONS_HEALED),
        m.counter(mar_net::netkeys::SUPERVISOR_GAVE_UP),
        m.counter(mar_net::netkeys::HOST_DOWN_DROPS),
    );
    platform.shutdown();
    Ok(if settled && failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
