//! The fleet supervisor binary: one command that runs a whole distributed
//! deployment — driver plus N node hosts — restarts crashed hosts with
//! jittered backoff under a budget, and optionally injects scripted chaos:
//! `--kill <window>:<host>`, `--term <window>:<host>` and
//! `--pause <window>:<host>:<thaw_ms>` hit a host after the driver's
//! `<window>`-th lockstep window, so the same script is the same run.
//!
//! ```text
//! mar-fleet --socket unix:/tmp/fleet.sock --hosts 2 --scenario travel \
//!     --agents 6 --wal-root /tmp/fleet-wal --kill 60:1
//! ```
//!
//! Driver stdout passes through (the `report …` / `money …` /
//! `settled=…` lines land on mar-fleet's stdout), and the exit code is
//! the driver's — nonzero when the run settled partially because a host
//! exhausted its restart budget, and nonzero when a scripted fault never
//! landed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mar_net::supervisor::{ChaosAction, ChaosEvent, Fleet, FleetConfig};

struct Args {
    socket: String,
    hosts: u32,
    scenario: String,
    seed: u64,
    agents: u32,
    deadline_secs: u64,
    io_timeout_secs: u64,
    down_grace_secs: u64,
    wal_root: Option<PathBuf>,
    restart_budget: u32,
    fleet_deadline_secs: u64,
    chaos: Vec<ChaosEvent>,
    dump: Option<String>,
}

/// Parses `<window>:<host>` (`--kill`, `--term`) or
/// `<window>:<host>:<thaw_ms>` (`--pause`); anything else is an error.
fn parse_chaos(flag: &str, spec: &str) -> Result<ChaosEvent, String> {
    let fields: Vec<&str> = spec.split(':').collect();
    let action = match (flag, &fields[..]) {
        ("--kill", [_, _]) => ChaosAction::Kill,
        ("--term", [_, _]) => ChaosAction::Term,
        ("--pause", [_, _, thaw_ms]) => ChaosAction::Pause {
            thaw_after: Duration::from_millis(parse(thaw_ms)?),
        },
        ("--pause", _) => return Err(format!("{flag} {spec:?}: want <window>:<host>:<thaw_ms>")),
        _ => return Err(format!("{flag} {spec:?}: want <window>:<host>")),
    };
    Ok(ChaosEvent {
        at_window: parse(fields[0])?,
        host: parse(fields[1])?,
        action,
    })
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        socket: String::new(),
        hosts: 2,
        scenario: "travel".to_owned(),
        seed: 11,
        agents: 4,
        deadline_secs: 600,
        io_timeout_secs: 30,
        down_grace_secs: 20,
        wal_root: None,
        restart_budget: 3,
        fleet_deadline_secs: 120,
        chaos: Vec::new(),
        dump: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--socket" => args.socket = val("--socket")?,
            "--hosts" => args.hosts = parse(&val("--hosts")?)?,
            "--scenario" => args.scenario = val("--scenario")?,
            "--seed" => args.seed = parse(&val("--seed")?)?,
            "--agents" => args.agents = parse(&val("--agents")?)?,
            "--deadline-secs" => args.deadline_secs = parse(&val("--deadline-secs")?)?,
            "--io-timeout-secs" => args.io_timeout_secs = parse(&val("--io-timeout-secs")?)?,
            "--down-grace-secs" => args.down_grace_secs = parse(&val("--down-grace-secs")?)?,
            "--wal-root" => args.wal_root = Some(PathBuf::from(val("--wal-root")?)),
            "--restart-budget" => args.restart_budget = parse(&val("--restart-budget")?)?,
            "--fleet-deadline-secs" => {
                args.fleet_deadline_secs = parse(&val("--fleet-deadline-secs")?)?;
            }
            "--kill" | "--pause" | "--term" => args.chaos.push(parse_chaos(&flag, &val(&flag)?)?),
            "--dump" => args.dump = Some(val("--dump")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.socket.is_empty() {
        return Err("--socket is required (unix:<path> or tcp:<addr>)".to_owned());
    }
    if let Some(ev) = args.chaos.iter().find(|ev| ev.host >= args.hosts) {
        return Err(format!(
            "chaos names host {} but the fleet has hosts 0..{}",
            ev.host, args.hosts
        ));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// The driver and host binaries live next to this one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = me
        .parent()
        .ok_or_else(|| "cannot locate sibling binaries".to_owned())?;
    let p = dir.join(name);
    if p.exists() {
        Ok(p)
    } else {
        Err(format!("{} not found next to mar-fleet", p.display()))
    }
}

/// `--flag value` pairs as an argument vector.
fn argv<const N: usize>(pairs: [(&str, String); N]) -> Vec<String> {
    pairs
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_owned(), value])
        .collect()
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let mut cfg = FleetConfig::new(
        sibling("mar-driver")?,
        sibling("mar-node-host")?,
        args.hosts,
    );
    cfg.driver_args = argv([
        ("--socket", args.socket.clone()),
        ("--hosts", args.hosts.to_string()),
        ("--scenario", args.scenario),
        ("--seed", args.seed.to_string()),
        ("--agents", args.agents.to_string()),
        ("--deadline-secs", args.deadline_secs.to_string()),
        ("--io-timeout-secs", args.io_timeout_secs.to_string()),
        ("--down-grace-secs", args.down_grace_secs.to_string()),
    ]);
    if let Some(dump) = args.dump {
        cfg.driver_args.extend(argv([("--dump", dump)]));
    }
    cfg.host_args = argv([
        ("--socket", args.socket),
        ("--host-id", "{host_id}".to_owned()),
        ("--io-timeout-secs", args.io_timeout_secs.to_string()),
    ]);
    if let Some(root) = &args.wal_root {
        std::fs::create_dir_all(root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let dir = root.join("host{host_id}").display().to_string();
        cfg.host_args.extend(argv([("--wal-dir", dir)]));
    }
    cfg.restart.budget = args.restart_budget;
    cfg.chaos = args.chaos;
    cfg.deadline = Duration::from_secs(args.fleet_deadline_secs);
    cfg.echo = true;
    let summary = Fleet::new(cfg).run().map_err(|e| e.to_string())?;
    eprintln!(
        "mar-fleet: driver exit={:?} restarts={:?} gave_up={:?} unfired={:?} mttr_ms={:?} wal_replayed_bytes={} elapsed={:?}",
        summary.driver_code,
        summary.restarts,
        summary.gave_up,
        summary.unfired,
        summary.mttr_ms(),
        summary.wal_replayed_bytes(),
        summary.elapsed
    );
    Ok(match summary.driver_code {
        Some(0) if summary.success() => ExitCode::SUCCESS,
        Some(c) => ExitCode::from(c.clamp(1, 255) as u8),
        None => ExitCode::FAILURE,
    })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("mar-fleet: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_window: u64, host: u32, action: ChaosAction) -> Result<ChaosEvent, String> {
        Ok(ChaosEvent {
            at_window,
            host,
            action,
        })
    }

    #[test]
    fn chaos_specs_parse_or_are_refused() {
        assert_eq!(parse_chaos("--kill", "60:1"), ev(60, 1, ChaosAction::Kill));
        assert_eq!(parse_chaos("--term", "0:0"), ev(0, 0, ChaosAction::Term));
        let thaw_after = Duration::from_millis(350);
        assert_eq!(
            parse_chaos("--pause", "40:1:350"),
            ev(40, 1, ChaosAction::Pause { thaw_after })
        );
        for (flag, spec) in [
            ("--pause", "40:1"), // a pause with no thaw
            ("--pause", "40:1:350:2"),
            ("--kill", "60:1:350"), // a kill has nothing to thaw
            ("--term", "60"),
            ("--kill", ""),
            ("--kill", "sixty:1"),
            ("--kill", "60:-1"),
            ("--kill", "60:4294967296"),
            ("--pause", "40:1:soon"),
        ] {
            assert!(parse_chaos(flag, spec).is_err(), "{flag} {spec}");
        }
    }

    #[test]
    fn a_script_that_names_no_host_of_the_fleet_is_refused() {
        let argv = |extra: &[&str]| {
            ["--socket", "unix:/tmp/x", "--kill", "60:2"]
                .iter()
                .chain(extra)
                .map(|s| (*s).to_owned())
                .collect::<Vec<_>>()
        };
        assert!(parse_args(argv(&[])).is_err(), "host 2 of the default 2");
        assert!(parse_args(argv(&["--hosts", "3"])).is_ok());
        assert!(parse_args(argv(&["--pause", "40:1"])).is_err());
    }
}
