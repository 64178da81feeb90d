//! The fleet supervisor: spawn the driver and N node-host processes,
//! watch them, restart crashed hosts, and (optionally) be the one doing
//! the crashing.
//!
//! [`Fleet::run`] owns the whole lifecycle of one distributed run:
//!
//! 1. spawn the driver, then every host, with piped output;
//! 2. watch children (`try_wait` polling) and host stderr for the
//!    `joined host=… wal_replayed_bytes=…` lines the hosts emit after
//!    each handshake — the supervisor's liveness signal and the source of
//!    the MTTR and WAL-replay recovery-cost numbers;
//! 3. restart a host that exits nonzero — 0 is what a host exits with when
//!    the driver declared the run over — with the jittered exponential
//!    backoff of [`crate::transport::retry_delay`], up to a per-host
//!    [`RestartPolicy::budget`];
//! 4. execute the fault script ([`ChaosEvent`]s) — SIGKILL, SIGSTOP with a
//!    timed SIGCONT, SIGTERM against specific hosts, each after a given
//!    lockstep window: the driver is started with `--hold-at-window K` for
//!    every scripted K, prints `hold K` between windows K and K+1 with
//!    every host idle, and blocks on stdin until the supervisor has struck
//!    (and reaped what it killed) — so the same script is the same run;
//! 5. when a host exhausts its budget, stop restarting it and let the
//!    driver degrade: the driver gives up on the host after its own
//!    `down_grace`, drains what settled, and exits nonzero with partial
//!    results. The fleet's exit status is the driver's.
//!
//! Everything the caller needs afterwards is in [`FleetSummary`]: the
//! driver's exit code and captured stdout (reports, money audit, counter
//! dumps), per-host restart counts, which hosts were given up on, and the
//! recovery-cost observations (per-restart MTTR, cumulative WAL bytes
//! replayed).

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mar_simnet::SimRng;

use crate::transport::retry_delay;

/// How hard the supervisor tries to keep a host alive.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Restarts allowed per host before the supervisor gives up on it.
    pub budget: u32,
}

/// Seed of the jittered restart-backoff stream, shared across hosts.
const BACKOFF_SEED: u64 = 0x5AFE;

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy { budget: 3 }
    }
}

/// One scripted fault against a running host process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// SIGKILL: instant death, volatile state lost, WAL tail possibly
    /// torn — the crash the paper's recovery machinery exists for.
    Kill,
    /// SIGSTOP, then SIGCONT `thaw_after` later: the process freezes
    /// mid-protocol — a network partition as seen from every peer. The
    /// thaw is wall clock by nature: whether the peers absorb the outage
    /// in place or their watchdogs force a disconnect and a session
    /// resume is defined against `io_timeout`.
    Pause {
        /// How long the host stays frozen.
        thaw_after: Duration,
    },
    /// SIGTERM: graceful shutdown — the host flushes its WAL and sends a
    /// final flush frame before exiting.
    Term,
}

/// A scripted fault at a position in the lockstep protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// The driver's window count (`net.windows`) the fault lands after:
    /// the driver holds there, every host idle, until the supervisor has
    /// struck — and, for a kill or a term, reaped the host.
    pub at_window: u64,
    /// Which host to hit.
    pub host: u32,
    /// What to do to it.
    pub action: ChaosAction,
}

/// Everything needed to spawn and supervise one distributed run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The driver binary.
    pub driver_bin: PathBuf,
    /// Arguments for the driver.
    pub driver_args: Vec<String>,
    /// The node-host binary.
    pub host_bin: PathBuf,
    /// Arguments for each host; every `{host_id}` substring is replaced
    /// by the host's id.
    pub host_args: Vec<String>,
    /// How many hosts to spawn.
    pub hosts: u32,
    /// Restart behaviour.
    pub restart: RestartPolicy,
    /// Scripted faults; events of one window apply in script order.
    pub chaos: Vec<ChaosEvent>,
    /// Wall-clock backstop: if the driver has not exited by then the
    /// whole fleet is killed and `run` fails.
    pub deadline: Duration,
    /// Echo child output to the supervisor's own stdout/stderr (on for
    /// the `mar-fleet` binary, off for quiet tests).
    pub echo: bool,
}

impl FleetConfig {
    /// A config with default policy, no chaos, and a 120 s deadline.
    pub fn new(driver_bin: PathBuf, host_bin: PathBuf, hosts: u32) -> Self {
        FleetConfig {
            driver_bin,
            driver_args: Vec::new(),
            host_bin,
            host_args: Vec::new(),
            hosts,
            restart: RestartPolicy::default(),
            chaos: Vec::new(),
            deadline: Duration::from_secs(120),
            echo: false,
        }
    }
}

/// One observed host recovery: from noticing the death to the host's
/// `joined` line after its restart.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// The host that recovered.
    pub host: u32,
    /// Death-to-rejoin wall-clock time in milliseconds (the MTTR sample).
    pub mttr_ms: f64,
    /// The virtual time the driver resumed the host at.
    pub at_us: u64,
    /// WAL bytes the restarted process replayed to rebuild its state.
    pub wal_replayed_bytes: u64,
}

/// What one supervised run amounted to.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// The driver's exit code (`None` if it died to a signal).
    pub driver_code: Option<i32>,
    /// The driver's captured stdout lines (reports, money, counters).
    pub driver_stdout: Vec<String>,
    /// Restarts performed, per host id.
    pub restarts: BTreeMap<u32, u32>,
    /// Hosts whose budget ran out (the supervisor stopped restarting).
    pub gave_up: Vec<u32>,
    /// Every observed recovery, in order.
    pub recoveries: Vec<Recovery>,
    /// Scripted faults that never landed: the run ended before their
    /// window, or their host was not running when the driver held there.
    pub unfired: Vec<ChaosEvent>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl FleetSummary {
    /// Whether the run fully succeeded: driver exited 0, no host was
    /// abandoned, and every scripted fault landed.
    pub fn success(&self) -> bool {
        self.driver_code == Some(0) && self.gave_up.is_empty() && self.unfired.is_empty()
    }

    /// Mean time to recovery over all observed restarts, milliseconds.
    pub fn mttr_ms(&self) -> Option<f64> {
        if self.recoveries.is_empty() {
            return None;
        }
        Some(self.recoveries.iter().map(|r| r.mttr_ms).sum::<f64>() / self.recoveries.len() as f64)
    }

    /// Total WAL bytes replayed across all recoveries.
    pub fn wal_replayed_bytes(&self) -> u64 {
        self.recoveries.iter().map(|r| r.wal_replayed_bytes).sum()
    }
}

/// A host's `joined …` stderr line.
struct Joined {
    host: u32,
    at: Instant,
    at_us: u64,
    wal_replayed_bytes: u64,
}

#[derive(Default)]
struct HostProc {
    child: Option<Child>,
    restarts: u32,
    gave_up: bool,
    /// When the current outage was noticed (child exit observed).
    died_at: Option<Instant>,
    /// When the backoff pause ends and the respawn happens.
    respawn_at: Option<Instant>,
    /// When a scripted pause ends and the host gets its SIGCONT.
    thaw_at: Option<Instant>,
}

/// The supervisor. See the module docs for the lifecycle.
pub struct Fleet {
    cfg: FleetConfig,
}

impl Fleet {
    /// A supervisor for `cfg`.
    pub fn new(cfg: FleetConfig) -> Self {
        Fleet { cfg }
    }

    /// Spawns and supervises the whole run to completion.
    ///
    /// # Errors
    ///
    /// Spawn failures and the wall-clock deadline expiring (children are
    /// killed before returning). A driver that exits nonzero is **not**
    /// an error here — inspect [`FleetSummary::driver_code`].
    pub fn run(&mut self) -> io::Result<FleetSummary> {
        let start = Instant::now();
        let (note_tx, note_rx) = mpsc::channel::<Joined>();
        let (out_tx, out_rx) = mpsc::channel::<String>();
        let echo = self.cfg.echo;
        // Reader threads of every child's pipes; each ends at EOF.
        let mut readers: Vec<JoinHandle<()>> = Vec::new();

        // Events not yet fired. The driver holds at each one's window.
        let mut script = self.cfg.chaos.clone();
        let mut driver = Command::new(&self.cfg.driver_bin)
            .args(&self.cfg.driver_args)
            .args(
                script
                    .iter()
                    .flat_map(|ev| ["--hold-at-window".to_owned(), ev.at_window.to_string()]),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut driver_stdin = driver.stdin.take();
        readers.extend(driver.stdout.take().map(|pipe| {
            read_lines(pipe, move |line| {
                if echo {
                    println!("{line}");
                }
                let _ = out_tx.send(line);
            })
        }));
        readers.extend(driver.stderr.take().map(|pipe| {
            read_lines(pipe, move |line| {
                if echo {
                    eprintln!("{line}");
                }
            })
        }));

        let mut hosts: Vec<HostProc> = Vec::new();
        for h in 0..self.cfg.hosts {
            let child = Some(self.spawn_host(h, &note_tx, &mut readers)?);
            hosts.push(HostProc {
                child,
                ..HostProc::default()
            });
        }

        // While the driver holds: the hosts whose exit releases it.
        let mut held: Option<Vec<usize>> = None;
        let mut backoff_rng = SimRng::seed_from(BACKOFF_SEED);
        let mut recoveries: Vec<Recovery> = Vec::new();
        let mut driver_stdout: Vec<String> = Vec::new();
        let deadline = start + self.cfg.deadline;

        let driver_status = loop {
            if let Some(status) = driver.try_wait()? {
                break Some(status);
            }
            if Instant::now() > deadline {
                break None;
            }
            // Driver output; a `hold K` line is where the script strikes.
            for line in out_rx.try_iter() {
                match line.strip_prefix("hold ").and_then(|k| k.parse().ok()) {
                    Some(window) => held = Some(self.strike(window, &mut script, &mut hosts)),
                    None => driver_stdout.push(line),
                }
            }
            // Child watch: perform due restarts and thaws, notice deaths.
            for (h, slot) in hosts.iter_mut().enumerate() {
                let now = Instant::now();
                if slot.respawn_at.is_some_and(|at| now >= at) {
                    slot.respawn_at = None;
                    slot.restarts += 1;
                    if echo {
                        eprintln!(
                            "mar-fleet: restarting host {h} (restart {} of {})",
                            slot.restarts, self.cfg.restart.budget
                        );
                    }
                    slot.child = Some(self.spawn_host(h as u32, &note_tx, &mut readers)?);
                }
                let Some(child) = &mut slot.child else {
                    continue;
                };
                if slot.thaw_at.is_some_and(|at| now >= at) {
                    slot.thaw_at = None;
                    signal_pid(child.id(), "-CONT");
                }
                let Some(status) = child.try_wait()? else {
                    continue;
                };
                slot.child = None;
                slot.thaw_at = None;
                if status.success() {
                    // The driver said shutdown: this host's run is over.
                    continue;
                }
                slot.died_at = Some(now);
                if slot.restarts >= self.cfg.restart.budget {
                    slot.gave_up = true;
                    if echo {
                        eprintln!(
                            "mar-fleet: host {h} exhausted its restart budget ({}); degrading",
                            self.cfg.restart.budget
                        );
                    }
                } else {
                    slot.respawn_at = Some(now + retry_delay(slot.restarts, &mut backoff_rng));
                }
            }
            // Every host the script killed is reaped: one line releases
            // the driver into a fleet that is deterministically short.
            if held
                .as_ref()
                .is_some_and(|dying| dying.iter().all(|&h| hosts[h].child.is_none()))
            {
                held = None;
                if let Some(stdin) = &mut driver_stdin {
                    let _ = stdin.write_all(b"\n");
                }
            }
            note_recoveries(&note_rx, &mut hosts, &mut recoveries);
            std::thread::sleep(Duration::from_millis(5));
        };

        // Wind down: whatever is still running dies now.
        for hp in &mut hosts {
            if let Some(child) = &mut hp.child {
                // A paused child cannot die of SIGKILL until it runs again.
                signal_pid(child.id(), "-CONT");
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        if driver_status.is_none() {
            let _ = driver.kill();
            let _ = driver.wait();
        }
        // Every child is reaped, so every reader is at EOF: after the joins
        // no late `report …` or `joined …` line can still be in flight.
        for reader in readers {
            let _ = reader.join();
        }
        driver_stdout.extend(out_rx.try_iter());
        note_recoveries(&note_rx, &mut hosts, &mut recoveries);

        let status = driver_status.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "fleet deadline expired before the driver exited",
            )
        })?;
        Ok(FleetSummary {
            driver_code: status.code(),
            driver_stdout,
            restarts: (0..).zip(&hosts).map(|(h, hp)| (h, hp.restarts)).collect(),
            gave_up: (0..)
                .zip(&hosts)
                .filter_map(|(h, hp)| hp.gave_up.then_some(h))
                .collect(),
            recoveries,
            unfired: script,
            elapsed: start.elapsed(),
        })
    }

    fn spawn_host(
        &self,
        host_id: u32,
        notes: &mpsc::Sender<Joined>,
        readers: &mut Vec<JoinHandle<()>>,
    ) -> io::Result<Child> {
        let args: Vec<String> = self
            .cfg
            .host_args
            .iter()
            .map(|a| a.replace("{host_id}", &host_id.to_string()))
            .collect();
        let mut child = Command::new(&self.cfg.host_bin)
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        // The `joined` lines are the supervisor's liveness signal, stamped
        // on arrival: the MTTR clock's rejoin edge.
        let (notes, echo) = (notes.clone(), self.cfg.echo);
        readers.extend(child.stderr.take().map(|pipe| {
            read_lines(pipe, move |line| {
                if echo {
                    eprintln!("{line}");
                }
                if let Some((at_us, wal_replayed_bytes)) = parse_joined(&line) {
                    let _ = notes.send(Joined {
                        host: host_id,
                        at: Instant::now(),
                        at_us,
                        wal_replayed_bytes,
                    });
                }
            })
        }));
        Ok(child)
    }

    /// The driver holds after `window`: applies every event scripted for
    /// it, in script order, and returns the hosts whose exit the release
    /// waits for. An event that does not land — its host is not running —
    /// stays in `script`.
    fn strike(
        &self,
        window: u64,
        script: &mut Vec<ChaosEvent>,
        hosts: &mut [HostProc],
    ) -> Vec<usize> {
        let mut dying = Vec::new();
        script.retain(|ev| {
            if ev.at_window != window {
                return true;
            }
            let h = ev.host as usize;
            let Some(hp) = hosts.get_mut(h) else {
                return true;
            };
            let Some(child) = &mut hp.child else {
                return true;
            };
            if self.cfg.echo {
                eprintln!(
                    "mar-fleet: chaos {:?} host {h} after window {window}",
                    ev.action
                );
            }
            let landed = match ev.action {
                ChaosAction::Kill => child.kill().is_ok(),
                ChaosAction::Term => signal_pid(child.id(), "-TERM"),
                ChaosAction::Pause { thaw_after } => {
                    hp.thaw_at = Some(Instant::now() + thaw_after);
                    signal_pid(child.id(), "-STOP")
                }
            };
            if landed && !matches!(ev.action, ChaosAction::Pause { .. }) {
                dying.push(h);
            }
            !landed
        });
        dying
    }
}

/// Turns the hosts' `joined` lines into recovery observations: a join that
/// follows a noticed death closes that outage.
fn note_recoveries(
    notes: &mpsc::Receiver<Joined>,
    hosts: &mut [HostProc],
    recoveries: &mut Vec<Recovery>,
) {
    for joined in notes.try_iter() {
        if let Some(died) = hosts
            .get_mut(joined.host as usize)
            .and_then(|hp| hp.died_at.take())
        {
            recoveries.push(Recovery {
                host: joined.host,
                mttr_ms: joined.at.duration_since(died).as_secs_f64() * 1000.0,
                at_us: joined.at_us,
                wal_replayed_bytes: joined.wal_replayed_bytes,
            });
        }
    }
}

/// Sends a signal via `/bin/kill` — keeps this crate free of `unsafe`
/// while still reaching SIGSTOP/SIGCONT/SIGTERM.
fn signal_pid(pid: u32, sig: &str) -> bool {
    Command::new("/bin/kill")
        .arg(sig)
        .arg(pid.to_string())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Reads a child's pipe line by line on a thread of its own; the thread
/// ends at EOF, which comes once the child is reaped.
fn read_lines(
    pipe: impl io::Read + Send + 'static,
    each: impl FnMut(String) + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        BufReader::new(pipe)
            .lines()
            .map_while(Result::ok)
            .for_each(each);
    })
}

/// Extracts `(at_us, wal_replayed_bytes)` from a host `joined` stderr
/// line; `None` for any other line.
fn parse_joined(line: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        line.split(key)
            .nth(1)?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    };
    if !line.contains("joined host=") {
        return None;
    }
    Some((field("at_us=")?, field("wal_replayed_bytes=")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joined_lines_parse() {
        assert_eq!(
            parse_joined(
                "mar-node-host: joined host=1 resume=false at_us=500 wal_replayed_bytes=4096"
            ),
            Some((500, 4096))
        );
        assert_eq!(parse_joined("mar-node-host: serving"), None);
    }

    /// The wind-down joins the reader threads before the final drain: a
    /// driver that prints and exits at once loses no line, ever.
    #[test]
    fn no_driver_line_is_lost_at_exit() {
        let mut cfg = FleetConfig::new("/bin/sh".into(), "/bin/false".into(), 0);
        cfg.driver_args = vec![
            "-c".into(),
            "printf 'report 1\nmoney USD=1\nsettled=true\n'".into(),
        ];
        for round in 0..200 {
            let summary = Fleet::new(cfg.clone()).run().expect("sh runs");
            assert_eq!(
                summary.driver_stdout,
                ["report 1", "money USD=1", "settled=true"],
                "round {round}"
            );
            assert!(summary.success());
        }
    }
}
