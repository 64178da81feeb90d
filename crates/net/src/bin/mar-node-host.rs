//! The node-host binary: owns a slice of the world's nodes for a driver.
//!
//! Connects to the driver at `--socket`, claims `--host-id`, and serves
//! the lockstep protocol until the driver says shutdown, redialing and
//! resuming its session across connection outages. With `--wal-dir` the
//! node stores are file-backed: a SIGKILL loses only volatile state, and
//! the next invocation recovers from the write-ahead logs and rejoins the
//! running fleet. A SIGTERM is graceful: stable storage is flushed to the
//! durable watermark and the driver gets a final flush frame before the
//! process exits 143. Exit 0 means the driver said the run is over.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mar_net::{run_host, Endpoint, HostConfig, HostExit};

/// Set by the SIGTERM handler; a watcher thread copies it into the
/// config's shared flag (handlers must only touch static atomics).
static TERM_SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM_SIGNALLED.store(true, Ordering::Relaxed);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGTERM: i32 = 15;

fn install_sigterm_flag() -> Arc<AtomicBool> {
    // SAFETY: on_term is async-signal-safe (single relaxed atomic store),
    // and SIGTERM has no prior handler to clobber in this process.
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
    let flag = Arc::new(AtomicBool::new(false));
    let watched = flag.clone();
    std::thread::spawn(move || loop {
        if TERM_SIGNALLED.load(Ordering::Relaxed) {
            watched.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    flag
}

fn parse_args() -> Result<HostConfig, String> {
    let mut socket = String::new();
    let mut host_id: Option<u32> = None;
    let mut wal_dir: Option<PathBuf> = None;
    let mut io_timeout_secs: u64 = 30;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--socket" => socket = val("--socket")?,
            "--host-id" => {
                host_id = Some(
                    val("--host-id")?
                        .parse()
                        .map_err(|_| "bad --host-id".to_owned())?,
                );
            }
            "--wal-dir" => wal_dir = Some(PathBuf::from(val("--wal-dir")?)),
            "--io-timeout-secs" => {
                io_timeout_secs = val("--io-timeout-secs")?
                    .parse()
                    .map_err(|_| "bad --io-timeout-secs".to_owned())?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let host_id = host_id.ok_or("--host-id is required")?;
    if socket.is_empty() {
        return Err("--socket is required (unix:<path> or tcp:<addr>)".to_owned());
    }
    let endpoint = Endpoint::parse(&socket)?;
    let mut cfg = HostConfig::new(host_id, endpoint);
    cfg.wal_dir = wal_dir;
    cfg.io_timeout = Duration::from_secs(io_timeout_secs.max(1));
    Ok(cfg)
}

fn main() -> ExitCode {
    let mut cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mar-node-host: {e}");
            return ExitCode::FAILURE;
        }
    };
    cfg.term = Some(install_sigterm_flag());
    eprintln!(
        "mar-node-host: host {} connecting to {}",
        cfg.host_id, cfg.endpoint
    );
    match run_host(&cfg) {
        Ok(HostExit::Shutdown) => ExitCode::SUCCESS,
        // Only a run the driver declared over exits 0: a supervisor heals
        // every other exit, this graceful one included.
        Ok(HostExit::Terminated) => {
            eprintln!("mar-node-host: terminated gracefully (WAL flushed)");
            ExitCode::from(128 + SIGTERM as u8)
        }
        Ok(HostExit::Disconnected) => {
            eprintln!("mar-node-host: driver connection lost");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mar-node-host: {e}");
            ExitCode::FAILURE
        }
    }
}
