//! Byte-stream transports: real sockets and an in-process loopback.
//!
//! A [`Transport`] moves opaque frames between two peers. The production
//! implementations wrap TCP and Unix-domain sockets with the length
//! framing from [`mar_wire::frame`]; the [`Loopback`] pair moves the same
//! frames through in-process queues, giving tests a deterministic seam to
//! inject duplicated, truncated, or malformed frames without a kernel
//! socket in the loop.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use mar_simnet::SimRng;
use mar_wire::frame::{read_frame, write_frame};
use mar_wire::varint::get_uvarint;

/// Where a driver listens and hosts connect: a TCP address or a
/// Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, e.g. `127.0.0.1:7700`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `unix:<path>` or `tcp:<addr>`; a bare string with a colon
    /// and no scheme is taken as a TCP address.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_owned()));
        }
        if s.contains(':') {
            return Ok(Endpoint::Tcp(s.to_owned()));
        }
        Err(format!(
            "endpoint {s:?}: expected unix:<path> or tcp:<addr>"
        ))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One side of a framed, ordered, bidirectional byte stream.
///
/// `recv` blocks until a whole frame arrives; `Ok(None)` is a clean close.
/// Implementations deliver frames intact and in order on the happy path —
/// anything else (truncation, corruption, duplication) must surface to the
/// protocol layer as bytes it can reject, never as a crash.
pub trait Transport: Send {
    /// Sends one frame (length prefix + payload), flushed before return.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Receives one frame; `Ok(None)` means the peer closed cleanly
    /// between frames.
    ///
    /// With a read timeout installed ([`Transport::set_read_timeout`]), an
    /// expiry **between** frames surfaces as [`io::ErrorKind::WouldBlock`]
    /// or [`io::ErrorKind::TimedOut`] with no bytes consumed — the caller
    /// may poll again. Implementations must never lose framing to a
    /// timeout: once a frame has started, they block until it completes
    /// (or the connection is genuinely dead).
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>>;
    /// Installs a watchdog on `recv` (`None` blocks forever). The default
    /// is a no-op for transports that cannot time out.
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        let _ = d;
        Ok(())
    }
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        (**self).send(frame)
    }
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        (**self).recv()
    }
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        (**self).set_read_timeout(d)
    }
}

/// Whether `recv` failed because a read timeout expired **between** frames
/// (no bytes consumed, safe to retry) rather than the connection dying.
pub fn is_idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connected socket (TCP or Unix-domain), buffered both ways.
///
/// Two read timeouts guard `recv`: the **poll** timeout applies while
/// waiting for a frame to begin (letting a serve loop wake up to check a
/// shutdown flag), and the **watchdog** timeout applies once a frame has
/// started and its rest is still to be read from the socket (a hung peer
/// mid-frame is a dead peer, but a short poll tick must never tear a frame
/// that straddles it). A frame the read buffer already holds whole is read
/// without a system call, so it keeps the poll timeout.
pub struct SocketTransport {
    reader: SocketReader,
    writer: SocketWriter,
    poll: Option<Duration>,
    watchdog: Option<Duration>,
    applied: Option<Duration>,
}

enum SocketReader {
    Tcp(BufReader<TcpStream>),
    Unix(BufReader<UnixStream>),
}

enum SocketWriter {
    Tcp(BufWriter<TcpStream>),
    Unix(BufWriter<UnixStream>),
}

impl SocketTransport {
    /// Wraps a connected TCP stream.
    pub fn tcp(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let w = stream.try_clone()?;
        Ok(SocketTransport {
            reader: SocketReader::Tcp(BufReader::new(stream)),
            writer: SocketWriter::Tcp(BufWriter::new(w)),
            poll: None,
            watchdog: None,
            applied: None,
        })
    }

    /// Wraps a connected Unix-domain stream.
    pub fn unix(stream: UnixStream) -> io::Result<Self> {
        let w = stream.try_clone()?;
        Ok(SocketTransport {
            reader: SocketReader::Unix(BufReader::new(stream)),
            writer: SocketWriter::Unix(BufWriter::new(w)),
            poll: None,
            watchdog: None,
            applied: None,
        })
    }

    /// Connects to `ep` once.
    pub fn connect(ep: &Endpoint) -> io::Result<Self> {
        match ep {
            Endpoint::Tcp(addr) => SocketTransport::tcp(TcpStream::connect(addr)?),
            Endpoint::Unix(path) => SocketTransport::unix(UnixStream::connect(path)?),
        }
    }

    /// Applies a read timeout (a watchdog against a hung peer; `None`
    /// blocks forever). Sets both the between-frames poll and the
    /// mid-frame watchdog.
    pub fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.poll = d;
        self.watchdog = d;
        self.apply(d)
    }

    /// Applies a short between-frames poll interval without touching the
    /// mid-frame watchdog: `recv` returns [`io::ErrorKind::WouldBlock`]
    /// after `d` of idleness at a frame boundary, so a serve loop can
    /// check a shutdown flag and poll again.
    pub fn set_poll_interval(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.poll = d;
        self.apply(d)
    }

    fn apply(&mut self, d: Option<Duration>) -> io::Result<()> {
        if self.applied == d {
            return Ok(());
        }
        match &self.reader {
            SocketReader::Tcp(r) => r.get_ref().set_read_timeout(d)?,
            SocketReader::Unix(r) => r.get_ref().set_read_timeout(d)?,
        }
        self.applied = d;
        Ok(())
    }

    /// Waits (under the poll timeout) until at least one byte of the next
    /// frame is buffered, `Ok(false)` on clean EOF.
    fn wait_for_frame(&mut self) -> io::Result<bool> {
        self.apply(self.poll)?;
        loop {
            let res = match &mut self.reader {
                SocketReader::Tcp(r) => r.fill_buf().map(|b| !b.is_empty()),
                SocketReader::Unix(r) => r.fill_buf().map(|b| !b.is_empty()),
            };
            match res {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }

    /// Whether the read buffer already holds the whole next frame, length
    /// prefix and payload: reading it then makes no system call, so no
    /// timeout can tear it.
    fn frame_buffered(&self) -> bool {
        let buf = match &self.reader {
            SocketReader::Tcp(r) => r.buffer(),
            SocketReader::Unix(r) => r.buffer(),
        };
        let mut pos = 0;
        matches!(get_uvarint(buf, &mut pos), Ok(len) if len <= (buf.len() - pos) as u64)
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        match &mut self.writer {
            SocketWriter::Tcp(w) => {
                write_frame(w, frame)?;
                w.flush()
            }
            SocketWriter::Unix(w) => {
                write_frame(w, frame)?;
                w.flush()
            }
        }
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        // Idle at a frame boundary: no bytes consumed, the caller may
        // retry. Once the first byte is buffered the frame has begun — if
        // the rest is still to come, switch to the watchdog so a short poll
        // tick can't tear it.
        if !self.wait_for_frame()? {
            return Ok(None);
        }
        if !self.frame_buffered() {
            self.apply(self.watchdog)?;
        }
        match &mut self.reader {
            SocketReader::Tcp(r) => read_frame(r),
            SocketReader::Unix(r) => read_frame(r),
        }
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.poll = d;
        self.watchdog = d;
        self.apply(d)
    }
}

/// Reconnection schedule mirroring the platform's retry tunables: base
/// 20 ms doubling up to 2^6, each delay scaled by a `0.5 + [0,1)` jitter
/// factor drawn from a deterministic per-host stream (so a fleet of
/// restarting hosts does not thunder in lockstep).
pub fn retry_delay(attempt: u32, rng: &mut SimRng) -> Duration {
    const BASE_MS: u64 = 20;
    const CAP_EXP: u32 = 6;
    let backoff = BASE_MS << attempt.min(CAP_EXP);
    let jitter = 0.5 + rng.f64();
    Duration::from_millis((backoff as f64 * jitter) as u64)
}

/// Connects to `ep`, retrying with [`retry_delay`] until `attempts` tries
/// have failed.
pub fn connect_with_retry(
    ep: &Endpoint,
    attempts: u32,
    rng: &mut SimRng,
) -> io::Result<SocketTransport> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match SocketTransport::connect(ep) {
            Ok(t) => return Ok(t),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(retry_delay(attempt, rng));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect: no attempts made")))
}

/// A bound listening socket (TCP or Unix-domain).
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (unlinks a stale socket file on bind).
    Unix(UnixListener),
}

impl Listener {
    /// Binds `ep`. For a Unix endpoint a stale socket file from a previous
    /// run is removed first.
    pub fn bind(ep: &Endpoint) -> io::Result<Self> {
        match ep {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// Switches the accept queue between blocking and polling mode.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    /// Accepts one pending connection, `Ok(None)` if none is waiting (only
    /// in non-blocking mode).
    pub fn accept(&self) -> io::Result<Option<SocketTransport>> {
        let res = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| SocketTransport::tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| SocketTransport::unix(s)),
        };
        match res {
            Ok(t) => t.map(Some),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// One end of an in-process transport pair ([`Loopback::pair`]): frames
/// travel through queues instead of a socket, with identical `Transport`
/// semantics. Because `send` takes arbitrary bytes, a test injects faults
/// simply by sending what a broken peer would have sent — a frame twice
/// (duplicate delivery), garbage bytes (malformed message), or by dropping
/// its end mid-protocol (clean close).
pub struct Loopback {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    timeout: Option<Duration>,
}

impl Loopback {
    /// A connected pair of loopback ends.
    pub fn pair() -> (Loopback, Loopback) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (
            Loopback {
                tx: atx,
                rx: arx,
                timeout: None,
            },
            Loopback {
                tx: btx,
                rx: brx,
                timeout: None,
            },
        )
    }
}

impl Transport for Loopback {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "loopback peer gone"))
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.timeout {
            None => match self.rx.recv() {
                Ok(f) => Ok(Some(f)),
                Err(mpsc::RecvError) => Ok(None),
            },
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(f) => Ok(Some(f)),
                Err(mpsc::RecvTimeoutError::Disconnected) => Ok(None),
                // Frames are atomic in the queue, so a timeout is always
                // at a frame boundary — retryable, like the socket path.
                Err(mpsc::RecvTimeoutError::Timeout) => Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "loopback recv timed out",
                )),
            },
        }
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.timeout = d;
        Ok(())
    }
}

/// Where a driver's host connections come from: a polled source of fresh
/// transports. Production uses a bound [`Listener`]; chaos tests hand the
/// driver loopback ends through a [`ChannelAcceptor`], fault layer
/// included, without a kernel socket in the loop.
pub trait Accept: Send {
    /// One pending connection if any is waiting (never blocks).
    fn poll(&mut self) -> io::Result<Option<Box<dyn Transport>>>;
}

impl Accept for Listener {
    fn poll(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        Ok(self.accept()?.map(|t| Box::new(t) as Box<dyn Transport>))
    }
}

/// An [`Accept`] fed by an in-process channel: whatever transports are
/// sent into the paired [`mpsc::Sender`] come out as accepted connections.
pub struct ChannelAcceptor {
    rx: mpsc::Receiver<Box<dyn Transport>>,
}

impl ChannelAcceptor {
    /// A connected (sender, acceptor) pair.
    pub fn new() -> (mpsc::Sender<Box<dyn Transport>>, ChannelAcceptor) {
        let (tx, rx) = mpsc::channel();
        (tx, ChannelAcceptor { rx })
    }
}

impl Accept for ChannelAcceptor {
    fn poll(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        match self.rx.try_recv() {
            Ok(t) => Ok(Some(t)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7000"),
            Ok(Endpoint::Tcp("127.0.0.1:7000".to_owned()))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7000"),
            Ok(Endpoint::Tcp("127.0.0.1:7000".to_owned()))
        );
        assert!(Endpoint::parse("florp").is_err());
    }

    #[test]
    fn retry_delays_back_off_and_cap() {
        let mut rng = SimRng::seed_from(7);
        let d0 = retry_delay(0, &mut rng);
        assert!(d0 >= Duration::from_millis(10) && d0 <= Duration::from_millis(30));
        let d9 = retry_delay(9, &mut rng);
        // Capped at 20ms << 6 = 1280ms, jittered to at most 1.5x.
        assert!(d9 <= Duration::from_millis(1920), "{d9:?}");
    }

    #[test]
    fn loopback_moves_frames_in_order() {
        let (mut a, mut b) = Loopback::pair();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"one");
        assert_eq!(b.recv().unwrap().unwrap(), b"two");
        drop(a);
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn tcp_roundtrip_with_framing() {
        let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = match &listener {
            Listener::Tcp(l) => l.local_addr().unwrap(),
            Listener::Unix(_) => unreachable!(),
        };
        let join = std::thread::spawn(move || {
            let mut client = SocketTransport::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
            client.send(&[0xAA; 5000]).unwrap();
            assert_eq!(client.recv().unwrap().unwrap(), b"pong");
        });
        let mut server = listener.accept().unwrap().unwrap();
        assert_eq!(server.recv().unwrap().unwrap(), vec![0xAA; 5000]);
        server.send(b"pong").unwrap();
        join.join().unwrap();
    }

    const POLL: Duration = Duration::from_millis(20);
    const WATCHDOG: Duration = Duration::from_secs(2);

    /// A host-shaped receiver (poll tick shorter than the watchdog) and the
    /// raw socket its peer writes to.
    fn polled_pair() -> (SocketTransport, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let mut t = SocketTransport::unix(ours).unwrap();
        t.set_read_timeout(Some(WATCHDOG)).unwrap();
        t.set_poll_interval(Some(POLL)).unwrap();
        (t, theirs)
    }

    #[test]
    fn a_buffered_frame_is_read_under_the_poll_timeout() {
        let (mut t, mut peer) = polled_pair();
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0x5A; 300]).unwrap();
        peer.write_all(&wire).unwrap();
        assert_eq!(t.recv().unwrap().unwrap(), vec![0x5A; 300]);
        assert_eq!(t.applied, Some(POLL), "no timeout switch for a whole frame");
    }

    #[test]
    fn a_frame_split_across_poll_ticks_arrives_whole() {
        let (mut t, mut peer) = polled_pair();
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let (head, tail) = wire.split_at(wire.len() / 2);
        peer.write_all(head).unwrap();
        let tail = tail.to_vec();
        let late = std::thread::spawn(move || {
            // Five poll ticks: only the watchdog may govern this wait.
            std::thread::sleep(5 * POLL);
            peer.write_all(&tail).unwrap();
            peer
        });
        assert_eq!(t.recv().unwrap().unwrap(), payload);
        assert_eq!(t.applied, Some(WATCHDOG));
        let _peer = late.join().unwrap();
        // Idle at the next boundary, the poll tick is back.
        assert!(is_idle_timeout(&t.recv().unwrap_err()));
        assert_eq!(t.applied, Some(POLL));
    }
}
