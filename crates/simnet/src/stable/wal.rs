//! Log-structured stable backend with group commit: a node's log is a
//! sequence of segments, kept few by a cleaner.
//!
//! Mutations append checksummed, length-framed records to the frames of the
//! open batch. Nothing in it is durable until the next
//! [`commit`](super::StableBackend::commit) barrier — the kernel issues one
//! per event, so a step transaction's many small writes become one
//! group-committed batch — which appends the batch to the *head*, the
//! newest segment. Recovery replays the segments in generation order and
//! discards any torn (partially framed) tail of the head, exactly like a
//! disk log whose final sector write was interrupted.
//!
//! **Segments and the cleaner** (log-structured storage as in Sprite LFS,
//! Rosenblum & Ousterhout, SOSP 1991). A commit closes the head once the
//! barriers have written at least `max(checkpoint_bytes, L)` to it, where
//! `L` is the put-frame bytes of the view — what cleaning every key would
//! copy — and creates an empty one: a roll rewrites nothing. Once two
//! segments are closed, the cleaner takes the oldest. It appends to the
//! head a put frame for every key whose newest frame lives in that segment,
//! the value read from the view (nothing is pending after a barrier, so the
//! view is the committed state), and the segment is unlinked at the next
//! [`sync`](super::StableBackend::sync). What died since the segment was
//! written — an agent record at its next hop — is not copied. The copies
//! do not count toward the roll size: counted, they filled the head sooner,
//! the next roll came sooner, and it found more of the oldest segment
//! live. A node holds at most [`MAX_LIVE_SEGMENTS`] segments.
//!
//! Cleaning is cheap only when the segment cleaned is mostly dead. Under a
//! fixed segment size smaller than the live set — agents queued at a node
//! for longer than a segment lasts — every roll re-copied nearly all of it.
//! Sized to `L`, a segment lasts as long as it takes the log to write the
//! live set once more, and the rule bounds the cleaner: a clean runs in the
//! same commit as the roll that closed a segment, it copies at most `L`,
//! and that segment took at least `L` of barriers. So the cleaner never
//! writes more than the log ([`BackendStats::checkpoint_bytes`] ≤
//! [`BackendStats::wal_bytes`]), a write amplification of at most 2. The
//! one clean without a roll is the redo of a clean whose unlink a power
//! loss undid. `checkpoint_bytes` is the floor, which keeps a small live
//! set from rolling at every barrier.
//!
//! Delete frames are never copied. The cleaner takes segments oldest first,
//! so a delete matters only while a segment older than it could still hold
//! a put of its key, and that segment is gone for good — its unlink on the
//! device — before the next clean starts: no clean and no roll runs while
//! an unlink or a create awaits the directory's `fsync`.
//!
//! File-backed, every segment is a file `node-<id>.<gen>.seg`, and a
//! barrier and a device flush are separate steps. A commit `write`s the
//! batch to the head file at once, so a killed process loses no committed
//! frame (the bytes are in the kernel's page cache). What makes them
//! survive the machine is [`sync`](super::StableBackend::sync), one call for
//! everything since the previous one, in this order:
//!
//! 1. every segment file with unflushed bytes is `fsync`ed — the head, with
//!    the cleaner's copies in it ([`BackendStats::syncs`]);
//! 2. then the cleaned segment is unlinked: before its copies are on the
//!    device, a power loss would lose both;
//! 3. then the directory is `fsync`ed once, for the unlink and any segment
//!    created since ([`BackendStats::dir_syncs`]).
//!
//! The simulation kernel syncs before anything can observe a barrier (the
//! output-commit rule of [`crate::World`]). A roll `fsync`s the closing
//! head before the new one takes a byte, so only the head can end torn,
//! even on a file system that persists the new file before the old one's
//! tail. The in-memory backend runs the same steps on buffers and keeps
//! what a power loss would leave ([`WalBackend::power_loss`]).
//!
//! Record format (`len` and the inner lengths are unsigned LEB128 varints):
//!
//! ```text
//! frame   := len crc payload          -- len = payload byte length;
//!                                     -- crc = CRC-32C of payload, 4 bytes LE
//! payload := 0x00 klen key vlen value -- put
//!          | 0x01 klen key            -- delete
//! ```
//!
//! A frame is *invalid* if the buffer ends inside it, its checksum does not
//! match, the tag is unknown, the inner lengths do not consume exactly
//! `len` bytes, or the key is not UTF-8. At the end of the head that is a
//! torn tail, discarded and counted; anywhere else it is corruption, and
//! recovery panics naming the segment and the offset.

use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use mar_wire::varint::{get_uvarint, put_uvarint};

use super::{prefix_range, BackendStats, StableBackend};
use crate::node::NodeId;

const TAG_PUT: u8 = 0x00;
const TAG_DELETE: u8 = 0x01;

/// The most segments a node holds: the head, the segment closed before it,
/// and the oldest while the sync that unlinks it is due.
pub const MAX_LIVE_SEGMENTS: usize = 3;

/// Tuning knobs of the [`WalBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// The least a segment's barriers write before it closes (bytes): a
    /// commit after which the barriers have written this much to the head,
    /// and at least the put-frame bytes of every live key, closes it and
    /// starts a new one. The cleaner's copies ride on top.
    pub checkpoint_bytes: usize,
    /// Directory for **file-backed** durability: each node keeps its
    /// segments there as `node-<id>.<gen>.seg`, the exact record format of
    /// the in-memory backend. Every barrier is written to the head file at
    /// once and `fsync`ed at the next [`sync`](super::StableBackend::sync)
    /// (the simulation kernel syncs once per lookahead window). `None` (the
    /// default) keeps the segments in memory — the right choice for tests
    /// and benches; real node-host processes set a directory so a killed
    /// process recovers its committed state on restart.
    pub path: Option<PathBuf>,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            checkpoint_bytes: 64 * 1024,
            path: None,
        }
    }
}

/// Appends a frame whose `body_len`-byte payload `write` appends.
fn encode_frame(out: &mut Vec<u8>, body_len: usize, write: impl FnOnce(&mut Vec<u8>)) {
    put_uvarint(out, body_len as u64);
    let crc_at = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    debug_assert_eq!(out.len() - crc_at - 4, body_len);
    let crc = crc32c::checksum(&out[crc_at + 4..]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Payload bytes of a put record for a `klen`-byte key and a `vlen`-byte
/// value.
fn put_body_len(klen: usize, vlen: usize) -> usize {
    1 + varint_len(klen as u64) + klen + varint_len(vlen as u64) + vlen
}

/// Bytes [`encode_put_frame`] appends for a `klen`-byte key and a
/// `vlen`-byte value.
fn put_frame_len(klen: usize, vlen: usize) -> usize {
    let body = put_body_len(klen, vlen);
    varint_len(body as u64) + 4 + body
}

/// Appends a put record for `(key, value)` to `out`.
pub fn encode_put_frame(out: &mut Vec<u8>, key: &str, value: &[u8]) {
    let body = put_body_len(key.len(), value.len());
    encode_frame(out, body, |out| {
        out.push(TAG_PUT);
        put_uvarint(out, key.len() as u64);
        out.extend_from_slice(key.as_bytes());
        put_uvarint(out, value.len() as u64);
        out.extend_from_slice(value);
    });
}

/// Appends a delete record for `key` to `out`.
pub fn encode_delete_frame(out: &mut Vec<u8>, key: &str) {
    let klen = key.len() as u64;
    let body = 1 + varint_len(klen) + key.len();
    encode_frame(out, body, |out| {
        out.push(TAG_DELETE);
        put_uvarint(out, klen);
        out.extend_from_slice(key.as_bytes());
    });
}

fn varint_len(v: u64) -> usize {
    mar_wire::varint::uvarint_len(v)
}

/// CRC-32C (Castagnoli), the checksum of a frame: the SSE4.2 `crc32`
/// instruction where the CPU has it, a table otherwise.
#[allow(unsafe_code)]
mod crc32c {
    /// The Castagnoli polynomial, bit-reflected.
    const POLY: u32 = 0x82F6_3B78;

    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
                bit += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };

    pub(super) fn checksum(data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU has SSE4.2, checked just above.
            return unsafe { sse42(data) };
        }
        table(data)
    }

    pub(super) fn table(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| {
            TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse4.2")]
    fn sse42(data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let mut words = data.chunks_exact(8);
        let mut c = u64::from(!0u32);
        for w in &mut words {
            c = _mm_crc32_u64(c, u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let c = words
            .remainder()
            .iter()
            .fold(c as u32, |c, &b| _mm_crc32_u8(c, b));
        !c
    }
}

/// One decoded record.
#[derive(Debug, PartialEq, Eq)]
enum Frame<'a> {
    Put(&'a str, &'a [u8]),
    Delete(&'a str),
}

/// Decodes the frame starting at `*pos`, advancing `*pos` past it. Returns
/// `None` — without advancing — if the buffer holds no complete, valid
/// frame there.
fn decode_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Option<Frame<'a>> {
    let mut p = *pos;
    let frame = try_decode_frame(buf, &mut p)?;
    *pos = p;
    Some(frame)
}

/// The `n` bytes of `buf` at `*pos`, advancing past them; `None` when `n` —
/// a length read from the log — is more than is there.
fn take<'a>(buf: &'a [u8], pos: &mut usize, n: u64) -> Option<&'a [u8]> {
    let end = pos.checked_add(usize::try_from(n).ok()?)?;
    let bytes = buf.get(*pos..end)?;
    *pos = end;
    Some(bytes)
}

fn try_decode_frame<'a>(buf: &'a [u8], p: &mut usize) -> Option<Frame<'a>> {
    let len = get_uvarint(buf, p).ok()?;
    let crc = take(buf, p, 4)?;
    let body = take(buf, p, len)?;
    if crc32c::checksum(body).to_le_bytes() != crc {
        return None;
    }
    let tag = *body.first()?;
    let mut q = 1usize;
    let klen = get_uvarint(body, &mut q).ok()?;
    let key = std::str::from_utf8(take(body, &mut q, klen)?).ok()?;
    let frame = match tag {
        TAG_PUT => {
            let vlen = get_uvarint(body, &mut q).ok()?;
            Frame::Put(key, take(body, &mut q, vlen)?)
        }
        TAG_DELETE => Frame::Delete(key),
        _ => return None,
    };
    (q == body.len()).then_some(frame)
}

/// A value in the view, with the generation of the segment holding its
/// newest frame — what the cleaner asks of a key.
#[derive(Debug, Clone)]
struct Live {
    value: Vec<u8>,
    gen: u64,
}

/// One segment of a node's log.
#[derive(Debug)]
struct Segment {
    gen: u64,
    /// Bytes written to it: all of them survive a process death.
    len: usize,
    /// Bytes on the device: what survives a power loss.
    synced: usize,
    body: Body,
}

#[derive(Debug)]
enum Body {
    /// In-memory backend: the segment's bytes.
    Mem(Vec<u8>),
    /// File-backed: an append handle on the segment's file.
    File { file: File, path: PathBuf },
}

impl Segment {
    /// Writes `bytes` at the end without flushing the device.
    fn append(&mut self, bytes: &[u8]) {
        match &mut self.body {
            Body::Mem(buf) => buf.extend_from_slice(bytes),
            Body::File { file, .. } => file.write_all(bytes).expect("wal: append to segment file"),
        }
        self.len += bytes.len();
    }

    /// Every byte of the segment as stored.
    fn read(&self) -> Cow<'_, [u8]> {
        match &self.body {
            Body::Mem(buf) => Cow::Borrowed(buf),
            Body::File { path, .. } => Cow::Owned(std::fs::read(path).expect("wal: read segment")),
        }
    }

    /// The segment's name in a panic message.
    fn name(&self) -> String {
        match &self.body {
            Body::Mem(_) => format!("in-memory segment {}", self.gen),
            Body::File { path, .. } => path.display().to_string(),
        }
    }

    /// Puts every byte on the device. Returns whether that took an `fsync`
    /// (a file with unflushed bytes).
    fn flush(&mut self) -> bool {
        let behind = self.synced < self.len;
        self.synced = self.len;
        match &self.body {
            Body::File { file, .. } if behind => {
                file.sync_data().expect("wal: fsync segment file");
                true
            }
            _ => false,
        }
    }
}

/// Where a node's segments live.
#[derive(Debug)]
enum Dir {
    /// In-memory backend: the directory as a power loss would leave it —
    /// the generations listed at the last directory sync, and the segments
    /// unlinked since, with their bytes.
    Mem {
        listed: Vec<u64>,
        unlinked: Vec<Segment>,
    },
    /// File-backed: the directory, and an open handle on it for `fsync`.
    File {
        path: PathBuf,
        node: u32,
        handle: File,
    },
}

impl Dir {
    /// The segment `gen`, created empty when it does not exist.
    fn open_segment(&self, gen: u64) -> Segment {
        let (len, body) = match self {
            Dir::Mem { .. } => (0, Body::Mem(Vec::new())),
            Dir::File { path, node, .. } => {
                let path = path.join(format!("node-{node}.{gen}.seg"));
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .expect("wal: open segment file");
                let len = file.metadata().expect("wal: stat segment file").len();
                (len as usize, Body::File { file, path })
            }
        };
        Segment {
            gen,
            len,
            synced: len,
            body,
        }
    }

    fn unlink(&mut self, seg: Segment) {
        if let Body::File { path, .. } = &seg.body {
            std::fs::remove_file(path).expect("wal: unlink cleaned segment");
        } else if let Dir::Mem { unlinked, .. } = self {
            unlinked.push(seg);
        }
    }

    /// Makes the creates and unlinks so far durable, the directory now
    /// listing `segs`. Returns whether that took an `fsync`.
    fn sync(&mut self, segs: &[Segment]) -> bool {
        match self {
            Dir::Mem { listed, unlinked } => {
                *listed = segs.iter().map(|s| s.gen).collect();
                unlinked.clear();
                false
            }
            Dir::File { handle, .. } => {
                handle.sync_all().expect("wal: fsync directory");
                true
            }
        }
    }
}

/// Generations of `node`'s segment files in `path`, oldest first.
fn list_segments(path: &Path, node: u32) -> Vec<u64> {
    let prefix = format!("node-{node}.");
    let mut gens: Vec<u64> = std::fs::read_dir(path)
        .expect("wal: list backing directory")
        .map(|e| e.expect("wal: list backing directory").file_name())
        .filter_map(|name| {
            name.to_str()?
                .strip_prefix(&prefix)?
                .strip_suffix(".seg")?
                .parse()
                .ok()
        })
        .collect();
    gens.sort_unstable();
    gens
}

/// Log-structured stable backend: a view over a node's segments.
///
/// The `view` is the volatile read path (destroyed by a crash); durability
/// lives in the segments, oldest first, the last one the head. `batch`
/// holds the frames of the mutations since the last barrier. In memory a
/// segment is a buffer; with [`WalConfig::path`] set it is a file, written
/// at every barrier and `fsync`ed by [`sync`](StableBackend::sync), and
/// [`WalBackend::open`] recovers it after a process death. Either way a
/// simulated [`crash`](StableBackend::crash) keeps exactly what the
/// barriers wrote, synced or not, by replaying the segments.
#[derive(Debug)]
pub struct WalBackend {
    cfg: WalConfig,
    view: BTreeMap<String, Live>,
    /// Frames of the mutations since the last barrier.
    batch: Vec<u8>,
    /// Mutations since the last barrier.
    pending: u64,
    /// Oldest first; the last is the head. Never empty.
    segs: Vec<Segment>,
    /// Bytes the barriers wrote to the head: what a roll counts. The
    /// cleaner's copies ride on top, so that copying never hastens a roll
    /// (and with it the next copy).
    head_log: usize,
    /// Put-frame bytes of the view: what cleaning every key would copy. A
    /// roll waits until the head's barriers have written this much.
    live: usize,
    /// Whether the oldest segment's live frames were copied to the head
    /// and it awaits the sync that unlinks it.
    cleaned: bool,
    /// Whether a create or an unlink awaits the directory's `fsync`.
    /// Neither a roll nor a clean runs until it came.
    dir_dirty: bool,
    dir: Dir,
    stats: BackendStats,
}

impl WalBackend {
    /// Creates an empty in-memory WAL backend (any [`WalConfig::path`] is
    /// ignored; use [`WalBackend::open`] for file backing).
    pub fn new(cfg: WalConfig) -> Self {
        let dir = Dir::Mem {
            listed: vec![1],
            unlinked: Vec::new(),
        };
        let head = dir.open_segment(1);
        WalBackend::with_segments(cfg, dir, vec![head])
    }

    fn with_segments(cfg: WalConfig, dir: Dir, segs: Vec<Segment>) -> Self {
        WalBackend {
            cfg,
            view: BTreeMap::new(),
            batch: Vec::new(),
            pending: 0,
            head_log: segs.last().map_or(0, |h| h.len),
            live: 0,
            segs,
            cleaned: false,
            dir_dirty: false,
            dir,
            stats: BackendStats::default(),
        }
    }

    /// Opens the backend for `node`: in-memory when [`WalConfig::path`] is
    /// `None`, otherwise file-backed in that directory
    /// (`node-<id>.<gen>.seg`), replaying whatever a previous process
    /// committed there and discarding any torn tail of the head — both
    /// from the files.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the files cannot be
    /// read, or if a segment other than the head holds an invalid frame —
    /// a node host that cannot reach its stable storage must not come up.
    pub fn open(cfg: WalConfig, node: NodeId) -> Self {
        let Some(path) = cfg.path.clone() else {
            return WalBackend::new(cfg);
        };
        std::fs::create_dir_all(&path).expect("wal: create backing directory");
        let mut gens = list_segments(&path, node.0);
        let created = gens.is_empty();
        if created {
            gens.push(1);
        }
        let dir = Dir::File {
            handle: File::open(&path).expect("wal: open backing directory"),
            path,
            node: node.0,
        };
        let segs = gens.iter().map(|&gen| dir.open_segment(gen)).collect();
        let mut backend = WalBackend::with_segments(cfg, dir, segs);
        if created {
            // An empty head loses nothing; its create reaches the device
            // with the first sync.
            backend.dir_dirty = true;
        } else {
            // What a restarted process recovers may rest on a create that
            // never reached the device; make it durable before anything
            // acts on it.
            backend.dir.sync(&backend.segs);
            backend.stats.dir_syncs += 1;
        }
        backend.recover();
        backend
    }

    fn head(&mut self) -> &mut Segment {
        self.segs.last_mut().expect("a WAL always has a head")
    }

    /// Put-frame bytes of the view, summed key by key.
    fn live_frame_bytes(&self) -> usize {
        self.view
            .iter()
            .map(|(k, l)| put_frame_len(k.len(), l.value.len()))
            .sum()
    }

    /// Closes the head — flushed first, so a closed segment never ends
    /// torn — and creates the next one.
    fn roll(&mut self) {
        debug_assert_eq!(
            self.live,
            self.live_frame_bytes(),
            "the maintained live bytes and the view's put frames"
        );
        let head = self.head();
        let gen = head.gen + 1;
        if head.flush() {
            self.stats.syncs += 1;
        }
        let next = self.dir.open_segment(gen);
        self.segs.push(next);
        self.head_log = 0;
        self.dir_dirty = true;
    }

    /// Copies the live frames of the oldest segment to the head: a put of
    /// every key whose newest frame is there, the value from the view. Runs
    /// right after a barrier, so nothing is pending and the view is the
    /// committed state. The segment is unlinked at the next sync.
    fn clean(&mut self) {
        let (oldest, head) = (self.segs[0].gen, self.head().gen);
        debug_assert!(
            self.batch.is_empty(),
            "the cleaner runs with nothing pending"
        );
        for (key, live) in self.view.iter_mut().filter(|(_, l)| l.gen == oldest) {
            encode_put_frame(&mut self.batch, key, &live.value);
            live.gen = head;
        }
        let head = self.segs.last_mut().expect("a WAL always has a head");
        head.append(&self.batch);
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += self.batch.len() as u64;
        self.batch.clear();
        self.cleaned = true;
    }

    /// Runs at most `budget` device steps of a sync, in the order the
    /// module doc argues for: flush every segment, unlink the cleaned one,
    /// `fsync` the directory. Returns whether a step took an `fsync`.
    fn sync_steps(&mut self, mut budget: usize) -> bool {
        let mut step = || {
            let go = budget > 0;
            budget = budget.saturating_sub(1);
            go
        };
        let mut flushed = false;
        for seg in self.segs.iter_mut().filter(|s| s.synced < s.len) {
            if !step() {
                return flushed;
            }
            if seg.flush() {
                self.stats.syncs += 1;
                flushed = true;
            }
        }
        if self.cleaned {
            if !step() {
                return flushed;
            }
            let seg = self.segs.remove(0);
            self.dir.unlink(seg);
            self.cleaned = false;
            self.dir_dirty = true;
        }
        if self.dir_dirty {
            if !step() {
                return flushed;
            }
            if self.dir.sync(&self.segs) {
                self.stats.dir_syncs += 1;
                flushed = true;
            }
            self.dir_dirty = false;
        }
        flushed
    }

    /// Replays `buf`, the bytes of segment `gen`, into `view`, returning
    /// the number of bytes consumed by complete frames and the number of
    /// records applied. Stops (without consuming) at the first invalid
    /// frame.
    fn replay(view: &mut BTreeMap<String, Live>, buf: &[u8], gen: u64) -> (usize, u64) {
        let mut pos = 0usize;
        let mut records = 0u64;
        while pos < buf.len() {
            match decode_frame(buf, &mut pos) {
                Some(Frame::Put(k, v)) => {
                    let live = Live {
                        value: v.to_vec(),
                        gen,
                    };
                    view.insert(k.to_owned(), live);
                }
                Some(Frame::Delete(k)) => {
                    view.remove(k);
                }
                None => break,
            }
            records += 1;
        }
        (pos, records)
    }

    /// Test hook: appends `bytes` (typically a prefix of a valid frame) to
    /// the head *as if durable* — modeling a crash that interrupted the
    /// disk flush, leaving a torn tail for recovery to discard. Mutations
    /// still pending at that moment never reached the device either, so
    /// they are dropped first (exactly what the reference model loses on
    /// crash).
    pub fn inject_torn_tail(&mut self, bytes: &[u8]) {
        self.batch.clear();
        self.pending = 0;
        self.head().append(bytes);
    }

    /// Test hook (in-memory backend): a machine crash. What is not on the
    /// device is gone: every segment keeps its synced bytes, a segment
    /// created since the last directory sync vanishes, and one unlinked
    /// since comes back. The view is rebuilt from what is left.
    ///
    /// # Panics
    ///
    /// Panics on a file-backed backend.
    pub fn power_loss(&mut self) {
        let Dir::Mem { listed, unlinked } = &mut self.dir else {
            panic!("power_loss models the in-memory backend");
        };
        let mut segs: Vec<Segment> = self.segs.drain(..).chain(unlinked.drain(..)).collect();
        segs.retain(|s| listed.contains(&s.gen));
        segs.sort_by_key(|s| s.gen);
        for seg in &mut segs {
            if let Body::Mem(buf) = &mut seg.body {
                buf.truncate(seg.synced);
            }
            seg.len = seg.synced;
        }
        self.segs = segs;
        self.head_log = self.head().len;
        self.cleaned = false;
        self.dir_dirty = false;
        self.recover();
    }

    /// Test hook (in-memory backend): a machine crash after the first
    /// `steps` device steps of a [`sync`](StableBackend::sync).
    pub fn power_loss_during_sync(&mut self, steps: usize) {
        self.sync_steps(steps);
        self.power_loss();
    }

    /// Bytes in the live segments, all of which a process death keeps
    /// (test inspection).
    pub fn durable_log_len(&self) -> usize {
        self.segs.iter().map(|s| s.len).sum()
    }

    /// Generations of the live segments, oldest first (test inspection).
    pub fn segment_gens(&self) -> Vec<u64> {
        self.segs.iter().map(|s| s.gen).collect()
    }
}

impl StableBackend for WalBackend {
    fn name(&self) -> &'static str {
        "wal"
    }

    fn put(&mut self, key: String, value: Vec<u8>) {
        let before = self.batch.len();
        encode_put_frame(&mut self.batch, &key, &value);
        let frame = self.batch.len() - before;
        self.stats.wal_bytes += frame as u64;
        self.stats.records += 1;
        self.pending += 1;
        self.live += frame;
        // The frame lands in the head at the next barrier, and no roll
        // comes before it.
        let gen = self.head().gen;
        let klen = key.len();
        if let Some(old) = self.view.insert(key, Live { value, gen }) {
            self.live -= put_frame_len(klen, old.value.len());
        }
    }

    fn get(&self, key: &str) -> Option<&[u8]> {
        self.view.get(key).map(|l| l.value.as_slice())
    }

    fn delete(&mut self, key: &str) -> Option<Vec<u8>> {
        let prev = self.view.remove(key)?;
        self.live -= put_frame_len(key.len(), prev.value.len());
        let before = self.batch.len();
        encode_delete_frame(&mut self.batch, key);
        self.stats.wal_bytes += (self.batch.len() - before) as u64;
        self.stats.records += 1;
        self.pending += 1;
        Some(prev.value)
    }

    fn len(&self) -> usize {
        self.view.len()
    }

    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(
            self.view
                .iter()
                .map(|(k, l)| (k.as_str(), l.value.as_slice())),
        )
    }

    fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(prefix_range(&self.view, prefix).map(|(k, l)| (k, l.value.as_slice())))
    }

    fn commit(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        // The write *is* the durability watermark: everything a barrier
        // wrote survives a process death. Surviving the machine waits for
        // `sync`.
        let head = self.segs.last_mut().expect("a WAL always has a head");
        head.append(&self.batch);
        self.head_log += self.batch.len();
        self.batch.clear();
        self.pending = 0;
        self.stats.commits += 1;
        // Neither a roll nor a clean while the device owes the directory
        // a sync: that keeps the segments few and the tombstone rule. A
        // segment closes once its barriers wrote what the clean it leads to
        // may copy, so the cleaner never writes more than the log.
        if !self.cleaned && !self.dir_dirty {
            let segment = self.cfg.checkpoint_bytes.max(self.live);
            if self.segs.len() < MAX_LIVE_SEGMENTS && self.head_log >= segment {
                self.roll();
            }
            if self.segs.len() >= MAX_LIVE_SEGMENTS {
                self.clean();
            }
        }
        true
    }

    fn sync(&mut self) -> bool {
        self.sync_steps(usize::MAX)
    }

    /// A create alone is not owed: an empty segment lost to a power loss
    /// loses nothing. It is synced with the first bytes the head takes.
    fn unsynced(&self) -> bool {
        let files_behind =
            matches!(self.dir, Dir::File { .. }) && self.segs.iter().any(|s| s.synced < s.len);
        let create_owed = self.dir_dirty && self.segs.last().is_some_and(|h| h.len > 0);
        self.cleaned || create_owed || files_behind
    }

    fn crash(&mut self) {
        // The batch never reached stable media; the view is volatile.
        // `recover` rebuilds it from the segments.
        self.recover();
    }

    fn recover(&mut self) {
        self.batch.clear();
        self.pending = 0;
        self.view.clear();
        let head = self.segs.len() - 1;
        for (i, seg) in self.segs.iter_mut().enumerate().filter(|(_, s)| s.len > 0) {
            let bytes = seg.read();
            let (valid, records) = WalBackend::replay(&mut self.view, &bytes, seg.gen);
            let stored = bytes.len();
            drop(bytes);
            self.stats.replayed_records += records;
            self.stats.replayed_bytes += valid as u64;
            if valid == stored {
                continue;
            }
            assert!(
                i == head,
                "wal: {} holds an invalid frame at byte {valid} of {stored}; \
                 only the head may end torn",
                seg.name()
            );
            // Discard a torn tail: keep only the prefix of complete frames.
            self.stats.torn_bytes_discarded += (stored - valid) as u64;
            match &mut seg.body {
                Body::Mem(buf) => buf.truncate(valid),
                Body::File { file, .. } => {
                    file.set_len(valid as u64).expect("wal: drop torn tail");
                    file.sync_data().expect("wal: fsync truncated segment");
                    self.stats.syncs += 1;
                }
            }
            seg.len = valid;
            seg.synced = seg.synced.min(valid);
        }
        self.live = self.live_frame_bytes();
        self.stats.recoveries += 1;
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    /// Clones are memory-resident snapshots: the file handles are *not*
    /// duplicated (two appenders on one segment would corrupt it), so a
    /// clone behaves like the in-memory backend with the same state.
    fn clone_backend(&self) -> Box<dyn StableBackend> {
        let copy = |seg: &Segment| Segment {
            gen: seg.gen,
            len: seg.len,
            synced: seg.synced,
            body: Body::Mem(seg.read().into_owned()),
        };
        let dir = match &self.dir {
            Dir::Mem { listed, unlinked } => Dir::Mem {
                listed: listed.clone(),
                unlinked: unlinked.iter().map(copy).collect(),
            },
            Dir::File { .. } => Dir::Mem {
                listed: self.segment_gens(),
                unlinked: Vec::new(),
            },
        };
        Box::new(WalBackend {
            cfg: WalConfig {
                path: None,
                ..self.cfg.clone()
            },
            view: self.view.clone(),
            batch: self.batch.clone(),
            pending: self.pending,
            segs: self.segs.iter().map(copy).collect(),
            head_log: self.head_log,
            live: self.live,
            cleaned: self.cleaned,
            dir_dirty: self.dir_dirty,
            dir,
            stats: self.stats,
        })
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal() -> WalBackend {
        WalBackend::new(WalConfig::default())
    }

    fn tiny(checkpoint_bytes: usize) -> WalBackend {
        WalBackend::new(WalConfig {
            checkpoint_bytes,
            ..WalConfig::default()
        })
    }

    fn dump(b: &WalBackend) -> Vec<(String, Vec<u8>)> {
        b.iter().map(|(k, v)| (k.to_owned(), v.to_vec())).collect()
    }

    /// Bytes of `b`'s view encoded as put frames: what the live segments
    /// hold at least.
    fn live_bytes(b: &WalBackend) -> usize {
        let mut frames = Vec::new();
        for (k, v) in b.iter() {
            encode_put_frame(&mut frames, k, v);
        }
        frames.len()
    }

    /// Writes `k/19` down to `k/00`, one commit and one sync each, deleting
    /// each key three commits after its put: the live set, three 20-byte
    /// frames, stays under a 64-byte segment floor, and the keys die.
    fn write_down_and_delete(b: &mut WalBackend, mut after_sync: impl FnMut(&WalBackend)) {
        for i in (0..20).rev() {
            b.put(format!("k/{i:02}"), vec![i as u8; 8]);
            if i + 3 < 20 {
                assert!(b.delete(&format!("k/{:02}", i + 3)).is_some());
            }
            b.commit();
            // The output-commit rule's sync, which the cleaner waits for.
            b.sync();
            after_sync(b);
        }
    }

    #[test]
    fn a_segment_closes_once_its_barriers_wrote_the_live_set() {
        let mut b = tiny(64);
        // A value that never dies, larger than the floor: it closes the
        // first segment alone.
        b.put("big".into(), vec![1; 200]);
        b.commit();
        b.sync();
        assert_eq!(b.segment_gens(), [1, 2]);
        // Overwrites of one small key, one commit each: the head closes at
        // the first commit after which its barriers wrote the live set.
        let mut small = Vec::new();
        encode_put_frame(&mut small, "small", &[2; 8]);
        let live = live_bytes(&b) + small.len();
        let mut commits = 0;
        while b.segment_gens() == [1, 2] {
            assert!(commits < 100, "the head never closed");
            b.put("small".into(), vec![2; 8]);
            b.commit();
            commits += 1;
        }
        assert_eq!(commits, live.div_ceil(small.len()));
        // The roll cleaned segment 1 in the same commit, copying `big`
        // alone: no more than the log wrote.
        assert_eq!(b.segment_gens(), [1, 2, 3]);
        let stats = b.stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.checkpoint_bytes as usize, live - small.len());
        assert!(stats.checkpoint_bytes <= stats.wal_bytes);
    }

    #[test]
    fn the_crc_instruction_and_the_table_agree() {
        assert_eq!(
            crc32c::table(b"123456789"),
            0xE306_9283,
            "the CRC-32C check value"
        );
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let slice = &data[start..end];
                // `checksum` takes the instruction wherever the CPU has it.
                assert_eq!(
                    crc32c::checksum(slice),
                    crc32c::table(slice),
                    "{start}..{end}"
                );
            }
        }
    }

    #[test]
    fn put_commit_crash_recover_roundtrip() {
        let mut b = wal();
        b.put("a".into(), vec![1, 2]);
        b.put("b".into(), vec![3]);
        assert!(b.commit());
        b.put("c".into(), vec![4]);
        // `c` was never committed: a crash must forget it.
        b.crash();
        assert_eq!(b.get("a"), Some(&[1u8, 2][..]));
        assert_eq!(b.get("b"), Some(&[3u8][..]));
        assert_eq!(b.get("c"), None);
    }

    #[test]
    fn delete_of_absent_key_is_not_a_mutation() {
        let mut b = wal();
        assert_eq!(b.delete("nope"), None);
        assert!(!b.commit());
        assert_eq!(b.stats().records, 0);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_offset_of_the_last_frame() {
        // A committed base plus a torn suffix cut at every possible byte
        // boundary of a valid frame must always recover to exactly the base.
        let mut frame = Vec::new();
        encode_put_frame(&mut frame, "q/agent-42", b"record bytes of some length");
        for cut in 0..frame.len() {
            let mut b = wal();
            b.put("base".into(), vec![9]);
            assert!(b.commit());
            b.inject_torn_tail(&frame[..cut]);
            b.crash();
            assert_eq!(
                dump(&b),
                vec![("base".to_owned(), vec![9])],
                "torn cut at byte {cut} leaked into the recovered view"
            );
            assert_eq!(
                b.stats().torn_bytes_discarded,
                cut as u64,
                "cut at byte {cut}"
            );
        }
    }

    #[test]
    fn complete_injected_frame_is_durable() {
        // The boundary case of the sweep above: a fully written frame in
        // the durable log prefix legitimately replays.
        let mut frame = Vec::new();
        encode_put_frame(&mut frame, "q/agent-42", b"payload");
        let mut b = wal();
        b.put("base".into(), vec![9]);
        assert!(b.commit());
        b.inject_torn_tail(&frame);
        b.crash();
        assert_eq!(b.get("q/agent-42"), Some(&b"payload"[..]));
        assert_eq!(b.stats().torn_bytes_discarded, 0);
    }

    #[test]
    fn recover_twice_equals_recover_once() {
        let mut b = wal();
        b.put("a".into(), vec![1]);
        b.put("b".into(), vec![2]);
        b.commit();
        b.delete("a");
        b.commit();
        let mut torn = Vec::new();
        encode_put_frame(&mut torn, "zz", b"half");
        b.inject_torn_tail(&torn[..torn.len() / 2]);
        b.crash();
        let once = dump(&b);
        let durable = b.durable_log_len();
        b.recover();
        assert_eq!(dump(&b), once);
        assert_eq!(b.durable_log_len(), durable);
        b.recover();
        assert_eq!(dump(&b), once);
    }

    #[test]
    fn segments_roll_clean_and_preserve_scan_order() {
        let mut b = tiny(64);
        write_down_and_delete(&mut b, |b| {
            assert!(b.segment_gens().len() <= MAX_LIVE_SEGMENTS);
        });
        let stats = b.stats();
        assert!(stats.checkpoints > 0, "the cleaner must have run");
        assert!(b.segment_gens()[0] > 1, "cleaned segments were unlinked");
        // The live segments hold the live frames plus at most one
        // segment's worth (and one frame) of dead ones per segment.
        let bound = live_bytes(&b) + MAX_LIVE_SEGMENTS * (64 + 16);
        assert!(
            b.durable_log_len() <= bound,
            "{} > {bound}",
            b.durable_log_len()
        );
        // Ordered prefix scan sees all live keys, sorted, across the
        // segments.
        let keys: Vec<&str> = b.iter_prefix("k/").map(|(k, _)| k).collect();
        let expected: Vec<String> = (0..3).map(|i| format!("k/{i:02}")).collect();
        assert_eq!(keys, expected);
        // And the segments survive crash + recovery.
        b.crash();
        let keys: Vec<&str> = b.iter_prefix("k/").map(|(k, _)| k).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn deletes_replay_over_a_cleaned_segment() {
        let mut b = tiny(32);
        b.put("keep".into(), vec![1]);
        b.put("drop".into(), vec![2; 40]);
        b.commit(); // big enough to roll
        b.sync();
        b.delete("drop");
        b.commit();
        b.sync();
        // `filler` twice: the second barrier brings what the head took to
        // the live set, `keep` and `filler`.
        b.put("filler".into(), vec![3; 40]);
        b.commit();
        b.sync();
        b.put("filler".into(), vec![3; 40]);
        b.commit(); // rolls again and cleans the first segment
        assert!(b.stats().checkpoints >= 1);
        b.sync();
        b.crash();
        assert_eq!(b.get("keep"), Some(&[1u8][..]));
        assert_eq!(b.get("drop"), None);
        assert_eq!(b.get("filler"), Some(&[3u8; 40][..]));
    }

    /// A frame around `payload`, its checksum right.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, payload.len(), |out| {
            out.extend_from_slice(payload)
        });
        out
    }

    /// Tails no encoder writes: a bad checksum, a bad tag, and a length —
    /// the frame's, the key's, the value's — that declares more than is
    /// there, up to the `u64::MAX` that overflows an unchecked `pos + len`.
    /// All but the first carry a right checksum, so the frame's structure is
    /// what rejects them.
    fn malformed_tails() -> Vec<Vec<u8>> {
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let mut bad_crc = framed(&[TAG_DELETE, 1, b'k']);
        bad_crc[1] ^= 0x01;
        let mut tails = vec![
            bad_crc,
            framed(&[0xFF]),                // unknown tag
            framed(&[]),                    // zero-length frame
            framed(&[TAG_PUT, 0x01, b'a']), // put without its value
            framed(&[TAG_DELETE, 0x05]),    // delete whose klen overruns the body
        ];
        tails.push([&max[..], &[0; 4], &[TAG_PUT, 1, b'k', 1, 7]].concat()); // frame length
        tails.push(framed(&[&[TAG_PUT][..], &max, b"k"].concat())); // key length
        tails.push(framed(&[&[TAG_PUT, 1, b'k'][..], &max, &[7]].concat())); // value length
        tails
    }

    #[test]
    fn malformed_tags_and_lengths_are_torn() {
        for bad in malformed_tails() {
            let mut b = wal();
            b.put("base".into(), vec![7]);
            b.commit();
            b.inject_torn_tail(&bad);
            b.crash();
            assert_eq!(dump(&b), vec![("base".to_owned(), vec![7])], "{bad:?}");
            // And with nothing before it: an empty store.
            let mut b = wal();
            b.inject_torn_tail(&bad);
            b.crash();
            assert_eq!(dump(&b), vec![], "{bad:?}");
        }
    }

    fn temp_wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mar-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn file_cfg(dir: &Path, checkpoint_bytes: usize) -> WalConfig {
        WalConfig {
            checkpoint_bytes,
            path: Some(dir.to_path_buf()),
        }
    }

    /// Names of the files in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("wal dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        names
    }

    /// Path of `b`'s head segment file.
    fn head_file(dir: &Path, node: u32, b: &WalBackend) -> PathBuf {
        let gen = *b.segment_gens().last().expect("a head");
        dir.join(format!("node-{node}.{gen}.seg"))
    }

    #[test]
    fn file_backed_state_survives_reopen() {
        let dir = temp_wal_dir("reopen");
        {
            let mut b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(3));
            b.put("a".into(), vec![1, 2]);
            b.put("b".into(), vec![3]);
            assert!(b.commit());
            b.delete("a");
            assert!(b.commit());
            // Pending-but-uncommitted work must not survive the process.
            b.put("lost".into(), vec![9]);
        }
        let b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(3));
        assert_eq!(b.get("a"), None);
        assert_eq!(b.get("b"), Some(&[3u8][..]));
        assert_eq!(b.get("lost"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_nodes_are_isolated() {
        let dir = temp_wal_dir("isolated");
        let mut b3 = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(3));
        let mut b4 = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(4));
        b3.put("k".into(), vec![3]);
        b3.commit();
        b4.put("k".into(), vec![4]);
        b4.commit();
        let b3 = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(3));
        let b4 = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(4));
        assert_eq!(b3.get("k"), Some(&[3u8][..]));
        assert_eq!(b4.get("k"), Some(&[4u8][..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_reopen_discards_torn_tail_at_every_cut() {
        let mut frame = Vec::new();
        encode_put_frame(&mut frame, "q/agent-7", b"torn payload bytes");
        let dir = temp_wal_dir("torn");
        let cuts = (0..frame.len()).map(|cut| frame[..cut].to_vec());
        for tail in cuts.chain(malformed_tails()) {
            let _ = std::fs::remove_dir_all(&dir);
            {
                let mut b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
                b.put("base".into(), vec![9]);
                assert!(b.commit());
                // Simulate a flush interrupted by the crash: a frame prefix
                // (or bytes no encoder writes) reaches the device.
                b.inject_torn_tail(&tail);
            }
            let b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
            assert_eq!(dump(&b), vec![("base".to_owned(), vec![9])], "{tail:?}");
            assert_eq!(
                b.stats().torn_bytes_discarded,
                tail.len() as u64,
                "{tail:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_segments_roll_and_survive_reopen() {
        let dir = temp_wal_dir("segments");
        {
            let mut b = WalBackend::open(file_cfg(&dir, 64), NodeId(1));
            write_down_and_delete(&mut b, |_| {
                let names = files(&dir);
                assert!(names.len() <= MAX_LIVE_SEGMENTS, "{names:?}");
                assert!(names.iter().all(|n| n.ends_with(".seg")), "{names:?}");
            });
            assert!(b.stats().checkpoints > 0, "the cleaner must have run");
            // Every file is one of the live segments, and they are small.
            let live: Vec<String> = b
                .segment_gens()
                .iter()
                .map(|g| format!("node-1.{g}.seg"))
                .collect();
            assert_eq!(files(&dir), live);
            let on_disk: u64 = live
                .iter()
                .map(|n| std::fs::metadata(dir.join(n)).expect("segment").len())
                .sum();
            assert_eq!(on_disk, b.durable_log_len() as u64);
            let bound = live_bytes(&b) + MAX_LIVE_SEGMENTS * (64 + 16);
            assert!(on_disk as usize <= bound, "{on_disk} > {bound}");
        }
        let b = WalBackend::open(file_cfg(&dir, 64), NodeId(1));
        let keys: Vec<String> = b.iter_prefix("k/").map(|(k, _)| k.to_owned()).collect();
        let expected: Vec<String> = (0..3).map(|i| format!("k/{i:02}")).collect();
        assert_eq!(keys, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `k` into segment 1, deletes it in segment `delete_in`, and
    /// rolls on until the cleaner has taken both: neither a reopen of the
    /// files nor a power loss at any step may bring `k` back. The filler
    /// overwrites two keys in turn, so the segments it fills die.
    /// `check` runs after every commit and every sync, told whether the
    /// delete is synced.
    fn tombstone_script(
        b: &mut WalBackend,
        delete_in: u64,
        mut check: impl FnMut(&mut WalBackend, bool),
    ) {
        let filler = |b: &mut WalBackend, i: u32| {
            b.put(format!("f/{:03}", i % 2), vec![0; 40]);
            b.commit();
        };
        b.put("k".into(), vec![7]);
        b.commit();
        let mut i = 0;
        while b.segment_gens().last() != Some(&delete_in) {
            filler(b, i);
            i += 1;
            check(b, false);
            b.sync();
            check(b, false);
        }
        assert!(b.delete("k").is_some());
        b.commit();
        check(b, false);
        b.sync();
        check(b, true);
        while b.segment_gens()[0] <= delete_in {
            filler(b, i);
            i += 1;
            check(b, true);
            b.sync();
            check(b, true);
        }
        assert!(
            b.stats().checkpoints >= delete_in,
            "segments 1..={delete_in} cleaned"
        );
    }

    #[test]
    fn a_cleaned_delete_never_brings_back_an_older_put() {
        for delete_in in [2, 3] {
            let dir = temp_wal_dir(&format!("tombstone-{delete_in}"));
            let mut b = WalBackend::open(file_cfg(&dir, 64), NodeId(0));
            tombstone_script(&mut b, delete_in, |b, _| {
                let reopened = WalBackend::open(file_cfg(&dir, 64), NodeId(0));
                assert_eq!(dump(&reopened), dump(b), "{:?}", b.segment_gens());
            });
            drop(b);
            let reopened = WalBackend::open(file_cfg(&dir, 64), NodeId(0));
            assert_eq!(reopened.get("k"), None);
            let _ = std::fs::remove_dir_all(&dir);

            // The same script in memory, with a power loss after every step
            // (on a clone, so the script goes on): once `k`'s delete is
            // synced, no power loss brings it back.
            let mut b = tiny(64);
            tombstone_script(&mut b, delete_in, |b, delete_synced| {
                let mut clone = b.clone_backend();
                let lost = clone
                    .as_any_mut()
                    .downcast_mut::<WalBackend>()
                    .expect("a WAL clone");
                lost.power_loss();
                if delete_synced {
                    assert_eq!(lost.get("k"), None, "{:?}", b.segment_gens());
                }
            });
        }
    }

    #[test]
    fn a_flipped_byte_in_a_closed_segment_refuses_to_open() {
        let dir = temp_wal_dir("corrupt");
        let mut b = WalBackend::open(file_cfg(&dir, 64), NodeId(2));
        b.put("q/agent-1".into(), vec![5; 70]);
        assert!(b.commit());
        b.sync();
        b.put("other".into(), vec![6]);
        assert!(b.commit());
        b.sync();
        assert_eq!(b.segment_gens(), [1, 2], "segment 1 is closed");
        drop(b);
        let closed = dir.join("node-2.1.seg");
        let good = std::fs::read(&closed).expect("segment 1");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            std::fs::write(&closed, &bad).expect("corrupt segment 1");
            let opened = std::panic::catch_unwind(|| {
                WalBackend::open(file_cfg(&dir, 64), NodeId(2));
            });
            let err = opened.expect_err(&format!("byte {i} flipped, yet it opened"));
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(msg.contains("node-2.1.seg"), "{msg}");
        }
        // Unflipped, it opens, and nothing after it was truncated.
        std::fs::write(&closed, &good).expect("restore segment 1");
        let b = WalBackend::open(file_cfg(&dir, 64), NodeId(2));
        assert_eq!(b.get("q/agent-1"), Some(&[5u8; 70][..]));
        assert_eq!(b.get("other"), Some(&[6u8][..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clone_of_file_backed_is_memory_resident() {
        let dir = temp_wal_dir("clone");
        let mut b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        b.put("a".into(), vec![1]);
        b.commit();
        let mut c = b.clone_backend();
        c.put("b".into(), vec![2]);
        c.commit();
        // The clone's commit must not have reached the file.
        let reopened = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        assert_eq!(reopened.get("a"), Some(&[1u8][..]));
        assert_eq!(reopened.get("b"), None);
        assert_eq!(c.get("b"), Some(&[2u8][..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_writes_the_log_file_and_does_not_sync() {
        let dir = temp_wal_dir("commit-no-sync");
        let mut b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        b.put("a".into(), vec![1]);
        assert!(b.commit());
        assert!(b.unsynced(), "committed, not yet flushed");
        assert_eq!(b.stats().syncs, 0);
        // The frames are in the file already: a killed process keeps them.
        let on_disk = std::fs::metadata(head_file(&dir, 0, &b))
            .expect("head")
            .len();
        assert_eq!(on_disk, b.durable_log_len() as u64);
        assert!(b.sync());
        assert!(!b.unsynced());
        assert!(!b.sync(), "nothing left to flush");
        assert_eq!(b.stats().syncs, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_sync_covers_every_commit_before_it() {
        let dir = temp_wal_dir("one-sync");
        let mut b = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        for i in 0..7u8 {
            b.put(format!("k{i}"), vec![i]);
            assert!(b.commit());
        }
        assert_eq!((b.stats().commits, b.stats().syncs), (7, 0));
        assert!(b.sync());
        assert_eq!((b.stats().commits, b.stats().syncs), (7, 1));
        let reopened = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        assert_eq!(dump(&reopened), dump(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_roll_flushes_the_closed_segment_and_one_sync_settles_the_cleaner() {
        let dir = temp_wal_dir("roll-synced");
        let mut b = WalBackend::open(file_cfg(&dir, 64), NodeId(0));
        assert!(!b.unsynced(), "an empty head owes nothing");
        let put = |b: &mut WalBackend, key: &str| {
            b.put(key.into(), vec![0; 60]);
            assert!(b.commit());
        };
        // The first head's create is synced with its first bytes, and no
        // roll runs before that.
        put(&mut b, "k/00");
        assert_eq!(b.segment_gens(), [1]);
        assert!(b.unsynced());
        assert!(b.sync());
        assert_eq!((b.stats().syncs, b.stats().dir_syncs), (1, 1));
        // A roll: the closed head is flushed at once; the new head's create
        // waits for the sync, and the cleaner for a third segment.
        put(&mut b, "k/01");
        assert_eq!(b.segment_gens(), [1, 2]);
        assert_eq!(b.stats().syncs, 2, "the closing head was flushed");
        assert_eq!(b.stats().checkpoints, 0);
        assert!(b.sync(), "the create is synced");
        assert_eq!((b.stats().syncs, b.stats().dir_syncs), (2, 2));
        assert!(!b.unsynced());
        // Two overwrites of `k/01` bring what the head took to the live
        // set. The first writes no more than the file; the second rolls,
        // and the roll cleans segment 1 in the same commit; one sync
        // flushes the head, unlinks segment 1 and syncs the directory once.
        put(&mut b, "k/01");
        assert_eq!(b.segment_gens(), [1, 2]);
        assert_eq!(b.stats().syncs, 2, "a commit writes, it does not sync");
        put(&mut b, "k/01");
        assert_eq!(b.segment_gens(), [1, 2, 3]);
        assert_eq!(b.stats().checkpoints, 1);
        assert!(b.stats().checkpoint_bytes > 0, "k/00 was live in segment 1");
        assert!(b.unsynced());
        assert!(b.sync());
        assert_eq!(b.segment_gens(), [2, 3]);
        assert_eq!(files(&dir), ["node-0.2.seg", "node-0.3.seg"]);
        assert_eq!((b.stats().syncs, b.stats().dir_syncs), (4, 3));
        assert!(!b.unsynced(), "the sync leaves nothing unsynced");
        let reopened = WalBackend::open(file_cfg(&dir, 64), NodeId(0));
        assert_eq!(dump(&reopened), dump(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_after_an_unsynced_commit_recovers_the_commit() {
        let dir = temp_wal_dir("crash-unsynced");
        let file = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        for mut b in [wal(), file] {
            b.put("a".into(), vec![1]);
            assert!(b.commit());
            b.put("lost".into(), vec![2]);
            b.crash();
            assert_eq!(b.get("a"), Some(&[1u8][..]));
            assert_eq!(b.get("lost"), None);
        }
        // And so does a process death: the frame was written at the commit.
        let reopened = WalBackend::open(file_cfg(&dir, 64 * 1024), NodeId(0));
        assert_eq!(dump(&reopened), vec![("a".to_owned(), vec![1])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_in_memory_log_has_nothing_to_sync() {
        let mut b = wal();
        b.put("a".into(), vec![1]);
        assert!(b.commit());
        assert!(!b.unsynced());
        assert!(!b.sync());
        assert_eq!(b.stats().syncs, 0);
    }

    #[test]
    fn group_commit_counts_barriers_not_writes() {
        let mut b = wal();
        for i in 0..10 {
            b.put(format!("k{i}"), vec![0]);
        }
        assert!(b.commit());
        let s = b.stats();
        assert_eq!(s.records, 10);
        assert_eq!(s.commits, 1);
    }
}
