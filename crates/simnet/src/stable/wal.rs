//! Log-structured stable backend with group commit.
//!
//! Mutations append length-framed records (the `mar_wire` LEB128 varint
//! framing) to an in-memory write-ahead log. Nothing in the log is durable
//! until the next [`commit`](super::StableBackend::commit) barrier — the
//! kernel issues one per event, so a step transaction's many small writes
//! become one group-committed batch. When the log grows past
//! [`WalConfig::checkpoint_bytes`] the commit takes a checkpoint (the full
//! view re-encoded as put records) and truncates the log. Recovery replays
//! checkpoint + log and discards any torn (partially framed) tail, exactly
//! like a disk log whose final sector write was interrupted.
//!
//! Record format (all integers are unsigned LEB128 varints):
//!
//! ```text
//! frame   := len payload              -- len = payload byte length, > 0
//! payload := 0x00 klen key vlen value -- put
//!          | 0x01 klen key            -- delete
//! ```
//!
//! A frame is *torn* if the buffer ends inside `len` or before `len`
//! payload bytes, if the tag is unknown, if the inner lengths do not
//! consume exactly `len` bytes, or if the key is not UTF-8.

use std::any::Any;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use mar_wire::varint::{get_uvarint, put_uvarint};

use super::{prefix_range, BackendStats, StableBackend};
use crate::node::NodeId;

const TAG_PUT: u8 = 0x00;
const TAG_DELETE: u8 = 0x01;

/// Tuning knobs of the [`WalBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Log size (bytes) at which a commit barrier takes a checkpoint and
    /// truncates the log.
    pub checkpoint_bytes: usize,
    /// Directory for **file-backed** durability: each node keeps a
    /// `node-<id>.log` / `node-<id>.ckpt` pair there, the exact record
    /// format of the in-memory log, with an `fsync` at every group-commit
    /// `durable_len` watermark. `None` (the default) keeps the log in
    /// memory — the right choice for tests and benches; real node-host
    /// processes set a directory so a killed process recovers its committed
    /// state on restart.
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

/// Appends a put record for `(key, value)` to `out`.
pub fn encode_put_frame(out: &mut Vec<u8>, key: &str, value: &[u8]) {
    let klen = key.len() as u64;
    let vlen = value.len() as u64;
    let body = 1 + varint_len(klen) + key.len() + varint_len(vlen) + value.len();
    put_uvarint(out, body as u64);
    out.push(TAG_PUT);
    put_uvarint(out, klen);
    out.extend_from_slice(key.as_bytes());
    put_uvarint(out, vlen);
    out.extend_from_slice(value);
}

/// Appends a delete record for `key` to `out`.
pub fn encode_delete_frame(out: &mut Vec<u8>, key: &str) {
    let klen = key.len() as u64;
    let body = 1 + varint_len(klen) + key.len();
    put_uvarint(out, body as u64);
    out.push(TAG_DELETE);
    put_uvarint(out, klen);
    out.extend_from_slice(key.as_bytes());
}

fn varint_len(v: u64) -> usize {
    mar_wire::varint::uvarint_len(v)
}

/// One decoded record.
#[derive(Debug, PartialEq, Eq)]
enum Frame<'a> {
    Put(&'a str, &'a [u8]),
    Delete(&'a str),
}

/// Decodes the frame starting at `*pos`, advancing `*pos` past it. Returns
/// `None` — without advancing — if the buffer holds no complete, well-formed
/// frame there (a torn tail).
fn decode_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Option<Frame<'a>> {
    let mut p = *pos;
    let frame = try_decode_frame(buf, &mut p)?;
    *pos = p;
    Some(frame)
}

/// Length of the longest prefix of `buf` made of complete, well-formed
/// frames.
fn valid_prefix_len(buf: &[u8]) -> usize {
    let mut pos = 0usize;
    while pos < buf.len() {
        if decode_frame(buf, &mut pos).is_none() {
            break;
        }
    }
    pos
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
    let body = take(buf, p, len)?;
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

/// On-disk persistence of one node's WAL: a log file receiving fsynced
/// appends of committed records, and a checkpoint file replaced atomically
/// (write-to-temp, fsync, rename).
#[derive(Debug)]
struct FileBacking {
    ckpt_path: PathBuf,
    /// Open append handle on the node's log file.
    log_file: File,
}

impl FileBacking {
    fn append_and_sync(&mut self, bytes: &[u8]) {
        self.log_file
            .write_all(bytes)
            .expect("wal: append to log file");
        self.log_file.sync_data().expect("wal: fsync log file");
    }

    /// Replaces the checkpoint file with `checkpoint` and truncates the log
    /// file, in the crash-safe order: new checkpoint durable first.
    fn write_checkpoint(&mut self, checkpoint: &[u8]) {
        let tmp = self.ckpt_path.with_extension("ckpt.tmp");
        let mut f = File::create(&tmp).expect("wal: create checkpoint temp");
        f.write_all(checkpoint).expect("wal: write checkpoint");
        f.sync_all().expect("wal: fsync checkpoint");
        drop(f);
        std::fs::rename(&tmp, &self.ckpt_path).expect("wal: publish checkpoint");
        self.log_file.set_len(0).expect("wal: truncate log file");
        self.log_file.sync_data().expect("wal: fsync truncated log");
    }
}

fn read_file_or_empty(path: &Path) -> Vec<u8> {
    match File::open(path) {
        Ok(mut f) => {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf).expect("wal: read backing file");
            buf
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("wal: open {}: {e}", path.display()),
    }
}

/// Log-structured stable backend: view + checkpoint + write-ahead log.
///
/// The `view` is the volatile read path (destroyed by a crash); durability
/// lives in `checkpoint` + `log[..durable_len]`. Bytes past `durable_len`
/// are mutations awaiting the next commit barrier. With
/// [`WalConfig::path`] set, the durable prefix additionally lives in real
/// files: committed bytes are appended and fsynced at every barrier, and
/// [`WalBackend::open`] recovers them after a process death.
#[derive(Debug)]
pub struct WalBackend {
    cfg: WalConfig,
    view: BTreeMap<String, Vec<u8>>,
    /// Encoded put records for every key at the last checkpoint.
    checkpoint: Vec<u8>,
    /// Records appended since the last checkpoint.
    log: Vec<u8>,
    /// Length of the crash-durable log prefix.
    durable_len: usize,
    /// Mutations since the last commit barrier.
    pending: u64,
    stats: BackendStats,
    file: Option<FileBacking>,
}

impl WalBackend {
    /// Creates an empty in-memory WAL backend (any [`WalConfig::path`] is
    /// ignored; use [`WalBackend::open`] for file backing).
    pub fn new(cfg: WalConfig) -> Self {
        WalBackend {
            cfg,
            view: BTreeMap::new(),
            checkpoint: Vec::new(),
            log: Vec::new(),
            durable_len: 0,
            pending: 0,
            stats: BackendStats::default(),
            file: None,
        }
    }

    /// Opens the backend for `node`: in-memory when [`WalConfig::path`] is
    /// `None`, otherwise file-backed in that directory (`node-<id>.log` /
    /// `node-<id>.ckpt`), replaying whatever a previous process committed
    /// there and discarding any torn tail — both from the file.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the files cannot be
    /// read — a node host that cannot reach its stable storage must not
    /// come up.
    pub fn open(cfg: WalConfig, node: NodeId) -> Self {
        let Some(dir) = cfg.path.clone() else {
            return WalBackend::new(cfg);
        };
        std::fs::create_dir_all(&dir).expect("wal: create backing directory");
        let log_path = dir.join(format!("node-{}.log", node.0));
        let ckpt_path = dir.join(format!("node-{}.ckpt", node.0));
        let checkpoint = read_file_or_empty(&ckpt_path);
        let log = read_file_or_empty(&log_path);
        // Discard a torn tail (a crash mid-append) from the file before
        // opening it for further appends.
        let valid = valid_prefix_len(&log);
        let torn = (log.len() - valid) as u64;
        let log_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .expect("wal: open log file");
        if torn > 0 {
            log_file.set_len(valid as u64).expect("wal: drop torn tail");
            log_file.sync_data().expect("wal: fsync truncated log");
        }
        let mut backend = WalBackend {
            cfg,
            view: BTreeMap::new(),
            checkpoint,
            log,
            durable_len: 0,
            pending: 0,
            stats: BackendStats::default(),
            file: Some(FileBacking {
                ckpt_path,
                log_file,
            }),
        };
        backend.recover();
        backend
    }

    /// Re-encodes the whole view as the checkpoint and truncates the log.
    fn checkpoint_now(&mut self) {
        self.checkpoint.clear();
        for (k, v) in &self.view {
            encode_put_frame(&mut self.checkpoint, k, v);
        }
        if let Some(f) = &mut self.file {
            f.write_checkpoint(&self.checkpoint);
        }
        self.log.clear();
        self.durable_len = 0;
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += self.checkpoint.len() as u64;
    }

    /// Replays `buf` into `view`, returning the number of bytes consumed by
    /// complete frames and the number of records applied. Stops (without
    /// consuming) at the first torn or malformed frame.
    fn replay(view: &mut BTreeMap<String, Vec<u8>>, buf: &[u8]) -> (usize, u64) {
        let mut pos = 0usize;
        let mut records = 0u64;
        while pos < buf.len() {
            match decode_frame(buf, &mut pos) {
                Some(Frame::Put(k, v)) => {
                    view.insert(k.to_owned(), v.to_vec());
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
    /// the log *as if durable* — modeling a crash that interrupted the disk
    /// flush, leaving a torn tail for recovery to discard. Mutations still
    /// pending at that moment never reached the device either, so they are
    /// dropped first (exactly what the reference model loses on crash).
    pub fn inject_torn_tail(&mut self, bytes: &[u8]) {
        self.log.truncate(self.durable_len);
        self.pending = 0;
        self.log.extend_from_slice(bytes);
        self.durable_len = self.log.len();
        if let Some(f) = &mut self.file {
            f.append_and_sync(bytes);
        }
    }

    /// Current length of the durable log prefix (test inspection).
    pub fn durable_log_len(&self) -> usize {
        self.durable_len
    }
}

impl StableBackend for WalBackend {
    fn name(&self) -> &'static str {
        "wal"
    }

    fn put(&mut self, key: String, value: Vec<u8>) {
        let before = self.log.len();
        encode_put_frame(&mut self.log, &key, &value);
        self.stats.wal_bytes += (self.log.len() - before) as u64;
        self.stats.records += 1;
        self.pending += 1;
        self.view.insert(key, value);
    }

    fn get(&self, key: &str) -> Option<&[u8]> {
        self.view.get(key).map(Vec::as_slice)
    }

    fn delete(&mut self, key: &str) -> Option<Vec<u8>> {
        let prev = self.view.remove(key)?;
        let before = self.log.len();
        encode_delete_frame(&mut self.log, key);
        self.stats.wal_bytes += (self.log.len() - before) as u64;
        self.stats.records += 1;
        self.pending += 1;
        Some(prev)
    }

    fn len(&self) -> usize {
        self.view.len()
    }

    fn iter<'a>(&'a self) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(self.view.iter().map(|(k, v)| (k.as_str(), v.as_slice())))
    }

    fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> Box<dyn Iterator<Item = (&'a str, &'a [u8])> + 'a> {
        Box::new(prefix_range(&self.view, prefix))
    }

    fn commit(&mut self) -> bool {
        let had_pending = self.pending > 0;
        if had_pending {
            let prev = self.durable_len;
            self.durable_len = self.log.len();
            // The fsync *is* the durability watermark: everything up to
            // `durable_len` survives a process death, nothing past it does.
            if let Some(f) = &mut self.file {
                f.append_and_sync(&self.log[prev..self.durable_len]);
            }
            self.pending = 0;
            self.stats.commits += 1;
            if self.log.len() >= self.cfg.checkpoint_bytes {
                self.checkpoint_now();
            }
        }
        had_pending
    }

    fn crash(&mut self) {
        // Uncommitted log bytes never reached stable media.
        self.log.truncate(self.durable_len);
        self.pending = 0;
        // The view is volatile: drop it; `recover` rebuilds it.
        self.view.clear();
        self.recover();
    }

    fn recover(&mut self) {
        // Discard a torn tail: keep only the prefix of complete frames.
        let valid_len = valid_prefix_len(&self.log);
        if valid_len < self.log.len() {
            self.stats.torn_bytes_discarded += (self.log.len() - valid_len) as u64;
            self.log.truncate(valid_len);
        }
        self.durable_len = self.log.len();
        // Rebuild the view: checkpoint first, then the log.
        self.view.clear();
        let (ckpt_bytes, from_checkpoint) = WalBackend::replay(&mut self.view, &self.checkpoint);
        let (log_bytes, from_log) = WalBackend::replay(&mut self.view, &self.log);
        self.pending = 0;
        self.stats.recoveries += 1;
        self.stats.replayed_records += from_checkpoint + from_log;
        self.stats.replayed_bytes += (ckpt_bytes + log_bytes) as u64;
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    /// Clones are memory-resident snapshots: the file handle is *not*
    /// duplicated (two appenders on one log would corrupt it), so a clone
    /// behaves like the in-memory backend with the same state.
    fn clone_backend(&self) -> Box<dyn StableBackend> {
        Box::new(WalBackend {
            cfg: WalConfig {
                path: None,
                ..self.cfg.clone()
            },
            view: self.view.clone(),
            checkpoint: self.checkpoint.clone(),
            log: self.log.clone(),
            durable_len: self.durable_len,
            pending: self.pending,
            stats: self.stats,
            file: None,
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

    fn dump(b: &WalBackend) -> Vec<(String, Vec<u8>)> {
        b.iter().map(|(k, v)| (k.to_owned(), v.to_vec())).collect()
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
    fn checkpoint_truncates_log_and_preserves_scan_order() {
        let mut b = WalBackend::new(WalConfig {
            checkpoint_bytes: 64,
            ..WalConfig::default()
        });
        for i in (0..20).rev() {
            b.put(format!("k/{i:02}"), vec![i as u8; 8]);
            b.commit();
        }
        let stats = b.stats();
        assert!(stats.checkpoints > 0, "log must have rolled over");
        assert!(b.durable_log_len() < 64 + 16, "log was truncated");
        // Ordered prefix scan sees all keys, sorted, across the
        // checkpoint/log split.
        let keys: Vec<&str> = b.iter_prefix("k/").map(|(k, _)| k).collect();
        let expected: Vec<String> = (0..20).map(|i| format!("k/{i:02}")).collect();
        assert_eq!(keys, expected);
        // And the split survives crash + recovery.
        b.crash();
        let keys: Vec<&str> = b.iter_prefix("k/").map(|(k, _)| k).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn deletes_replay_over_checkpoint() {
        let mut b = WalBackend::new(WalConfig {
            checkpoint_bytes: 32,
            ..WalConfig::default()
        });
        b.put("keep".into(), vec![1]);
        b.put("drop".into(), vec![2; 40]);
        b.commit(); // big enough to checkpoint
        assert!(b.stats().checkpoints >= 1);
        b.delete("drop");
        b.commit();
        b.crash();
        assert_eq!(b.get("keep"), Some(&[1u8][..]));
        assert_eq!(b.get("drop"), None);
    }

    /// Tails no encoder writes: a bad tag, and a length — the frame's, the
    /// key's, the value's — that declares more than is there, up to the
    /// `u64::MAX` that overflows an unchecked `pos + len`.
    fn malformed_tails() -> Vec<Vec<u8>> {
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let mut tails = vec![
            vec![0x01, 0xFF],             // unknown tag
            vec![0x00],                   // zero-length frame
            vec![0x03, 0x00, 0x01, b'a'], // put frame truncated inside body
            vec![0x02, 0x01, 0x05],       // delete whose klen overruns the body
        ];
        tails.push([&max[..], &[TAG_PUT, 1, b'k', 1, 7]].concat()); // frame length
        tails.push([&[12, TAG_PUT][..], &max, b"k"].concat()); // key length
        tails.push([&[14, TAG_PUT, 1, b'k'][..], &max, &[7]].concat()); // value length
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
    fn file_backed_checkpoint_rolls_log_and_survives_reopen() {
        let dir = temp_wal_dir("ckpt");
        {
            let mut b = WalBackend::open(file_cfg(&dir, 64), NodeId(1));
            for i in 0..20 {
                b.put(format!("k/{i:02}"), vec![i as u8; 8]);
                b.commit();
            }
            assert!(b.stats().checkpoints > 0, "log must have rolled over");
        }
        let log_len = std::fs::metadata(dir.join("node-1.log"))
            .expect("log file exists")
            .len();
        assert!(log_len < 64 + 16, "log file was truncated at checkpoint");
        let b = WalBackend::open(file_cfg(&dir, 64), NodeId(1));
        let keys: Vec<String> = b.iter_prefix("k/").map(|(k, _)| k.to_owned()).collect();
        let expected: Vec<String> = (0..20).map(|i| format!("k/{i:02}")).collect();
        assert_eq!(keys, expected);
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
