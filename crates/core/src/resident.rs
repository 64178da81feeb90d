//! The resident-record step path: lazy log decode and O(delta) encoding.
//!
//! The step-commit protocol (§4.4) makes the agent record durable after
//! every step, and the rollback log is usually the dominant share of the
//! record's bytes. Forward execution, however, only ever *appends* to the
//! log — the entries themselves are needed exclusively on rollback,
//! migration-time compaction, and savepoint removal. This module exploits
//! that:
//!
//! * [`LazyRecord`] is a borrowed view of a serialized record that decodes
//!   every field *except* the log eagerly; the `(SP | BOS OE* EOS)*` log
//!   section is structurally validated ([`FieldCursor::skip`]) but kept
//!   as a byte slice.
//! * [`ResidentRecord`] is the owned working form the platform's step path
//!   runs on. Its [`ResidentLog`] keeps the log *sealed* — the retained
//!   encoded bytes plus a small [`RollbackLog`] of entries appended since —
//!   and only materializes a full [`RollbackLog`] when an operation
//!   actually needs entries.
//! * [`ResidentRecord::to_bytes`] splice-encodes: the retained log bytes
//!   are copied verbatim, freshly appended entries are encoded once (their
//!   cached sizes from the log's `Stored` wrappers delimit the spliced
//!   span), and everything else is re-encoded normally. The output is
//!   **byte-identical** to [`AgentRecord::to_bytes`] of the equivalent
//!   record — property-tested in `crates/core/tests/resident_record_props.rs`
//!   — so readers, stable storage, and the wire format are unchanged.
//!
//! Durability cost per step is thereby proportional to what changed (data
//! space, cursor, the step's new log entries), not to what exists (the
//! whole log).

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use mar_itinerary::{Cursor, Itinerary};
use mar_wire::FieldCursor;

use crate::costmodel::CostModel;
use crate::data::DataSpace;
use crate::error::CoreError;
use crate::itinspan::{classify_span, SpanKind};
use crate::log::{CompactionReport, LogEntry, LogStats, LoggingMode, RollbackLog};
use crate::planner::{RollbackMode, RollbackView};
use crate::record::{AgentId, AgentRecord, AgentStatus, RecordHeader};
use crate::savepoint::SavepointTable;

/// Number of fields in the serialized [`AgentRecord`] layout (`docs/WIRE.md`,
/// "The agent record").
const RECORD_FIELDS: u64 = 12;
/// Number of fields in the serialized [`RollbackLog`] layout
/// (`entries`, `bytes`).
const LOG_FIELDS: u64 = 2;

/// The record's itinerary as a content-addressed wire span: the exact
/// encoded bytes (shared), their stable content hash, and a decode-once
/// tree.
///
/// The itinerary never changes after launch, so the slot treats its
/// encoding as the source of truth: parsing a record captures the span
/// without decoding it ([`mar_wire::content_hash64`] over the span is the
/// agent-type-wide cache key), encoding splices the span back verbatim,
/// and the decoded tree is built at most once per slot *family* — clones
/// share the [`OnceLock`], so a per-node intern table handing out clones
/// of one slot gives every record of that agent type the same
/// `Arc<Itinerary>`.
#[derive(Debug, Clone)]
pub struct ItinerarySlot {
    hash: u64,
    bytes: Arc<[u8]>,
    tree: Arc<OnceLock<Arc<Itinerary>>>,
}

impl PartialEq for ItinerarySlot {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl ItinerarySlot {
    /// Wraps the exact wire encoding of an inline itinerary.
    ///
    /// # Errors
    ///
    /// Rejects spans that are not framed as an inline itinerary — in
    /// particular the by-reference form, which must be rehydrated before a
    /// record is parsed (stable storage never holds references).
    pub fn from_span(span: &[u8]) -> Result<ItinerarySlot, CoreError> {
        match classify_span(span)? {
            SpanKind::Inline => Ok(ItinerarySlot {
                hash: mar_wire::content_hash64(span),
                bytes: span.into(),
                tree: Arc::new(OnceLock::new()),
            }),
            SpanKind::Ref(hash) => Err(CoreError::CorruptLog(format!(
                "record holds itinerary reference {hash:#018x}; \
                 rehydrate before parsing"
            ))),
        }
    }

    /// Builds a slot from a decoded tree, pre-seeding the decode cache.
    ///
    /// # Errors
    ///
    /// Codec errors from encoding the tree.
    pub fn from_tree(itinerary: Itinerary) -> Result<ItinerarySlot, CoreError> {
        let bytes = mar_wire::to_bytes(&itinerary)?;
        let tree = Arc::new(OnceLock::new());
        let _ = tree.set(Arc::new(itinerary));
        Ok(ItinerarySlot {
            hash: mar_wire::content_hash64(&bytes),
            bytes: bytes.into(),
            tree,
        })
    }

    /// The stable content hash of the encoded span.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The exact wire encoding of the itinerary.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether the tree has already been decoded (by this slot or any
    /// clone of it).
    pub fn is_decoded(&self) -> bool {
        self.tree.get().is_some()
    }

    /// The decoded itinerary, shared; decodes on first use and never
    /// again for this slot family.
    ///
    /// # Errors
    ///
    /// Codec errors for a span that is framing-valid but not a decodable
    /// itinerary.
    pub fn tree(&self) -> Result<Arc<Itinerary>, CoreError> {
        if let Some(t) = self.tree.get() {
            return Ok(Arc::clone(t));
        }
        let decoded: Itinerary = mar_wire::from_slice(&self.bytes)?;
        Ok(Arc::clone(self.tree.get_or_init(|| Arc::new(decoded))))
    }

    /// An owned copy of the decoded tree (for [`AgentRecord`] conversion).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ItinerarySlot::tree`].
    pub fn materialize(&self) -> Result<Itinerary, CoreError> {
        Ok((*self.tree()?).clone())
    }
}

/// The one reader of the record's wire layout (`docs/WIRE.md`, "The agent
/// record"): its methods are the leading fields in wire order, and every
/// reader of an encoded record — [`LazyRecord::parse`],
/// [`AgentRecord::peek_header`], [`AgentRecord::peek_data`],
/// [`itinerary_span`](crate::itinspan::itinerary_span) — is this walk,
/// stopped where it has what it needs.
pub(crate) struct RecordWalk<'a>(FieldCursor<'a>);

impl<'a> RecordWalk<'a> {
    /// Starts the walk; rejects anything that does not declare the
    /// record's [`RECORD_FIELDS`] fields.
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, CoreError> {
        Ok(RecordWalk(FieldCursor::open(bytes, RECORD_FIELDS)?))
    }

    /// `id`, `agent_type` (borrowed), `home`.
    pub(crate) fn header(&mut self) -> Result<RecordHeader<'a>, CoreError> {
        Ok(RecordHeader {
            id: self.0.next()?,
            agent_type: self.0.next()?,
            home: self.0.next()?,
        })
    }

    /// `data`.
    pub(crate) fn data(&mut self) -> Result<DataSpace, CoreError> {
        Ok(self.0.next()?)
    }

    /// `itinerary`, as the span of the input it occupies (inline or
    /// by-reference form). Whatever of the four fields before it is still
    /// unread is passed over undecoded.
    pub(crate) fn itinerary(&mut self) -> Result<Range<usize>, CoreError> {
        while self.0.pending() > RECORD_FIELDS - 4 {
            self.0.skip()?;
        }
        Ok(self.0.skip()?)
    }
}

/// A borrowed view of a serialized [`AgentRecord`] with the rollback-log
/// section left undecoded.
///
/// All fields before and after the log are decoded eagerly (they are needed
/// to run a step); the log section is checked for well-formed framing and
/// kept as the `bytes[..]` slice it occupies. Decoding work and allocation
/// are therefore O(record without log) instead of O(record).
#[derive(Debug)]
pub struct LazyRecord<'a> {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name, borrowed from the serialized record.
    pub agent_type: &'a str,
    /// Home node index.
    pub home: u32,
    /// Private data space (SRO + WRO).
    pub data: DataSpace,
    /// The (immutable) itinerary as its content-addressed wire span.
    pub itinerary: ItinerarySlot,
    /// Execution position.
    pub cursor: Cursor,
    /// Savepoint bookkeeping.
    pub table: SavepointTable,
    /// The encoding of the log's entries (concatenated, headerless).
    log_bytes: &'a [u8],
    /// Number of entries in the log section.
    log_entries: usize,
    /// The log's serialized total byte count (its `bytes` field).
    log_size: usize,
    /// How many of `log_bytes` are savepoint entries.
    log_savepoint_bytes: usize,
    /// Monotone counter of committed steps.
    pub step_seq: u64,
    /// Current status.
    pub status: AgentStatus,
    /// SRO capture mode for savepoints.
    pub logging_mode: LoggingMode,
    /// Which rollback mechanism this agent uses.
    pub rollback_mode: RollbackMode,
}

impl<'a> LazyRecord<'a> {
    /// Parses a serialized record, decoding everything but the log entries.
    /// The whole input must be exactly one record (the queue-item framing).
    ///
    /// # Errors
    ///
    /// Codec errors for inputs that are not a well-framed record; note the
    /// log entries are only *structurally* validated — a framing-valid but
    /// semantically corrupt entry surfaces when the log is materialized.
    pub fn parse(bytes: &'a [u8]) -> Result<LazyRecord<'a>, CoreError> {
        let mut walk = RecordWalk::open(bytes)?;
        let header = walk.header()?;
        let data = walk.data()?;
        // The itinerary is captured as its wire span: structurally skipped,
        // hashed, never decoded here. The platform primes the decoded tree
        // from its per-node intern table; a record that bypasses the table
        // decodes lazily on first cursor access.
        let itinerary = ItinerarySlot::from_span(&bytes[walk.itinerary()?])?;
        let fields = &mut walk.0;
        let cursor = fields.next()?;
        let table = fields.next()?;
        // The log: `SEQ(2) SEQ(n) entry*n bytes` — walk the entries without
        // building them, adding up the savepoint entries on the way (the
        // only bytes a compaction pass can reclaim).
        fields.enter(LOG_FIELDS)?;
        let log_entries = fields.enter_seq()? as usize;
        let entries_start = fields.position();
        let mut log_savepoint_bytes = 0;
        for _ in 0..log_entries {
            let is_savepoint = fields.peek_variant() == Some(LogEntry::SAVEPOINT_VARIANT);
            let span = fields.skip()?;
            if is_savepoint {
                log_savepoint_bytes += span.len();
            }
        }
        let log_bytes = &bytes[entries_start..fields.position()];
        let log_size = fields.next::<u64>()? as usize;
        let step_seq = fields.next()?;
        let status = fields.next()?;
        let logging_mode = fields.next()?;
        let rollback_mode = fields.next()?;
        walk.0.finish()?;
        Ok(LazyRecord {
            id: header.id,
            agent_type: header.agent_type,
            home: header.home,
            data,
            itinerary,
            cursor,
            table,
            log_bytes,
            log_entries,
            log_size,
            log_savepoint_bytes,
            step_seq,
            status,
            logging_mode,
            rollback_mode,
        })
    }

    /// Number of log entries (known without decoding them).
    pub fn log_entry_count(&self) -> usize {
        self.log_entries
    }

    /// The log's total encoded byte count (its serialized `bytes` field).
    pub fn log_size_bytes(&self) -> usize {
        self.log_size
    }

    /// Converts into an owned [`ResidentRecord`], copying only the log
    /// section's bytes (one memcpy — the log entries stay undecoded).
    pub fn into_resident(self) -> ResidentRecord {
        ResidentRecord {
            id: self.id,
            agent_type: self.agent_type.to_owned(),
            home: self.home,
            data: self.data,
            itinerary: self.itinerary,
            cursor: self.cursor,
            table: self.table,
            log: ResidentLog::Sealed(SealedLog {
                retained: self.log_bytes.to_vec(),
                retained_entries: self.log_entries,
                retained_size: self.log_size,
                retained_savepoint_bytes: self.log_savepoint_bytes,
                appended: RollbackLog::new(),
            }),
            step_seq: self.step_seq,
            status: self.status,
            logging_mode: self.logging_mode,
            rollback_mode: self.rollback_mode,
        }
    }

    /// Fully decodes into an [`AgentRecord`].
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn into_record(self) -> Result<AgentRecord, CoreError> {
        self.into_resident().into_record()
    }
}

fn decode_entries(bytes: &[u8], count: usize, total_size: usize) -> Result<RollbackLog, CoreError> {
    let mut fields = FieldCursor::values(bytes, count as u64);
    // `count` entries were framed in `bytes`, so it is bounded by its length.
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(fields.next::<LogEntry>()?);
    }
    fields.finish()?;
    Ok(RollbackLog::from_wire_parts(entries, total_size))
}

/// The sealed form of a resident record's log: the retained encoded bytes
/// of every entry up to the last encode, plus the (decoded) entries
/// appended since.
#[derive(Debug, Clone)]
pub struct SealedLog {
    /// Concatenated entry encodings (headerless).
    retained: Vec<u8>,
    /// How many entries `retained` holds.
    retained_entries: usize,
    /// Their total encoded size — always `retained.len()`-consistent with
    /// the wire's `bytes` field semantics.
    retained_size: usize,
    /// How many bytes of `retained` are savepoint entries: counted by the
    /// walk that framed them, kept in step by the fold and the reseal, so a
    /// sealed log can say whether a compaction pass could pay without being
    /// decoded.
    retained_savepoint_bytes: usize,
    /// Entries appended since the seal; push-only.
    appended: RollbackLog,
}

/// A resident record's rollback log: sealed while forward execution only
/// appends, materialized on demand.
#[derive(Debug, Clone)]
pub enum ResidentLog {
    /// Encoded prefix + appended entries; the steady-state forward form.
    Sealed(SealedLog),
    /// Fully decoded (rollback, compaction, savepoint removal).
    Full(RollbackLog),
}

impl ResidentLog {
    /// Total number of entries.
    pub fn len(&self) -> usize {
        match self {
            ResidentLog::Sealed(s) => s.retained_entries + s.appended.len(),
            ResidentLog::Full(log) => log.len(),
        }
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded size in bytes (exact in both forms).
    pub fn size_bytes(&self) -> usize {
        match self {
            ResidentLog::Sealed(s) => s.retained_size + s.appended.size_bytes(),
            ResidentLog::Full(log) => log.size_bytes(),
        }
    }

    /// Encoded size of the savepoint entries alone — what a compaction pass
    /// works on. Exact in both forms, and free on a sealed log: the prefix
    /// was counted when it was framed, appended entries when they were
    /// pushed.
    pub fn savepoint_bytes(&self) -> usize {
        match self {
            ResidentLog::Sealed(s) => {
                s.retained_savepoint_bytes + s.appended.stats().savepoint_bytes
            }
            ResidentLog::Full(log) => log.stats().savepoint_bytes,
        }
    }

    /// True while the log prefix is still encoded.
    pub fn is_sealed(&self) -> bool {
        matches!(self, ResidentLog::Sealed(_))
    }

    /// The log to append new entries to. In sealed form this is the small
    /// appended-entries log — pushing there is the whole point: the step
    /// path logs BOS/OE/EOS frames and savepoint entries without ever
    /// decoding the retained prefix.
    pub fn for_append(&mut self) -> &mut RollbackLog {
        match self {
            ResidentLog::Sealed(s) => &mut s.appended,
            ResidentLog::Full(log) => log,
        }
    }

    /// Materializes the full [`RollbackLog`], decoding the sealed prefix if
    /// necessary and absorbing the appended entries (moved, their cached
    /// sizes preserved). Idempotent; every later call is a field access.
    ///
    /// # Errors
    ///
    /// Codec errors for a sealed prefix whose entries fail to decode.
    pub fn materialize(&mut self) -> Result<&mut RollbackLog, CoreError> {
        if let ResidentLog::Sealed(s) = self {
            let mut log = decode_entries(&s.retained, s.retained_entries, s.retained_size)?;
            // Debug builds hold the count the sealed form answered with
            // against the entries at every decode. Bytes that decode but are
            // not what the encoder writes (a signed tag on an unsigned field)
            // measure differently re-encoded; those are not ours to check.
            if cfg!(debug_assertions) {
                let decoded = LogStats::of(&log);
                if decoded.total_bytes == s.retained.len() {
                    assert_eq!(
                        s.retained_savepoint_bytes, decoded.savepoint_bytes,
                        "a sealed log's savepoint bytes and its decoded entries'"
                    );
                }
            }
            log.absorb(std::mem::take(&mut s.appended));
            *self = ResidentLog::Full(log);
        }
        match self {
            ResidentLog::Full(log) => Ok(log),
            ResidentLog::Sealed(_) => unreachable!("materialized above"),
        }
    }

    /// Consumes the log, materializing if needed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResidentLog::materialize`].
    pub fn into_log(mut self) -> Result<RollbackLog, CoreError> {
        self.materialize()?;
        match self {
            ResidentLog::Full(log) => Ok(log),
            ResidentLog::Sealed(_) => unreachable!("materialized above"),
        }
    }
}

/// The owned, volatile-memory working form of an agent record: every field
/// of [`AgentRecord`] with the rollback log kept as a [`ResidentLog`].
///
/// The platform's step path decodes a queue item into this once (lazily —
/// see [`LazyRecord`]), runs steps against it, and re-encodes it in
/// O(delta) via [`ResidentRecord::to_bytes`]. While an agent stays on a
/// node, the record additionally stays cached in memory between steps, so
/// the steady state neither decodes nor re-encodes anything but the delta.
#[derive(Debug, Clone)]
pub struct ResidentRecord {
    /// Unique id.
    pub id: AgentId,
    /// Behaviour type name (the agent's "code").
    pub agent_type: String,
    /// Node (location index) where results are reported.
    pub home: u32,
    /// Private data space (SRO + WRO).
    pub data: DataSpace,
    /// The (immutable) itinerary as its content-addressed wire span.
    pub itinerary: ItinerarySlot,
    /// Execution position.
    pub cursor: Cursor,
    /// Savepoint bookkeeping.
    pub table: SavepointTable,
    /// The rollback log (sealed or materialized).
    pub log: ResidentLog,
    /// Monotone counter of committed steps.
    pub step_seq: u64,
    /// Current status.
    pub status: AgentStatus,
    /// SRO capture mode for savepoints.
    pub logging_mode: LoggingMode,
    /// Which rollback mechanism this agent uses.
    pub rollback_mode: RollbackMode,
}

impl ResidentRecord {
    /// Parses a serialized record into resident form without decoding the
    /// log entries (see [`LazyRecord::parse`]).
    ///
    /// # Errors
    ///
    /// Codec errors for malformed records.
    pub fn from_bytes(bytes: &[u8]) -> Result<ResidentRecord, CoreError> {
        Ok(LazyRecord::parse(bytes)?.into_resident())
    }

    /// Converts into a fully decoded [`AgentRecord`], materializing the log
    /// if it is still sealed.
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn into_record(self) -> Result<AgentRecord, CoreError> {
        Ok(AgentRecord {
            id: self.id,
            agent_type: self.agent_type,
            home: self.home,
            data: self.data,
            itinerary: self.itinerary.materialize()?,
            cursor: self.cursor,
            table: self.table,
            log: self.log.into_log()?,
            step_seq: self.step_seq,
            status: self.status,
            logging_mode: self.logging_mode,
            rollback_mode: self.rollback_mode,
        })
    }

    /// What the rollback planners run on
    /// ([`RollbackSubject`](crate::RollbackSubject)): the log,
    /// materialized in place, and the data space, borrowed. The itinerary is
    /// not decoded, and the record stays resident.
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn rollback_view(&mut self) -> Result<RollbackView<'_>, CoreError> {
        Ok(RollbackView {
            log: self.log.materialize()?,
            data: &mut self.data,
            step_seq: self.step_seq,
            logging_mode: self.logging_mode,
            rollback_mode: self.rollback_mode,
        })
    }

    /// Applies a restore plan exactly like [`AgentRecord::apply_restore`] —
    /// the log is not touched (the planner already consumed its entries), so
    /// a sealed log stays sealed.
    pub fn apply_restore(&mut self, plan: crate::planner::RestorePlan) {
        plan.apply(&mut self.data, &mut self.cursor, &mut self.table);
        self.status = AgentStatus::Forward;
    }

    /// Compacts the rollback log in place (materializing it first), exactly
    /// like [`AgentRecord::compact_log`].
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn compact_log(&mut self) -> Result<CompactionReport, CoreError> {
        let log = self.log.materialize()?;
        Ok(log.compact(self.data.shadow()))
    }

    /// The transfer policy: compacts the log of a record about to cross the
    /// network when that can pay for itself, and says what the pass did.
    /// `None` — no pass — when the savepoint entries, the only bytes a pass
    /// can reclaim, are too few for the wire time saved to cover the CPU
    /// time ([`CostModel::compaction_pays`]; a sealed log answers from
    /// [`ResidentLog::savepoint_bytes`] and is not decoded), or when the
    /// log, once decoded, has had no redundancy-introducing mutation since
    /// its last pass ([`RollbackLog::is_dirty`]).
    ///
    /// # Errors
    ///
    /// Codec errors from the deferred log decode.
    pub fn compact_for_transfer(
        &mut self,
        model: &CostModel,
        cpu_us_per_kb: u64,
    ) -> Result<Option<CompactionReport>, CoreError> {
        if !model.compaction_pays(self.log.savepoint_bytes(), cpu_us_per_kb) {
            return Ok(None);
        }
        let log = self.log.materialize()?;
        Ok(log.is_dirty().then(|| log.compact(self.data.shadow())))
    }

    /// Serializes the record — byte-identical to
    /// [`AgentRecord::to_bytes`] of the equivalent record.
    ///
    /// Sealed logs are **splice-encoded**: the retained entry bytes are
    /// copied verbatim, entries appended since the last encode are encoded
    /// once (O(delta)), and the freshly encoded span — delimited by the
    /// appended entries' cached sizes — is folded into the retained bytes,
    /// so the *next* encode's delta starts empty. A **materialized** log is
    /// encoded entry by entry, and — for a record in forward execution,
    /// where everything after this point only appends — the freshly encoded
    /// entry section is installed as a new seal, so one post-materialization
    /// encode buys the O(delta) path back for the rest of the residence.
    /// (Rolling-back records stay materialized: the planner consumes
    /// entries every round.) Takes `&mut self` for exactly these folds; the
    /// output bytes are the same with or without them.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn to_bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        self.encode(true)
    }

    /// Like [`ResidentRecord::to_bytes`], for a record that is about to
    /// leave this memory (remote transfer): identical output bytes, but the
    /// fold/reseal cache-priming — an O(log) copy whose beneficiary would
    /// be the next local encode — is skipped.
    ///
    /// # Errors
    ///
    /// Codec errors only.
    pub fn to_transfer_bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        self.encode(false)
    }

    fn encode(&mut self, retain: bool) -> Result<Vec<u8>, CoreError> {
        // A hint: the log is most of a record; the rest grows the buffer
        // once or twice at worst.
        let cap = 256 + self.log.size_bytes();
        let mut ser = mar_wire::BinSerializer::with_capacity(cap);
        ser.begin_struct(RECORD_FIELDS as usize);
        ser.value(&self.id)?;
        ser.value(&self.agent_type)?;
        ser.value(&self.home)?;
        ser.value(&self.data)?;
        // The itinerary is immutable: its captured wire span is spliced in
        // verbatim (identical bytes to re-encoding, without the encode).
        ser.raw_value_bytes(self.itinerary.as_bytes());
        ser.value(&self.cursor)?;
        ser.value(&self.table)?;
        // The log field: splice for sealed logs, entry-by-entry (the log's
        // flat wire layout) for materialized ones.
        let mut fold: Option<(usize, usize)> = None;
        let mut reseal: Option<(Range<usize>, usize, usize, usize)> = None;
        match &self.log {
            ResidentLog::Full(log) => {
                let size = log.size_bytes();
                ser.begin_struct(LOG_FIELDS as usize);
                ser.begin_seq(log.len());
                let entries_start = ser.len();
                // The new seal's savepoint bytes are the spans written here;
                // asking `stats()` would encode every entry a second time.
                let mut savepoint_bytes = 0;
                for entry in log.iter() {
                    let at = ser.len();
                    ser.value(entry)?;
                    if entry.as_savepoint().is_some() {
                        savepoint_bytes += ser.len() - at;
                    }
                }
                let entries = entries_start..ser.len();
                ser.value(&size)?;
                if retain && matches!(self.status, AgentStatus::Forward) {
                    reseal = Some((entries, log.len(), size, savepoint_bytes));
                }
            }
            ResidentLog::Sealed(s) => {
                let delta_len = s.appended.size_bytes();
                let total_entries = s.retained_entries + s.appended.len();
                let total_size = s.retained_size + delta_len;
                ser.begin_struct(LOG_FIELDS as usize);
                ser.begin_seq(total_entries);
                ser.raw_value_bytes(&s.retained);
                let delta_start = ser.len();
                for entry in s.appended.iter() {
                    ser.value(entry)?;
                }
                debug_assert_eq!(
                    ser.len() - delta_start,
                    delta_len,
                    "cached entry sizes must delimit the spliced span exactly"
                );
                fold = Some((delta_start, delta_len));
                ser.value(&total_size)?;
            }
        }
        ser.value(&self.step_seq)?;
        ser.value(&self.status)?;
        ser.value(&self.logging_mode)?;
        ser.value(&self.rollback_mode)?;
        let out = ser.into_bytes();
        let fold = if retain { fold } else { None };
        if let (Some((delta_start, delta_len)), ResidentLog::Sealed(s)) = (fold, &mut self.log) {
            // Fold the freshly encoded entries into the retained bytes: the
            // next encode splices them instead of re-encoding.
            s.retained
                .extend_from_slice(&out[delta_start..delta_start + delta_len]);
            s.retained_entries += s.appended.len();
            s.retained_size += delta_len;
            s.retained_savepoint_bytes += s.appended.stats().savepoint_bytes;
            s.appended = RollbackLog::new();
        }
        if let Some((span, entries, size, savepoint_bytes)) = reseal {
            self.log = ResidentLog::Sealed(SealedLog {
                retained: out[span].to_vec(),
                retained_entries: entries,
                retained_size: size,
                retained_savepoint_bytes: savepoint_bytes,
                appended: RollbackLog::new(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::{CompOp, EntryKind};
    use mar_itinerary::samples;
    use mar_wire::Value;

    fn record() -> AgentRecord {
        let mut data = DataSpace::new();
        data.set_sro("notes", Value::list([Value::from(1i64)]));
        data.set_wro("wallet", Value::from(100i64));
        let mut rec = AgentRecord::new(
            AgentId(7),
            "shopper",
            0,
            data,
            samples::fig6(),
            LoggingMode::State,
            RollbackMode::Optimized,
        );
        let cursor = rec.cursor.clone();
        rec.table.on_enter_sub(
            "S",
            &mut rec.data,
            &cursor,
            &mut rec.log,
            LoggingMode::State,
        );
        for i in 0..3u64 {
            rec.log.append_step(
                1,
                i,
                "m",
                [(EntryKind::Resource, CompOp::new("undo", Value::from(1i64)))],
                vec![],
            );
            rec.step_seq += 1;
            rec.table.on_step_committed();
        }
        rec
    }

    #[test]
    fn lazy_parse_reads_everything_but_the_log() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let lazy = LazyRecord::parse(&bytes).unwrap();
        assert_eq!(lazy.id, rec.id);
        assert_eq!(lazy.agent_type, "shopper");
        assert_eq!(lazy.data, rec.data);
        assert_eq!(lazy.cursor, rec.cursor);
        assert_eq!(lazy.table, rec.table);
        assert_eq!(lazy.step_seq, rec.step_seq);
        assert_eq!(lazy.status, rec.status);
        assert_eq!(lazy.log_entry_count(), rec.log.len());
        assert_eq!(lazy.log_size_bytes(), rec.log.size_bytes());
        // The log slice points into the input buffer.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&lazy.agent_type.as_ptr()));
        // And full decode restores the record exactly.
        assert_eq!(lazy.into_record().unwrap(), rec);
    }

    #[test]
    fn lazy_parse_rejects_garbage_and_truncation() {
        assert!(LazyRecord::parse(&[0xff, 0x01]).is_err());
        let bytes = record().to_bytes().unwrap();
        assert!(LazyRecord::parse(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(LazyRecord::parse(&trailing).is_err());
    }

    #[test]
    fn sealed_resident_roundtrips_byte_identically() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let mut resident = ResidentRecord::from_bytes(&bytes).unwrap();
        assert!(resident.log.is_sealed());
        assert_eq!(resident.log.len(), rec.log.len());
        assert_eq!(resident.log.size_bytes(), rec.log.size_bytes());
        // Unchanged: encode is a pure splice of the retained bytes.
        assert_eq!(resident.to_bytes().unwrap(), bytes);
        // And again (the fold must be idempotent for no-op deltas).
        assert_eq!(resident.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn splice_encode_equals_full_reencode_after_appends() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let mut resident = ResidentRecord::from_bytes(&bytes).unwrap();
        // Mirror a committed step on both representations.
        let mut full = rec.clone();
        for r in 0..2 {
            let ops = [(
                EntryKind::Agent,
                CompOp::new("give_back", Value::from(r as i64)),
            )];
            resident.log.for_append().append_step(
                2,
                resident.step_seq,
                "buy",
                ops.clone(),
                vec![3],
            );
            resident.step_seq += 1;
            resident
                .data
                .set_sro("notes", Value::list([Value::from(r as i64)]));
            full.log.append_step(2, full.step_seq, "buy", ops, vec![3]);
            full.step_seq += 1;
            full.data
                .set_sro("notes", Value::list([Value::from(r as i64)]));
            let spliced = resident.to_bytes().unwrap();
            assert_eq!(spliced, full.to_bytes().unwrap(), "round {r}");
            assert!(resident.log.is_sealed(), "appends must not unseal");
        }
    }

    #[test]
    fn materialize_merges_appended_entries() {
        let rec = record();
        let bytes = rec.to_bytes().unwrap();
        let mut resident = ResidentRecord::from_bytes(&bytes).unwrap();
        resident.log.for_append().append_step(
            2,
            resident.step_seq,
            "buy",
            [(EntryKind::Resource, CompOp::new("undo", Value::Null))],
            vec![],
        );
        resident.step_seq += 1;
        let mut full = rec.clone();
        full.log.append_step(
            2,
            full.step_seq,
            "buy",
            [(EntryKind::Resource, CompOp::new("undo", Value::Null))],
            vec![],
        );
        full.step_seq += 1;
        let log = resident.log.materialize().unwrap();
        assert_eq!(*log, full.log);
        assert_eq!(log.size_bytes(), full.log.size_bytes());
        // Materialized records encode identically too.
        assert_eq!(resident.to_bytes().unwrap(), full.to_bytes().unwrap());
        assert_eq!(resident.into_record().unwrap(), full);
    }

    #[test]
    fn a_rollback_planned_on_the_view_leaves_the_record_the_decoded_one_would() {
        let mut rec = record();
        let target = rec.table.stack()[0].auto;
        let mut resident = ResidentRecord::from_bytes(&rec.to_bytes().unwrap()).unwrap();
        let plan = crate::plan_batch(&mut resident.rollback_view().unwrap(), target).unwrap();
        assert_eq!(plan, crate::plan_batch(&mut rec, target).unwrap());
        assert!(!resident.log.is_sealed());
        assert!(
            !resident.itinerary.is_decoded(),
            "planning reads no itinerary"
        );
        assert_eq!(resident.to_bytes().unwrap(), rec.to_bytes().unwrap());
        assert_eq!(resident.into_record().unwrap(), rec);
    }

    #[test]
    fn slot_hash_is_stable_across_construction_paths() {
        // Same tree, three roads to a slot: from the decoded tree, from the
        // span captured out of an encoded record, and from a tree rebuilt
        // by decode. All must agree on bytes and hash — the hash is a wire
        // commitment shared between nodes.
        let tree = samples::fig6();
        let from_tree = ItinerarySlot::from_tree(tree.clone()).unwrap();
        let bytes = record().to_bytes().unwrap();
        let parsed = LazyRecord::parse(&bytes).unwrap().itinerary;
        let rebuilt = ItinerarySlot::from_tree(parsed.materialize().unwrap()).unwrap();
        assert_eq!(from_tree, parsed);
        assert_eq!(from_tree.hash(), parsed.hash());
        assert_eq!(from_tree.hash(), rebuilt.hash());
        assert_eq!(
            from_tree.hash(),
            mar_wire::content_hash64(parsed.as_bytes())
        );
    }

    #[test]
    fn slot_clones_share_one_decode() {
        let bytes = record().to_bytes().unwrap();
        let slot = LazyRecord::parse(&bytes).unwrap().itinerary;
        assert!(!slot.is_decoded(), "parse must not decode the itinerary");
        let clone = slot.clone();
        let tree = clone.tree().unwrap();
        // Decoding through the clone materializes the original too.
        assert!(slot.is_decoded());
        assert!(Arc::ptr_eq(&tree, &slot.tree().unwrap()));
        assert_eq!(*tree, samples::fig6());
    }

    #[test]
    fn slot_rejects_reference_spans() {
        let stripped = crate::itinspan::encode_ref(0xDEAD_BEEF);
        assert!(ItinerarySlot::from_span(&stripped).is_err());
    }
}
