//! The `mole` service: one per node, hosting the agent runtime, the agent
//! input queue, the transaction manager roles, and the resource managers.
//!
//! Forward execution follows the exactly-once protocol of \[11\] (§2): the
//! agent is read from the node's stable input queue, the step runs inside a
//! step transaction spanning local resources and the next node's queue, and
//! commit is a presumed-abort 2PC between the two nodes in which the next
//! node decides. The executing node prepares its own branch — the step's
//! resource records, and a hold on the queue item it took, in one forced
//! barrier — and sends the record with a `Prepare` that asks the next node
//! to decide; that node writes the record as its queue item together with
//! the commit record, in one forced barrier, runs the agent's next step from
//! there, and sends the decision back, on which the executing node's commit
//! only deletes, unforced. A hop is one `Prepare` and one `Decision`.
//! Rollback executes the plans of `mar-core`'s planners inside compensation
//! transactions with the same machinery (§4.3, §4.4): the round's RCE list
//! is one more branch, and the last branch decides.
//!
//! Crash semantics: everything volatile here (locks, undo, in-flight 2PC
//! state, the set of queue items ready to be scheduled, timers) dies with
//! the node and is rebuilt in `on_start` from stable storage — queue items,
//! RM base images and delta records (an in-doubt branch's redone under its
//! transaction), decision records, prepared entries of participants and of
//! this node's own branches; a branch in doubt asks its decider.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use mar_core::comp::CompOpRegistry;
use mar_core::{
    plan_batch, plan_single, start_rollback, AfterRound, AgentStatus, CompError, CostModel,
    Destination, LinkParams, ResidentRecord, StartPlan,
};
use mar_simnet::{Address, Ctx, NodeId, Service, SimDuration, StableStore};
use mar_txn::{
    twopc::Action, Coordinator, LocalBranch, Participant, PreparedEntry, RemoteWork, RmRegistry,
    RmWrite, TxMsg, TxnError, TxnId, TxnIdGen,
};
use serde::{Deserialize, Serialize};

use crate::behavior::{BehaviorRegistry, StepDecision};
use crate::itin::{self, ItinTable};
use crate::msg::{AgentReport, MoleMsg, RceList, ReportOutcome, Tally};
use crate::stepctx::{RmAccess, StepCtx};
use crate::work::Work;

/// Service name of the mole runtime on every node.
pub const MOLE: &str = "mole";

const TAG_RETRY_2PC: u64 = 1;
const TAG_KICK: u64 = 2;
const ITEM_TAG_BASE: u64 = 1 << 32;

/// CPU cost of one compaction pass per savepoint-payload kilobyte, in
/// microseconds: a cost-model constant. It was set when the cost gate was
/// introduced, from the segment-indexed pass timed at about 0.75 µs/KiB,
/// rounded up; nothing re-measures it.
const COMPACTION_CPU_US_PER_KB: u64 = 1;

/// Virtual execution time of one step (or compensation round).
const STEP_COST: SimDuration = SimDuration::from_millis(5);
/// Base retry backoff after transient failures.
const RETRY_BASE: SimDuration = SimDuration::from_millis(20);
/// Exponential backoff cap (`RETRY_BASE * 2^cap`).
const RETRY_MAX_EXP: u32 = 6;
/// 2PC retransmission period.
const TM_RETRY: SimDuration = SimDuration::from_millis(50);
/// Transaction ids a node may issue beyond the one that last moved the
/// stored floor (`txnseq`): the floor is written once per block of 64 ids,
/// and recovery resumes past it.
const TXN_FLOOR_AHEAD: u64 = 63;
/// After this many failed attempts on one queue item the agent is failed
/// instead of retried — the escalation strategy for unresolvable
/// (compensation) failures the paper defers to \[4\]/\[10\].
const MAX_ATTEMPTS: u32 = 40;
/// Link cost model of the compaction gate: the LAN parameters of the
/// simulator's default latency model.
const COST_MODEL: CostModel = CostModel {
    link: LinkParams::LAN,
};
/// Distinct itineraries a node's intern table holds before it evicts the
/// least recently used. Evictions are safe — a reference the node can no
/// longer expand is healed by the NACK/retransmit path.
const ITINERARY_CACHE: usize = 256;

const KEY_QSEQ: &str = "qseq";
const KEY_TXNSEQ: &str = "txnseq";
const KEY_MBOXSEQ: &str = "mboxseq";
/// Records in the node's input queue, and records a prepared transaction
/// holds for it: read the queue through [`queue_keys`] or [`queued_records`].
const Q_PREFIX: &str = "q/";
/// Committed resource state: `rm/<name>` holds a manager's base image,
/// `rm/<name>+<seq:012>` the delta records committed since, in key order
/// (so a manager's name may not contain `+`).
const RM_PREFIX: &str = "rm/";
const DECISION_PREFIX: &str = "2pc/decision/";
const PREPARED_PREFIX: &str = "2pc/prepared/";
/// The prepared local branches of transactions this node coordinates: one
/// [`HeldBranch`] per transaction whose decision is out at its last
/// participant.
const LOCAL_PREFIX: &str = "2pc/local/";
const DONE2PC_PREFIX: &str = "2pc/done/";
pub(crate) const REPORT_PREFIX: &str = "done/";
pub(crate) const HOME_REPORT_PREFIX: &str = "report/";
/// Stable outbox of reports awaiting the home node's ack (retransmitted on
/// the 2PC retry timer; survives crashes of the completing node). An entry is
/// the home node; the report is the `done/<id>` record next to it.
pub(crate) const OUTBOX_PREFIX: &str = "report-outbox/";
/// The home node's driver mailbox: one entry per completed agent, consumed
/// (and deleted) by the driving [`Platform`](crate::Platform).
pub(crate) const MBOX_PREFIX: &str = "mbox/";

/// Platform metric names: the node runtime's section of the counter table.
pub use mar_simnet::platform_metric_keys as keys;

/// The switches of a node runtime — each has a [`PlatformBuilder`](crate::PlatformBuilder)
/// setter with a caller; timings, the retry policy, the link cost model and
/// the intern table's capacity are constants of this module.
#[derive(Debug, Clone)]
pub struct MoleCfg {
    /// Compact the rollback log before every *remote* transfer
    /// ([`mar_core::RollbackLog::compact`]): duplicate savepoint images and
    /// empty deltas become markers, shrinking `agent.transfer_bytes.*`.
    /// Local re-enqueues are never compacted (nothing crosses the wire),
    /// and a pass is skipped when the log is clean since its last pass or
    /// the link cost model says the CPU time cannot pay for the bytes
    /// saved. On by default; off reproduces the raw-byte experiments.
    pub compact_on_transfer: bool,
    /// Fuse maximal same-destination runs of compensation rounds into one
    /// transaction ([`mar_core::plan_batch`]); off falls back to one
    /// transaction per compensated step ([`mar_core::plan_single`], the
    /// unbatched Fig. 4b/5b behaviour, kept for control experiments).
    pub batch_rollback: bool,
    /// Keep the decoded record of an agent resident in volatile memory
    /// between steps on the same node (keyed by queue key, installed only
    /// when the step transaction commits). Steps served from the cache
    /// decode nothing; stable durability is unchanged — the record is
    /// still written through to the stable queue on every commit, and a
    /// crash simply falls back to re-parsing those bytes. On by default;
    /// disable for the `resident/*` control arm.
    pub resident_cache: bool,
    /// Content-address the itinerary (see `docs/ARCHITECTURE.md`,
    /// "Itinerary interning"): each node interns encoded itineraries by
    /// their FNV-64 content hash, records shipped to a destination known to
    /// hold the hash carry an 8-byte reference instead of the tree, and a
    /// receiver that cannot resolve a reference NACKs for one inline
    /// retransmit. The simulated schedule, traces, and byte counters are
    /// billed at the inline size either way, so turning this off changes
    /// only the `itinerary.*` metrics. On by default; off is the
    /// `itinerary/*` control arm.
    pub itinerary_interning: bool,
}

impl Default for MoleCfg {
    fn default() -> Self {
        MoleCfg {
            compact_on_transfer: true,
            batch_rollback: true,
            resident_cache: true,
            itinerary_interning: true,
        }
    }
}

/// What committing a transaction does to the item it took off the queue —
/// the committed side of [`Exit`].
// `Stayed` is the common case, and is moved once in and once out: no box.
#[allow(clippy::large_enum_variant)]
enum Committed {
    /// The record goes back under the same key as `bytes`; `resident` is its
    /// decoded twin for the cache, which so cannot diverge from stable storage.
    Stayed {
        bytes: Vec<u8>,
        resident: Option<ResidentRecord>,
    },
    /// The record went into another node's queue as 2PC work.
    Moved,
    /// The encoded final `report` goes to node `home`.
    Done { home: u32, report: Vec<u8> },
}

/// The record-carrying branch of a transaction whose record moves.
struct Shipment {
    /// The destination — where `itinerary.migration_bytes` accrues.
    dest: NodeId,
    /// What the intern table assumed about, or will learn of, `dest`.
    note: Option<itin::Note>,
    /// For a branch that went out with an itinerary reference: its inline
    /// form, which answers a NACK without depending on the (evictable)
    /// intern table and prices the reference form.
    inline: Option<InlineForm>,
}

/// The inline form of a branch sent with an itinerary reference, kept
/// unencoded: it is encoded only if the destination NACKs the reference,
/// and priced by arithmetic ([`Work::inline_growth`]).
struct InlineForm {
    /// The branch's other works (none on a forward hop) and, last, the
    /// record with its itinerary inline, moved here from the encode.
    works: Vec<Work>,
    /// How much longer the inline record's `Bytes` run is than the
    /// reference record's ([`Work::record_growth`]).
    growth: isize,
    /// A NACK had the coordinator take the inline form in place of the
    /// reference form: from then on the branch goes out as it is billed.
    sent: bool,
}

struct ActiveTxn {
    queue_key: String,
    /// The held queue key a prepared branch wrote a staying record under.
    next_key: Option<String>,
    outcome: Committed,
    /// What the commit counts, here or at the decider.
    metrics: Vec<(Tally, u64)>,
    shipment: Option<Shipment>,
}

enum ItemError {
    Transient(String),
    Permanent(String),
}

enum NextHop {
    Step(u32),
    Finished,
}

/// The one next place of a processed queue item (§2, Fig. 4/5) — see
/// [`MoleService::hand_off`].
enum Exit {
    /// Back into this node's queue, under the same key.
    Stay,
    /// Into node `to`'s queue, as 2PC work; `rollback` says the record is
    /// rolling back rather than in forward execution.
    Move { to: u32, rollback: bool },
    /// Out of the system, as a final report with this outcome.
    Done(ReportOutcome),
}

impl Exit {
    /// The exit of a record in forward execution towards the queue of
    /// `node`, which may be this one.
    fn towards(ctx: &Ctx<'_>, node: u32) -> Exit {
        if node == ctx.node().0 {
            Exit::Stay
        } else {
            Exit::Move {
                to: node,
                rollback: false,
            }
        }
    }

    /// The exit of a record that keeps rolling back at `dest`.
    fn rolling_back(dest: Destination) -> Exit {
        match dest {
            Destination::Local => Exit::Stay,
            Destination::Node(to) => Exit::Move { to, rollback: true },
        }
    }
}

/// The per-node runtime service.
pub struct MoleService {
    cfg: MoleCfg,
    behaviors: Arc<BehaviorRegistry>,
    comps: Arc<CompOpRegistry>,
    rms: RmRegistry,
    idgen: Option<TxnIdGen>,
    /// The stored `txnseq`: every id up to it may be issued without a write.
    txn_floor: u64,
    co: Coordinator,
    pa: Participant,
    active: BTreeMap<TxnId, ActiveTxn>,
    live_branches: BTreeSet<TxnId>,
    /// The keys in this node's queue ([`queue_keys`]) that no timer and no
    /// live transaction is working on: what the next kick schedules, and
    /// empties. Read from the store once, in `on_start`; after that a key
    /// enters with a launch, with the release of its hold, and when the
    /// transaction that took it resolves committed and left the item there.
    ready: BTreeSet<String>,
    attempts: BTreeMap<String, u32>,
    tag_seq: u64,
    tag_map: BTreeMap<u64, String>,
    /// Virtual time of the last (re)transmission per stable-outbox report
    /// key, so the retry timer only retransmits entries that actually
    /// waited a full retry period — not ones whose ack is still in flight.
    /// Volatile on purpose: after a crash every surviving outbox entry is
    /// retransmitted immediately, exactly as before.
    outbox_sent: BTreeMap<String, u64>,
    /// Volatile per-queue-key cache of decoded agent records
    /// ([`MoleCfg::resident_cache`]): while an agent stays on this node,
    /// its working record never leaves memory between steps. Entries are
    /// taken out at the start of processing and re-installed only by a
    /// committing transaction; migration, rollback hand-off, completion,
    /// aborts and crashes (the service is rebuilt) all leave the cache
    /// without the key, so recovery re-decodes from stable bytes exactly
    /// as before.
    resident: BTreeMap<String, ResidentRecord>,
    /// The volatile itinerary intern table and reference protocol state; a
    /// crash leaves it cold by design (`itinerary_intern_props.rs` pins it).
    itin: ItinTable,
    /// The deciding transaction whose arriving records `prepare` interned,
    /// from the slots [`ItinTable::expand`] found: its `apply_work`, next in
    /// the same callback, does not walk them again.
    interned: Option<TxnId>,
}

impl MoleService {
    /// Creates the runtime with its resources and shared registries.
    pub fn new(
        cfg: MoleCfg,
        behaviors: Arc<BehaviorRegistry>,
        comps: Arc<CompOpRegistry>,
        rms: RmRegistry,
    ) -> Self {
        assert!(
            rms.names().iter().all(|name| !name.contains('+')),
            "resource names may not contain '+': it separates name and delta number in stable keys"
        );
        MoleService {
            behaviors,
            comps,
            rms,
            idgen: None,
            txn_floor: 0,
            co: Coordinator::new(),
            pa: Participant::new(),
            active: BTreeMap::new(),
            live_branches: BTreeSet::new(),
            ready: BTreeSet::new(),
            attempts: BTreeMap::new(),
            tag_seq: 0,
            tag_map: BTreeMap::new(),
            outbox_sent: BTreeMap::new(),
            resident: BTreeMap::new(),
            itin: ItinTable::new(cfg.itinerary_interning, ITINERARY_CACHE),
            interned: None,
            cfg,
        }
    }

    /// The node's resource managers (test inspection).
    pub fn rms(&self) -> &RmRegistry {
        &self.rms
    }

    // ----- plumbing ---------------------------------------------------------

    fn send_tx(&self, ctx: &mut Ctx<'_>, to: NodeId, msg: TxMsg) {
        // A Prepare carrying an agent record is billed at its *inline* size
        // even when the itinerary ships as a reference: latency,
        // `net.bytes_sent`, and both trace records are computed from the
        // billed size, so the simulated schedule is independent of the
        // (volatile) intern-table state. The real savings are recorded in
        // the `itinerary.*` counters instead.
        let active = match &msg {
            TxMsg::Prepare { txn, .. } => self.active.get(txn),
            _ => None,
        };
        // The decider counts the commit (`Tally`).
        let tally = match &msg {
            TxMsg::Prepare { decide: true, .. } => active.map(|at| at.metrics.clone()),
            _ => None,
        };
        let shipped = match &msg {
            TxMsg::Prepare { work, .. } => active
                .and_then(|at| at.shipment.as_ref())
                .filter(|shipment| shipment.dest == to)
                // What the inline form adds to the message, if `work` is the
                // reference form (after a NACK the inline work itself goes
                // out).
                .map(|shipment| match &shipment.inline {
                    Some(form) if !form.sent => Work::inline_growth(work, form.growth),
                    _ => 0,
                }),
            _ => None,
        };
        let payload = MoleMsg::Tx {
            from: ctx.node(),
            msg,
            tally: tally.unwrap_or_default(),
        }
        .encode();
        let to = Address::new(to, MOLE);
        let Some(growth) = shipped else {
            return ctx.send(to, payload);
        };
        ctx.metrics()
            .add(keys::ITINERARY_MIGRATION_BYTES, payload.len() as u64);
        match usize::try_from(growth) {
            Ok(saved) if saved > 0 => {
                ctx.metrics().inc(keys::ITINERARY_REF_TRANSFERS);
                ctx.metrics()
                    .add(keys::ITINERARY_WIRE_BYTES_SAVED, saved as u64);
                let billed = payload.len() + saved;
                ctx.send_billed(to, payload, billed);
            }
            _ => ctx.send(to, payload),
        }
    }

    fn alloc_txn(&mut self, ctx: &mut Ctx<'_>) -> TxnId {
        let idgen = self.idgen.as_mut().expect("started");
        let id = idgen.next_id();
        // Recovery resumes past the stored floor, so it never reissues an id;
        // the floor moves a block ahead, and most ids cost no write.
        if id.seq > self.txn_floor {
            self.txn_floor = id.seq + TXN_FLOOR_AHEAD;
            ctx.stable_put(
                KEY_TXNSEQ,
                mar_wire::to_bytes(&self.txn_floor).expect("an integer encodes"),
            );
        }
        id
    }

    /// Puts a launched record into the queue.
    fn enqueue_local(&mut self, ctx: &mut Ctx<'_>, bytes: Vec<u8>) {
        self.itin.intern_record(&bytes);
        self.ready.insert(Self::put_queue_item(ctx, bytes));
        self.kick(ctx);
    }

    /// The one write of a record that arrives at this node: under the next
    /// queue key, which is returned.
    fn put_queue_item(ctx: &mut Ctx<'_>, bytes: Vec<u8>) -> String {
        let seq: u64 = ctx
            .stable_get(KEY_QSEQ)
            .and_then(|b| mar_wire::from_slice(b).ok())
            .unwrap_or(0)
            + 1;
        ctx.stable_put(KEY_QSEQ, mar_wire::to_bytes(&seq).unwrap());
        let key = queue_key(seq);
        ctx.stable_put(key.clone(), bytes);
        key
    }

    /// Reports a prepared entry that does not read back as stored.
    fn refuse_prepared(ctx: &mut Ctx<'_>, txn: &str, why: impl fmt::Display) {
        let refused = keys::RECOVERY_PREPARED_REFUSED;
        ctx.failure(refused, format_args!("{txn}: {why}"));
    }

    /// Moves the intern table's counts into the metrics; called at the end
    /// of every handler, so they land with the event that caused them.
    fn count_itinerary_lookups(&mut self, ctx: &mut Ctx<'_>) {
        let tally = self.itin.take_tally();
        ctx.metrics().add(keys::ITINERARY_CACHE_HITS, tally.hits);
        ctx.metrics()
            .add(keys::ITINERARY_CACHE_MISSES, tally.misses);
        ctx.metrics()
            .add(keys::ITINERARY_EVICTIONS, tally.evictions);
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::ZERO, TAG_KICK);
    }

    fn schedule_item(&mut self, ctx: &mut Ctx<'_>, key: String, delay: SimDuration) {
        self.tag_seq += 1;
        let tag = ITEM_TAG_BASE + self.tag_seq;
        self.tag_map.insert(tag, key);
        ctx.set_timer(delay, tag);
    }

    fn schedule_retry(&mut self, ctx: &mut Ctx<'_>, key: &str, why: impl fmt::Display) {
        let attempts = self.attempts.entry(key.to_owned()).or_insert(0);
        *attempts += 1;
        let exp = (*attempts).min(RETRY_MAX_EXP);
        let base = RETRY_BASE * (1u64 << exp);
        // Randomized backoff desynchronizes no-wait lock retries.
        let jitter = 0.5 + ctx.rng().f64();
        let delay = base.mul_f64(jitter);
        ctx.failure(keys::STEPS_ABORTED, why);
        self.schedule_item(ctx, key.to_owned(), delay);
    }

    /// Schedules every ready item, in key order. Debug builds first hold the
    /// set against the store: it is the queue less the keys a timer or a live
    /// transaction is working on, and only queued keys have a retry count.
    fn scan_queue(&mut self, ctx: &mut Ctx<'_>) {
        #[cfg(debug_assertions)]
        {
            let queued = queue_keys(ctx.stable());
            let taken = BTreeSet::from_iter(self.active.values().map(|at| &at.queue_key));
            let working = BTreeSet::from_iter(self.tag_map.values().chain(taken.iter().copied()));
            let idle = queued.iter().filter(|key| !working.contains(key));
            let idle = BTreeSet::from_iter(idle.cloned());
            let forgotten = Vec::from_iter(idle.difference(&self.ready));
            assert!(forgotten.is_empty(), "queued key forgotten: {forgotten:?}");
            let stray = Vec::from_iter(self.ready.difference(&idle));
            assert!(stray.is_empty(), "ready key not queued or taken: {stray:?}");
            // A prepared branch holds the item it took: out of the queue.
            let stale = self
                .attempts
                .keys()
                .filter(|key| !queued.contains(key) && !taken.contains(key));
            let stale = Vec::from_iter(stale);
            assert!(stale.is_empty(), "attempts of a key not queued: {stale:?}");
        }
        for key in std::mem::take(&mut self.ready) {
            self.schedule_item(ctx, key, STEP_COST);
        }
    }

    /// Commits `txn` on every manager and, in the same handler — so inside
    /// the same stable batch as the done record, or the local commit —
    /// writes what the registry asks for; a prepared branch stored its
    /// records at prepare, and nothing is written.
    fn commit_rms(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let writes = self.rms.commit_all(txn).expect("resource state encodes");
        Self::write_rm(ctx, writes);
    }

    /// Writes what the registry asks for: a delta record per manager a
    /// transaction wrote to, and a fresh base image in place of the
    /// committed deltas it folds. Returns the delta records, by resource
    /// name and number.
    fn write_rm(ctx: &mut Ctx<'_>, writes: Vec<RmWrite>) -> Vec<(String, u64)> {
        let mut deltas = Vec::new();
        for write in writes {
            match write {
                RmWrite::Delta { name, seq, bytes } => {
                    ctx.stable_put(rm_delta_key(&name, seq), bytes);
                    deltas.push((name, seq));
                }
                RmWrite::Base {
                    name,
                    bytes,
                    folded,
                } => {
                    for seq in &folded {
                        ctx.stable_delete(&rm_delta_key(&name, *seq));
                    }
                    ctx.metrics()
                        .add(keys::RM_DELTAS_FOLDED, folded.len() as u64);
                    ctx.stable_put(format!("{RM_PREFIX}{name}"), bytes);
                }
            }
        }
        deltas
    }

    // ----- 2PC action execution ---------------------------------------------

    fn run_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::PrepareLocal { txn, branch } => self.prepare_local(ctx, txn, branch),
                Action::PersistDecision { txn, participants } => {
                    ctx.stable_put(
                        format!("{DECISION_PREFIX}{}", txn.key()),
                        mar_wire::to_bytes(&participants).unwrap(),
                    );
                }
                Action::ForgetDecision { txn } => {
                    // Unforced: the `Ack` handler writes nothing else, so it
                    // costs no barrier. Presumed abort tolerates losing the
                    // delete to a crash: `on_start` finds the decision again
                    // and `co.recover` re-sends it, a participant that has
                    // settled the transaction (`2pc/done/` written, nothing
                    // left prepared) answers it with an `Ack` only, and that
                    // `Ack` forgets the decision a second time.
                    ctx.stable_delete_unforced(&format!("{DECISION_PREFIX}{}", txn.key()));
                }
                Action::SendPrepare {
                    to,
                    txn,
                    work,
                    decide,
                } => {
                    self.send_tx(ctx, to, TxMsg::Prepare { txn, work, decide });
                }
                Action::SendDecision { to, txn, commit } => {
                    self.send_tx(ctx, to, TxMsg::Decision { txn, commit });
                }
                Action::SendVote { to, txn, ok } => {
                    self.send_tx(ctx, to, TxMsg::Vote { txn, ok });
                }
                Action::SendAck { to, txn } => {
                    self.send_tx(ctx, to, TxMsg::Ack { txn });
                }
                Action::SendQuery { to, txn } => {
                    self.send_tx(ctx, to, TxMsg::Query { txn });
                }
                Action::CommitLocal { txn } => self.commit_local(ctx, txn),
                Action::AbortLocal { txn } => self.abort_local(ctx, txn),
                Action::Resolved { txn, committed } => self.resolved(ctx, txn, committed),
                Action::PersistPrepared {
                    txn,
                    coordinator,
                    work,
                } => {
                    let entry = PreparedEntry { coordinator, work };
                    ctx.stable_put(
                        format!("{PREPARED_PREFIX}{}", txn.key()),
                        mar_wire::to_bytes(&entry).unwrap(),
                    );
                }
                Action::ApplyWork { txn, work } => self.apply_work(ctx, txn, work),
                Action::DiscardWork { txn } => {
                    if self.live_branches.remove(&txn) {
                        self.rms.abort_all(txn);
                    }
                    // The prepared entry is still stored (`MarkDone` comes
                    // next): the records it holds never entered the queue.
                    let entry = format!("{PREPARED_PREFIX}{}", txn.key());
                    for key in held_keys(ctx.stable(), &entry) {
                        ctx.stable_delete(&key);
                    }
                }
                Action::MarkDone { txn, commit } => {
                    let entry = format!("{PREPARED_PREFIX}{}", txn.key());
                    if ctx.stable().contains(&entry) {
                        ctx.stable_delete(&entry);
                    }
                    let done = format!("{DONE2PC_PREFIX}{}", txn.key());
                    ctx.stable_put(done, vec![u8::from(commit)]);
                }
            }
        }
    }

    /// Prepares the coordinator-local branch of a transaction with remote
    /// branches: writes everything its commit would write — the resource
    /// delta records under their final numbers, a staying record under a
    /// fresh queue key — and the entry that holds them with the item the
    /// transaction took. All of it is this handler's forced barrier, durable
    /// before the `Prepare` that follows can be observed.
    fn prepare_local(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, branch: LocalBranch) {
        let writes = self.rms.prepare_all(txn).expect("resource state encodes");
        let deltas = Self::write_rm(ctx, writes);
        let at = self
            .active
            .get_mut(&txn)
            .expect("a live transaction prepares");
        let staying = match &mut at.outcome {
            Committed::Stayed { bytes, .. } => {
                let key = Self::put_queue_item(ctx, std::mem::take(bytes));
                let seq = queue_seq(&key);
                at.next_key = Some(key);
                seq
            }
            Committed::Moved => None,
            Committed::Done { .. } => unreachable!("a report leaves in a local transaction"),
        };
        let held = HeldBranch {
            branch,
            taken: queue_seq(&at.queue_key).expect("a transaction takes a queue item"),
            staying,
            deltas,
        };
        ctx.stable_put(
            local_key(txn),
            mar_wire::to_bytes(&held).expect("an entry encodes"),
        );
    }

    /// Deletes, unforced, the entry of `txn`'s prepared local branch and
    /// returns it: `None` for a transaction without remote branches, or
    /// with an entry that does not read back (recovery reports that).
    fn release_branch(ctx: &mut Ctx<'_>, txn: TxnId) -> Option<HeldBranch> {
        let key = local_key(txn);
        let held = ctx
            .stable_get(&key)
            .map(mar_wire::from_slice::<HeldBranch>)?;
        ctx.stable_delete_unforced(&key);
        held.ok()
    }

    /// Commits the coordinator-local branch. A transaction without remote
    /// branches writes it here, in the handler that decided: the resource
    /// records, the item's next place, one forced barrier. A prepared branch
    /// stored all that already, and its commit only deletes — the entry and
    /// the item the transaction took — unforced: a crash that loses it brings
    /// the entry back in doubt, and the decider's answer commits it again.
    /// Its decider counted the commit.
    fn commit_local(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let held = Self::release_branch(ctx, txn);
        self.commit_rms(ctx, txn);
        if let Some(held) = &held {
            let taken = queue_key(held.taken);
            ctx.stable_delete_unforced(&taken);
            self.attempts.remove(&taken);
        }
        let Some(at) = self.active.get_mut(&txn) else {
            // Recovered in doubt: a staying record is queued from now on.
            if let Some(key) = held.and_then(|held| held.staying).map(queue_key) {
                self.ready.insert(key);
                self.kick(ctx);
            }
            return;
        };
        let outcome = std::mem::replace(&mut at.outcome, Committed::Moved);
        let metrics = std::mem::take(&mut at.metrics);
        let queue_key = at.queue_key.clone();
        let next_key = at.next_key.clone();
        if held.is_none() {
            ctx.stable_delete(&queue_key);
            self.attempts.remove(&queue_key);
            for (tally, n) in metrics {
                ctx.metrics().add(tally.key(), n);
            }
            ctx.metrics().inc(keys::TXN_COMMITTED);
        }
        match outcome {
            Committed::Stayed { bytes, resident } => {
                let key = next_key.unwrap_or_else(|| {
                    ctx.stable_put(queue_key.clone(), bytes);
                    queue_key
                });
                // The stable bytes for the key are down; the volatile twin
                // may now be (re-)installed.
                if let Some(rec) = resident {
                    self.resident.insert(key, rec);
                }
            }
            Committed::Moved => {}
            Committed::Done { home, report } => {
                let agent = AgentReport::peek_id(&report).expect("own report decodes");
                ctx.stable_put(format!("{REPORT_PREFIX}{}", agent.0), report.clone());
                if home != ctx.node().0 {
                    // Stable outbox first: the report is retransmitted on
                    // the retry timer until the home node acks, so the
                    // completion event reaches the home mailbox despite
                    // crashes and lost messages (delivery is idempotent on
                    // the home side).
                    let outbox = format!("{OUTBOX_PREFIX}{}", agent.0);
                    ctx.stable_put(
                        outbox.clone(),
                        mar_wire::to_bytes(&home).expect("an integer encodes"),
                    );
                    self.outbox_sent.insert(outbox, ctx.now().as_micros());
                    ctx.send(
                        Address::new(NodeId(home), MOLE),
                        MoleMsg::Report {
                            report: report.into(),
                        }
                        .encode(),
                    );
                } else {
                    self.deliver_report_home(ctx, agent, report);
                }
            }
        }
    }

    /// Aborts the coordinator-local branch: the managers undo it, and what a
    /// prepared branch stored is deleted, unforced — a crash that loses the
    /// abort brings the entry back in doubt, and the decider, which recorded
    /// the abort, answers it again. The item the transaction took is in the
    /// queue again.
    fn abort_local(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        self.rms.abort_all(txn);
        let Some(held) = Self::release_branch(ctx, txn) else {
            return;
        };
        for (name, seq) in &held.deltas {
            ctx.stable_delete_unforced(&rm_delta_key(name, *seq));
        }
        if let Some(seq) = held.staying {
            ctx.stable_delete_unforced(&queue_key(seq));
        }
        // A live transaction's item is retried when it resolves.
        if !self.active.contains_key(&txn) {
            self.ready.insert(queue_key(held.taken));
            self.kick(ctx);
        }
    }

    /// Home-node side of report delivery: persists the report under the
    /// agent's id and posts one completion event to the driver mailbox.
    /// Idempotent — a retransmitted report neither duplicates the mailbox
    /// entry nor overwrites the persisted report.
    fn deliver_report_home(
        &mut self,
        ctx: &mut Ctx<'_>,
        agent: mar_core::AgentId,
        report: Vec<u8>,
    ) {
        let report_key = format!("{HOME_REPORT_PREFIX}{}", agent.0);
        if ctx.stable().contains(&report_key) {
            return;
        }
        ctx.stable_put(report_key, report);
        let seq: u64 = ctx
            .stable_get(KEY_MBOXSEQ)
            .and_then(|b| mar_wire::from_slice(b).ok())
            .unwrap_or(0)
            + 1;
        ctx.stable_put(KEY_MBOXSEQ, mar_wire::to_bytes(&seq).unwrap());
        ctx.stable_put(
            format!("{MBOX_PREFIX}{seq:012}"),
            mar_wire::to_bytes(&agent.0).unwrap(),
        );
    }

    /// Retransmits every report still waiting in the stable outbox (ack
    /// lost, home node down, or our own crash between commit and send).
    /// Entries whose last transmission is younger than one retry period are
    /// skipped — their ack is plausibly still in flight, and a gratuitous
    /// duplicate would re-create report artifacts the driver has already
    /// garbage-collected. After a crash the volatile send-time map is
    /// empty, so every surviving entry retransmits immediately.
    fn retransmit_reports(&mut self, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        let period_us = TM_RETRY.as_micros();
        let live = ctx.stable().keys_with_prefix(OUTBOX_PREFIX);
        // Send times for entries that no longer exist in stable storage
        // (acked, or garbage-collected by the driver before the ack
        // arrived) would otherwise accumulate forever.
        self.outbox_sent
            .retain(|key, _| live.binary_search(key).is_ok());
        for key in live {
            if let Some(sent) = self.outbox_sent.get(&key) {
                if now_us.saturating_sub(*sent) < period_us {
                    continue;
                }
            }
            // The report is the `done/` record of the same agent; the driver
            // deletes the two together, so an entry without one is a leftover.
            let home = ctx
                .stable_get(&key)
                .and_then(|b| mar_wire::from_slice::<u32>(b).ok());
            let done = format!("{REPORT_PREFIX}{}", &key[OUTBOX_PREFIX.len()..]);
            let report = ctx.stable_get(&done).map(mar_wire::Bytes::from);
            let (Some(home), Some(report)) = (home, report) else {
                ctx.stable_delete(&key);
                continue;
            };
            ctx.metrics().inc(keys::REPORT_RETRANSMITS);
            self.outbox_sent.insert(key, now_us);
            ctx.send(
                Address::new(NodeId(home), MOLE),
                MoleMsg::Report { report }.encode(),
            );
        }
    }

    fn resolved(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, committed: bool) {
        let Some(at) = self.active.remove(&txn) else {
            return;
        };
        if committed {
            if let Some(note) = at.shipment.and_then(|shipment| shipment.note) {
                self.itin.learn(&note);
            }
            // An item that stayed is schedulable again only now: until the
            // decision its transaction is live, and a kick must pass it by.
            let key = at.next_key.unwrap_or(at.queue_key);
            if ctx.stable().contains(&key) {
                self.ready.insert(key);
            }
            self.kick(ctx);
        } else {
            ctx.metrics().inc(keys::TXN_ABORTED);
            self.schedule_retry(ctx, &at.queue_key, format_args!("{txn} aborted"));
        }
    }

    /// Participant-side handling of a new `Prepare`: expands an itinerary
    /// reference, so that everything downstream (validation, stable storage)
    /// sees the self-contained inline form, and votes — or, asked to
    /// `decide`, commits and answers with the decision, counting the
    /// transaction's `tally`.
    /// RCE lists execute tentatively right now, inside the transaction,
    /// holding their locks until the decision (§4.4.1: the resource
    /// compensation entries run "inside the compensation transaction").
    ///
    /// A record is written once, here, as the queue item it becomes. A
    /// decider's is queued at once, in the barrier that records the commit.
    /// A classic participant's prepared entry stores a [`Work::Held`] stub
    /// naming its key, and while that entry lives the key is held:
    /// [`queue_keys`] leaves it out. The decision releases the hold or
    /// deletes the key.
    fn prepare(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        from: NodeId,
        work: RemoteWork,
        decide: bool,
        tally: Vec<(Tally, u64)>,
    ) -> Vec<Action> {
        let Ok(mut works) = Work::decode(work) else {
            return self.pa.on_prepare(txn, from, None, decide);
        };
        let mut slots = Vec::new();
        for work in &mut works {
            let Work::Enqueue { record, .. } = work else {
                continue;
            };
            match self.itin.expand(record) {
                Ok((inline, slot)) => {
                    if let Some(inline) = inline {
                        *record = inline.into();
                    }
                    slots.extend(slot);
                }
                Err(hash) => {
                    // Not a refusal (that would abort the transaction): ask
                    // for the inline form and hold the answer.
                    ctx.send(
                        Address::new(from, MOLE),
                        MoleMsg::ItineraryMiss { txn, hash }.encode(),
                    );
                    return Vec::new();
                }
            }
        }
        for work in &works {
            let Work::Rce(list) = work else {
                continue;
            };
            if self.execute_rce_list(ctx, txn, list).is_err() {
                self.rms.abort_all(txn);
                self.live_branches.remove(&txn);
                return self.pa.on_prepare(txn, from, None, decide);
            }
            self.live_branches.insert(txn);
        }
        // Nothing below refuses: the answer is yes, a vote or a commit. A
        // decider commits in this callback, and interns the itineraries of
        // the records it queues as `apply_work` would, in the same order.
        if decide {
            for mut slot in slots {
                self.itin.adopt(&mut slot);
            }
            self.interned = Some(txn);
        }
        for work in &mut works {
            if let Work::Enqueue { rollback, record } = work {
                let len = record.len() as u64;
                let key = Self::put_queue_item(ctx, std::mem::take(record).into_vec());
                *work = Work::Held {
                    rollback: *rollback,
                    key,
                    len,
                };
            }
        }
        if decide {
            for (tally, n) in tally {
                ctx.metrics().add(tally.key(), n);
            }
            ctx.metrics().inc(keys::TXN_COMMITTED);
        }
        self.pa
            .on_prepare(txn, from, Some(Work::encode(works)), decide)
    }

    fn execute_rce_list(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        payload: &[u8],
    ) -> Result<(), CompError> {
        let list: RceList = mar_wire::from_slice(payload).map_err(|e| CompError::BadParams {
            op: "rce-list".to_owned(),
            reason: e.to_string(),
        })?;
        let now = ctx.now();
        let now_us = now.as_micros();
        for entry in &list.ops {
            let mut access = RmAccess::new(&mut self.rms, txn, now);
            self.comps
                .execute(&entry.op, now_us, Some(&mut access), None)?;
            ctx.metrics().inc(keys::COMP_OPS);
        }
        Ok(())
    }

    /// Applies the prepared work of a transaction that committed. An entry
    /// that no longer decodes (it did when it was stored) applies nothing,
    /// and says so.
    fn apply_work(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, work: RemoteWork) {
        let works = Work::decode_stored(work).unwrap_or_else(|e| {
            Self::refuse_prepared(ctx, &txn.key(), format_args!("{e:?}"));
            Vec::new()
        });
        let interned = self.interned.take() == Some(txn);
        for work in works {
            match work {
                Work::Held { rollback, key, len } => {
                    // The record has been in place since the prepare; with
                    // its entry gone, or never written at a decider
                    // (`MarkDone` comes next), it is queued. Interned before
                    // the decision is sent: by the time the sender learns
                    // that this node holds the itinerary, it does. A
                    // decider's `prepare` interned it already.
                    match ctx.stable_get(&key) {
                        Some(record) => {
                            if !interned {
                                self.itin.intern_record(record);
                            }
                            self.ready.insert(key);
                        }
                        None => Self::refuse_prepared(ctx, &txn.key(), format_args!("no {key}")),
                    }
                    let (transfers, bytes) = if rollback {
                        (keys::TRANSFERS_ROLLBACK, keys::TRANSFER_BYTES_ROLLBACK)
                    } else {
                        (keys::TRANSFERS_FORWARD, keys::TRANSFER_BYTES_FORWARD)
                    };
                    ctx.metrics().inc(transfers);
                    ctx.metrics().add(bytes, len);
                    self.kick(ctx);
                }
                // `prepare` stores the stub in the record's place.
                Work::Enqueue { .. } => {
                    Self::refuse_prepared(ctx, &txn.key(), "an unheld record");
                }
                Work::Rce(list) => {
                    // Fast path: the tentative execution from the prepare is
                    // still live; just commit it. Recovery path: the branch
                    // died with a crash; redo the prepared work first.
                    if !self.live_branches.remove(&txn) {
                        if let Err(e) = self.execute_rce_list(ctx, txn, &list) {
                            // The decision is commit; a redo failure is the
                            // heuristic-damage corner of 2PC. Record it.
                            ctx.failure(keys::ROLLBACK_REDO_FAILED, e);
                        }
                    }
                    self.commit_rms(ctx, txn);
                }
            }
        }
    }

    // ----- item processing --------------------------------------------------

    /// Processes one queue item, preferring the node's volatile resident
    /// record over re-decoding the stable bytes. The cache entry is *taken*
    /// here; only a committing step transaction puts one back, so retries
    /// and aborts always fall back to the stable (pre-step) bytes.
    fn run_item(&mut self, ctx: &mut Ctx<'_>, key: &str) {
        let resident = match self.resident.remove(key) {
            Some(r) => {
                ctx.metrics().inc(keys::RESIDENT_HITS);
                r
            }
            None => {
                let parsed = match ctx.stable_get(key) {
                    // The borrow of the stable slice ends inside this arm:
                    // `from_bytes` copies only the log section.
                    Some(bytes) => ResidentRecord::from_bytes(bytes),
                    None => return,
                };
                ctx.metrics().inc(keys::RESIDENT_MISSES);
                match parsed {
                    Ok(mut r) => {
                        // At most one decode of each distinct tree per
                        // node, however many agents carry it.
                        self.itin.adopt(&mut r.itinerary);
                        r
                    }
                    Err(e) => return self.drop_item(ctx, key, e),
                }
            }
        };
        if self.attempts.get(key).copied().unwrap_or(0) > MAX_ATTEMPTS {
            return self.fail_agent(ctx, key, resident, "retries exhausted".to_owned());
        }
        let result = match resident.status {
            AgentStatus::Forward => self.process_forward(ctx, key, resident),
            AgentStatus::RollingBack { target } => {
                self.process_rollback(ctx, key, resident, target)
            }
            AgentStatus::Completed | AgentStatus::Failed(_) => {
                // Should have been finalized; clean up idempotently.
                ctx.stable_delete(key);
                self.attempts.remove(key);
                Ok(())
            }
        };
        match result {
            Ok(()) => {}
            Err(ItemError::Transient(reason)) => self.schedule_retry(ctx, key, reason),
            Err(ItemError::Permanent(reason)) => {
                // The working copy was consumed by the failed attempt; the
                // pristine pre-step record is still in stable storage.
                match self.stable_resident(ctx, key) {
                    Some(rec) => self.fail_agent(ctx, key, rec, reason),
                    None => self.drop_item(ctx, key, reason),
                }
            }
        }
    }

    /// Re-reads the pristine record from the stable queue — the cold paths'
    /// (failure, rollback start) source of truth. Parses lazily and adopts
    /// the interned itinerary, so even these paths never re-decode a tree
    /// the node already holds.
    fn stable_resident(&mut self, ctx: &mut Ctx<'_>, key: &str) -> Option<ResidentRecord> {
        let bytes = ctx.stable_get(key)?;
        let mut rec = ResidentRecord::from_bytes(bytes).ok()?;
        self.itin.adopt(&mut rec.itinerary);
        Some(rec)
    }

    /// Drops an unreadable queue item (it cannot even fail its agent).
    fn drop_item(&mut self, ctx: &mut Ctx<'_>, key: &str, why: impl fmt::Display) {
        ctx.failure(keys::AGENT_ITEMS_DROPPED, why);
        ctx.stable_delete(key);
        self.attempts.remove(key);
    }

    /// Gives up on the agent: its record leaves as a `Failed` report.
    fn fail_agent(&mut self, ctx: &mut Ctx<'_>, key: &str, rec: ResidentRecord, reason: String) {
        let txn = self.alloc_txn(ctx);
        let exit = Exit::Done(ReportOutcome::Failed(reason));
        if let Err(ItemError::Permanent(e) | ItemError::Transient(e)) =
            self.hand_off(ctx, txn, key, rec, Vec::new(), None, exit)
        {
            self.drop_item(ctx, key, e);
        }
    }

    /// Walks the cursor to the next step, constituting savepoints for
    /// entered sub-itineraries and truncating the log for completed ones.
    ///
    /// Runs on the resident record: the cursor advances against the record's
    /// own itinerary (no clone), savepoint entries are *appended* without
    /// touching the sealed log prefix, and only leaving a sub-itinerary —
    /// which removes savepoint entries — materializes the log.
    fn advance_and_book(
        &mut self,
        ctx: &mut Ctx<'_>,
        rec: &mut ResidentRecord,
    ) -> Result<NextHop, ItemError> {
        use mar_itinerary::CursorEvent;
        let itinerary = rec
            .itinerary
            .tree()
            .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;
        let events = rec
            .cursor
            .advance(&itinerary)
            .map_err(|e| ItemError::Permanent(format!("cursor: {e}")))?;
        for ev in &events {
            match ev {
                CursorEvent::EnterSub { id, .. } => {
                    rec.table.on_enter_sub(
                        id,
                        &mut rec.data,
                        &rec.cursor,
                        rec.log.for_append(),
                        rec.logging_mode,
                    );
                }
                CursorEvent::LeaveSub { id, top_level, .. } => {
                    if *top_level {
                        // Whole-log discard: decoding a sealed log only to
                        // clear it would waste the entire lazy win on the
                        // itinerary's last event. Run the table bookkeeping
                        // against an empty log and drop the sealed bytes,
                        // accounting the freed size from the seal.
                        let freed = rec.log.size_bytes();
                        let mut discarded = mar_core::RollbackLog::new();
                        rec.table
                            .on_leave_sub(id, true, &mut rec.data, &mut discarded)
                            .map_err(|e| ItemError::Permanent(format!("savepoints: {e}")))?;
                        rec.log = mar_core::ResidentLog::Full(discarded);
                        ctx.metrics().inc(keys::LOG_DISCARDS);
                        ctx.metrics().add(keys::LOG_DISCARD_BYTES, freed as u64);
                        continue;
                    }
                    let log = rec
                        .log
                        .materialize()
                        .map_err(|e| ItemError::Permanent(format!("log: {e}")))?;
                    let outcome = rec
                        .table
                        .on_leave_sub(id, false, &mut rec.data, log)
                        .map_err(|e| ItemError::Permanent(format!("savepoints: {e}")))?;
                    match outcome {
                        mar_core::LeaveOutcome::LogDiscarded { freed_bytes } => {
                            ctx.metrics().inc(keys::LOG_DISCARDS);
                            ctx.metrics()
                                .add(keys::LOG_DISCARD_BYTES, freed_bytes as u64);
                        }
                        mar_core::LeaveOutcome::SavepointsRemoved(n) => {
                            ctx.metrics().add(keys::SAVEPOINTS_REMOVED, n as u64);
                        }
                    }
                }
                CursorEvent::Step { .. } => {}
                CursorEvent::Finished => {}
            }
        }
        match events.last() {
            Some(CursorEvent::Step { loc, .. }) => Ok(NextHop::Step(loc.primary().0)),
            Some(CursorEvent::Finished) => Ok(NextHop::Finished),
            other => Err(ItemError::Permanent(format!(
                "cursor advance ended unexpectedly: {other:?}"
            ))),
        }
    }

    /// The one hand-off (§2): commits transaction `txn`, which takes the
    /// item `key` off this node's queue and puts `rec` into exactly one next
    /// place. Only a record that stays is splice-encoded and (cache on)
    /// kept resident; only one that moves passes the compaction gate and the
    /// transfer encoding, joining `rces` (the round's RCE list and its node,
    /// if any) as one more piece of 2PC work; only one that is done
    /// materializes its log, to move into its own report.
    #[allow(clippy::too_many_arguments)]
    fn hand_off(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        key: &str,
        mut rec: ResidentRecord,
        mut metrics: Vec<(Tally, u64)>,
        rces: Option<(NodeId, Vec<u8>)>,
        exit: Exit,
    ) -> Result<(), ItemError> {
        let mut branches: Vec<(NodeId, Vec<Work>)> =
            Vec::from_iter(rces.map(|(node, list)| (node, vec![Work::Rce(list.into())])));
        let mut shipment = None;
        let outcome = match exit {
            Exit::Stay => {
                // The agent still goes through stable storage between steps
                // (§2) — spliced, so the write is O(delta).
                let bytes = rec
                    .to_bytes()
                    .map_err(|e| ItemError::Permanent(e.to_string()))?;
                let resident = self.cfg.resident_cache.then_some(rec);
                Committed::Stayed { bytes, resident }
            }
            Exit::Move { to, rollback } => {
                let dest = NodeId(to);
                let (record, span) = self.encode_for_transfer(ctx, &mut rec)?;
                let enqueue = |record: Vec<u8>| Work::Enqueue {
                    rollback,
                    record: record.into(),
                };
                // 2PC tracks one branch per participant: the round's RCE
                // list, if it goes to `dest` too, shares the record's branch.
                if branches.first().map(|(node, _)| *node) != Some(dest) {
                    branches.push((dest, Vec::new()));
                }
                let works = &mut branches.last_mut().expect("the branch to dest").1;
                // Content-address the outgoing record: a destination that
                // already holds the itinerary is sent an 8-byte reference,
                // and the inline form is kept, unencoded, for a NACK.
                let (note, by_ref) = self
                    .itin
                    .compress(dest, &rec.itinerary, &record, span)
                    .unzip();
                let inline = match by_ref.flatten() {
                    Some(by_ref) => {
                        let growth = Work::record_growth(by_ref.len(), record.len());
                        // The branch's other works: none on a forward hop.
                        let mut inline = works.clone();
                        inline.push(enqueue(record));
                        works.push(enqueue(by_ref));
                        Some(InlineForm {
                            works: inline,
                            growth,
                            sent: false,
                        })
                    }
                    None => {
                        works.push(enqueue(record));
                        None
                    }
                };
                shipment = Some(Shipment { dest, note, inline });
                Committed::Moved
            }
            Exit::Done(outcome) => {
                let (status, metric) = match &outcome {
                    ReportOutcome::Completed => (AgentStatus::Completed, Tally::AgentCompleted),
                    ReportOutcome::Failed(why) => {
                        (AgentStatus::Failed(why.clone()), Tally::AgentFailed)
                    }
                };
                metrics.push((metric, 1));
                let mut record = rec
                    .into_record()
                    .map_err(|e| ItemError::Permanent(e.to_string()))?;
                record.status = status;
                let home = record.home;
                let report = AgentReport {
                    id: record.id,
                    outcome,
                    finished_at_us: ctx.now().as_micros(),
                    steps_committed: record.step_seq,
                    finished_node: ctx.node().0,
                    // The record moves into its own report — nothing is cloned.
                    record,
                };
                Committed::Done {
                    home,
                    report: report.encode(),
                }
            }
        };
        self.active.insert(
            txn,
            ActiveTxn {
                queue_key: key.to_owned(),
                next_key: None,
                outcome,
                metrics,
                shipment,
            },
        );
        let branches = branches
            .into_iter()
            .map(|(node, works)| (node, Work::encode(works)))
            .collect();
        let actions = self.co.commit_request(txn, branches);
        self.run_actions(ctx, actions);
        Ok(())
    }

    /// Serializes a record that is about to cross the network, compacting
    /// its rollback log first when the runtime is configured to
    /// (`MoleCfg::compact_on_transfer`) and the pass can pay for itself
    /// under [`COST_MODEL`] — the policy is
    /// [`ResidentRecord::compact_for_transfer`]. Compaction happens *inside*
    /// the transaction that ships the record: an abort simply re-reads the
    /// uncompacted record from stable storage and re-plans, and the pass is
    /// idempotent, so crash-retries are harmless.
    fn encode_for_transfer(
        &self,
        ctx: &mut Ctx<'_>,
        rec: &mut ResidentRecord,
    ) -> Result<(Vec<u8>, Range<usize>), ItemError> {
        if self.cfg.compact_on_transfer {
            match rec
                .compact_for_transfer(&COST_MODEL, COMPACTION_CPU_US_PER_KB)
                .map_err(|e| ItemError::Permanent(e.to_string()))?
            {
                None => ctx.metrics().inc(keys::LOG_COMPACTIONS_SKIPPED),
                Some(report) if report.changed() => {
                    ctx.metrics().inc(keys::LOG_COMPACTIONS);
                    ctx.metrics().add(
                        keys::LOG_COMPACTION_SAVED_BYTES,
                        report.saved_bytes() as u64,
                    );
                }
                Some(_) => {}
            }
        }
        rec.to_transfer_bytes()
            .map_err(|e| ItemError::Permanent(e.to_string()))
    }

    /// One forward step on the resident record. The record is mutated in
    /// place — no working clone: a committing transaction persists (and
    /// possibly caches) the mutated record, every failure path drops it and
    /// falls back to the pristine bytes still sitting in the stable queue.
    fn process_forward(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        mut rec: ResidentRecord,
    ) -> Result<(), ItemError> {
        let txn = self.alloc_txn(ctx);
        let itinerary = rec
            .itinerary
            .tree()
            .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;

        // A fresh launch (or an explicit-savepoint restore) has no current
        // step yet: advance first.
        let finished = rec.cursor.is_finished()
            || (rec.cursor.current_step(&itinerary).is_none()
                && matches!(self.advance_and_book(ctx, &mut rec)?, NextHop::Finished));
        if finished {
            let exit = Exit::Done(ReportOutcome::Completed);
            return self.hand_off(ctx, txn, key, rec, Vec::new(), None, exit);
        }

        let (method, primary, alternatives) = {
            let step = rec
                .cursor
                .current_step(&itinerary)
                .expect("step selected above");
            (
                step.method.clone(),
                step.loc.primary().0,
                step.loc
                    .alternatives()
                    .iter()
                    .map(|l| l.0)
                    .collect::<Vec<u32>>(),
            )
        };

        // Misplaced agent (e.g. after a restore): forward it to the step's
        // node without executing anything.
        if primary != ctx.node().0 {
            let exit = Exit::towards(ctx, primary);
            return self.hand_off(ctx, txn, key, rec, Vec::new(), None, exit);
        }

        // Execute the step method inside the step transaction.
        let behavior = self.behaviors.get(&rec.agent_type).ok_or_else(|| {
            ItemError::Permanent(format!("unknown agent type {:?}", rec.agent_type))
        })?;
        let comps = self.comps.clone();
        let decision = {
            let mut sctx = StepCtx::new(
                txn,
                ctx.now(),
                ctx.node(),
                rec.id,
                rec.step_seq,
                &mut self.rms,
                &mut rec.data,
                ctx.rng(),
                &comps,
            );
            match behavior.step(&method, &mut sctx) {
                Ok(d) => {
                    let (pending, sp_requested, memos) = sctx.into_effects();
                    (d, pending, sp_requested, memos)
                }
                Err(e) => {
                    self.rms.abort_all(txn);
                    return if e.is_transient() {
                        Err(ItemError::Transient(e.to_string()))
                    } else {
                        Err(ItemError::Permanent(e.to_string()))
                    };
                }
            }
        };
        let (decision, pending_comps, savepoint_requested, rollback_memos) = decision;

        match decision {
            StepDecision::Fail(reason) => {
                self.rms.abort_all(txn);
                Err(ItemError::Permanent(reason))
            }
            StepDecision::Rollback(scope) => {
                // Fig. 4a: abort the step transaction first. The rollback
                // starts from the *pristine* record (the aborted step's
                // data-space writes must not survive) — re-read it from the
                // stable queue; this is the cold path.
                self.rms.abort_all(txn);
                drop(rec);
                let original = self
                    .stable_resident(ctx, key)
                    .ok_or_else(|| ItemError::Permanent("queue item vanished".to_owned()))?;
                self.start_rollback_txn(ctx, key, original, scope, rollback_memos)
            }
            StepDecision::Continue => {
                // Log the step's entries (§4.2): BOS, OEs in logged order,
                // EOS with the mixed flag and alternative nodes — appended
                // behind the sealed log prefix, which stays encoded.
                let step_seq = rec.step_seq;
                rec.log.for_append().append_step(
                    ctx.node().0,
                    step_seq,
                    &method,
                    pending_comps,
                    alternatives,
                );
                rec.cursor
                    .step_done()
                    .map_err(|e| ItemError::Permanent(format!("cursor: {e}")))?;
                rec.step_seq += 1;
                rec.table.on_step_committed();
                if savepoint_requested {
                    rec.table.explicit_savepoint(
                        &mut rec.data,
                        &rec.cursor,
                        rec.log.for_append(),
                        rec.logging_mode,
                    );
                }
                // Advance to the next step and hand the agent over to it.
                let exit = match self.advance_and_book(ctx, &mut rec)? {
                    NextHop::Finished => Exit::Done(ReportOutcome::Completed),
                    NextHop::Step(next) => Exit::towards(ctx, next),
                };
                let metrics = vec![(Tally::StepsCommitted, 1)];
                self.hand_off(ctx, txn, key, rec, metrics, None, exit)
            }
        }
    }

    /// Fig. 4a / Fig. 5a: resolve the scope, mark the agent as rolling
    /// back, and route it to the first compensation destination. Consumes
    /// the pristine record.
    fn start_rollback_txn(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        mut rb: ResidentRecord,
        scope: mar_core::RollbackScope,
        memos: Vec<(String, mar_wire::Value)>,
    ) -> Result<(), ItemError> {
        // Rollback invocation parameters survive as (uncompensated) weakly
        // reversible state — the aborting step's own writes do not.
        for (k, v) in memos {
            rb.data.set_wro(k, v);
        }
        let target = rb
            .table
            .resolve(scope)
            .map_err(|e| ItemError::Permanent(format!("rollback scope: {e}")))?;
        rb.status = AgentStatus::RollingBack { target };
        let plan = rb
            .rollback_view()
            .and_then(|view| start_rollback(&view, target))
            .map_err(|e| ItemError::Permanent(format!("rollback: {e}")))?;
        let txn = self.alloc_txn(ctx);
        let mut metrics = vec![(Tally::RollbackStarted, 1)];
        let exit = match plan {
            StartPlan::AlreadyAtTarget(restore) => {
                rb.apply_restore(*restore);
                metrics.push((Tally::RollbackCompleted, 1));
                Self::exit_to_step(ctx, &rb)?
            }
            StartPlan::Go(dest) => Exit::rolling_back(dest),
        };
        self.hand_off(ctx, txn, key, rb, metrics, None, exit)
    }

    /// The exit of a record back in forward execution (a restore was just
    /// applied): towards the node of its current step — or staying, when it
    /// has none yet and the next processing advances.
    fn exit_to_step(ctx: &Ctx<'_>, rec: &ResidentRecord) -> Result<Exit, ItemError> {
        let itinerary = rec
            .itinerary
            .tree()
            .map_err(|e| ItemError::Permanent(format!("itinerary: {e}")))?;
        Ok(match rec.cursor.current_step(&itinerary) {
            Some(step) => Exit::towards(ctx, step.loc.primary().0),
            None => Exit::Stay,
        })
    }

    /// One batched compensation transaction: a maximal same-destination run
    /// of Fig. 4b / Fig. 5b rounds fused into a single commit (one round per
    /// transaction when batching is disabled).
    fn process_rollback(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        mut rb: ResidentRecord,
        target: mar_core::SavepointId,
    ) -> Result<(), ItemError> {
        // Rollback needs the log's entries: materialize in place (a resident
        // record cached by a previous local round is already materialized).
        let mut view = rb
            .rollback_view()
            .map_err(|e| ItemError::Permanent(e.to_string()))?;
        let txn = self.alloc_txn(ctx);
        let batch = if self.cfg.batch_rollback {
            plan_batch(&mut view, target)
        } else {
            plan_single(&mut view, target)
        }
        .map_err(|e| ItemError::Permanent(format!("rollback: {e}")))?;

        // RCEs whose resource node is *this* node run inside the local
        // transaction directly — no point 2PC-ing a branch to ourselves.
        let fold_rces_local = batch.step_node() == Some(ctx.node().0);

        // Execute the local operations (everything in basic/mixed batches,
        // the agent compensation entries in split batches, plus the RCEs of
        // batches whose resource node is this node), newest step first.
        let now = ctx.now();
        let now_us = now.as_micros();
        let folded = fold_rces_local
            .then(|| batch.remote_rces())
            .into_iter()
            .flatten();
        for entry in batch.local_ops().chain(folded) {
            let result = {
                let mut access = RmAccess::new(&mut self.rms, txn, now);
                self.comps.execute(
                    &entry.op,
                    now_us,
                    Some(&mut access),
                    Some(rb.data.wro_map_mut()),
                )
            };
            match result {
                Ok(()) => ctx.metrics().inc(keys::COMP_OPS),
                Err(CompError::Failed {
                    retryable: true,
                    reason,
                    ..
                }) => {
                    self.rms.abort_all(txn);
                    ctx.metrics().inc(keys::COMP_TRANSIENT);
                    return Err(ItemError::Transient(reason));
                }
                Err(e) => {
                    self.rms.abort_all(txn);
                    ctx.metrics().inc(keys::COMP_PERMANENT);
                    return Err(ItemError::Permanent(e.to_string()));
                }
            }
        }

        // Ship the fused resource compensation entries of the whole batch
        // to its node (optimized mode) as ONE list in ONE 2PC branch, to
        // run concurrently inside the same transaction.
        let rces = (!fold_rces_local && batch.has_remote_rces()).then(|| {
            let list = RceList {
                agent: rb.id,
                step_seq: batch.steps[0].step_seq,
                ops: batch.remote_rces().cloned().collect(),
            };
            let payload = mar_wire::to_bytes(&list).expect("rce list encodes");
            ctx.metrics().inc(keys::RCE_SHIPPED);
            ctx.metrics().add(keys::RCE_BYTES, payload.len() as u64);
            let node = batch.step_node().expect("has_remote_rces implies steps");
            (NodeId(node), payload)
        });

        // Round accounting stays per compensated step (an op-less
        // savepoints-only batch still counts as the one round it was), so
        // batched and unbatched runs report identical `rollback.rounds`;
        // the transaction savings show up in `batched_rounds`/`rounds_saved`.
        let rounds = batch.rounds_fused().max(1) as u64;
        let mut metrics = vec![
            (Tally::RollbackRounds, rounds),
            (Tally::RollbackBatchedRounds, 1),
            (Tally::RollbackRoundsSaved, rounds - 1),
        ];
        let exit = match batch.after {
            AfterRound::Reached(restore) => {
                rb.apply_restore(*restore);
                metrics.push((Tally::RollbackCompleted, 1));
                // The itinerary is first read here: abort what was compensated.
                Self::exit_to_step(ctx, &rb).map_err(|e| {
                    self.rms.abort_all(txn);
                    e
                })?
            }
            AfterRound::Continue(dest) => Exit::rolling_back(dest),
        };
        self.hand_off(ctx, txn, key, rb, metrics, rces, exit)
    }
}

impl Service for MoleService {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Address, payload: &[u8]) {
        let msg = match MoleMsg::decode(payload) {
            Ok(m) => m,
            Err(e) => return ctx.failure(keys::AGENT_MSGS_UNDECODABLE, e),
        };
        match msg {
            MoleMsg::Launch { record } => {
                ctx.metrics().inc(keys::AGENT_LAUNCHED);
                self.enqueue_local(ctx, record.into_vec());
            }
            MoleMsg::Report { report } => {
                if let Ok(agent) = AgentReport::peek_id(&report) {
                    self.deliver_report_home(ctx, agent, report.into_vec());
                    if from.node != NodeId::EXTERNAL {
                        ctx.send(
                            Address::new(from.node, MOLE),
                            MoleMsg::ReportAck { agent }.encode(),
                        );
                    }
                }
            }
            MoleMsg::ReportAck { agent } => {
                let key = format!("{OUTBOX_PREFIX}{}", agent.0);
                ctx.stable_delete(&key);
                self.outbox_sent.remove(&key);
            }
            MoleMsg::ItineraryMiss { txn, hash } => {
                // The receiver could not resolve the itinerary reference we
                // shipped: forget the assumption and re-send the branch
                // inline from our retained copy. Stale reports (settled
                // transaction, branch no longer waiting) fall through
                // silently.
                let by_ref = self
                    .active
                    .get_mut(&txn)
                    .and_then(|at| at.shipment.as_mut())
                    .filter(|shipment| shipment.dest == from.node)
                    .and_then(|shipment| shipment.note.as_ref().zip(shipment.inline.as_mut()));
                if let Some((note, form)) = by_ref {
                    self.itin.forget(note, hash);
                    let inline = Work::encode(form.works.clone());
                    let actions = self.co.replace_work(txn, from.node, inline);
                    if !actions.is_empty() {
                        form.sent = true;
                        ctx.metrics().inc(keys::ITINERARY_REFETCHES);
                    }
                    self.run_actions(ctx, actions);
                }
            }
            MoleMsg::Tx { from, msg, tally } => {
                // A transaction id names its coordinator: a decision or a
                // question about one of this node's own transactions comes
                // from a participant, any other from a coordinator.
                let me = ctx.node();
                let actions = match msg {
                    TxMsg::Prepare { txn, work, decide } => {
                        // A retransmitted prepare for a branch this
                        // participant already holds (or settled) must not
                        // re-execute the work — a second tentative RCE run
                        // under the same transaction would double-apply the
                        // compensations at commit. `on_prepare` just
                        // answers again for known transactions.
                        if self.pa.is_known(txn) {
                            self.pa.on_prepare(txn, from, Some(work), decide)
                        } else {
                            self.prepare(ctx, txn, from, work, decide, tally)
                        }
                    }
                    TxMsg::Vote { txn, ok } => self.co.on_vote(txn, from, ok),
                    TxMsg::Decision { txn, commit } if txn.coordinator == me => {
                        self.co.on_decision(txn, commit, from)
                    }
                    TxMsg::Decision { txn, commit } => self.pa.on_decision(txn, commit, from),
                    TxMsg::Ack { txn } => self.co.on_ack(txn, from),
                    TxMsg::Query { txn } if txn.coordinator == me => self.co.on_query(txn, from),
                    TxMsg::Query { txn } => self.pa.on_query(txn, from),
                };
                self.run_actions(ctx, actions);
            }
        }
        self.count_itinerary_lookups(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_RETRY_2PC => {
                let mut actions = self.co.on_retry();
                actions.extend(self.pa.on_retry());
                self.run_actions(ctx, actions);
                self.retransmit_reports(ctx);
                ctx.set_timer(TM_RETRY, TAG_RETRY_2PC);
            }
            TAG_KICK => self.scan_queue(ctx),
            t => {
                if let Some(key) = self.tag_map.remove(&t) {
                    self.run_item(ctx, &key);
                }
            }
        }
        self.count_itinerary_lookups(ctx);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // A crash rebuilds the service from its factory: the resident cache
        // and the intern table start empty, and recovery re-decodes queue
        // items from stable bytes only. Peers are not told about the restart,
        // so the records still queued are interned again, as on receipt.
        // A held record is interned when its hold is released.
        self.ready = BTreeSet::from_iter(queue_keys(ctx.stable()));
        for key in &self.ready {
            if let Some(bytes) = ctx.stable_get(key) {
                self.itin.intern_record(bytes);
            }
        }
        // Transaction id allocator: never reuse ids from before the crash.
        let floor: u64 = ctx
            .stable_get(KEY_TXNSEQ)
            .and_then(|b| mar_wire::from_slice(b).ok())
            .unwrap_or(0);
        let mut idgen = TxnIdGen::new(ctx.node(), 0);
        idgen.bump_past(floor);
        self.idgen = Some(idgen);
        self.txn_floor = floor;

        // Local branches in doubt: the queue keys they hold stayed out of
        // `ready`, and their delta records are redone under their
        // transaction. One that does not read back, or names a queue key
        // that is gone, is counted and traced.
        let mut in_doubt = Vec::new();
        let mut redo = BTreeMap::new();
        for key in ctx.stable().keys_with_prefix(LOCAL_PREFIX) {
            let Some(bytes) = ctx.stable_get(&key) else {
                continue;
            };
            let txn = &key[LOCAL_PREFIX.len()..];
            match mar_wire::from_slice::<HeldBranch>(bytes) {
                Ok(held) => {
                    for key in held.queue_keys() {
                        if ctx.stable_get(&key).is_none() {
                            Self::refuse_prepared(ctx, txn, format_args!("no {key}"));
                        }
                    }
                    let id = parse_txn_key(txn);
                    let deltas = held.deltas.iter();
                    redo.extend(deltas.map(|(name, seq)| (rm_delta_key(name, *seq), id)));
                    in_doubt.push((id, held.branch));
                }
                Err(e) => Self::refuse_prepared(ctx, txn, e),
            }
        }

        // Resource state. Key order puts each manager's base image before
        // its delta records, and those in number order. The registry stops
        // a manager's replay at the first record that does not restore; each
        // record it refuses is counted and traced.
        for key in ctx.stable().keys_with_prefix(RM_PREFIX) {
            let Some(bytes) = ctx.stable_get(&key) else {
                continue;
            };
            let record = &key[RM_PREFIX.len()..];
            let restored = match record.split_once('+') {
                Some((name, seq)) => match (seq.parse(), redo.get(&key)) {
                    (Ok(seq), Some(&txn)) => self.rms.redo_delta(name, seq, txn, bytes),
                    (Ok(seq), None) => self.rms.apply_delta(name, seq, bytes),
                    (Err(e), _) => Err(TxnError::Codec(format!("delta number: {e}"))),
                },
                None => self.rms.restore_base(record, bytes),
            };
            if let Err(e) = restored {
                let refused = keys::RECOVERY_RM_RECORDS_REFUSED;
                ctx.failure(refused, format_args!("{key}: {e}"));
            }
        }

        // Coordinator: finish sending persisted commit decisions, and ask
        // the deciders of the branches in doubt.
        let mut decisions = Vec::new();
        for key in ctx.stable().keys_with_prefix(DECISION_PREFIX) {
            if let Some(bytes) = ctx.stable_get(&key) {
                if let Ok(participants) = mar_wire::from_slice::<Vec<NodeId>>(bytes) {
                    let txn = parse_txn_key(&key[DECISION_PREFIX.len()..]);
                    decisions.push((txn, participants));
                }
            }
        }
        let co_actions = self.co.recover(decisions, in_doubt);

        // Participant: reload prepared/done state and query outcomes. An
        // entry that does not decode is left out, one whose stub names a
        // missing queue key stays in doubt without its record, and both are
        // counted and traced.
        let mut prepared = Vec::new();
        for key in ctx.stable().keys_with_prefix(PREPARED_PREFIX) {
            let Some(bytes) = ctx.stable_get(&key) else {
                continue;
            };
            let txn = &key[PREPARED_PREFIX.len()..];
            match read_prepared(bytes) {
                Ok((entry, held)) => {
                    for key in held {
                        if ctx.stable_get(&key).is_none() {
                            Self::refuse_prepared(ctx, txn, format_args!("no {key}"));
                        }
                    }
                    prepared.push((parse_txn_key(txn), entry));
                }
                Err(why) => Self::refuse_prepared(ctx, txn, why),
            }
        }
        let done = ctx
            .stable()
            .keys_with_prefix(DONE2PC_PREFIX)
            .iter()
            .map(|k| {
                let txn = parse_txn_key(&k[DONE2PC_PREFIX.len()..]);
                (txn, ctx.stable_get(k) != Some(&[0]))
            })
            .collect();
        self.pa.recover(prepared, done);
        let pa_actions = self.pa.on_retry();

        self.run_actions(ctx, co_actions);
        self.run_actions(ctx, pa_actions);
        ctx.set_timer(TM_RETRY, TAG_RETRY_2PC);
        self.kick(ctx);
        self.count_itinerary_lookups(ctx);
    }
}

/// A stored prepared entry and the queue keys it holds, or why it does not
/// read back.
fn read_prepared(bytes: &[u8]) -> Result<(PreparedEntry, Vec<String>), String> {
    let entry: PreparedEntry = mar_wire::from_slice(bytes).map_err(|e| e.to_string())?;
    let works = Work::decode_stored(entry.work.clone()).map_err(|e| format!("{e:?}"))?;
    let held = works.into_iter().filter_map(|work| match work {
        Work::Held { key, .. } => Some(key),
        _ => None,
    });
    Ok((entry, held.collect()))
}

/// The queue keys the prepared entry stored under `entry` holds: none if
/// there is no such entry, or it does not read back (recovery reports that).
fn held_keys(stable: &StableStore, entry: &str) -> Vec<String> {
    let read = stable
        .get(entry)
        .and_then(|bytes| read_prepared(bytes).ok());
    read.map(|(_, held)| held).unwrap_or_default()
}

/// The node's agent input queue: the keys under `q/`, less those the live
/// prepared entries hold — a record that arrived with a classic `Prepare` is
/// in place from then on, and in the queue once the decision has removed the
/// entry; a prepared local branch holds the item its transaction took and a
/// staying record's new bytes until its decision. Every reader of the stored
/// queue goes through here (recovery, the driver, `scan_queue`'s debug
/// cross-check), so an agent in transit is in at most one queue at any
/// instant (Fig. 1), not only at quiescence: the sender's hold is durable
/// before the decider queues the record.
fn queue_keys(stable: &StableStore) -> Vec<String> {
    let entries = stable.keys_with_prefix(PREPARED_PREFIX);
    let mut holds = BTreeSet::from_iter(entries.iter().flat_map(|entry| held_keys(stable, entry)));
    for entry in stable.keys_with_prefix(LOCAL_PREFIX) {
        let held = stable.get(&entry).map(mar_wire::from_slice::<HeldBranch>);
        holds.extend(
            held.and_then(Result::ok)
                .iter()
                .flat_map(HeldBranch::queue_keys),
        );
    }
    let mut keys = stable.keys_with_prefix(Q_PREFIX);
    keys.retain(|key| !holds.contains(key));
    keys
}

/// The encoded records in the queue of a node, read off its store alone.
pub(crate) fn queued_records(stable: &StableStore) -> impl Iterator<Item = &[u8]> {
    let keys = queue_keys(stable);
    keys.into_iter().filter_map(|key| stable.get(&key))
}

/// A coordinator's prepared local branch, stored under `2pc/local/<txn>`:
/// the protocol's [`LocalBranch`] and what the entry holds. While it is
/// stored, neither queue key is in the queue ([`queue_keys`]); the commit
/// deletes `taken` and keeps the rest, an abort deletes the rest and puts
/// `taken` back in the queue. Queue keys are stored by number.
#[derive(Debug, Serialize, Deserialize)]
struct HeldBranch {
    branch: LocalBranch,
    /// The item the transaction took off the queue.
    taken: u64,
    /// The new queue item of a record that stays on this node.
    staying: Option<u64>,
    /// The resource delta records the prepare stored: name and number.
    deltas: Vec<(String, u64)>,
}

impl HeldBranch {
    /// The queue keys the entry holds.
    fn queue_keys(&self) -> impl Iterator<Item = String> {
        std::iter::once(self.taken)
            .chain(self.staying)
            .map(queue_key)
    }
}

fn local_key(txn: TxnId) -> String {
    format!("{LOCAL_PREFIX}{}", txn.key())
}

fn queue_key(seq: u64) -> String {
    format!("{Q_PREFIX}{seq:012}")
}

fn queue_seq(key: &str) -> Option<u64> {
    key.strip_prefix(Q_PREFIX)?.parse().ok()
}

fn rm_delta_key(name: &str, seq: u64) -> String {
    format!("{RM_PREFIX}{name}+{seq:012}")
}

fn parse_txn_key(key: &str) -> TxnId {
    let (node, seq) = key.split_once('.').unwrap_or(("0", "0"));
    TxnId::new(NodeId(node.parse().unwrap_or(0)), seq.parse().unwrap_or(0))
}
