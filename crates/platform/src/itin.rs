//! The itinerary intern table of one node and the reference protocol around
//! it (`docs/ARCHITECTURE.md`, "Itinerary interning", names the runtime event
//! behind each operation).
//!
//! Everything here is volatile and nothing touches the simulator: counts
//! accumulate in a [`Tally`] the runtime moves into its metrics. A crashed
//! node starts from [`ItinTable::new`] and interns the records still in its
//! stable queue again, which keeps what its peers learned before the crash
//! true for exactly the records it still holds.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use mar_core::itinspan::{classify_span, encode_ref, itinerary_span, splice_span, SpanKind};
use mar_core::ItinerarySlot;
use mar_simnet::NodeId;

use crate::lru::Lru;

/// Since the last [`ItinTable::take_tally`]: lookups that found the hash
/// interned, lookups that did not (a newly interned itinerary, or a reference
/// that could not be expanded), and entries dropped by the capacity bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// What the table remembers about one shipped record until the shipping
/// transaction resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Note {
    dest: NodeId,
    hash: u64,
    /// The record went as a reference, on the assumption that `dest` holds
    /// `hash`; otherwise it went inline and `dest` holds `hash` once the
    /// transaction has committed.
    by_ref: bool,
}

pub(crate) struct ItinTable {
    enabled: bool,
    cap: usize,
    slots: BTreeMap<u64, ItinerarySlot>,
    lru: Lru<u64>,
    /// Per destination, the hashes of itineraries this node shipped there
    /// inline in a committed transaction — which the destination interned
    /// on receipt, before it acknowledged the decision.
    known: BTreeMap<NodeId, BTreeSet<u64>>,
    tally: Tally,
}

impl ItinTable {
    /// An empty table holding at most `cap` (at least one) itineraries. A
    /// table that is not `enabled` interns nothing, compresses nothing and
    /// counts nothing; it still refuses references it cannot expand.
    pub(crate) fn new(enabled: bool, cap: usize) -> Self {
        ItinTable {
            enabled,
            cap: cap.max(1),
            slots: BTreeMap::new(),
            lru: Lru::new(),
            known: BTreeMap::new(),
            tally: Tally::default(),
        }
    }

    /// The counts since the last call.
    pub(crate) fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    /// Interns `slot` and returns the table's copy, so that all holders
    /// share one decoded tree. On a hash collision with different bytes the
    /// table keeps its entry and `slot` comes back as it is: the hash is a
    /// cache key, not an identity, and a collision costs only the sharing.
    fn intern(&mut self, slot: &ItinerarySlot) -> ItinerarySlot {
        let hash = slot.hash();
        if let Some(existing) = self.slots.get(&hash) {
            if existing.as_bytes() != slot.as_bytes() {
                return slot.clone();
            }
            self.tally.hits += 1;
            self.lru.touch(hash);
            return existing.clone();
        }
        self.tally.misses += 1;
        self.slots.insert(hash, slot.clone());
        self.lru.touch(hash);
        while self.slots.len() > self.cap {
            let victim = self.lru.pop_oldest().expect("one key per slot");
            self.slots.remove(&victim);
            self.tally.evictions += 1;
        }
        slot.clone()
    }

    /// Interns the inline itinerary of an encoded record that enters this
    /// node's queue (launch, committed transfer, or recovery) — a span scan
    /// and a hash, nothing is decoded. A record that is not framed like one
    /// is skipped; its parse reports that.
    pub(crate) fn intern_record(&mut self, record: &[u8]) {
        if !self.enabled {
            return;
        }
        let Ok(span) = itinerary_span(record) else {
            return;
        };
        if let Ok(slot) = ItinerarySlot::from_span(&record[span]) {
            self.intern(&slot);
        }
    }

    /// Swaps the slot of a freshly parsed record for the table's copy. The
    /// value is the same (same hash, same bytes); only the decode is shared.
    /// Also how a decider interns the slot [`ItinTable::expand`] found: the
    /// record's span is not walked a second time.
    pub(crate) fn adopt(&mut self, slot: &mut ItinerarySlot) {
        if self.enabled {
            *slot = self.intern(slot);
        }
    }

    /// Sender half: `record`, carrying the itinerary `slot` at `span`, is
    /// about to ship to `dest`. If `dest` is known to hold the itinerary,
    /// returns the record with a reference in its place. `None` if the
    /// table is off.
    pub(crate) fn compress(
        &mut self,
        dest: NodeId,
        slot: &ItinerarySlot,
        record: &[u8],
        span: Range<usize>,
    ) -> Option<(Note, Option<Vec<u8>>)> {
        if !self.enabled {
            return None;
        }
        let hash = self.intern(slot).hash();
        let by_ref = self
            .known
            .get(&dest)
            .filter(|held| held.contains(&hash))
            .map(|_| splice_span(record, span, &encode_ref(hash)));
        let note = Note {
            dest,
            hash,
            by_ref: by_ref.is_some(),
        };
        Some((note, by_ref))
    }

    /// Receiver half, one walk of `record`. `Ok((Some(_), _))` is `record`
    /// with its itinerary reference replaced by the interned bytes, so that
    /// everything downstream — and stable storage above all — sees only the
    /// inline form; `Ok((None, _))`: the record is inline already, or not
    /// framed like a record (its parse reports that). With it comes the
    /// itinerary's slot, for [`ItinTable::adopt`]: the table's for a
    /// reference, the inline span's otherwise, and none for a record not
    /// framed like one or from a table that is off. `Err(hash)`: a
    /// reference this table cannot expand; a garbled reference cannot name
    /// its hash and reports 0.
    pub(crate) fn expand(
        &mut self,
        record: &[u8],
    ) -> Result<(Option<Vec<u8>>, Option<ItinerarySlot>), u64> {
        let Ok(span) = itinerary_span(record) else {
            return Ok((None, None));
        };
        let hash = match classify_span(&record[span.clone()]) {
            Ok(SpanKind::Inline) => {
                let slot = self
                    .enabled
                    .then(|| ItinerarySlot::from_span(&record[span]));
                return Ok((None, slot.and_then(Result::ok)));
            }
            Ok(SpanKind::Ref(hash)) => hash,
            Err(_) => return Err(0),
        };
        let Some(slot) = self.slots.get(&hash) else {
            self.tally.misses += u64::from(self.enabled);
            return Err(hash);
        };
        self.tally.hits += 1;
        self.lru.touch(hash);
        let expanded = splice_span(record, span, slot.as_bytes());
        Ok((Some(expanded), Some(slot.clone())))
    }

    /// The transaction that shipped the record committed: a destination that
    /// got the itinerary inline interned it when it applied the enqueue,
    /// before it acknowledged — so this node never assumes what the
    /// destination does not hold.
    pub(crate) fn learn(&mut self, note: &Note) {
        if !note.by_ref {
            self.known.entry(note.dest).or_default().insert(note.hash);
        }
    }

    /// The destination could not expand the reference it was sent (it named
    /// `missing`): stop assuming it holds either hash.
    pub(crate) fn forget(&mut self, note: &Note, missing: u64) {
        if let Some(held) = self.known.get_mut(&note.dest) {
            held.remove(&note.hash);
            held.remove(&missing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_core::{AgentId, AgentRecord, DataSpace, LoggingMode, RollbackMode};
    use mar_itinerary::ItineraryBuilder;

    const B: NodeId = NodeId(2);
    const C: NodeId = NodeId(3);

    /// An encoded record whose itinerary is distinct per `tag`, and the
    /// slot of that itinerary.
    fn record(tag: u32) -> (Vec<u8>, ItinerarySlot) {
        let itinerary = ItineraryBuilder::main("I")
            .sub("S", |s| {
                s.step(format!("step#{tag}"), 1);
            })
            .build()
            .unwrap();
        let bytes = AgentRecord::new(
            AgentId(u64::from(tag)),
            "t",
            0,
            DataSpace::new(),
            itinerary,
            LoggingMode::State,
            RollbackMode::Optimized,
        )
        .to_bytes()
        .unwrap();
        let span = itinerary_span(&bytes).unwrap();
        let slot = ItinerarySlot::from_span(&bytes[span]).unwrap();
        (bytes, slot)
    }

    /// Where `bytes` carries its itinerary, as the sender's encoder says.
    fn span(bytes: &[u8]) -> Range<usize> {
        itinerary_span(bytes).unwrap()
    }

    /// Ships `record` to `dest` in a transaction that commits.
    fn ship(table: &mut ItinTable, dest: NodeId, tag: u32) -> Option<Vec<u8>> {
        let (bytes, slot) = record(tag);
        let (note, by_ref) = table
            .compress(dest, &slot, &bytes, span(&bytes))
            .expect("table is on");
        table.learn(&note);
        by_ref
    }

    #[test]
    fn the_second_shipment_to_a_destination_goes_by_reference_and_expands_back() {
        let (bytes, slot) = record(1);
        let mut sender = ItinTable::new(true, 8);
        let mut receiver = ItinTable::new(true, 8);
        assert_eq!(ship(&mut sender, B, 1), None, "first contact ships inline");
        receiver.intern_record(&bytes);
        let by_ref = ship(&mut sender, B, 1).expect("B holds the itinerary now");
        assert!(by_ref.len() < bytes.len());
        assert_eq!(ship(&mut sender, C, 1), None, "what B holds, C need not");
        let interned = receiver.slots[&slot.hash()].clone();
        assert_eq!(
            receiver.expand(&by_ref),
            Ok((Some(bytes.clone()), Some(interned)))
        );
        assert_eq!(
            receiver.expand(&bytes),
            Ok((None, Some(slot.clone()))),
            "inline stays as it is"
        );
        assert_eq!(
            receiver.expand(&[0xff, 0x01]),
            Ok((None, None)),
            "not a record"
        );
        // Neither an itinerary (three fields) nor a reference (one).
        let span = itinerary_span(&bytes).unwrap();
        let garbled = splice_span(&bytes, span, &mar_wire::to_bytes(&(1u64, 2u64)).unwrap());
        assert_eq!(receiver.expand(&garbled), Err(0));
        assert_eq!(
            sender.take_tally(),
            Tally {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(slot.hash(), mar_wire::content_hash64(slot.as_bytes()));
    }

    /// The decoder sweep (`hostile::each`) over what a `Prepare` may carry
    /// as a record, by reference and inline: the record expanded, a miss
    /// naming a hash, or nothing to do — never a panic, and an expansion is
    /// always the interned itinerary in place of a reference.
    #[test]
    fn hostile_records_expand_or_are_refused() {
        let (bytes, slot) = record(1);
        let mut sender = ItinTable::new(true, 8);
        let mut receiver = ItinTable::new(true, 8);
        ship(&mut sender, B, 1);
        receiver.intern_record(&bytes);
        let by_ref = ship(&mut sender, B, 1).expect("by reference");
        for valid in [&by_ref, &bytes] {
            crate::hostile::each(valid, |b| {
                if let Ok((Some(expanded), _)) = receiver.expand(b) {
                    let span = itinerary_span(&expanded).expect("still a record");
                    assert_eq!(&expanded[span], slot.as_bytes());
                }
            });
        }
    }

    #[test]
    fn eviction_is_least_recently_used_and_a_stale_reference_is_refused() {
        let mut t = ItinTable::new(true, 2);
        for tag in [1, 2] {
            t.intern_record(&record(tag).0);
        }
        // 1 is touched, so 3 evicts 2.
        let mut slot = record(1).1;
        t.adopt(&mut slot);
        t.intern_record(&record(3).0);
        let held: Vec<u64> = t.slots.keys().copied().collect();
        let mut expected = vec![record(1).1.hash(), record(3).1.hash()];
        expected.sort_unstable();
        assert_eq!(held, expected);
        assert_eq!(
            t.take_tally(),
            Tally {
                hits: 1,
                misses: 3,
                evictions: 1
            }
        );
        // A peer that learned 2 before the eviction still ships it by
        // reference; this table can no longer expand it.
        let (bytes, slot) = record(2);
        let mut peer = ItinTable::new(true, 2);
        ship(&mut peer, B, 2);
        let by_ref = ship(&mut peer, B, 2).expect("by reference");
        assert_eq!(t.expand(&by_ref), Err(slot.hash()));
        assert_eq!(t.take_tally().misses, 1);
        assert_eq!(t.expand(&bytes), Ok((None, Some(slot))));
    }

    #[test]
    fn a_hash_collision_keeps_the_first_entry_and_leaves_the_newcomer_alone() {
        let first = record(1).1;
        let newcomer = record(2).1;
        let mut t = ItinTable::new(true, 8);
        // Forge the collision: the first itinerary under the newcomer's hash.
        t.slots.insert(newcomer.hash(), first.clone());
        t.lru.touch(newcomer.hash());
        let mut slot = newcomer.clone();
        t.adopt(&mut slot);
        assert_eq!(slot.as_bytes(), newcomer.as_bytes());
        assert_eq!(t.slots[&newcomer.hash()].as_bytes(), first.as_bytes());
        assert_eq!(t.take_tally(), Tally::default(), "neither hit nor miss");
    }

    #[test]
    fn forget_stops_compression_to_that_destination_only() {
        let (bytes, slot) = record(1);
        let mut t = ItinTable::new(true, 8);
        ship(&mut t, B, 1);
        ship(&mut t, C, 1);
        let (note, by_ref) = t.compress(B, &slot, &bytes, span(&bytes)).unwrap();
        assert!(by_ref.is_some());
        assert!(note.by_ref);
        // B NACKs; the transaction later commits with the inline form.
        t.forget(&note, slot.hash());
        t.learn(&note);
        let (again, by_ref) = t.compress(B, &slot, &bytes, span(&bytes)).unwrap();
        assert_eq!((again.by_ref, by_ref), (false, None));
        assert!(ship(&mut t, C, 1).is_some(), "C was not asked to forget");
        t.learn(&again);
        assert!(ship(&mut t, B, 1).is_some(), "B learns it again inline");
    }

    #[test]
    fn a_disabled_table_is_inert() {
        let (bytes, slot) = record(1);
        let mut t = ItinTable::new(false, 8);
        t.intern_record(&bytes);
        let mut adopted = slot.clone();
        t.adopt(&mut adopted);
        assert!(t.compress(B, &slot, &bytes, span(&bytes)).is_none());
        assert!(t.compress(B, &slot, &bytes, span(&bytes)).is_none());
        assert!(t.slots.is_empty() && t.known.is_empty());
        // It cannot expand a reference, and says so.
        let mut peer = ItinTable::new(true, 8);
        ship(&mut peer, B, 1);
        let by_ref = ship(&mut peer, B, 1).unwrap();
        assert_eq!(t.expand(&by_ref), Err(slot.hash()));
        assert_eq!(t.take_tally(), Tally::default());
    }

    #[test]
    fn a_fresh_table_rederives_exactly_the_queued_records() {
        let queued = [record(1).0, record(2).0];
        let left = record(3);
        let mut sender = ItinTable::new(true, 8);
        let refs: Vec<Vec<u8>> = (1..=3)
            .map(|tag| {
                ship(&mut sender, B, tag);
                ship(&mut sender, B, tag).expect("by reference")
            })
            .collect();
        // B crashed: its table is rebuilt from the records still queued.
        let mut recovered = ItinTable::new(true, 8);
        for bytes in &queued {
            recovered.intern_record(bytes);
        }
        assert_eq!(
            recovered.expand(&refs[0]).unwrap().0,
            Some(queued[0].clone())
        );
        assert_eq!(
            recovered.expand(&refs[1]).unwrap().0,
            Some(queued[1].clone())
        );
        assert_eq!(recovered.expand(&refs[2]), Err(left.1.hash()));
        assert_eq!(recovered.slots.len(), 2);
    }
}
