//! The remote work of a 2PC branch, typed.
//!
//! The paper has two kinds: the next node's queue insert of the step
//! transaction (§2) and the shipped RCE list of the optimized compensation
//! transaction (§4.4.1). A branch is a flat list of them; this module is the
//! one place that knows how the list looks as a [`RemoteWork`] on the wire
//! and in `2pc/prepared/`: a single work is the bare item, several are a
//! `"batch"` whose payload is the encoded list of bare items.
//!
//! The two forms differ in one item. A participant puts the record of an
//! enqueue into its queue when it prepares, so its prepared entry stores a
//! [`Work::Held`] stub naming that queue key in the record's place. The stub
//! is stored only: [`Work::decode`] of wire bytes refuses it, so no `Prepare`
//! can name a queue key; [`Work::decode_stored`] reads it back.

use mar_txn::RemoteWork;
use mar_wire::varint::uvarint_len;
use mar_wire::Bytes;

const ENQUEUE_FWD: &str = "enqueue-fwd";
const ENQUEUE_RBK: &str = "enqueue-rbk";
const RCE: &str = "rce";
const HELD: &str = "held";
const BATCH: &str = "batch";

/// One piece of work a transaction asks of a participant node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Work {
    /// Put the encoded agent `record` into the node's input queue; it
    /// arrives in forward execution, or rolling back.
    Enqueue { rollback: bool, record: Bytes },
    /// Execute the encoded [`RceList`](crate::RceList) inside the
    /// transaction.
    Rce(Bytes),
    /// Stored only: the record of an [`Work::Enqueue`], `len` bytes long, sits
    /// under the queue key `key` and is held there until the decision.
    Held {
        rollback: bool,
        key: String,
        len: u64,
    },
}

/// A [`RemoteWork`] that is not a branch this runtime could have sent.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WorkError {
    /// A kind other than the three items and the batch (nested batches
    /// included: a branch is flat), or the stored-only stub off the wire.
    UnknownKind(String),
    /// A batch payload that is not an encoded list of items, or a stub
    /// payload that is not an encoded stub.
    Codec(mar_wire::WireError),
}

impl Work {
    /// The wire form of a branch, and with stubs in it the stored form.
    pub(crate) fn encode(mut works: Vec<Work>) -> RemoteWork {
        if works.len() == 1 {
            return works.pop().expect("one work").into_item();
        }
        let items: Vec<RemoteWork> = works.into_iter().map(Work::into_item).collect();
        RemoteWork::new(BATCH, mar_wire::to_bytes(&items).expect("batch encodes"))
    }

    /// How much longer a record's `Bytes` run is at `inline` bytes than at
    /// `by_ref` bytes: the lengths and their varint prefixes. Negative when
    /// the inline record is the shorter.
    pub(crate) fn record_growth(by_ref: usize, inline: usize) -> isize {
        bytes_run(inline) - bytes_run(by_ref)
    }

    /// How much longer a message carrying the branch `work` is once the
    /// record in it grows by `growth` ([`Work::record_growth`]). Nothing
    /// else in the message moves except, in a `"batch"`, the varint prefix
    /// of the payload around the record, so this prices the inline form of
    /// a branch sent by reference without encoding it.
    pub(crate) fn inline_growth(work: &RemoteWork, growth: isize) -> isize {
        if work.kind != BATCH {
            return growth;
        }
        let payload = work.payload.len();
        let grown = payload
            .checked_add_signed(growth)
            .expect("a record fits its batch");
        bytes_run(grown) - bytes_run(payload)
    }

    /// The branch a [`RemoteWork`] off the wire stands for.
    pub(crate) fn decode(work: RemoteWork) -> Result<Vec<Work>, WorkError> {
        Work::decode_items(work, false)
    }

    /// The branch a [`RemoteWork`] out of a prepared entry stands for.
    pub(crate) fn decode_stored(work: RemoteWork) -> Result<Vec<Work>, WorkError> {
        Work::decode_items(work, true)
    }

    fn decode_items(work: RemoteWork, stored: bool) -> Result<Vec<Work>, WorkError> {
        if work.kind != BATCH {
            return Ok(vec![Work::from_item(work, stored)?]);
        }
        mar_wire::from_slice::<Vec<RemoteWork>>(&work.payload)
            .map_err(WorkError::Codec)?
            .into_iter()
            .map(|item| Work::from_item(item, stored))
            .collect()
    }

    fn into_item(self) -> RemoteWork {
        match self {
            Work::Enqueue { rollback, record } => {
                RemoteWork::new(if rollback { ENQUEUE_RBK } else { ENQUEUE_FWD }, record)
            }
            Work::Rce(list) => RemoteWork::new(RCE, list),
            Work::Held { rollback, key, len } => {
                let stub = mar_wire::to_bytes(&(rollback, key, len)).expect("stub encodes");
                RemoteWork::new(HELD, stub)
            }
        }
    }

    fn from_item(item: RemoteWork, stored: bool) -> Result<Work, WorkError> {
        let rollback = match item.kind.as_str() {
            ENQUEUE_FWD => false,
            ENQUEUE_RBK => true,
            RCE => return Ok(Work::Rce(item.payload)),
            HELD if stored => {
                let (rollback, key, len) =
                    mar_wire::from_slice(&item.payload).map_err(WorkError::Codec)?;
                return Ok(Work::Held { rollback, key, len });
            }
            _ => return Err(WorkError::UnknownKind(item.kind)),
        };
        Ok(Work::Enqueue {
            rollback,
            record: item.payload,
        })
    }
}

/// The length of a `Bytes` run of `len` bytes, less its constant tag.
fn bytes_run(len: usize) -> isize {
    (len + uvarint_len(len as u64)) as isize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn work_strategy() -> impl Strategy<Value = Work> {
        let bytes = || proptest::collection::vec(any::<u8>(), 0..40);
        prop_oneof![
            (any::<bool>(), bytes()).prop_map(|(rollback, b)| Work::Enqueue {
                rollback,
                record: b.into(),
            }),
            bytes().prop_map(|b| Work::Rce(b.into())),
        ]
    }

    fn held_strategy() -> impl Strategy<Value = Work> {
        (any::<bool>(), "[a-z0-9/]{0,16}", any::<u64>())
            .prop_map(|(rollback, key, len)| Work::Held { rollback, key, len })
    }

    /// What the parent commit's `hand_off` built for the same works: the
    /// kind string by hand, and `"batch"` around more than one.
    fn parent_encoding(works: &[Work]) -> RemoteWork {
        let item = |w: &Work| match w {
            Work::Enqueue { rollback, record } => RemoteWork::new(
                if *rollback {
                    "enqueue-rbk"
                } else {
                    "enqueue-fwd"
                },
                record.clone(),
            ),
            Work::Rce(list) => RemoteWork::new("rce", list.clone()),
            Work::Held { .. } => unreachable!("the parent commit had no stub"),
        };
        match works {
            [one] => item(one),
            many => {
                let items: Vec<RemoteWork> = many.iter().map(item).collect();
                RemoteWork::new("batch", mar_wire::to_bytes(&items).unwrap())
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Encoded `RemoteWork`s captured from the parent commit (its
    /// `RemoteWork::new(kind, …)` and `"batch"` construction, through
    /// `mar_wire::to_bytes`): the bytes in a `Prepare` and in
    /// `2pc/prepared/` did not move.
    #[test]
    fn golden_vectors_from_the_parent_commit() {
        let fwd = Work::Enqueue {
            rollback: false,
            record: vec![1, 2, 3].into(),
        };
        let rbk = Work::Enqueue {
            rollback: true,
            record: vec![0xAA; 5].into(),
        };
        let rce = Work::Rce(vec![9, 8].into());
        for (works, golden) in [
            (vec![fwd.clone()], GOLDEN_FWD),
            (vec![rbk.clone()], GOLDEN_RBK),
            (vec![rce.clone()], GOLDEN_RCE),
            (vec![rce, rbk], GOLDEN_BATCH),
        ] {
            let wire = mar_wire::to_bytes(&Work::encode(works.clone())).unwrap();
            assert_eq!(hex(&wire), golden, "{works:?}");
            let back: RemoteWork = mar_wire::from_slice(&wire).unwrap();
            assert_eq!(Work::decode(back), Ok(works));
        }
    }

    const GOLDEN_FWD: &str = "0b02080b656e71756575652d6677640903010203";
    const GOLDEN_RBK: &str = "0b02080b656e71756575652d72626b0905aaaaaaaaaa";
    const GOLDEN_RCE: &str = "0b02080372636509020908";
    const GOLDEN_BATCH: &str = "0b020805626174636809230b020b020803726365090209080b02080b656e71756575652d72626b0905aaaaaaaaaa";

    #[test]
    fn a_nested_batch_and_an_unknown_kind_are_typed_errors() {
        let inner = Work::encode(vec![Work::Rce(vec![1].into()), Work::Rce(vec![2].into())]);
        let nested = RemoteWork::new("batch", mar_wire::to_bytes(&vec![inner]).unwrap());
        assert_eq!(
            Work::decode(nested),
            Err(WorkError::UnknownKind("batch".to_owned()))
        );
        assert_eq!(
            Work::decode(RemoteWork::new("enqueue", vec![1])),
            Err(WorkError::UnknownKind("enqueue".to_owned()))
        );
        assert!(matches!(
            Work::decode(RemoteWork::new("batch", vec![0xff])),
            Err(WorkError::Codec(_))
        ));
    }

    /// A prepared entry that carries one record stores the stub, whatever
    /// the record's size.
    #[test]
    fn a_prepared_entry_with_one_record_is_small() {
        let held = Work::Held {
            rollback: true,
            key: format!("q/{:012}", u64::MAX),
            len: u64::MAX,
        };
        let entry = mar_txn::PreparedEntry {
            coordinator: mar_simnet::NodeId(u32::MAX),
            work: Work::encode(vec![held]),
        };
        let stored = mar_wire::to_bytes(&entry).unwrap();
        assert!(stored.len() <= 64, "{} bytes", stored.len());
    }

    /// The decoder sweep (`hostile::each`) over a branch: off the wire and
    /// out of a prepared entry, as a whole `RemoteWork` and as the payload
    /// of a batch or a stub — a list or a typed error, never a panic.
    #[test]
    fn hostile_bytes_decode_to_a_list_or_a_typed_error() {
        let held = Work::Held {
            rollback: true,
            key: "q/000000000041".to_owned(),
            len: 300,
        };
        let stub = held.clone().into_item();
        let branch = Work::encode(vec![Work::Rce(vec![9, 8].into()), held]);
        crate::hostile::each(&mar_wire::to_bytes(&branch).unwrap(), |b| {
            if let Ok(work) = mar_wire::from_slice::<RemoteWork>(b) {
                let _ = Work::decode(work.clone());
                let _ = Work::decode_stored(work);
            }
        });
        for (kind, payload) in [(BATCH, &branch.payload), (HELD, &stub.payload)] {
            crate::hostile::each(payload, |b| {
                let _ = Work::decode(RemoteWork::new(kind, b.to_vec()));
                let _ = Work::decode_stored(RemoteWork::new(kind, b.to_vec()));
            });
        }
    }

    /// A record, or an RCE list, whose length is short or lands on either
    /// side of a varint boundary of its `Bytes` run: 127/128 and
    /// 16,383/16,384 bytes.
    fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
        let bytes = |len| proptest::collection::vec(any::<u8>(), len);
        prop_oneof![bytes(0..40), bytes(100..160), bytes(16_300..16_450)]
    }

    /// The `Tx` a hop's record branch goes out in: the last branch, which
    /// decides and carries the tally.
    fn prepare_len(rce: &Option<Vec<u8>>, record: &[u8], steps: u64) -> (RemoteWork, usize) {
        let mut works = Vec::from_iter(rce.clone().map(|list| Work::Rce(list.into())));
        works.push(Work::Enqueue {
            rollback: rce.is_some(),
            record: record.to_vec().into(),
        });
        let work = Work::encode(works);
        let msg = crate::msg::MoleMsg::Tx {
            from: mar_simnet::NodeId(3),
            msg: mar_txn::TxMsg::Prepare {
                txn: mar_txn::TxnId::new(mar_simnet::NodeId(3), steps),
                work: work.clone(),
                decide: true,
            },
            tally: vec![(crate::msg::Tally::StepsCommitted, steps)],
        };
        (work, msg.encode().len())
    }

    proptest! {
        /// The price `send_tx` bills a branch sent by reference at is the
        /// length of the same `Prepare` encoded with the other record, in
        /// either direction: single works and batches with an RCE list,
        /// across the varint boundaries of the record's and the batch's
        /// `Bytes` runs.
        #[test]
        fn the_computed_inline_price_is_the_encoded_length(
            by_ref in payload_strategy(),
            inline in payload_strategy(),
            with_rce: bool,
            rce in payload_strategy(),
            steps in 0u64..1_000_000,
        ) {
            let rce = with_rce.then_some(rce);
            let (ref_work, ref_len) = prepare_len(&rce, &by_ref, steps);
            let (inline_work, inline_len) = prepare_len(&rce, &inline, steps);
            let growth = Work::record_growth(by_ref.len(), inline.len());
            prop_assert_eq!(
                ref_len as isize + Work::inline_growth(&ref_work, growth),
                inline_len as isize,
                "{} -> {} bytes, rce {:?}", by_ref.len(), inline.len(), rce.as_ref().map(Vec::len)
            );
            prop_assert_eq!(
                inline_len as isize + Work::inline_growth(&inline_work, -growth),
                ref_len as isize
            );
        }

        /// The stub is stored only: off the wire it is an unknown kind, alone
        /// or in a batch, so a `Prepare` cannot name a queue key.
        #[test]
        fn the_stub_round_trips_stored_and_never_decodes_off_the_wire(
            mut works in proptest::collection::vec(work_strategy(), 0..3),
            held in held_strategy(),
            at in 0usize..3,
        ) {
            works.insert(at.min(works.len()), held);
            let stored = Work::encode(works.clone());
            prop_assert_eq!(
                Work::decode(stored.clone()),
                Err(WorkError::UnknownKind("held".to_owned()))
            );
            prop_assert_eq!(Work::decode_stored(stored), Ok(works));
        }

        #[test]
        fn a_branch_round_trips_and_encodes_as_the_parent_did(
            works in proptest::collection::vec(work_strategy(), 0..4),
        ) {
            let wire = Work::encode(works.clone());
            prop_assert_eq!(&wire, &parent_encoding(&works));
            prop_assert_eq!(Work::decode_stored(wire.clone()), Ok(works.clone()));
            prop_assert_eq!(Work::decode(wire), Ok(works));
        }

        #[test]
        fn arbitrary_bytes_decode_to_a_list_or_a_typed_error(
            kind in prop_oneof![
                Just("batch".to_owned()),
                Just("rce".to_owned()),
                Just("enqueue-fwd".to_owned()),
                Just("held".to_owned()),
                proptest::collection::vec(any::<u8>(), 0..8)
                    .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
            ],
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let item = ["rce", "enqueue-fwd", "enqueue-rbk"].contains(&kind.as_str());
            let decoded = Work::decode(RemoteWork::new(kind.clone(), payload));
            if let Ok(works) = &decoded {
                let stub = works.iter().any(|w| matches!(w, Work::Held { .. }));
                prop_assert!(!stub, "a stub off the wire: {:?}", works);
            }
            match decoded {
                Ok(works) if item => prop_assert_eq!(works.len(), 1),
                // Only a batch holds a list, fails as one, or holds an item
                // of a kind other than its own.
                Ok(_) | Err(WorkError::Codec(_)) => prop_assert_eq!(kind, "batch"),
                Err(WorkError::UnknownKind(k)) => prop_assert!(k == kind || kind == "batch"),
            }
        }
    }
}
