//! Property tests pinning the resident-record splice encoding to the full
//! re-encode: for random well-formed agent histories (steps, savepoints,
//! sub-itinerary entry/exit, compaction, both logging modes), a
//! [`ResidentRecord`] driven through the same mutations as a plain
//! [`AgentRecord`] must
//!
//! * produce **byte-identical** serializations at *every* encode point —
//!   the spliced O(delta) encode is indistinguishable on the wire from the
//!   wholesale re-encode;
//! * keep doing so after arbitrary interleavings of encodes (which fold the
//!   delta into the retained bytes), materializations, savepoint removals,
//!   and compaction passes;
//! * decode back (`from_bytes` ∘ `to_bytes`) to the identical record.

mod common;

use proptest::prelude::*;

use common::{apply, base_record, op_strategy};
use mar_core::{AgentRecord, LoggingMode, ResidentRecord};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spliced_encoding_is_byte_identical_to_full_reencode(
        logging in prop_oneof![Just(LoggingMode::State), Just(LoggingMode::Transition)],
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut full = base_record(logging);
        let seed_bytes = full.to_bytes().unwrap();
        let mut res = ResidentRecord::from_bytes(&seed_bytes).unwrap();
        let mut subs = 0u32;
        for op in &ops {
            apply(&mut full, &mut res, &mut subs, op);
            // The invariant holds after *every* op, not only at Encode
            // points — clone the resident so the comparison itself does
            // not fold the delta the next op splices onto.
            let direct = full.to_bytes().unwrap();
            let spliced = res.clone().to_bytes().unwrap();
            prop_assert_eq!(&spliced, &direct, "after {:?}", op);
            // And the bytes decode back to the identical record.
            let back = AgentRecord::from_bytes(&direct).unwrap();
            prop_assert_eq!(&back.log, &full.log);
        }
        // Final full decode equivalence through the resident path too.
        let final_bytes = res.to_bytes().unwrap();
        let via_resident = ResidentRecord::from_bytes(&final_bytes)
            .unwrap()
            .into_record()
            .unwrap();
        prop_assert_eq!(via_resident, full);
    }
}
