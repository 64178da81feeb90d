//! The decoder sweep (`counting_alloc::sweep`) over the WAL's record frame:
//! whatever bytes end a node's log, recovery keeps the complete frames before
//! them and treats the rest as a torn tail — no panic (a declared length
//! that overflows `pos + len` included), at most 4 KiB + 256 B per tail byte
//! requested from the allocator.

#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use counting_alloc::{sweep, Counting};
use mar_simnet::stable::wal::{encode_delete_frame, encode_put_frame};
use mar_simnet::{StableBackend, WalBackend, WalConfig};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_log_tail_survives_the_sweep() {
    let mut frames = Vec::new();
    encode_put_frame(&mut frames, "q/agent-7", b"a queued record");
    encode_put_frame(&mut frames, "rm/bank+1", &[0xAB; 40]);
    encode_delete_frame(&mut frames, "q/agent-7");
    sweep(&frames, |tail| {
        let mut wal = WalBackend::new(WalConfig::default());
        wal.inject_torn_tail(tail);
        wal.crash();
        // A frame carries no checksum, so a flipped byte may be a different
        // key; but what survived was read out of the tail, not past it.
        let kept: usize = wal.iter().map(|(k, v)| k.len() + v.len()).sum();
        assert!(kept <= tail.len(), "{kept} bytes out of {}", tail.len());
    });
}
