//! The decoder sweep (`counting_alloc::sweep`) over the session protocol's
//! envelope: whatever bytes a connection delivers as a frame, `recv_ctl` and
//! `Peer::recv` return a message or an `InvalidData` error — no panic, no
//! abort, at most 4 KiB + 256 B per frame byte requested from the allocator.

#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use counting_alloc::{sweep, Counting};
use mar_net::proto::{recv_ctl, send_ctl};
use mar_net::{Loopback, NetMsg, Peer, Transport, PROTOCOL_VERSION};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The bytes `msg` travels as: a control frame, and the first session frame.
fn frames(msg: &NetMsg) -> [Vec<u8>; 2] {
    let (mut a, mut b) = Loopback::pair();
    send_ctl(&mut a, msg).unwrap();
    let ctl = b.recv().unwrap().unwrap();
    Peer::new(a).send(msg).unwrap();
    [ctl, b.recv().unwrap().unwrap()]
}

#[test]
fn control_and_session_frames_survive_the_sweep() {
    let topology = NetMsg::Topology {
        version: PROTOCOL_VERSION,
        scenario: "travel".into(),
        seed: 11,
        n_nodes: 5,
        owned: vec![0, 2, 4],
        resume_us: 9,
        resume_ok: false,
    };
    let done = NetMsg::WindowDone {
        end_us: 40,
        egress: Vec::new(),
        next_min_us: Some(41),
    };
    for msg in [topology, done] {
        for valid in frames(&msg) {
            // The channels are the harness's, not the decoder's: made once.
            let (mut raw, mut end) = Loopback::pair();
            sweep(&valid, |frame| {
                raw.send(frame).unwrap();
                let _ = recv_ctl(&mut end);
            });
            let mut slot = Some(end);
            sweep(&valid, |frame| {
                raw.send(frame).unwrap();
                // A fresh session on the same connection: a frame it takes
                // would make the next one a duplicate.
                let mut session = Peer::new(slot.take().expect("the connection"));
                let _ = session.recv();
                slot = session.detach();
            });
        }
    }
}
