//! The kernel event queue.
//!
//! Events are totally ordered by `(time, origin, seq)`: the virtual time the
//! event is due, the id of the node whose callback created it (the driver
//! uses a reserved origin), and a per-origin sequence number. The key is a
//! property of the event's *cause*, not of queue insertion order, so the
//! global order is identical no matter how nodes are partitioned into
//! shards — the foundation of the sharded runtime's determinism guarantee.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::node::{Address, NodeId};
use crate::time::SimTime;

/// Origin id used for events scheduled by the driver (world API calls)
/// rather than by a node's callback. Sorts after every real node at equal
/// times, which matches the old global insertion order: driver schedules
/// happen between runs, never between same-instant node events.
pub(crate) const DRIVER_ORIGIN: u64 = u64::MAX;

/// Total order key of a scheduled event: `(time, origin, per-origin seq)`.
pub(crate) type EventKey = (SimTime, u64, u64);

#[derive(Debug)]
pub(crate) enum Event {
    /// Deliver a network message to a service.
    Deliver {
        from: Address,
        to: Address,
        payload: Vec<u8>,
        /// Logical size for the delivery trace (see
        /// [`crate::Ctx::send_billed`]); equals `payload.len()` for
        /// ordinary sends.
        billed: usize,
    },
    /// Fire a timer on a service (valid only for the node epoch it was set in).
    Timer {
        node: NodeId,
        service: &'static str,
        tag: u64,
        epoch: u64,
    },
    /// Crash a node (volatile state is lost).
    NodeDown { node: NodeId },
    /// Recover a node (services rebuilt from factories).
    NodeUp { node: NodeId },
    /// Take a link down (messages in either direction will be dropped at send time).
    LinkDown { a: NodeId, b: NodeId },
    /// Bring a link back up.
    LinkUp { a: NodeId, b: NodeId },
}

#[derive(Debug)]
struct HeapItem {
    key: EventKey,
    event: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event first.
        other.key.cmp(&self.key)
    }
}

/// Min-heap of pending events keyed by `(time, origin, seq)`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<HeapItem>,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    pub fn push(&mut self, key: EventKey, event: Event) {
        self.heap.push(HeapItem { key, event });
    }

    pub fn pop(&mut self) -> Option<(EventKey, Event)> {
        self.heap.pop().map(|i| (i.key, i.event))
    }

    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|i| i.key)
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|i| i.key.0)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(node: u32) -> Event {
        Event::NodeDown { node: NodeId(node) }
    }

    fn key(us: u64, origin: u64, seq: u64) -> EventKey {
        (SimTime::from_micros(us), origin, seq)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(5, 0, 0), dummy(1));
        q.push(key(1, 0, 1), dummy(2));
        q.push(key(3, 0, 2), dummy(3));
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop().map(|(k, _)| k.0.as_micros())).collect();
        assert_eq!(order, [1, 3, 5]);
    }

    #[test]
    fn ties_break_by_origin_then_seq() {
        let mut q = EventQueue::new();
        q.push(key(7, 2, 0), dummy(10));
        q.push(key(7, 1, 5), dummy(20));
        q.push(key(7, 1, 2), dummy(30));
        q.push(key(7, DRIVER_ORIGIN, 0), dummy(40));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::NodeDown { node } => node.0,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(order, [30, 20, 10, 40]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(key(2, 0, 0), dummy(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        assert_eq!(q.peek_key(), Some(key(2, 0, 0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
