//! Event trace for debugging, golden tests, and determinism checks. A record
//! names services by their `&'static str`, so it allocates nothing of its own.

use crate::event::EventKey;
use crate::metrics::Counter;
use crate::time::SimTime;

/// One traced kernel event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A message was handed to the network.
    MsgSent {
        /// Sending (node, service).
        from: (u32, &'static str),
        /// Destination (node, service).
        to: (u32, &'static str),
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message reached its destination service.
    MsgDelivered {
        /// Sending (node, service).
        from: (u32, &'static str),
        /// Destination (node, service).
        to: (u32, &'static str),
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message was dropped because the destination node was down.
    MsgDroppedNodeDown {
        /// Destination node.
        node: u32,
    },
    /// A message was dropped at send time because the link was down.
    MsgDroppedLinkDown {
        /// Sending node.
        from: u32,
        /// Destination node.
        to: u32,
    },
    /// A timer fired.
    TimerFired {
        /// Node the timer belongs to.
        node: u32,
        /// Owning service.
        service: &'static str,
        /// Caller-chosen tag.
        tag: u64,
    },
    /// A node crashed, losing volatile state.
    NodeCrashed {
        /// The crashed node.
        node: u32,
    },
    /// A node recovered and its services were rebuilt.
    NodeRecovered {
        /// The recovered node.
        node: u32,
    },
    /// A link changed state.
    LinkChanged {
        /// One endpoint.
        a: u32,
        /// Other endpoint.
        b: u32,
        /// New state.
        up: bool,
    },
    /// A service handled a failure, reported through [`crate::Ctx::failure`],
    /// which also counted it under `counter` (with the trace on or off).
    Failure {
        /// Node the failure was handled on.
        node: u32,
        /// The counter the failure was counted under; it names the kind.
        counter: Counter,
        /// What failed, in words.
        detail: String,
    },
}

/// A trace record with its virtual timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Bounded in-memory event trace.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    cap: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl Trace {
    /// Creates a trace; `enabled = false` makes all recording free.
    pub fn new(enabled: bool, cap: usize) -> Self {
        Trace {
            enabled,
            cap,
            records: Vec::new(),
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, at: SimTime, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord { at, kind });
    }

    /// All records captured so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records that did not fit under the cap: a trace with any
    /// is not the whole run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A shard's records since the world last merged them, each tagged with the
/// `(origin, seq)` of the event that produced it. The buffer is drained at
/// every merge and keeps its capacity, so it grows only to the most records
/// one run between merges produces; the world's [`Trace`] applies the cap.
#[derive(Debug)]
pub(crate) struct ShardTrace {
    enabled: bool,
    /// `(origin, seq)` of the event being processed.
    event: (u64, u64),
    records: Vec<(u64, u64, TraceRecord)>,
}

impl ShardTrace {
    pub(crate) fn new(enabled: bool) -> Self {
        ShardTrace {
            enabled,
            event: (0, 0),
            records: Vec::new(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the records that follow with the key of the event `key`.
    pub(crate) fn begin_event(&mut self, (_, origin, seq): EventKey) {
        self.event = (origin, seq);
    }

    pub(crate) fn record(&mut self, at: SimTime, kind: TraceKind) {
        if self.enabled {
            let (origin, seq) = self.event;
            self.records.push((origin, seq, TraceRecord { at, kind }));
        }
    }

    /// Every record since the last drain, in the order they were made.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, u64, TraceRecord)> + '_ {
        self.records.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, 10);
        t.record(SimTime::ZERO, TraceKind::NodeCrashed { node: 1 });
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
        let mut s = ShardTrace::new(false);
        s.record(SimTime::ZERO, TraceKind::NodeCrashed { node: 1 });
        assert_eq!(s.drain().count(), 0);
    }

    #[test]
    fn cap_is_enforced() {
        let mut t = Trace::new(true, 2);
        for i in 0..5 {
            t.record(
                SimTime::from_micros(i),
                TraceKind::NodeCrashed { node: i as u32 },
            );
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }
}
