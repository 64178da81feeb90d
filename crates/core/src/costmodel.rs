//! Migration-vs-RPC cost model, after Straßer & Schwehm \[16\].
//!
//! §4.4.1 notes that when compensating operations can also reach resources
//! via RPC, a performance model "similar to that introduced in \[16\]" decides
//! whether the agent (or an RCE list) should be transferred to the resource
//! node or the resource accessed remotely. This module implements that
//! decision for the simulator's latency model.

use serde::{Deserialize, Serialize};

/// Link parameters mirroring `mar-simnet`'s latency model: a fixed cost
/// per message plus a per-kilobyte cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Fixed one-way message cost in microseconds.
    pub base_us: u64,
    /// Additional cost per 1024 payload bytes, in microseconds.
    pub per_kb_us: u64,
}

impl LinkParams {
    /// The LAN link of `mar-simnet`'s `LatencyModel::lan()` (the default).
    pub const LAN: LinkParams = LinkParams {
        base_us: 1_000,
        per_kb_us: 100,
    };

    /// One-way latency for a message of `bytes` payload bytes.
    pub fn message_us(&self, bytes: usize) -> u64 {
        self.base_us + self.per_kb_us * (bytes as u64) / 1024
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::LAN
    }
}

/// The migration-vs-RPC decision model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostModel {
    /// Link parameters used for both migration and RPC traffic.
    pub link: LinkParams,
}

impl CostModel {
    /// Creates a model over the given link.
    pub fn new(link: LinkParams) -> Self {
        CostModel { link }
    }

    /// Cost of migrating the agent (with its rollback log) to the resource
    /// node, performing `n_ops` local interactions (assumed free), and
    /// migrating back. `round_trip = false` models one-way moves — e.g. the
    /// backward walk of the basic rollback, which continues from the
    /// destination instead of returning.
    pub fn migration_us(&self, agent_bytes: usize, log_bytes: usize, round_trip: bool) -> u64 {
        let one_way = self.link.message_us(agent_bytes + log_bytes);
        if round_trip {
            one_way * 2
        } else {
            one_way
        }
    }

    /// Cost of performing `n_ops` interactions via RPC: one request/response
    /// pair per operation.
    pub fn rpc_us(&self, n_ops: usize, req_bytes: usize, resp_bytes: usize) -> u64 {
        (n_ops as u64) * (self.link.message_us(req_bytes) + self.link.message_us(resp_bytes))
    }

    /// `true` when migrating beats RPC for this interaction pattern.
    pub fn prefer_migration(
        &self,
        agent_bytes: usize,
        log_bytes: usize,
        round_trip: bool,
        n_ops: usize,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> bool {
        self.migration_us(agent_bytes, log_bytes, round_trip)
            < self.rpc_us(n_ops, req_bytes, resp_bytes)
    }

    /// Whether a pre-transfer log compaction pass can pay for itself on
    /// this link: the pass can shave at most `candidate_bytes` (the log's
    /// savepoint payload bytes — step frames are never touched) off the
    /// wire, each worth [`LinkParams::per_kb_us`], against a CPU cost of a
    /// small fixed setup plus `cpu_us_per_kb` per payload kilobyte scanned.
    /// Sub-kilobyte payloads round to zero wire savings and are always
    /// skipped — there is nothing worth saving; a free link
    /// (`per_kb_us == 0`) never pays.
    pub fn compaction_pays(&self, candidate_bytes: usize, cpu_us_per_kb: u64) -> bool {
        /// Setup cost of one pass (state reconstruction buffers, the
        /// oldest→newest walk scaffolding), in microseconds.
        const PASS_BASE_US: u64 = 2;
        let kb = (candidate_bytes as u64) / 1024;
        self.link.per_kb_us * kb > PASS_BASE_US + cpu_us_per_kb * kb
    }

    /// The smallest number of operations at which migration becomes cheaper
    /// than RPC (the crossover point of the \[16\]-style model), or `None` if
    /// RPC always wins (zero-cost RPC is impossible, so this only happens
    /// with degenerate parameters).
    pub fn crossover_ops(
        &self,
        agent_bytes: usize,
        log_bytes: usize,
        round_trip: bool,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Option<u64> {
        let mig = self.migration_us(agent_bytes, log_bytes, round_trip);
        let per_op = self.link.message_us(req_bytes) + self.link.message_us(resp_bytes);
        if per_op == 0 {
            return None;
        }
        Some(mig / per_op + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(LinkParams {
            base_us: 1_000,
            per_kb_us: 100,
        })
    }

    #[test]
    fn message_cost_scales_with_size() {
        let m = model();
        assert_eq!(m.link.message_us(0), 1_000);
        assert_eq!(m.link.message_us(10 * 1024), 2_000);
    }

    #[test]
    fn few_ops_prefer_rpc_many_prefer_migration() {
        let m = model();
        // Small interaction, huge agent: RPC wins.
        assert!(!m.prefer_migration(100_000, 50_000, true, 1, 100, 100));
        // Many ops against a small agent: migration wins.
        assert!(m.prefer_migration(2_000, 500, true, 50, 100, 100));
    }

    #[test]
    fn crossover_is_consistent_with_preference() {
        let m = model();
        let (agent, log, req, resp) = (20_000, 10_000, 200, 400);
        let k = m.crossover_ops(agent, log, true, req, resp).unwrap();
        assert!(
            m.prefer_migration(agent, log, true, k as usize, req, resp),
            "at the crossover migration must win"
        );
        assert!(
            !m.prefer_migration(agent, log, true, (k - 1) as usize, req, resp),
            "below the crossover RPC must win"
        );
    }

    #[test]
    fn log_size_pushes_crossover_up() {
        let m = model();
        let small = m.crossover_ops(10_000, 0, true, 100, 100).unwrap();
        let large = m.crossover_ops(10_000, 100_000, true, 100, 100).unwrap();
        assert!(
            large > small,
            "a bigger rollback log must make migration less attractive ({small} vs {large})"
        );
    }

    #[test]
    fn compaction_gate_follows_link_and_payload_size() {
        let m = model();
        // 32 KiB of savepoint payload on a LAN: the pass pays easily.
        assert!(m.compaction_pays(32 * 1024, 1));
        // Tiny payloads round to zero wire savings: skip.
        assert!(!m.compaction_pays(512, 1));
        // A free link can never be paid for.
        let free = CostModel::new(LinkParams {
            base_us: 1_000,
            per_kb_us: 0,
        });
        assert!(!free.compaction_pays(1 << 20, 1));
        // CPU slower than the wire: skip.
        assert!(!m.compaction_pays(32 * 1024, 1_000));
    }

    #[test]
    fn one_way_migration_is_half() {
        let m = model();
        assert_eq!(
            m.migration_us(1024, 0, true),
            2 * m.migration_us(1024, 0, false)
        );
    }
}
