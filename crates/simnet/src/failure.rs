//! Failure injection: pre-planned node crashes and link outages.
//!
//! The paper's correctness argument (§4.3) assumes *non-lasting* node and
//! network crashes: every crashed node eventually recovers and every link
//! eventually heals. [`FailurePlan::install`] pre-schedules such a failure
//! pattern deterministically from the world's seed, so experiments can sweep
//! failure rates while staying reproducible.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::world::World;

/// A randomized (but deterministic) failure schedule.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    /// Mean time between failures of each node (exponential). `None`
    /// disables node crashes.
    pub node_mtbf: Option<SimDuration>,
    /// Mean time to repair a crashed node (exponential).
    pub node_mttr: SimDuration,
    /// Mean time between failures of each sampled link. `None` disables
    /// link outages.
    pub link_mtbf: Option<SimDuration>,
    /// Mean time to heal a failed link (exponential).
    pub link_mttr: SimDuration,
    /// Horizon up to which failures are planned. Repairs scheduled past the
    /// horizon still run, so no failure is permanent.
    pub horizon: SimDuration,
    /// Nodes subject to failures; empty means "all current nodes".
    pub targets: Vec<NodeId>,
}

impl Default for FailurePlan {
    fn default() -> Self {
        FailurePlan {
            node_mtbf: Some(SimDuration::from_secs(60)),
            node_mttr: SimDuration::from_secs(2),
            link_mtbf: None,
            link_mttr: SimDuration::from_secs(1),
            horizon: SimDuration::from_secs(600),
            targets: Vec::new(),
        }
    }
}

impl FailurePlan {
    /// A plan with no failures at all (useful as a baseline).
    pub fn none() -> Self {
        FailurePlan {
            node_mtbf: None,
            link_mtbf: None,
            ..FailurePlan::default()
        }
    }

    /// Returns the number of scheduled (crash, outage) events after
    /// installing this plan into `world`.
    pub fn install(&self, world: &mut World) -> (u32, u32) {
        let mut rng = world.rng_fork(0xFA11_0BAD);
        let targets: Vec<NodeId> = if self.targets.is_empty() {
            world.node_ids()
        } else {
            self.targets.clone()
        };
        let mut crashes = 0;
        let mut outages = 0;

        if let Some(mtbf) = self.node_mtbf {
            for &node in &targets {
                let mut t = SimTime::ZERO;
                loop {
                    t += SimDuration::from_secs_f64(rng.exp(mtbf.as_secs_f64()));
                    if t.since(SimTime::ZERO) >= self.horizon {
                        break;
                    }
                    world.schedule_crash(t, node);
                    crashes += 1;
                    let repair =
                        SimDuration::from_secs_f64(rng.exp(self.node_mttr.as_secs_f64()).max(1e-6));
                    t += repair;
                    world.schedule_recover(t, node);
                }
            }
        }

        if let Some(mtbf) = self.link_mtbf {
            // Sample outages for each unordered pair of targets.
            for (i, &a) in targets.iter().enumerate() {
                for &b in targets.iter().skip(i + 1) {
                    let mut t = SimTime::ZERO;
                    loop {
                        t += SimDuration::from_secs_f64(rng.exp(mtbf.as_secs_f64()));
                        if t.since(SimTime::ZERO) >= self.horizon {
                            break;
                        }
                        world.schedule_link(t, a, b, false);
                        outages += 1;
                        let heal = SimDuration::from_secs_f64(
                            rng.exp(self.link_mttr.as_secs_f64()).max(1e-6),
                        );
                        t += heal;
                        world.schedule_link(t, a, b, true);
                    }
                }
            }
        }

        (crashes, outages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::kernel as keys;
    use crate::world::WorldConfig;

    fn world_with_nodes(n: u32, seed: u64) -> World {
        let mut w = World::new(WorldConfig::with_seed(seed));
        for _ in 0..n {
            w.add_node();
        }
        w
    }

    #[test]
    fn no_failures_plan_schedules_nothing() {
        let mut w = world_with_nodes(3, 1);
        let (c, o) = FailurePlan::none().install(&mut w);
        assert_eq!((c, o), (0, 0));
        assert_eq!(w.pending_events(), 0);
    }

    #[test]
    fn crashes_always_recover() {
        let mut w = world_with_nodes(4, 2);
        let plan = FailurePlan {
            node_mtbf: Some(SimDuration::from_secs(5)),
            node_mttr: SimDuration::from_millis(500),
            horizon: SimDuration::from_secs(60),
            ..FailurePlan::none()
        };
        let (crashes, _) = plan.install(&mut w);
        assert!(crashes > 0, "expected some crashes in 60s at mtbf 5s");
        w.run_to_quiescence(1_000_000);
        for n in w.node_ids() {
            assert!(
                w.is_up(n),
                "{n} should have recovered (non-lasting crashes)"
            );
        }
        assert_eq!(
            w.metrics().counter(keys::NODE_CRASHES),
            w.metrics().counter(keys::NODE_RECOVERIES)
        );
    }

    #[test]
    fn link_outages_heal() {
        let mut w = world_with_nodes(3, 3);
        let plan = FailurePlan {
            node_mtbf: None,
            link_mtbf: Some(SimDuration::from_secs(5)),
            link_mttr: SimDuration::from_millis(200),
            horizon: SimDuration::from_secs(60),
            ..FailurePlan::none()
        };
        let (_, outages) = plan.install(&mut w);
        assert!(outages > 0);
        w.run_to_quiescence(1_000_000);
        assert_eq!(w.net().down_link_count(), 0, "all links should heal");
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let mut w1 = world_with_nodes(3, 9);
        let mut w2 = world_with_nodes(3, 9);
        let p = FailurePlan::default();
        assert_eq!(p.install(&mut w1), p.install(&mut w2));
        assert_eq!(w1.pending_events(), w2.pending_events());
    }

    #[test]
    fn targets_limit_scope() {
        let mut w = world_with_nodes(5, 4);
        let plan = FailurePlan {
            node_mtbf: Some(SimDuration::from_secs(1)),
            node_mttr: SimDuration::from_millis(10),
            horizon: SimDuration::from_secs(30),
            targets: vec![NodeId(0)],
            ..FailurePlan::none()
        };
        plan.install(&mut w);
        w.run_to_quiescence(1_000_000);
        // Only node 0 was eligible; it must be back up, and crash count > 0.
        assert!(w.is_up(NodeId(0)));
        assert!(w.metrics().counter(keys::NODE_CRASHES) > 0);
    }
}
