//! The context handed to agent step methods, and the resource-access bridge
//! used by compensating operations.

use mar_core::comp::{CompOp, Compensable, EntryKind, ResourceAccess, ResourceOp, WroOp};
use mar_core::{CompError, DataSpace};
use mar_simnet::{NodeId, SimRng, SimTime};
use mar_txn::{OpCtx, RmRegistry, TxnError, TxnId};
use mar_wire::Value;

/// Bridges a node's resource-manager registry into the
/// [`ResourceAccess`] trait that compensating operations run against.
/// All calls execute inside the enclosing (step or compensation)
/// transaction.
pub struct RmAccess<'a> {
    rms: &'a mut RmRegistry,
    txn: TxnId,
    now: SimTime,
}

impl<'a> RmAccess<'a> {
    /// Creates the bridge for one transaction.
    pub fn new(rms: &'a mut RmRegistry, txn: TxnId, now: SimTime) -> Self {
        RmAccess { rms, txn, now }
    }
}

impl ResourceAccess for RmAccess<'_> {
    fn call(&mut self, resource: &str, op: &str, params: &Value) -> Result<Value, CompError> {
        self.rms
            .invoke(
                OpCtx {
                    txn: self.txn,
                    now: self.now,
                },
                resource,
                op,
                params,
            )
            .map_err(|e| CompError::Failed {
                op: format!("{resource}.{op}"),
                reason: e.to_string(),
                // Lock conflicts and drained-funds rejections may succeed on
                // a later attempt; structural errors will not.
                retryable: matches!(e, TxnError::WouldBlock { .. } | TxnError::Rejected { .. }),
            })
    }
}

/// What a step left behind for the runtime: pending compensation entries,
/// whether an explicit savepoint was requested, and any rollback memos.
pub(crate) type StepEffects = (Vec<(EntryKind, CompOp)>, bool, Vec<(String, Value)>);

/// Execution context of one agent step (the paper's step method running
/// inside its step transaction).
pub struct StepCtx<'a> {
    txn: TxnId,
    now: SimTime,
    node: NodeId,
    agent_id: mar_core::AgentId,
    step_seq: u64,
    rms: &'a mut RmRegistry,
    data: &'a mut DataSpace,
    rng: &'a mut SimRng,
    comps: &'a mar_core::comp::CompOpRegistry,
    pending_comps: Vec<(EntryKind, CompOp)>,
    savepoint_requested: bool,
    rollback_memos: Vec<(String, Value)>,
}

impl<'a> StepCtx<'a> {
    /// Builds a step context over explicit registries.
    ///
    /// The platform constructs one per step execution; it is public so
    /// behaviours can be unit-tested against a local [`RmRegistry`] without
    /// standing up a simulated world (see the `typed_ops_props` integration
    /// test for the pattern).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        txn: TxnId,
        now: SimTime,
        node: NodeId,
        agent_id: mar_core::AgentId,
        step_seq: u64,
        rms: &'a mut RmRegistry,
        data: &'a mut DataSpace,
        rng: &'a mut SimRng,
        comps: &'a mar_core::comp::CompOpRegistry,
    ) -> Self {
        StepCtx {
            txn,
            now,
            node,
            agent_id,
            step_seq,
            rms,
            data,
            rng,
            comps,
            pending_comps: Vec::new(),
            savepoint_requested: false,
            rollback_memos: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this step executes on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The agent's id.
    pub fn agent_id(&self) -> mar_core::AgentId {
        self.agent_id
    }

    /// The agent's committed step count (this step's sequence number).
    pub fn step_seq(&self) -> u64 {
        self.step_seq
    }

    /// Deterministic randomness (the world's stream).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Invokes an operation on a local resource inside the step transaction
    /// (§2: "all accesses to local resources are performed within the step
    /// transaction").
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] aborts and retries the step;
    /// [`TxnError::Rejected`] is a business refusal the behaviour may handle
    /// (e.g. by trying another shop) or bubble up to fail the agent.
    pub fn call(&mut self, resource: &str, op: &str, params: &Value) -> Result<Value, TxnError> {
        self.rms.invoke(
            OpCtx {
                txn: self.txn,
                now: self.now,
            },
            resource,
            op,
            params,
        )
    }

    /// Executes a typed, compensable resource operation: the forward call
    /// runs inside the step transaction and — in the same call — the
    /// compensation derived from the op and its result is logged for the
    /// step's rollback-log frame. This is the primary way to touch
    /// resources (§4.4.1's invariant that every forward effect carries its
    /// compensating operation, enforced by the type instead of by
    /// discipline); [`StepCtx::call`] + [`StepCtx::compensate`] remain the
    /// raw escape hatch and produce byte-identical log frames.
    ///
    /// The entry kind is the one the compensation's handler is registered
    /// under, looked up in the platform's registry as the entry is logged.
    ///
    /// # Errors
    ///
    /// Forward-call errors as in [`StepCtx::call`];
    /// [`TxnError::BadRequest`] when the result cannot be decoded or the
    /// derived compensation is not registered (a wiring bug in the typed
    /// op, not a business refusal). Nothing is logged; a step that returns
    /// the error aborts its transaction, the forward call included.
    pub fn invoke<O: Compensable>(&mut self, op: &O) -> Result<O::Output, TxnError> {
        let out = self.query(op)?;
        self.log(op.compensation(&out))?;
        Ok(out)
    }

    /// Executes a typed read-only resource operation — same as
    /// [`StepCtx::invoke`] but nothing is logged (the op type does not
    /// implement [`Compensable`], so there is nothing to compensate).
    ///
    /// # Errors
    ///
    /// As for [`StepCtx::invoke`].
    pub fn query<O: ResourceOp>(&mut self, op: &O) -> Result<O::Output, TxnError> {
        let raw = self.call(op.resource(), op.op(), &op.params())?;
        op.decode(&raw).map_err(|e| {
            TxnError::BadRequest(format!(
                "{}.{}: result decode failed: {e}",
                op.resource(),
                op.op()
            ))
        })
    }

    /// Applies a typed weakly-reversible-object mutation and logs the agent
    /// compensation entry it derives (the ACE analogue of
    /// [`StepCtx::invoke`]): write and undo-entry happen in one call, with
    /// the before-state captured by the op itself.
    ///
    /// # Errors
    ///
    /// [`TxnError::BadRequest`] when the derived compensation is not
    /// registered. Nothing is logged; a step that returns the error aborts,
    /// and its writes to the data space go with it.
    pub fn apply<O: WroOp>(&mut self, op: &O) -> Result<O::Output, TxnError> {
        let (out, comp) = op.apply(self.data);
        self.log(comp)?;
        Ok(out)
    }

    /// The compensation entries collected so far — what the runtime writes
    /// into the rollback log as this step's frame at commit
    /// ([`mar_core::RollbackLog::append_step`]). Exposed for behaviour
    /// harnesses and the typed-vs-raw equivalence tests.
    pub fn pending_compensations(&self) -> &[(EntryKind, CompOp)] {
        &self.pending_comps
    }

    /// The agent's private data space.
    pub fn data(&mut self) -> &mut DataSpace {
        self.data
    }

    /// Reads a strongly reversible object.
    pub fn sro(&self, name: &str) -> Option<&Value> {
        self.data.sro(name)
    }

    /// Writes a strongly reversible object.
    pub fn set_sro(&mut self, name: &str, value: Value) {
        self.data.set_sro(name, value);
    }

    /// Appends to a list-valued strongly reversible object (creating it if
    /// needed) — the paper's "agent collects information and stores it in a
    /// vector" (§4.1).
    pub fn sro_push(&mut self, name: &str, value: Value) {
        match self.data.sro_mut(name) {
            Some(Value::List(items)) => items.push(value),
            _ => self.data.set_sro(name, Value::List(vec![value])),
        }
    }

    /// Reads a weakly reversible object.
    pub fn wro(&self, name: &str) -> Option<&Value> {
        self.data.wro(name)
    }

    /// Writes a weakly reversible object.
    pub fn set_wro(&mut self, name: &str, value: Value) {
        self.data.set_wro(name, value);
    }

    /// Logs a compensating operation for this step, under the entry kind its
    /// handler is registered with. The builders in `mar-resources`
    /// (`comp_*`) produce suitable operations. At commit the runtime writes
    /// the collected entries into the rollback log as one step frame
    /// (`RollbackLog::append_step`), which also derives the EOS mixed flag
    /// (§4.4.1).
    ///
    /// # Errors
    ///
    /// [`TxnError::BadRequest`] if the operation is not registered
    /// (catching a miswired compensation at forward time rather than during
    /// a rollback); nothing is logged.
    pub fn compensate(&mut self, op: CompOp) -> Result<(), TxnError> {
        self.log(op)
    }

    /// Pushes `op` onto the step's pending entries under its registered
    /// kind: the one path [`invoke`](StepCtx::invoke),
    /// [`apply`](StepCtx::apply) and [`compensate`](StepCtx::compensate)
    /// log through.
    fn log(&mut self, op: CompOp) -> Result<(), TxnError> {
        let kind = self.comps.kind_of(&op.name).ok_or_else(|| {
            TxnError::BadRequest(format!("compensation {:?} is not registered", op.name))
        })?;
        self.pending_comps.push((kind, op));
        Ok(())
    }

    /// Requests an (explicit) agent savepoint to be constituted at the end
    /// of this step (§2: savepoints can only be constituted at step ends).
    pub fn request_savepoint(&mut self) {
        self.savepoint_requested = true;
    }

    /// Attaches a weakly reversible object update to a rollback request
    /// made in this step.
    ///
    /// The aborting step transaction is rolled back completely — including
    /// its private-data changes — so a flag set with [`StepCtx::set_wro`]
    /// cannot tell the post-rollback agent *why* it rolled back. Memos are
    /// parameters of the rollback invocation itself (like the savepoint
    /// identifier `spID` in Fig. 4a): they are applied to the agent's
    /// weakly reversible state as part of the rollback-initiating
    /// transaction and survive the rollback (they are not compensated),
    /// letting the agent "deal with the changed situation" (§3.2).
    ///
    /// Memos only take effect if the step returns
    /// [`StepDecision::Rollback`](crate::StepDecision::Rollback).
    pub fn rollback_memo(&mut self, key: impl Into<String>, value: Value) {
        self.rollback_memos.push((key.into(), value));
    }

    pub(crate) fn into_effects(self) -> StepEffects {
        (
            self.pending_comps,
            self.savepoint_requested,
            self.rollback_memos,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_core::comp::CompOpRegistry;
    use mar_core::AgentId;

    fn with_ctx<R>(f: impl for<'a> FnOnce(StepCtx<'a>) -> R) -> R {
        let mut comps = CompOpRegistry::new();
        mar_resources::register_compensations(&mut comps);
        with_ctx_over(&comps, f)
    }

    /// A step context over a one-account bank and the given registry.
    fn with_ctx_over<R>(comps: &CompOpRegistry, f: impl for<'a> FnOnce(StepCtx<'a>) -> R) -> R {
        let mut rms = RmRegistry::new();
        rms.register(Box::new(
            mar_resources::BankRm::new("bank", false).with_account("a", 100),
        ));
        let mut data = DataSpace::new();
        let mut rng = SimRng::seed_from(1);
        let ctx = StepCtx::new(
            TxnId::new(NodeId(0), 1),
            SimTime::ZERO,
            NodeId(0),
            AgentId(1),
            0,
            &mut rms,
            &mut data,
            &mut rng,
            comps,
        );
        f(ctx)
    }

    #[test]
    fn resource_calls_work() {
        with_ctx(|mut ctx| {
            let r = ctx
                .call(
                    "bank",
                    "balance",
                    &Value::map([("account", Value::from("a"))]),
                )
                .unwrap();
            assert_eq!(r.as_i64(), Some(100));
        });
    }

    #[test]
    fn sro_push_creates_and_appends() {
        with_ctx(|mut ctx| {
            ctx.sro_push("notes", Value::from(1i64));
            ctx.sro_push("notes", Value::from(2i64));
            assert_eq!(ctx.sro("notes").unwrap().as_list().unwrap().len(), 2);
        });
    }

    #[test]
    fn an_unregistered_compensation_is_a_bad_request_and_logs_nothing() {
        with_ctx_over(&CompOpRegistry::new(), |mut ctx| {
            let bad = |r: Result<(), TxnError>| matches!(r, Err(TxnError::BadRequest(_)));
            let withdraw = mar_resources::ops::Withdraw::new("bank", "a", 5);
            assert!(bad(ctx.invoke(&withdraw).map(drop)));
            let add = mar_resources::ops::WroAdd::new("counter", 3);
            assert!(bad(ctx.apply(&add).map(drop)));
            assert!(bad(ctx.compensate(CompOp::new("ghost", Value::Null))));
            assert!(ctx.pending_compensations().is_empty());
        });
    }

    #[test]
    fn the_logged_kind_is_the_registered_kind() {
        let mut mixed = CompOpRegistry::new();
        mixed.register("bank.undo_withdraw", EntryKind::Mixed, |_| Ok(()));
        with_ctx_over(&mixed, |mut ctx| {
            ctx.invoke(&mar_resources::ops::Withdraw::new("bank", "a", 5))
                .unwrap();
            assert_eq!(
                ctx.pending_compensations(),
                [(
                    EntryKind::Mixed,
                    mar_resources::comp_undo_withdraw("bank", "a", 5)
                )]
            );
        });
    }

    #[test]
    fn invoke_executes_and_logs_in_one_call() {
        with_ctx(|mut ctx| {
            let op = mar_resources::ops::Withdraw::new("bank", "a", 30);
            let balance = ctx.invoke(&op).unwrap();
            assert_eq!(balance, 70);
            // The derived compensation is pending for the step frame and is
            // identical to the raw builder's entry.
            let (pending, _, _) = ctx.into_effects();
            assert_eq!(
                pending,
                vec![(
                    EntryKind::Resource,
                    mar_resources::comp_undo_withdraw("bank", "a", 30)
                )]
            );
        });
    }

    #[test]
    fn query_logs_nothing() {
        with_ctx(|mut ctx| {
            let balance = ctx
                .query(&mar_resources::ops::Balance::new("bank", "a"))
                .unwrap();
            assert_eq!(balance, 100);
            let (pending, _, _) = ctx.into_effects();
            assert!(pending.is_empty());
        });
    }

    #[test]
    fn apply_mutates_wro_and_derives_ace() {
        with_ctx(|mut ctx| {
            let n = ctx
                .apply(&mar_resources::ops::WroAdd::new("counter", 3))
                .unwrap();
            assert_eq!(n, 3);
            assert_eq!(ctx.wro("counter").and_then(Value::as_i64), Some(3));
            let (pending, _, _) = ctx.into_effects();
            assert_eq!(
                pending,
                vec![(EntryKind::Agent, mar_resources::comp_wro_add("counter", -3))]
            );
        });
    }

    #[test]
    fn rm_access_classifies_errors() {
        let mut rms = RmRegistry::new();
        rms.register(Box::new(
            mar_resources::BankRm::new("bank", false).with_account("a", 10),
        ));
        let mut acc = RmAccess::new(&mut rms, TxnId::new(NodeId(0), 1), SimTime::ZERO);
        // Rejected (insufficient funds) → retryable.
        let err = acc
            .call(
                "bank",
                "withdraw",
                &Value::map([
                    ("account", Value::from("a")),
                    ("amount", Value::from(99i64)),
                ]),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CompError::Failed {
                retryable: true,
                ..
            }
        ));
        // Structural error → not retryable.
        let err = acc.call("bank", "nope", &Value::Null).unwrap_err();
        assert!(matches!(
            err,
            CompError::Failed {
                retryable: false,
                ..
            }
        ));
    }
}
