//! The registry mapping compensating-operation names to handlers.

use std::collections::BTreeMap;

use crate::comp::access::{CompCtx, ResourceAccess};
use crate::comp::op::{CompOp, EntryKind};
use crate::data::ObjectMap;
use crate::error::CompError;

/// A compensation handler. Handlers are registered code (the "code of one
/// compensating operation" the paper stores in operation entries — our log
/// stores the *name*, mirroring how Mole shipped Java class names rather
/// than bytecode).
pub type CompHandler = Box<dyn Fn(&mut CompCtx<'_>) -> Result<(), CompError> + Send + Sync>;

/// Registry of compensating operations, shared by all nodes of a platform
/// (like a classpath).
#[derive(Default)]
pub struct CompOpRegistry {
    handlers: BTreeMap<String, (EntryKind, CompHandler)>,
}

impl CompOpRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CompOpRegistry::default()
    }

    /// Registers `handler` under `name` with the given entry kind. This is
    /// the one place a compensation's kind is stated: the platform reads it
    /// back with [`kind_of`](CompOpRegistry::kind_of) when it logs an entry.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered (compensation names are a
    /// global namespace; collisions are configuration bugs).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        kind: EntryKind,
        handler: impl Fn(&mut CompCtx<'_>) -> Result<(), CompError> + Send + Sync + 'static,
    ) {
        let name = name.into();
        let prev = self
            .handlers
            .insert(name.clone(), (kind, Box::new(handler)));
        assert!(prev.is_none(), "compensation {name:?} registered twice");
    }

    /// The entry kind declared for `name`.
    pub fn kind_of(&self, name: &str) -> Option<EntryKind> {
        self.handlers.get(name).map(|(k, _)| *k)
    }

    /// Registered operation names.
    pub fn names(&self) -> Vec<&str> {
        self.handlers.keys().map(String::as_str).collect()
    }

    /// Executes a compensating operation, wiring up exactly the accesses its
    /// entry kind permits:
    ///
    /// * `Resource` → resources only,
    /// * `Agent` → weakly reversible objects only,
    /// * `Mixed` → both.
    ///
    /// # Errors
    ///
    /// [`CompError::Unregistered`] for unknown names; handler errors
    /// otherwise (including [`CompError::AccessViolation`] if the handler
    /// oversteps its kind).
    pub fn execute<'a>(
        &self,
        op: &'a CompOp,
        now_micros: u64,
        mut resources: Option<&'a mut dyn ResourceAccess>,
        mut wro: Option<&'a mut ObjectMap>,
    ) -> Result<(), CompError> {
        let (kind, handler) = self
            .handlers
            .get(&op.name)
            .ok_or_else(|| CompError::Unregistered(op.name.clone()))?;
        let (res_access, wro_access): (
            Option<&'a mut dyn ResourceAccess>,
            Option<&'a mut ObjectMap>,
        ) = match kind {
            EntryKind::Resource => (resources.take(), None),
            EntryKind::Agent => (None, wro.take()),
            EntryKind::Mixed => (resources.take(), wro.take()),
        };
        if matches!(kind, EntryKind::Resource | EntryKind::Mixed) && res_access.is_none() {
            return Err(CompError::Failed {
                op: op.name.clone(),
                reason: "resource access required but not available here".to_owned(),
                retryable: false,
            });
        }
        if matches!(kind, EntryKind::Agent | EntryKind::Mixed) && wro_access.is_none() {
            return Err(CompError::Failed {
                op: op.name.clone(),
                reason: "agent state required but not available here".to_owned(),
                retryable: false,
            });
        }
        let mut ctx = CompCtx::new(&op.name, &op.params, now_micros, res_access, wro_access);
        handler(&mut ctx)
    }
}

impl std::fmt::Debug for CompOpRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompOpRegistry")
            .field("ops", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_wire::Value;

    struct Recorder {
        calls: Vec<(String, String)>,
    }

    impl ResourceAccess for Recorder {
        fn call(&mut self, r: &str, o: &str, _p: &Value) -> Result<Value, CompError> {
            self.calls.push((r.to_owned(), o.to_owned()));
            Ok(Value::Null)
        }
    }

    fn registry() -> CompOpRegistry {
        let mut reg = CompOpRegistry::new();
        reg.register("refund", EntryKind::Resource, |ctx| {
            let amount = ctx.param_i64("amount")?;
            ctx.resources()?
                .call("bank", "deposit", &Value::from(amount))?;
            Ok(())
        });
        reg.register("restore_wallet", EntryKind::Agent, |ctx| {
            let amount = ctx.param_i64("amount")?;
            ctx.wro()?.insert("wallet".into(), Value::from(amount));
            Ok(())
        });
        reg.register("exchange_back", EntryKind::Mixed, |ctx| {
            let amount = ctx.param_i64("amount")?;
            ctx.resources()?
                .call("exchange", "convert", &Value::from(amount))?;
            ctx.wro()?.insert("wallet".into(), Value::from(amount));
            Ok(())
        });
        // A buggy RCE that illegally touches agent state.
        reg.register("bad_rce", EntryKind::Resource, |ctx| {
            ctx.wro()?.insert("x".into(), Value::Null);
            Ok(())
        });
        reg
    }

    #[test]
    fn rce_runs_with_resources_only() {
        let reg = registry();
        let mut rec = Recorder { calls: vec![] };
        let op = CompOp::new("refund", Value::map([("amount", Value::from(5i64))]));
        reg.execute(&op, 0, Some(&mut rec), None).unwrap();
        assert_eq!(rec.calls, [("bank".to_owned(), "deposit".to_owned())]);
    }

    #[test]
    fn ace_runs_with_wro_only() {
        let reg = registry();
        let mut wro = ObjectMap::new();
        let op = CompOp::new(
            "restore_wallet",
            Value::map([("amount", Value::from(7i64))]),
        );
        reg.execute(&op, 0, None, Some(&mut wro)).unwrap();
        assert_eq!(wro.get("wallet").and_then(Value::as_i64), Some(7));
    }

    #[test]
    fn mce_needs_both() {
        let reg = registry();
        let mut rec = Recorder { calls: vec![] };
        let mut wro = ObjectMap::new();
        let op = CompOp::new("exchange_back", Value::map([("amount", Value::from(3i64))]));
        reg.execute(&op, 0, Some(&mut rec), Some(&mut wro)).unwrap();
        assert_eq!(rec.calls.len(), 1);
        assert_eq!(wro.get("wallet").and_then(Value::as_i64), Some(3));
        // Missing either access is a (non-retryable) failure.
        let err = reg.execute(&op, 0, None, Some(&mut wro)).unwrap_err();
        assert!(matches!(
            err,
            CompError::Failed {
                retryable: false,
                ..
            }
        ));
    }

    #[test]
    fn rce_touching_agent_state_is_violation() {
        let reg = registry();
        let mut rec = Recorder { calls: vec![] };
        let mut wro = ObjectMap::new();
        let op = CompOp::new("bad_rce", Value::Null);
        // Even though a WRO map is *offered*, the kind strips it.
        let err = reg
            .execute(&op, 0, Some(&mut rec), Some(&mut wro))
            .unwrap_err();
        assert!(matches!(
            err,
            CompError::AccessViolation {
                tried: "agent state",
                ..
            }
        ));
    }

    #[test]
    fn unregistered_name() {
        let reg = registry();
        let op = CompOp::new("nope", Value::Null);
        assert!(matches!(
            reg.execute(&op, 0, None, None),
            Err(CompError::Unregistered(_))
        ));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut reg = registry();
        reg.register("refund", EntryKind::Resource, |_| Ok(()));
    }

    #[test]
    fn kinds_are_queryable() {
        let reg = registry();
        assert_eq!(reg.kind_of("refund"), Some(EntryKind::Resource));
        assert_eq!(reg.kind_of("restore_wallet"), Some(EntryKind::Agent));
        assert_eq!(reg.kind_of("exchange_back"), Some(EntryKind::Mixed));
        assert_eq!(reg.kind_of("nope"), None);
    }
}
